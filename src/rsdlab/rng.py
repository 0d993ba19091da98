"""Deterministic pseudo-random machinery shared by every sampling path.

All randomness in this package comes from one documented 64-bit generator so
that results reproduce bit-for-bit across platforms, repeated runs, and any
partitioning of the samples:

* ``mix64`` is the SplitMix64 output function (Stafford "variant 13"
  finalizer), a bijection on 64-bit words.
* ``SplitMix64`` steps a 64-bit counter by the golden-ratio increment
  0x9E3779B97F4A7C15 and finalizes each step with ``mix64``.
* Bounded draws use the multiply-shift reduction ``(u * bound) >> 64`` on a
  fresh 64-bit word ``u``.  The reduction consumes exactly one word per draw
  (no rejection loop, so the number of words per sample is fixed) and its
  bias is below ``bound / 2**64``, unobservable at the sample counts this
  package targets.
* ``substream(seed, run, index)`` derives an independent generator for one
  (run, sample) cell, so sample ``index`` of run ``run`` is the same no
  matter in which chunk or order it is computed.

Permutations are drawn with the decreasing-index Fisher-Yates shuffle, one
bounded draw per position from ``n - 1`` down to ``1``.

``SplitMix64``, ``substream`` and ``permutation`` are the scalar reference.
``packed_draws(seed, run, start, count, n)`` runs the generators of samples
``start .. start + count - 1`` at once, packed into one Python int: sample
``start + s`` owns the 128-bit slot ``s``, its 64-bit state in the low half.
Masking with ``& lane`` (all-ones in the low half of every slot) after each
shift-xor and before each multiply keeps every product of a lane and a
64-bit constant inside its slot, so the packed arithmetic is the scalar
arithmetic on every lane at once.  ``packed_draws`` takes every constant
that depends on the batch size alone, its golden-ratio step included, from
``_lanes``, which builds them once per size; only the seeded base is
computed per call.  It yields one packed int per position, the products
``u * (i + 1)`` left as the multiply leaves them: each is below
``2**64 * (i + 1)``, so it stays inside its own slot and the draw
``(u * (i + 1)) >> 64`` is the slot's high 64-bit word, with no shift.
:func:`rsdlab.sd.sd_total` reads them: on lanes each draw's low byte, eight
positions per conversion to bytes, shuffled on bit planes, and on the scalar
loop as 64-bit words by ``_words``, the one reader of high words.
``SplitMix64.below_many(bound, count)`` is ``count`` calls of ``below`` on
such slots, lane k from the state ``s + (k + 1) * golden``, read by
``_words``; a bound past ``2**64`` would spill its slot, and takes the
scalar loop.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB

SLOT_BYTES = 16  # one slot of packed_draws: a 64-bit lane, and the high word where its product with a bound leaves the draw


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit mixing of ``z``."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential 64-bit generator with fixed cross-platform output."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform draw in ``[0, bound)`` via one multiply-shift reduction."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * bound) >> 64

    def below_many(self, bound: int, count: int) -> list[int]:
        """``[self.below(bound) for _ in range(count)]``, its words mixed at
        once on packed lanes, as the module docstring says."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 1 << 64 or count < 1:
            return [self.below(bound) for _ in range(count)]
        ones, lane, ramp, _, _ = _lanes(count)
        state = (self._state * ones + (ramp + ones) * _GOLDEN) & lane
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return _words(_mix_lanes(state, lane) * bound, count).tolist()

    def permutation(self, n: int) -> list[int]:
        """Uniform permutation of ``range(n)`` (decreasing-index shuffle)."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = (self.next_u64() * (i + 1)) >> 64  # below(i + 1), inlined
            items[i], items[j] = items[j], items[i]
        return items


def _run_state(seed: int, run: int) -> int:
    return mix64(mix64(seed) + run)


def substream(seed: int, run: int, index: int) -> SplitMix64:
    """Generator for sample ``index`` of run ``run`` under ``seed``.

    The initial state is ``mix64(mix64(mix64(seed) + run) + index)``; since
    ``mix64`` is a bijection, distinct runs and indices yield structurally
    distinct states.
    """
    return SplitMix64(mix64(_run_state(seed, run) + index))


@lru_cache(maxsize=8)  # rebuilding them for every lane batch or scalar chunk costs about 30% of an n=6 estimate
def _lanes(count: int) -> tuple[int, int, int, int, int]:
    """``(ones, lane, ramp, draw_byte, step)`` for ``count`` lanes, each an
    int of ``count`` 128-bit slots that depends on ``count`` alone:

    * ``ones``: a 1 at the bottom of every slot;
    * ``lane``: the 64-bit mask in the low half of every slot;
    * ``ramp``: the slot's index in the low half of every slot;
    * ``draw_byte``: 0xFF at byte 8 of every slot, where a draw below 256 sits;
    * ``step``: the golden-ratio increment in the low half of every slot,
      zero above, which :func:`packed_draws` adds at every position.

    The cache holds at most 8 batch sizes, five ints of ``16 * count`` bytes
    each."""
    bits = 8 * SLOT_BYTES
    ones = ((1 << (bits * count)) - 1) // ((1 << bits) - 1)
    ramp, unit, width = 0, 1, 1  # the indices of `width` slots and a 1 in each, doubled until they cover count
    while width < count:
        ramp += (ramp + width * unit) << bits * width
        unit += unit << bits * width
        width *= 2
    return ones, ones * _MASK64, ramp & ((1 << bits * count) - 1), ones * 0xFF << 64, ones * _GOLDEN


def _mix_lanes(z: int, lane: int) -> int:
    """``mix64`` on every lane of ``z``."""
    z = ((z ^ (z >> 30)) & lane) * _MIX_MUL1 & lane
    z = ((z ^ (z >> 27)) & lane) * _MIX_MUL2 & lane
    return (z ^ (z >> 31)) & lane


def _words(z: int, count: int) -> memoryview:
    """The draws in the ``count`` slots of ``z`` as native 64-bit words, in
    lane order: the high word of each 128-bit slot."""
    words = memoryview(z.to_bytes(SLOT_BYTES * count, sys.byteorder)).cast("Q")
    # little-endian: slot i is words 2i and 2i + 1 (its draw); big-endian
    # puts the last slot first and each slot's draw first
    return words[1::2] if sys.byteorder == "little" else words[-2::-2]


def packed_draws(seed: int, run: int, start: int, count: int, n: int) -> Iterator[int]:
    """The draws of samples ``start .. start + count - 1`` of ``(seed, run)``,
    one position at a time: for ``i`` from ``n - 1`` down to ``1``, one packed
    int whose slot ``s`` holds the 128-bit product ``u * (i + 1)`` of sample
    ``start + s``'s word ``u``, so its high 64-bit word is the draw
    ``below(i + 1)``."""
    ones, lane, ramp, _, step = _lanes(count)
    state = _mix_lanes(((_run_state(seed, run) + start) * ones + ramp) & lane, lane)
    for i in range(n - 1, 0, -1):
        state = (state + step) & lane
        yield _mix_lanes(state, lane) * (i + 1)


def derive_seed(master_seed: int, trial: int) -> int:
    """Per-trial 64-bit seed derived from a master seed."""
    return mix64(mix64(master_seed) ^ mix64(trial + _GOLDEN))
