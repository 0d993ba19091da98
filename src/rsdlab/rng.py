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
``start + s`` owns the 64-bit lane in the low half of the 128-bit slot ``s``.
Masking with ``& lane`` (all-ones in every lane) after each shift-xor and
before each multiply keeps every product of a lane and a 64-bit constant
inside its slot, so the packed arithmetic is the scalar arithmetic on every
lane at once.  It yields one packed int of draws per position.  Every
sampled run reads them through :func:`rsdlab.sd.sd_total`, which takes each
batch on one of two paths: on lanes it shuffles the draws on bit planes,
and on the scalar loop ``run_permutations`` reads them out as 64-bit words
and swaps each sample's ordering.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB
_CHUNK = 1024  # lanes per packed chunk; the speed is flat from 512 to 8192


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
def _lanes(count: int) -> tuple[int, int, int]:
    """``(ones, lane, ramp)`` for ``count`` lanes: a 1, the 64-bit mask and
    the slot's index at the bottom of every 128-bit slot."""
    ones = ((1 << (128 * count)) - 1) // ((1 << 128) - 1)
    ramp = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(count)), "little")
    return ones, ones * _MASK64, ramp


def _mix_lanes(z: int, lane: int) -> int:
    """``mix64`` on every lane of ``z``."""
    z = ((z ^ (z >> 30)) & lane) * _MIX_MUL1 & lane
    z = ((z ^ (z >> 27)) & lane) * _MIX_MUL2 & lane
    return (z ^ (z >> 31)) & lane


def _words(z: int, count: int) -> memoryview:
    """The ``count`` lanes of ``z`` as native 64-bit words, in lane order."""
    words = memoryview(z.to_bytes(16 * count, sys.byteorder)).cast("Q")
    # little-endian: slot i is words 2i (its lane) and 2i + 1; big-endian
    # puts the last slot first and each slot's lane second
    return words[::2] if sys.byteorder == "little" else words[::-2]


def packed_draws(seed: int, run: int, start: int, count: int, n: int) -> Iterator[int]:
    """The draws of samples ``start .. start + count - 1`` of ``(seed, run)``,
    one position at a time: for ``i`` from ``n - 1`` down to ``1``, one packed
    int whose lane ``s`` is the draw ``below(i + 1)`` of sample ``start + s``."""
    ones, lane, ramp = _lanes(count)
    step = _GOLDEN * ones
    state = _mix_lanes(((_run_state(seed, run) + start) * ones + ramp) & lane, lane)
    for i in range(n - 1, 0, -1):
        state = (state + step) & lane
        yield (_mix_lanes(state, lane) * (i + 1)) >> 64 & lane


def run_permutations(seed: int, run: int, k: int, n: int, start: int = 0) -> Iterator[list[int]]:
    """``substream(seed, run, i).permutation(n)`` for ``i`` in
    ``range(start, start + k)``, in that order, drawn ``_CHUNK`` samples at a
    time on packed lanes."""
    identity = list(range(n))
    positions = range(n - 1, 0, -1)
    if n < 2:  # no draws
        for _ in range(k):
            yield identity[:]
        return
    for first in range(start, start + k, _CHUNK):
        count = min(_CHUNK, start + k - first)
        for js in zip(*[_words(d, count) for d in packed_draws(seed, run, first, count, n)]):
            items = identity[:]
            for i, j in zip(positions, js):
                items[i], items[j] = items[j], items[i]
            yield items


def derive_seed(master_seed: int, trial: int) -> int:
    """Per-trial 64-bit seed derived from a master seed."""
    return mix64(mix64(master_seed) ^ mix64(trial + _GOLDEN))
