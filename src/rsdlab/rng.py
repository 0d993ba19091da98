"""Deterministic pseudo-random machinery shared by every sampling path.

All randomness in this package comes from one documented 64-bit generator so
that results reproduce bit-for-bit across platforms, repeated runs, and any
partitioning of the work among workers:

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
  matter which worker computes it or in which order.
  ``run_substreams(seed, run, k)`` yields the first ``k`` of them in index
  order, mixing the run's part of the state once instead of ``k`` times.

Permutations are drawn with the decreasing-index Fisher-Yates shuffle, one
bounded draw per position from ``n - 1`` down to ``1``.
"""

from __future__ import annotations

from collections.abc import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB


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


def run_substreams(seed: int, run: int, k: int) -> Iterator[SplitMix64]:
    """``substream(seed, run, i)`` for ``i`` in ``range(k)``, in that order."""
    base = _run_state(seed, run)
    for i in range(k):
        yield SplitMix64(mix64(base + i))


def derive_seed(master_seed: int, trial: int) -> int:
    """Per-trial 64-bit seed derived from a master seed."""
    return mix64(mix64(master_seed) ^ mix64(trial + _GOLDEN))
