"""Serial dictatorship: run the mechanism and score its matchings.

Agents act in the given order; each takes its most preferred item still
available, with ties resolved in favour of the minimum item index.  The
mechanism is deterministic given the instance and the ordering; uniformly
random orderings are drawn from the package's documented generator.
:func:`sd_total` scores the orderings ``substream(seed, run, i).permutation(n)``
of a run, and reads their draws packed (:func:`rsdlab.rng.packed_draws`),
each the high 64-bit word of its sample's 128-bit slot, on one of two paths:
on lanes, as bit planes, from one byte array per eight positions, or on the
scalar loop, as 64-bit words :data:`_CHUNK` samples at a time.  No other
module reads them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import getitem

from .core import AssignmentInstance, Matching, Objective, Ordering, preference_rows
from .rng import SLOT_BYTES, SplitMix64, _lanes, _words, packed_draws

LANES = 4096
"""Samples :func:`sd_total` runs at once on lanes, one bit of a Python int
each: 1,024 measured 20-40% slower from n = 20 to 100, and 16,384 no more
than a few percent faster.  A batch runs on lanes only at n <=
:data:`LANES_MAX_N` and with at least 1.5 n b samples, b the bits of an
agent index: the lane shuffle costs about n² b bit-set operations per batch
and the scalar :func:`sd_assign` loop about n steps per sample, and the two
measured even near that floor (54 samples at n = 9, 1,050 at n = 100)."""

LANES_MAX_N = 192
"""Largest n run on lanes: a full batch took 0.94 of the scalar loop's time
at n = 192, but 1.16 at n = 256."""

_CHUNK = 1024  # samples per packed chunk of the scalar loop; the speed is flat from 512 to 8192

# _BIT_DIGITS[b] maps each byte to b"1" if its bit b is set, else to b"0"
_BIT_DIGITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))


def sd_assign(prefs: tuple[tuple[int, ...], ...], order: tuple[int, ...] | list[int]) -> list[int]:
    """0-indexed core: ``order`` are agents, result[a] is agent a's item."""
    n = len(prefs)
    taken = bytearray(n)
    match = [0] * n
    for a in order:
        for g in prefs[a]:
            if not taken[g]:
                taken[g] = 1
                match[a] = g
                break
    return match


def _split(planes: list[int], mask: int, limit: int) -> list[int]:
    """The lanes of ``mask`` split by the number their bits in ``planes``
    spell (plane b holds bit b): entry v holds the lanes that read v, for
    every v below ``limit``; lanes that read ``limit`` or more are dropped."""
    sets = [mask]
    for b in range(len(planes) - 1, -1, -1):
        plane = planes[b]
        clear = mask ^ plane
        sets = [part for lanes in sets for part in (lanes & clear, lanes & plane)]
        del sets[(limit + (1 << b) - 1) >> b:]
    return sets


def _shuffled_planes(draws: Iterable[int], count: int, n: int) -> list[list[int]]:
    """The decreasing-index Fisher-Yates shuffle of ``range(n)`` on ``count``
    lanes at once, from :func:`rsdlab.rng.packed_draws`: entry ``[b][p]``
    holds bit b of the agent at position p, sample s in bit ``count - 1 - s``.
    Each group of up to eight positions converts to bytes once: the ``p``-th
    position's draw bytes (byte 8 of each slot, so n <= 256) move down ``p``
    bytes, and its column is the byte slice ``raw[8 - p::16]``.  Position i
    splits its lanes by draw and swaps with each position v in the lanes
    that drew v.
    """
    mask = (1 << count) - 1
    draw_byte = _lanes(count)[3]
    planes = [[mask if p >> b & 1 else 0 for p in range(n)] for b in range((n - 1).bit_length())]
    draws = iter(draws)
    for top in range(n - 1, 0, -8):
        group = range(top, max(top - 8, 0), -1)
        grouped = 0
        for p, packed in enumerate(islice(draws, len(group))):
            grouped |= (packed & draw_byte) >> 8 * p
        raw = grouped.to_bytes(SLOT_BYTES * count, "little")
        for p, i in enumerate(group):
            column = raw[8 - p::SLOT_BYTES]
            drew = _split([int(column.translate(_BIT_DIGITS[b]), 2) for b in range(i.bit_length())], mask, i)
            for plane in planes:
                at = plane[i]
                for v, lanes in enumerate(drew):
                    x = (at ^ plane[v]) & lanes
                    at ^= x
                    plane[v] ^= x
                plane[i] = at
    return planes


def _lane_total(prefs: tuple[tuple[int, ...], ...], scaled: Sequence[Sequence[int]], planes: list[list[int]], count: int) -> int:
    """The total score of the orderings in ``planes``: at step t the lanes
    split into one set per agent at position t, and each agent walks its
    preference row and takes its item in every lane where it is still free."""
    n = len(prefs)
    mask = (1 << count) - 1
    free = [mask] * n
    total = 0
    for t in range(n):
        for a, lanes in enumerate(_split([plane[t] for plane in planes], mask, n)):
            if not lanes:
                continue
            row = scaled[a]
            for g in prefs[a]:
                got = lanes & free[g]
                if got:
                    total += row[g] * got.bit_count()
                    free[g] ^= got
                    lanes ^= got
                    if not lanes:
                        break
    return total


def _scalar_total(prefs: tuple[tuple[int, ...], ...], scaled: Sequence[Sequence[int]], seed: int, run: int, start: int, count: int) -> int:
    """The total score of samples ``start .. start + count - 1`` at n >= 2,
    :data:`_CHUNK` at a time: each sample's packed draws, read out as 64-bit
    words, swap its ordering in place, and :func:`sd_assign` scores it."""
    n = len(prefs)
    identity, positions = list(range(n)), range(n - 1, 0, -1)
    total = 0
    for first in range(start, start + count, _CHUNK):
        size = min(_CHUNK, start + count - first)
        for js in zip(*[_words(d, size) for d in packed_draws(seed, run, first, size, n)]):
            order = identity[:]
            for i, j in zip(positions, js):
                order[i], order[j] = order[j], order[i]
            total += sum(map(getitem, scaled, sd_assign(prefs, order)))
    return total


def sd_total(prefs: tuple[tuple[int, ...], ...], scaled: Sequence[Sequence[int]], seed: int, run: int, k: int) -> int:
    """The exact integer total of ``scaled[a][sd_assign(prefs, order)[a]]``
    over every agent ``a`` of the orderings
    ``substream(seed, run, i).permutation(n)``, ``i`` in ``range(k)``.

    A batch of up to :data:`LANES` samples large enough for lanes is
    shuffled and run on lanes, with no ordering built; any other batch is
    scored one ordering at a time.  Either way the total is exact.
    """
    n = len(prefs)
    floor = 3 * n * (n - 1).bit_length()  # twice the fewest samples that pay for lanes
    total = 0
    for start in range(0, k, LANES):
        count = min(LANES, k - start)
        if n > LANES_MAX_N or 2 * count < floor:
            total += _scalar_total(prefs, scaled, seed, run, start, count)
        else:
            planes = _shuffled_planes(packed_draws(seed, run, start, count, n), count, n)
            total += _lane_total(prefs, scaled, planes, count)
    return total


def serial_dictatorship(instance: AssignmentInstance, ordering: Ordering) -> Matching:
    """Run serial dictatorship for ``ordering``; returns a perfect matching."""
    if ordering.n != instance.n or not ordering.is_permutation():
        raise ValueError(f"ordering must be a permutation of 1..{instance.n}")
    prefs = preference_rows(instance)
    match = sd_assign(prefs, [a - 1 for a in ordering.seq])
    return Matching(tuple(g + 1 for g in match))


def evaluate(instance: AssignmentInstance, matching: Matching, objective: Objective) -> Fraction:
    """Exact social welfare or social cost of ``matching``."""
    objective.require_compatible(instance)
    if matching.n != instance.n or not matching.is_perfect():
        raise ValueError("matching must be a perfect matching on 1..n")
    return Fraction(sum(row[g - 1] for row, g in zip(instance.table, matching.assign)), instance.denom)


@dataclass(frozen=True)
class SdRun:
    """One serial-dictatorship execution with its exact objective value."""

    ordering: Ordering
    matching: Matching
    objective_value: Fraction


def sd_run(instance: AssignmentInstance, ordering: Ordering, objective: Objective) -> SdRun:
    matching = serial_dictatorship(instance, ordering)
    return SdRun(ordering=ordering, matching=matching, objective_value=evaluate(instance, matching, objective))


def random_ordering(rng: SplitMix64, n: int) -> Ordering:
    """Uniform agent ordering drawn from ``rng`` (n - 1 bounded draws)."""
    return Ordering(tuple(a + 1 for a in rng.permutation(n)))
