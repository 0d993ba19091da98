"""Serial dictatorship: run the mechanism and score its matchings.

Agents act in the given order; each takes its most preferred item still
available, with ties resolved in favour of the minimum item index.  The
mechanism is deterministic given the instance and the ordering; uniformly
random orderings are drawn from the package's documented generator.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

from .core import AssignmentInstance, Matching, Objective, Ordering, preference_rows
from .rng import SplitMix64

LANES = 4096
"""Orderings :func:`sd_total` runs at once, one bit each.  At 4,096 a (step,
agent) lane set still holds about 40 lanes up to n = 100, enough to pay for
its big-int operations: 1,024 lanes measured 20-40% slower from n = 20 to
100, and 16,384 no more than a few percent faster."""

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


def _packed(orders: Iterable[list[int]], width: int) -> bytes:
    """The agent indices of ``orders`` in order, ``width`` bytes each, low
    byte first.  One byte is enough up to n = 256, and cheaper: 16-bit words
    at every n made ``large-instance`` (n = 20) 2% slower and 0.34 MB larger
    in peak RSS, losing 8 of 10 alternating pairs and all 10 on RSS."""
    if width == 1:
        return bytes(chain.from_iterable(orders))
    packed = array("H")
    for order in orders:  # a third of the time array("H", iterator) takes at n = 300
        packed.fromlist(order)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def sd_total(prefs: tuple[tuple[int, ...], ...], scaled: list[list[int]], orders: Iterable[list[int]]) -> int:
    """The exact integer total of ``scaled[a][sd_assign(prefs, order)[a]]``
    over every agent ``a`` of every ordering in ``orders``.

    Runs serial dictatorship on up to :data:`LANES` orderings at once, one
    bit of a Python int per ordering.  At step t the lanes split into one
    set per acting agent, by the bit planes of the agents' indices; each
    agent then walks its preference row and takes its item in every lane
    where that item is still free.
    """
    n = len(prefs)
    bits = (n - 1).bit_length()
    width = 1 if n <= 256 else 2  # bytes per agent index
    stride = width * n
    total = 0
    orders = iter(orders)
    # each batch streams into its bytes, so no batch of orderings is held
    while flat := _packed(islice(orders, LANES), width):
        mask = (1 << len(flat) // stride) - 1
        free = [mask] * n
        for t in range(0, stride, width):
            columns = [flat[t + i::stride] for i in range(width)]  # byte i of each lane's agent
            # sets[p] holds the lanes whose acting agent's leading bits read p;
            # a prefix whose agents all lie at or past n is dropped
            sets = [mask]
            for b in range(bits - 1, -1, -1):
                plane = int(columns[b >> 3].translate(_BIT_DIGITS[b & 7]), 2)
                clear = mask ^ plane
                sets = [part for lanes in sets for part in (lanes & clear, lanes & plane)]
                del sets[(n + (1 << b) - 1) >> b:]
            for a, lanes in enumerate(sets):
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
    matrix = instance.payoff_matrix()
    return sum(
        (matrix[i][matching.assign[i] - 1] for i in range(instance.n)),
        start=Fraction(0),
    )


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
