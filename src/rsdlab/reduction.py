"""Bit-level encoding of the RSD lottery into a single expected value.

Given an abstract instance (strict rankings only), build a value or metric
instance whose payoffs are powers of two chosen so that the integer
``n! * E[objective]`` carries the whole ordering-count matrix in disjoint
bit blocks.  By linearity that integer is the sum of L[i][g] * payoff[i][g]
over the count matrix L, so decoding one number recovers the full lottery:
computing the expected objective is as hard as computing the lottery.
:func:`build_artifact` sums it off one count-only DP and decodes it.  All of
it is exact integer arithmetic; the block width is an integer bit length.

Layout, with q = bit length of n! (= ceil(log2(n! + 1))) and L[i][j] the
number of orderings assigning agent i its rank-j item: block (i, j) of the
scaled total sits at bit offset ((i-1)*n + r) * q, one rule for both
settings with the rank read from opposite ends, r = n - j in the value
setting and r = j - 1 in the metric setting.  Agent i's rank-j payoff is
2^offset, plus 2^(n^2 * q) in the metric setting; there the bits from
position n^2 * q upward hold the leftover sum of all L entries (n * n!),
which the decoder reports but never consumes.

Every L entry is at most n!, so q bits per block suffice and no block ever
carries into its neighbour.  Costs all lie within a factor of 2 of each
other, which makes the metric instance a metric by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    SETTING_ABSTRACT,
    SETTING_METRIC,
    SETTING_VALUE,
    AssignmentInstance,
    Objective,
    preference_rows,
    validate,
)
from .exact import DEFAULT_ORACLE_CAP, counts_by_rank, enumerate_rsd, expected_objective


def block_bits(n: int) -> int:
    """Bits per count block: the bit length of n!."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.factorial(n).bit_length()


def _offsets(n: int, setting: str) -> tuple[list[list[int]], int | None]:
    """The bit layout: ``blocks[i - 1][j - 1]`` is the offset of block (agent
    i, rank j), ((i - 1) * n + r) * q with r = n - j in the value setting and
    r = j - 1 in the metric setting; ``top`` is n^2 * q, the offset of the
    metric setting's leftover sum, or None in the value setting."""
    q = block_bits(n)
    if setting == SETTING_VALUE:
        ranks, top = range(n - 1, -1, -1), None
    elif setting == SETTING_METRIC:
        ranks, top = range(n), n * n * q
    else:
        raise ValueError(f"setting must be {SETTING_VALUE!r} or {SETTING_METRIC!r}, got {setting!r}")
    return [[(i * n + r) * q for r in ranks] for i in range(n)], top


def build_reduction(source: AssignmentInstance, setting: str) -> AssignmentInstance:
    """Value or metric instance whose preferences equal ``source``'s rankings."""
    if source.setting != SETTING_ABSTRACT:
        raise ValueError("reduce expects an abstract instance (rankings only)")
    problems = validate(source)
    if problems:
        raise ValueError(f"source instance is invalid: {problems[0].message}")
    n = source.n
    blocks, top = _offsets(n, setting)
    base = 0 if top is None else 1 << top
    rows = [[0] * n for _ in range(n)]
    for row, ranking, offsets in zip(rows, source.rankings, blocks):
        for item, offset in zip(ranking, offsets):
            row[item - 1] = base + (1 << offset)
    return AssignmentInstance.from_table(n, setting, rows, 1)


def _scaled_total(built: AssignmentInstance, objective: Objective, counts) -> int:
    total = expected_objective(built, objective, counts) * math.factorial(built.n)
    if total.denominator != 1:
        raise ValueError("scaled total is not an integer; instance entries are not integral")
    return total.numerator


def exact_scaled_total(built: AssignmentInstance, objective: Objective, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """The integer ``n! * E[objective]``, by linearity off one count-only DP."""
    return _scaled_total(built, objective, enumerate_rsd(built, cap=cap).counts)


def decode_counts(scaled_total: int, n: int, setting: str) -> tuple[tuple[tuple[int, ...], ...], int | None]:
    """Slice the per-(agent, rank) ordering counts out of ``scaled_total``.

    Returns the n-by-n count matrix indexed (agent, preference rank) and,
    in the metric setting, the integer found above position n^2 * q (the
    decoder never uses it for extraction).
    """
    if scaled_total < 0:
        raise ValueError("scaled total must be non-negative")
    blocks, top = _offsets(n, setting)
    mask = (1 << block_bits(n)) - 1
    counts = tuple(tuple(scaled_total >> offset & mask for offset in offsets) for offsets in blocks)
    return counts, None if top is None else scaled_total >> top


def lottery_from_counts(
    counts: tuple[tuple[int, ...], ...],
    source: AssignmentInstance,
) -> tuple[tuple[Fraction, ...], ...]:
    """Agent-by-item lottery from rank-indexed counts via the source rankings."""
    n = source.n
    fact = math.factorial(n)
    lottery = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        row = counts[i - 1]
        if sum(row) != fact:
            raise ValueError(
                f"corrupted decode: counts for agent {i} sum to {sum(row)}, expected {fact}"
            )
        for j, item in enumerate(source.ranking(i), start=1):
            lottery[i - 1][item - 1] = Fraction(row[j - 1], fact)
    return tuple(tuple(row) for row in lottery)


@dataclass(frozen=True)
class ReductionArtifact:
    """Everything one encode/decode round produces.  ``counts`` are decoded from
    ``scaled_total``, which was summed off the DP counts ``oracle_counts``."""

    source: AssignmentInstance
    setting: str
    block_bits: int
    built: AssignmentInstance
    scaled_total: int
    counts: tuple[tuple[int, ...], ...]
    top_block: int | None
    lottery: tuple[tuple[Fraction, ...], ...]
    oracle_counts: tuple[tuple[int, ...], ...]


def build_artifact(source: AssignmentInstance, setting: str, cap: int = DEFAULT_ORACLE_CAP) -> ReductionArtifact:
    """Build the instance, sum its scaled total off one count-only DP, decode it."""
    built = build_reduction(source, setting)
    objective = Objective.WELFARE if setting == SETTING_VALUE else Objective.COST
    summary = enumerate_rsd(built, cap=cap)
    total = _scaled_total(built, objective, summary.counts)
    counts, top_block = decode_counts(total, source.n, setting)
    return ReductionArtifact(
        source=source,
        setting=setting,
        block_bits=block_bits(source.n),
        built=built,
        scaled_total=total,
        counts=counts,
        top_block=top_block,
        lottery=lottery_from_counts(counts, source),
        oracle_counts=counts_by_rank(summary, built),
    )


def round_trip_matches(artifact: ReductionArtifact) -> bool:
    """True iff the built instance ranks every agent's items as the source
    does, so that serial dictatorship matches alike on both under every
    ordering, and the decoded counts equal the DP counts they were summed
    from."""
    return (preference_rows(artifact.built) == preference_rows(artifact.source)
            and artifact.oracle_counts == artifact.counts)
