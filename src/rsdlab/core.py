"""Domain model for one-to-one assignment instances.

An instance pairs ``n`` agents with ``n`` items (both indexed ``1..n``, the
convention used throughout the package) under one of three payoff settings:

* ``"value"``: a matrix of non-negative rational values ``v[i][g]``; higher
  is better and the objective is social welfare.
* ``"metric"``: a matrix of non-negative rational costs ``c[i][g]``
  satisfying the four-point triangle inequality, or agent/item coordinates
  on the real line from which ``c[i][g] = |agent_pos[i] - item_pos[g]|`` is
  materialized; lower is better and the objective is social cost.
  :func:`validate` checks the inequality exactly in O(n^3), as two min-plus
  products on the integer payoff table, and runs the full four-point scan
  only to list the violations of an instance that fails.
* ``"abstract"``: per-agent strict rankings of the items, no numbers.

Entries are stored as exact :class:`fractions.Fraction` values.  Every
computation on payoffs (preference ranking, exact enumeration, sampling, the
optimal-assignment solver, the metric check) runs on one integer table,
:func:`integer_payoff_table`: the payoffs times their common denominator.
No Fraction is compared on these paths; :func:`validate` reads an entry's
sign off its numerator.  Sampling sums a run's scores exactly and rounds
once, to the 64-bit float nearest the exact run mean; exact enumeration and
the solver never round.

Ties between equally good items are broken in favour of the minimum item
index, everywhere.  This single tie-breaking rule is what makes the exact
enumeration, the samplers, and the hardness encoding agree on every
matching.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

SETTING_VALUE = "value"
SETTING_METRIC = "metric"
SETTING_ABSTRACT = "abstract"
SETTINGS = (SETTING_VALUE, SETTING_METRIC, SETTING_ABSTRACT)


def as_fraction(x) -> Fraction:
    """Exact conversion to Fraction.

    Strings are parsed as integer or decimal literals (``"0.25"`` becomes
    1/4).  Floats convert to their exact binary value; prefer strings or
    Fractions where the precise decimal matters.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, Rational)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to an exact rational")


_PIECE_DIGITS = 512  # below every int-to-str digit limit Python accepts (>= 640)
_PIECE = 10**_PIECE_DIGITS


def exact_str(x: int | Fraction) -> str:
    """``str(x)`` for an int or Fraction of any size.

    Python refuses ``str`` of an int longer than its digit limit (4300 by
    default), which a literal at the exponent bound or a sample count
    planned from it can exceed; longer ints are written in pieces.
    """
    if isinstance(x, Fraction):
        num = exact_str(x.numerator)
        return num if x.denominator == 1 else f"{num}/{exact_str(x.denominator)}"
    if -_PIECE < x < _PIECE:
        return str(x)
    high, pieces = abs(x), []
    while high >= _PIECE:
        high, low = divmod(high, _PIECE)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    pieces.append(str(high) if x > 0 else f"-{high}")
    return "".join(reversed(pieces))


QUOTED_LENGTH = 40
"""Longest text that a message shows whole; a longer one is cut."""


def clipped(text: str, show=str) -> str:
    """``show(text)``, or for text longer than :data:`QUOTED_LENGTH`,
    ``show`` of its first characters followed by its length."""
    if len(text) <= QUOTED_LENGTH:
        return show(text)
    return f"{show(text[:QUOTED_LENGTH])}… ({len(text)} characters)"


def exact_int(digits: str) -> int:
    """``int(digits)`` for a string of ASCII decimal digits of any length,
    read in pieces below the int-to-str digit limit; the inverse of
    :func:`exact_str` on non-negative ints."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    value = 0
    for start in range(0, len(digits), _PIECE_DIGITS):
        piece = digits[start:start + _PIECE_DIGITS]
        value = value * 10**len(piece) + int(piece)
    return value


def _matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(as_fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class AssignmentInstance:
    """One-to-one assignment instance in one of the three settings.

    Construction is permissive: malformed content (non-square matrices,
    negative entries, broken rankings, triangle failures) is stored as-is
    and reported by :func:`validate` rather than rejected here.
    """

    n: int
    setting: str
    values: tuple[tuple[Fraction, ...], ...] | None = None
    costs: tuple[tuple[Fraction, ...], ...] | None = None
    agent_points: tuple[Fraction, ...] | None = None
    item_points: tuple[Fraction, ...] | None = None
    rankings: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def from_values(cls, rows: Iterable[Iterable]) -> "AssignmentInstance":
        values = _matrix(rows)
        return cls(n=len(values), setting=SETTING_VALUE, values=values)

    @classmethod
    def from_costs(cls, rows: Iterable[Iterable]) -> "AssignmentInstance":
        costs = _matrix(rows)
        return cls(n=len(costs), setting=SETTING_METRIC, costs=costs)

    @classmethod
    def from_line_points(cls, agent_points: Iterable, item_points: Iterable) -> "AssignmentInstance":
        """Metric instance from coordinates on the real line.

        The cost matrix is materialized eagerly; by construction it
        satisfies the four-point triangle inequality.
        """
        agents = tuple(as_fraction(x) for x in agent_points)
        items = tuple(as_fraction(x) for x in item_points)
        costs = tuple(tuple(abs(a - b) for b in items) for a in agents)
        return cls(
            n=len(agents),
            setting=SETTING_METRIC,
            costs=costs,
            agent_points=agents,
            item_points=items,
        )

    @classmethod
    def from_rankings(cls, rankings: Iterable[Iterable[int]]) -> "AssignmentInstance":
        ranks = tuple(tuple(int(r) for r in row) for row in rankings)
        return cls(n=len(ranks), setting=SETTING_ABSTRACT, rankings=ranks)

    @property
    def point_based(self) -> bool:
        return self.agent_points is not None

    def value(self, agent: int, item: int) -> Fraction:
        """Value of 1-indexed ``agent`` for 1-indexed ``item``."""
        assert self.values is not None
        return self.values[agent - 1][item - 1]

    def cost(self, agent: int, item: int) -> Fraction:
        """Cost of 1-indexed ``agent`` for 1-indexed ``item``."""
        assert self.costs is not None
        return self.costs[agent - 1][item - 1]

    def ranking(self, agent: int) -> tuple[int, ...]:
        assert self.rankings is not None
        return self.rankings[agent - 1]

    def payoff_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        if self.setting == SETTING_VALUE:
            assert self.values is not None
            return self.values
        if self.setting == SETTING_METRIC:
            assert self.costs is not None
            return self.costs
        raise ValueError("abstract instances carry no payoff matrix")


class Objective(enum.Enum):
    """Which sum a matching is scored by."""

    WELFARE = "welfare"
    COST = "cost"

    @property
    def setting(self) -> str:
        return SETTING_VALUE if self is Objective.WELFARE else SETTING_METRIC

    def compatible_with(self, instance: AssignmentInstance) -> bool:
        return instance.setting == self.setting

    def require_compatible(self, instance: AssignmentInstance) -> None:
        if not self.compatible_with(instance):
            raise ValueError(
                f"objective {self.value!r} requires a {self.setting!r} instance, "
                f"got {instance.setting!r}"
            )


@dataclass(frozen=True)
class Ordering:
    """Agent ordering: ``seq[t]`` is the (1-indexed) agent acting at turn t."""

    seq: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(int(a) for a in self.seq))

    @property
    def n(self) -> int:
        return len(self.seq)

    def is_permutation(self) -> bool:
        return sorted(self.seq) == list(range(1, len(self.seq) + 1))


@dataclass(frozen=True)
class Matching:
    """Perfect matching: ``assign[i-1]`` is the item of (1-indexed) agent i."""

    assign: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assign", tuple(int(g) for g in self.assign))

    @property
    def n(self) -> int:
        return len(self.assign)

    def item_of(self, agent: int) -> int:
        return self.assign[agent - 1]

    def is_perfect(self) -> bool:
        return sorted(self.assign) == list(range(1, len(self.assign) + 1))


@dataclass(frozen=True)
class Violation:
    """One failed invariant, addressed by the offending indices."""

    code: str
    indices: tuple[int, ...]
    message: str


def preference_rows(instance: AssignmentInstance) -> tuple[tuple[int, ...], ...]:
    """0-indexed preference table: row ``a`` lists items best-first.

    Value setting sorts by value descending, metric by cost ascending, both
    on the integer payoff table; abstract copies the stored rankings.  The
    sort is stable, also reversed, so ties go to the minimum item index.
    """
    if instance.setting == SETTING_ABSTRACT:
        assert instance.rankings is not None
        return tuple(tuple(g - 1 for g in row) for row in instance.rankings)
    rows, _ = integer_payoff_table(instance)
    best_first = instance.setting == SETTING_VALUE
    items = range(instance.n)
    return tuple(tuple(sorted(items, key=row.__getitem__, reverse=best_first)) for row in rows)


def integer_payoff_table(instance: AssignmentInstance) -> tuple[list[list[int]], int]:
    """Payoff matrix as exact integers over one common denominator.

    Returns ``(rows, denom)`` with ``rows[i][g] == payoff[i][g] * denom``
    (0-indexed), ``denom`` the least common denominator of the entries.
    A positive scale preserves every comparison and every sum, so matchings
    can be scored and compared on ``rows`` and divided by ``denom`` once.
    """
    matrix = instance.payoff_matrix()
    denom = math.lcm(*(x.denominator for row in matrix for x in row))
    rows = [[x.numerator * (denom // x.denominator) for x in row] for row in matrix]
    return rows, denom


def derive_preferences(instance: AssignmentInstance, agent: int) -> tuple[int, ...]:
    """Strict ranking (best first, 1-indexed items) of ``agent``'s items."""
    if not 1 <= agent <= instance.n:
        raise ValueError(f"agent index {agent} out of range 1..{instance.n}")
    return tuple(g + 1 for g in preference_rows(instance)[agent - 1])


def _matrix_violations(name: str, rows: Sequence[Sequence[Fraction]], n: int) -> list[Violation]:
    out = []
    if len(rows) != n:
        out.append(Violation("shape", (len(rows),), f"{name} has {len(rows)} rows, expected {n}"))
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            out.append(Violation("shape", (i, len(row)), f"{name} row {i} has {len(row)} entries, expected {n}"))
    for i, row in enumerate(rows, start=1):
        for g, x in enumerate(row, start=1):
            if x.numerator < 0:
                out.append(Violation("negative", (i, g), f"negative {name[:-1]} {clipped(exact_str(x))} at agent {i}, item {g}"))
    return out


def _triangle_violations(instance: AssignmentInstance) -> list[Violation]:
    """Every four-point failure ``c[i1][g1] > c[i1][g2] + c[i2][g2] + c[i2][g1]``
    of a square, non-negative cost matrix, in (i1, g1, i2, g2) order.

    Exact and O(n^3) on the integer table: cell (i1, g1) satisfies the
    condition for every (i2, g2) iff ``c[i1][g1] <= min_i2 (M[i1][i2] +
    c[i2][g1])`` with ``M[i1][i2] = min_g (c[i1][g] + c[i2][g])``, two
    min-plus products.  Only a failing cell is scanned over all (i2, g2),
    to list its violations.
    """
    costs = instance.costs
    assert costs is not None
    c, _ = integer_payoff_table(instance)
    cols = list(zip(*c))
    out = []
    for i1, row in enumerate(c):
        m_row = [min(map(int.__add__, row, other)) for other in c]
        for g1, col in enumerate(cols):
            lhs = row[g1]
            if lhs <= min(map(int.__add__, m_row, col)):
                continue
            for i2, other in enumerate(c):
                for g2, x in enumerate(row):
                    if lhs > x + other[g2] + other[g1]:
                        out.append(Violation(
                            "triangle",
                            (i1 + 1, g1 + 1, i2 + 1, g2 + 1),
                            f"c[{i1 + 1}][{g1 + 1}]={clipped(exact_str(costs[i1][g1]))} exceeds "
                            f"c[{i1 + 1}][{g2 + 1}]+c[{i2 + 1}][{g2 + 1}]+c[{i2 + 1}][{g1 + 1}]",
                        ))
    return out


def validate(instance: AssignmentInstance) -> list[Violation]:
    """Check every type invariant; an empty list means the instance is valid.

    Never raises: malformed content comes back as a list of violations,
    each naming the offending indices.  The metric check is an exact O(n^3)
    min-plus test of the four-point condition on the integer payoff table;
    the full four-point scan runs only over failing cells, to list every
    violation.
    """
    n = instance.n
    out: list[Violation] = []
    if n < 1:
        out.append(Violation("size", (n,), f"n must be positive, got {n}"))
        return out

    if instance.setting == SETTING_VALUE:
        if instance.values is None:
            out.append(Violation("missing", (), "value instance without a value matrix"))
            return out
        out.extend(_matrix_violations("values", instance.values, n))
        return out

    if instance.setting == SETTING_METRIC:
        if instance.costs is None:
            out.append(Violation("missing", (), "metric instance without a cost matrix"))
            return out
        if instance.point_based:
            assert instance.agent_points is not None and instance.item_points is not None
            if len(instance.agent_points) != n or len(instance.item_points) != n:
                out.append(Violation(
                    "shape",
                    (len(instance.agent_points), len(instance.item_points)),
                    "point lists must both have length n",
                ))
        out.extend(_matrix_violations("costs", instance.costs, n))
        if out:
            return out
        return _triangle_violations(instance)

    if instance.setting == SETTING_ABSTRACT:
        if instance.rankings is None:
            out.append(Violation("missing", (), "abstract instance without rankings"))
            return out
        if len(instance.rankings) != n:
            out.append(Violation("shape", (len(instance.rankings),), f"expected {n} rankings"))
        for i, row in enumerate(instance.rankings, start=1):
            if sorted(row) != list(range(1, n + 1)):
                out.append(Violation("ranking", (i,), f"ranking of agent {i} is not a permutation of 1..{n}"))
        return out

    out.append(Violation("setting", (), f"unknown setting {instance.setting!r}"))
    return out


@dataclass(frozen=True)
class ReducedInstance:
    """Instance after dropping one agent and its best item, plus the index maps.

    ``agent_of[a-1]`` / ``item_of[g-1]`` give the original indices of the
    compacted instance's agent ``a`` / item ``g``.
    """

    instance: AssignmentInstance
    agent_of: tuple[int, ...]
    item_of: tuple[int, ...]
    removed_agent: int
    removed_item: int


def remove_agent_best(instance: AssignmentInstance, agent: int) -> ReducedInstance:
    """Drop ``agent`` and its top-ranked item, compacting the indices.

    The top item follows the global minimum-index tie-break.  Point-based
    metric instances stay point-based (deleting a point preserves the
    metric); matrix instances lose the agent's row and the item's column.
    """
    n = instance.n
    if n < 2:
        raise ValueError("cannot remove an agent from a single-agent instance")
    if instance.setting not in (SETTING_VALUE, SETTING_METRIC):
        raise ValueError("removal is defined for value and metric instances only")
    if not 1 <= agent <= n:
        raise ValueError(f"agent index {agent} out of range 1..{n}")

    best_item = derive_preferences(instance, agent)[0]
    agent_keep = [i for i in range(1, n + 1) if i != agent]
    item_keep = [g for g in range(1, n + 1) if g != best_item]

    if instance.point_based:
        assert instance.agent_points is not None and instance.item_points is not None
        reduced = AssignmentInstance.from_line_points(
            [instance.agent_points[i - 1] for i in agent_keep],
            [instance.item_points[g - 1] for g in item_keep],
        )
    else:
        matrix = instance.payoff_matrix()
        rows = [[matrix[i - 1][g - 1] for g in item_keep] for i in agent_keep]
        if instance.setting == SETTING_VALUE:
            reduced = AssignmentInstance.from_values(rows)
        else:
            reduced = AssignmentInstance.from_costs(rows)

    return ReducedInstance(
        instance=reduced,
        agent_of=tuple(agent_keep),
        item_of=tuple(item_keep),
        removed_agent=agent,
        removed_item=best_item,
    )
