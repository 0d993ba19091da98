"""Domain model for one-to-one assignment instances.

An instance pairs ``n`` agents with ``n`` items (both indexed ``1..n``, the
convention used throughout the package) under one of three payoff settings:

* ``"value"``: a matrix of non-negative rational values ``v[i][g]``; higher
  is better and the objective is social welfare.
* ``"metric"``: a matrix of non-negative rational costs ``c[i][g]``
  satisfying the four-point triangle inequality, or agent/item coordinates
  on the real line from which ``c[i][g] = |agent_pos[i] - item_pos[g]|`` is
  materialized; lower is better and the objective is social cost.
  :func:`validate` checks the inequality exactly in O(n^3) on a cost
  matrix, one test per pair of agents deciding and locating failures; a
  point instance's costs are its points' distances, so it skips the check.
* ``"abstract"``: per-agent strict rankings of the items, no numbers.

A payoff matrix is stored as one integer table: int rows, the payoffs times
their least common denominator, and that denominator; the constructor, the
file reader, the generators and the reductions build it with no Fraction
per entry.  A numeric string has one grammar, :func:`parse_ratio`'s, which
gives its ratio as written, and the table is scaled one way.  Every
computation on payoffs (preference ranking, exact enumeration, sampling, the
optimal-assignment solver, the metric check, :func:`validate`'s sign check)
runs on it, the instance's ``table`` over its ``denom``.  Sampling sums a
run's scores exactly and rounds once, to the 64-bit float nearest the exact
run mean; exact enumeration and the solver never round.

Ties between equally good items are broken in favour of the minimum item
index, everywhere.  This single tie-breaking rule is what makes the exact
enumeration, the samplers, and the hardness encoding agree on every
matching.
"""

from __future__ import annotations

import enum
import math
import re
from collections.abc import Collection, Container, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from numbers import Rational
from operator import add, index, sub

SETTING_VALUE = "value"
SETTING_METRIC = "metric"
SETTING_ABSTRACT = "abstract"

PAYOFF_FIELD = {SETTING_VALUE: "values", SETTING_METRIC: "costs"}
"""The field that holds the payoff matrix of a value or metric instance."""

MAX_EXPONENT = 4300
"""Largest decimal exponent magnitude a numeric string may carry; the same
as Python's default limit on the digits of an int parsed from a string."""

MAX_LITERAL_LENGTH = 10_000
"""Longest numeric string read, in characters, checked before any
conversion: the payoffs of the n=20 reduction take about 7,500 digits."""
# The whole grammar of parse_ratio; re.ASCII keeps \s to ASCII whitespace.
_LITERAL = re.compile(
    r"\s*([-+]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([-+]?)([0-9]+))?)\s*", re.ASCII)


def bounded_literal(text: str) -> str:
    """``text``, or :class:`ValueError` if it is longer than
    :data:`MAX_LITERAL_LENGTH`: the bound of instance files' reader and writer."""
    if len(text) > MAX_LITERAL_LENGTH:
        raise ValueError(f"literal longer than {MAX_LITERAL_LENGTH} characters")
    return text


def parse_ratio(text: str) -> tuple[int, int]:
    """``(numerator, denominator)`` of a numeric string as written, never
    reduced, or :class:`ValueError`: ``a/b`` is ``(a, b)``, a decimal its
    digits over ``10**F``, F its digits after the point, and an exponent
    multiplies the numerator or, if negative, the denominator by 10**|e|.

    The one grammar is ASCII only: ``[sign]digits[.digits][exponent]``,
    ``[sign].digits[exponent]`` and ``[sign]digits/digits``, with sign
    ``-`` or ``+``, exponent ``e`` or ``E`` then ``[sign]digits``, and
    optional whitespace (space, tab, newline, carriage return, form feed,
    vertical tab) around the whole.  Every other string, among them those
    with underscores or non-ASCII digits, is not a numeric literal.  Digit
    runs of any length are read exactly, in pieces past Python's int-to-str
    digit limit (:func:`exact_int`).  A string longer than
    :data:`MAX_LITERAL_LENGTH` is refused before any conversion, and an
    exponent beyond :data:`MAX_EXPONENT` in magnitude before 10**e is built.
    """
    literal = _LITERAL.fullmatch(bounded_literal(text))
    if literal is None:
        raise ValueError(f"{clipped(text, repr)} is not a numeric literal")
    sign, whole, den, frac, exp_sign, exp = literal.groups("")
    denominator = exact_int(den) if den else 10 ** len(frac)
    if denominator == 0:
        raise ValueError(f"{clipped(text, repr)} has a zero denominator")
    numerator = exact_int(whole + frac)
    if exp:
        exp = exp.lstrip("0") or "0"
        if len(exp) > len(str(MAX_EXPONENT)) or int(exp) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond ±{MAX_EXPONENT}")
        if exp_sign == "-":
            denominator *= 10 ** int(exp)
        else:
            numerator *= 10 ** int(exp)
    return -numerator if sign == "-" else numerator, denominator


def _ratio(x) -> tuple[int, int]:
    """``(numerator, denominator)`` of a number: a rational's own (a bool is
    0 or 1), a string's by :func:`parse_ratio`, a finite float's exact binary
    value; ``inf`` and ``nan`` raise :class:`ValueError`, other types
    :class:`TypeError`.  Each payoff entry the constructor takes is read so."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, str):
        return parse_ratio(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{x} is not a finite number")
        return x.as_integer_ratio()
    if isinstance(x, (int, Rational)):
        return x.numerator, x.denominator
    raise TypeError(f"cannot convert {type(x).__name__} to an exact rational")


def as_fraction(x) -> Fraction:
    """Exact conversion to Fraction: a Fraction as it is, anything else the
    ratio :func:`_ratio` reads, so a string by the one grammar of
    :func:`parse_ratio` (``"0.25"`` is 1/4, and a non-literal raises
    :class:`ValueError`) and a float at its exact binary value; prefer
    strings or Fractions where the precise decimal matters."""
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


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


_PAYLOAD = dict(zip(PAYOFF_FIELD.values(), PAYOFF_FIELD), agent_points=SETTING_METRIC, item_points=SETTING_METRIC,
                rankings=SETTING_ABSTRACT)
"""Each payload field of an instance and the setting that reads it."""


def check_fields(n, setting, fields: Container[str]) -> None:
    """:class:`ValueError`, in the instance-file reader's words, unless an
    instance of ``setting`` and size ``n`` may hold the payload ``fields``:
    ``n`` an int and not a bool, a known setting, no field another setting
    reads, and one payload, a metric one as costs or as both point lists.
    The one rule of :class:`AssignmentInstance` and of the file reader."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("field 'n': expected an integer")
    if setting not in (SETTING_VALUE, SETTING_METRIC, SETTING_ABSTRACT):
        raise ValueError(f"field 'setting': unknown setting {setting!r}")
    foreign = [f"'{field}'" for field, reader in _PAYLOAD.items() if reader != setting and field in fields]
    if foreign:
        raise ValueError(f"{setting} instance does not read {', '.join(foreign)}")
    field = next(field for field, reader in _PAYLOAD.items() if reader == setting)  # its matrix, or its rankings
    if setting != SETTING_METRIC:
        if field not in fields:
            raise ValueError(f"{setting} instance requires field '{field}'")
    elif "agent_points" in fields or "item_points" in fields:
        if field in fields:
            raise ValueError(f"metric instance takes '{field}' or 'agent_points'/'item_points', not both")
        if not ("agent_points" in fields and "item_points" in fields):
            raise ValueError("point-based metric instance requires both 'agent_points' and 'item_points'")
    elif field not in fields:
        raise ValueError(f"metric instance requires '{field}' or 'agent_points'/'item_points'")


def _sequence(name: str, xs) -> Sequence:
    if not isinstance(xs, Sequence):  # a set or a mapping has no order to read
        raise TypeError(f"{name} has type {type(xs).__name__}, not a sequence")
    return xs


def _read(name: str, xs, read) -> tuple:
    """``read`` of each entry of the sequence ``xs``; the error ``read``
    raises for an entry is raised again naming the entry, found by reading
    the entries again one by one."""
    xs = _sequence(name, xs)
    try:
        return tuple(map(read, xs))
    except (TypeError, ValueError):
        for j, x in enumerate(xs, start=1):
            try:
                read(x)
            except TypeError:
                raise TypeError(f"entry {j} of {name} has type {type(x).__name__}") from None
            except ValueError as exc:
                raise ValueError(f"entry {j} of {name}: {exc}") from None
        raise


def _read_matrix(name: str, rows, read) -> tuple:
    return tuple(_read(f"row {i} of {name}", row, read) for i, row in enumerate(_sequence(name, rows), start=1))


def _collected(rows) -> Collection:
    """``rows``, with an iterator read into a tuple, so that the public
    constructors take any iterable of rows; any collection is passed on."""
    return rows if isinstance(rows, Collection) else tuple(rows)


def _ratio_row(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """``(ints, den)`` of a row of ``(numerator, denominator)`` pairs: ``den``
    their lcm and each numerator scaled to it."""
    den = math.lcm(*{d for _, d in ratios})
    return [t * (den // d) for t, d in ratios], den


def _scaled_table(rows: Iterable[tuple[list[int], int]]) -> tuple[list[list[int]], int]:
    """One int table over the lcm of rows ``(ints, den)``, each over its own
    ``den``, only a row below it scaled again: the constructor's and the
    file reader's one way from rows of numbers to a payoff table."""
    rows = list(rows)
    denom = math.lcm(*(den for _, den in rows))
    return [ints if den == denom else [t * (denom // den) for t in ints] for ints, den in rows], denom


def _reduced(rows: Sequence[Sequence[int]], denom: int) -> tuple:
    """``(rows, denom)`` of int payoffs ``rows[i][g] / denom``, both divided by their gcd."""
    common = math.gcd(denom, *(math.gcd(*row) for row in rows))
    return tuple(tuple(t // common for t in row) if common > 1 else tuple(row) for row in rows), denom // common


@dataclass(frozen=True, init=False)
class AssignmentInstance:
    """One-to-one assignment instance in one of the three settings.

    A payoff matrix is stored as ``table``, int rows, over ``denom``, the
    payoffs' least common denominator, so equal payoffs give equal instances
    (``==``, ``hash``) however built; ``values`` and ``costs`` read it back
    as Fraction rows, built on first read.  ``table`` and ``denom`` are None
    only for an abstract instance; point lists give a metric instance their
    distances as its table.  A matrix entry is read as a ratio, as the file
    reader reads it, with no Fraction built per entry.  A positive scale
    keeps every comparison and every sum, so matchings are scored and
    compared on ``table`` and divided by ``denom`` once.

    The constructor refuses what an instance may not hold: with
    :class:`ValueError`, in the file reader's words, what
    :func:`check_fields` refuses of ``n``, the setting and the fields given
    (those not None); naming it, a field or row that is not a sequence (a
    set or a mapping has no order to read) and an entry that
    :func:`as_fraction`, or for a rank :func:`operator.index`, cannot read,
    with the error that raised.  :func:`validate` checks the values.
    """

    n: int
    setting: str
    table: tuple[tuple[int, ...], ...] | None
    denom: int | None
    agent_points: tuple[Fraction, ...] | None
    item_points: tuple[Fraction, ...] | None
    rankings: tuple[tuple[int, ...], ...] | None

    def __init__(self, n, setting, values=None, costs=None, agent_points=None, item_points=None, rankings=None):
        given = dict(values=values, costs=costs, agent_points=agent_points, item_points=item_points, rankings=rankings)
        check_fields(n, setting, {field for field, x in given.items() if x is not None})
        table = denom = None
        if agent_points is not None:
            agent_points, item_points = (_read(name, given[name], as_fraction) for name in ("agent_points", "item_points"))
            (agents, items), scale = _scaled_table(_ratio_row([(x.numerator, x.denominator) for x in points])
                                                   for points in (agent_points, item_points))
            table, denom = _reduced([[abs(a - b) for b in items] for a in agents], scale)
        elif setting == SETTING_ABSTRACT:
            rankings = _read_matrix("rankings", rankings, index)
        else:
            name = PAYOFF_FIELD[setting]
            table, denom = _reduced(*_scaled_table(map(_ratio_row, _read_matrix(name, given[name], _ratio))))
        vars(self).update(n=n, setting=setting, table=table, denom=denom,
                          agent_points=agent_points, item_points=item_points, rankings=rankings)

    @classmethod
    def from_table(cls, n: int, setting: str, rows: Sequence[Sequence[int]], denom: int) -> "AssignmentInstance":
        """Value or metric instance of payoffs ``rows[i][g] / denom``, ints over a positive int ``denom``
        (:class:`ValueError` names any other), both divided by their gcd; no Fraction is built."""
        if not isinstance(denom, int) or isinstance(denom, bool) or denom < 1:
            shown = clipped(exact_str(denom)) if isinstance(denom, int) else repr(denom)
            raise ValueError(f"denom must be a positive integer, got {shown}")
        field = PAYOFF_FIELD[SETTING_VALUE if setting == SETTING_VALUE else SETTING_METRIC]  # compared, never hashed
        instance = cls(n, setting, **{field: ()})  # the field rule
        table, denom = _reduced(rows, denom)
        vars(instance).update(table=table, denom=denom)
        return instance

    @classmethod
    def from_values(cls, rows: Iterable[Sequence]) -> "AssignmentInstance":
        values = _collected(rows)
        return cls(n=len(values), setting=SETTING_VALUE, values=values)

    @classmethod
    def from_costs(cls, rows: Iterable[Sequence]) -> "AssignmentInstance":
        costs = _collected(rows)
        return cls(n=len(costs), setting=SETTING_METRIC, costs=costs)

    @classmethod
    def from_line_points(cls, agent_points: Sequence, item_points: Sequence) -> "AssignmentInstance":
        """Metric instance from coordinates on the real line.

        The cost matrix is materialized eagerly; by construction it
        satisfies the four-point triangle inequality.  Each cost is the
        difference of two integers, the points times their least common
        denominator, over that denominator.
        """
        n = len(_sequence("agent_points", agent_points))
        return cls(n=n, setting=SETTING_METRIC, agent_points=agent_points, item_points=item_points)

    @classmethod
    def from_rankings(cls, rankings: Iterable[Sequence[int]]) -> "AssignmentInstance":
        ranks = _collected(rankings)
        return cls(n=len(ranks), setting=SETTING_ABSTRACT, rankings=ranks)

    @property
    def point_based(self) -> bool:
        return self.agent_points is not None

    @cached_property
    def _payoffs(self) -> tuple:
        return tuple(tuple(Fraction(t, self.denom) for t in row) for row in self.table)

    values = property(lambda self: self._payoffs if self.setting == SETTING_VALUE else None)
    costs = property(lambda self: self._payoffs if self.setting == SETTING_METRIC else None)

    def value(self, agent: int, item: int) -> Fraction:
        """Value of 1-indexed ``agent`` for 1-indexed ``item``."""
        return self.values[agent - 1][item - 1]

    def cost(self, agent: int, item: int) -> Fraction:
        """Cost of 1-indexed ``agent`` for 1-indexed ``item``."""
        return self.costs[agent - 1][item - 1]

    def ranking(self, agent: int) -> tuple[int, ...]:
        assert self.rankings is not None
        return self.rankings[agent - 1]

    def payoff_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        if self.setting in (SETTING_VALUE, SETTING_METRIC):
            return self._payoffs
        raise ValueError("abstract instances carry no payoff matrix")


class Objective(enum.Enum):
    """Which sum a matching is scored by."""

    WELFARE = "welfare"
    COST = "cost"

    @property
    def setting(self) -> str:
        return SETTING_VALUE if self is Objective.WELFARE else SETTING_METRIC

    def require_compatible(self, instance: AssignmentInstance) -> None:
        if instance.setting != self.setting:
            raise ValueError(f"objective {self.value!r} requires a {self.setting!r} instance, "
                             f"got {instance.setting!r}")


def _is_permutation(xs: Sequence[int], n: int) -> bool:
    """True iff the ints ``xs`` are 1..n, each once; the lengths go first,
    so memory follows ``xs``, never a declared ``n``."""
    return len(xs) == n and sorted(xs) == list(range(1, n + 1))


@dataclass(frozen=True)
class Ordering:
    """Agent ordering: ``seq[t]`` is the (1-indexed) agent acting at turn t."""

    seq: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(map(index, self.seq)))

    @property
    def n(self) -> int:
        return len(self.seq)

    def is_permutation(self) -> bool:
        return _is_permutation(self.seq, self.n)


@dataclass(frozen=True)
class Matching:
    """Perfect matching: ``assign[i-1]`` is the item of (1-indexed) agent i."""

    assign: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assign", tuple(map(index, self.assign)))

    @property
    def n(self) -> int:
        return len(self.assign)

    def item_of(self, agent: int) -> int:
        return self.assign[agent - 1]

    def is_perfect(self) -> bool:
        return _is_permutation(self.assign, self.n)


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
    best_first = instance.setting == SETTING_VALUE
    items = range(instance.n)
    return tuple(tuple(sorted(items, key=row.__getitem__, reverse=best_first)) for row in instance.table)


def derive_preferences(instance: AssignmentInstance, agent: int) -> tuple[int, ...]:
    """Strict ranking (best first, 1-indexed items) of ``agent``'s items."""
    if not 1 <= agent <= instance.n:
        raise ValueError(f"agent index {agent} out of range 1..{instance.n}")
    return tuple(g + 1 for g in preference_rows(instance)[agent - 1])


def _count_violations(name: str, rows: Sequence, n: int) -> list[Violation]:
    """The one message for a matrix or ranking list without ``n`` rows."""
    return [] if len(rows) == n else [Violation("shape", (len(rows),), f"{name} has {len(rows)} rows, expected {n}")]


def _matrix_violations(name: str, rows: Sequence[Sequence[int]], denom: int, n: int) -> list[Violation]:
    out = _count_violations(name, rows, n)
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            out.append(Violation("shape", (i, len(row)), f"{name} row {i} has {len(row)} entries, expected {n}"))
    out.extend(Violation("negative", (i, g), f"negative {name[:-1]} {clipped(exact_str(Fraction(t, denom)))} "
                         f"at agent {i}, item {g}")
               for i, row in enumerate(rows, start=1) if row and min(row) < 0 for g, t in enumerate(row, start=1) if t < 0)
    return out


def _triangle_violations(instance: AssignmentInstance) -> list[Violation]:
    """One four-point failure ``c[i1][g1] > c[i1][g2] + c[i2][g2] + c[i2][g1]``
    per failing cell (i1, g1) of a square, non-negative cost matrix, in
    (i1, g1) order: the cell's first failing (i2, g2), i2 before g2.

    Exact and O(n^3) on the integer table, one test per pair of agents
    i1 < i2 that decides and locates: with ``m = min_g (c[i1][g] +
    c[i2][g])``, the pair fails at cell (i1, g1) iff ``c[i1][g1] -
    c[i2][g1] > m`` and at (i2, g1) iff ``c[i2][g1] - c[i1][g1] > m``, so it
    holds iff ``max_g |c[i1][g] - c[i2][g]| <= m``; i1 = i2 holds on
    non-negative entries.  Pairs come in ``combinations`` order, so a cell
    keeps its least witness; g2, read off the two rows in O(n), is the first
    item whose term of ``m`` is below that difference.  The report is O(n^2)
    on every input.
    """
    c, denom = instance.table, instance.denom
    witness = {}
    for (i1, row), (i2, other) in combinations(enumerate(c), 2):
        if max(map(abs, map(sub, row, other))) <= (m := min(map(add, row, other))):
            continue
        for g1, d in enumerate(map(sub, row, other)):
            if d > m:
                witness.setdefault((i1, g1), i2)
            elif -d > m:
                witness.setdefault((i2, g1), i1)
    out = []
    for (i1, g1), i2 in sorted(witness.items()):
        row, other, lhs = c[i1], c[i2], c[i1][g1]
        g2 = next(g for g, (x, y) in enumerate(zip(row, other)) if lhs > x + y + other[g1])
        out.append(Violation("triangle", (i1 + 1, g1 + 1, i2 + 1, g2 + 1),
                             f"c[{i1 + 1}][{g1 + 1}]={clipped(exact_str(Fraction(lhs, denom)))} exceeds "
                             f"c[{i1 + 1}][{g2 + 1}]+c[{i2 + 1}][{g2 + 1}]+c[{i2 + 1}][{g1 + 1}]"))
    return out


def validate(instance: AssignmentInstance) -> list[Violation]:
    """Check the values the instance holds; an empty list means it is valid.

    The constructor has refused every value of the wrong kind, so this lists
    a size below 1, a matrix or ranking list that is not n by n, a negative
    payoff, a ranking that is not a permutation of 1..n, a point list whose
    length is not n, and four-point failures, each naming its indices.  The
    metric check is exact and O(n^3) on the integer payoff table, one test
    per pair of agents that decides it and locates the failing cells; each
    failing cell (i1, g1) is listed once, with its first failing (i2, g2),
    so at most n^2 violations come back.  A point instance's costs are its
    points' distances, a line metric, so it skips the check.
    """
    n = instance.n
    if n < 1:
        return [Violation("size", (n,), f"n must be positive, got {n}")]
    if instance.setting == SETTING_ABSTRACT:
        return _count_violations("rankings", instance.rankings, n) + [
            Violation("ranking", (i,), f"ranking of agent {i} is not a permutation of 1..{n}")
            for i, row in enumerate(instance.rankings, start=1) if not _is_permutation(row, n)]
    if instance.point_based:
        lengths = len(instance.agent_points), len(instance.item_points)
        return [] if lengths == (n, n) else [
            Violation("shape", lengths, f"point lists have {lengths[0]} and {lengths[1]} entries, expected {n}")]
    out = _matrix_violations(PAYOFF_FIELD[instance.setting], instance.table, instance.denom, n)
    if out or instance.setting == SETTING_VALUE:
        return out
    return _triangle_violations(instance)


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

    best_item = derive_preferences(instance, agent)[0]  # which refuses an agent outside 1..n
    agent_keep = [i for i in range(1, n + 1) if i != agent]
    item_keep = [g for g in range(1, n + 1) if g != best_item]

    if instance.point_based:
        reduced = AssignmentInstance.from_line_points([instance.agent_points[i - 1] for i in agent_keep],
                                                      [instance.item_points[g - 1] for g in item_keep])
    else:
        rows = [[instance.table[i - 1][g - 1] for g in item_keep] for i in agent_keep]
        reduced = AssignmentInstance.from_table(n - 1, instance.setting, rows, instance.denom)
    return ReducedInstance(reduced, tuple(agent_keep), tuple(item_keep), agent, best_item)
