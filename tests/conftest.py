"""Shared battery builders for the seeded random-instance tests, and the
slow references that the exact oracle, the metric check, the solver, the
sampler and the instance writer are held to."""

from __future__ import annotations

import contextlib
import json
import math
import sys
import warnings
from fractions import Fraction
from itertools import permutations
from random import Random

from rsdlab import AssignmentInstance, random_abstract, random_metric_line, random_value
from rsdlab.core import (
    SETTING_VALUE,
    Objective,
    Violation,
    bounded_literal,
    clipped,
    exact_str,
    preference_rows,
)
from rsdlab.exact import DEFAULT_ORACLE_CAP, ExactSummary, enumerate_rsd
from rsdlab.instance_io import _JSON_INT_LIMIT, _literal_ratio
from rsdlab.rng import substream
from rsdlab.sd import LANES, LANES_MAX_N, sd_assign

# Hypothesis's pytest plugin imports this module lazily, to write a patch for
# a failing example; where libcst is installed, that import warns
# (mypy_extensions.TypedDict is deprecated), which fails the whole session
# under -W error::DeprecationWarning.  Loaded here once, with the warning
# ignored, the plugin finds it in sys.modules.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def metric_battery(count: int, base_seed: int, ns=(2, 3, 4, 5, 6, 7)) -> list[AssignmentInstance]:
    return [random_metric_line(ns[i % len(ns)], base_seed + i) for i in range(count)]


def value_battery(count: int, base_seed: int, ns=(2, 3, 4, 5, 6, 7)) -> list[AssignmentInstance]:
    return [random_value(ns[i % len(ns)], base_seed + i) for i in range(count)]


def abstract_battery(count: int, base_seed: int, ns=(2, 3, 4)) -> list[AssignmentInstance]:
    return [random_abstract(ns[i % len(ns)], base_seed + i) for i in range(count)]


def tie_battery(count: int, seed: int, ns=(2, 4, 6)) -> list[AssignmentInstance]:
    """Value and line instances with entries in {0, 1, 2}, so most
    preference rows contain ties."""
    rng = Random(seed)
    out = []
    for i in range(count):
        n = ns[i % len(ns)]
        if i % 2:
            out.append(AssignmentInstance.from_values([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]))
        else:
            out.append(AssignmentInstance.from_line_points(
                [rng.randint(0, 2) for _ in range(n)], [rng.randint(0, 2) for _ in range(n)]))
    return out


def enumerate_rsd_by_orderings(instance: AssignmentInstance, objective: Objective | None = None) -> ExactSummary:
    """Reference oracle: run serial dictatorship on every one of the n!
    orderings and accumulate counts and moments in exact integers."""
    n = instance.n
    if objective is not None:
        objective.require_compatible(instance)

    prefs = preference_rows(instance)
    counts = [[0] * n for _ in range(n)]

    if objective is None:
        for order in permutations(range(n)):
            match = sd_assign(prefs, order)
            for a in range(n):
                counts[a][match[a]] += 1
        total = total_sq = None
        denom = 1
    else:
        scaled, denom = instance.table, instance.denom
        total = 0
        total_sq = 0
        for order in permutations(range(n)):
            match = sd_assign(prefs, order)
            s = 0
            for a in range(n):
                g = match[a]
                counts[a][g] += 1
                s += scaled[a][g]
            total += s
            total_sq += s * s

    fact = math.factorial(n)
    lottery = tuple(tuple(Fraction(c, fact) for c in row) for row in counts)
    if objective is None:
        mean = second = variance = None
    else:
        mean = Fraction(total, fact * denom)
        second = Fraction(total_sq, fact * denom * denom)
        variance = second - mean * mean
    return ExactSummary(
        n=n,
        objective=objective,
        order_count=fact,
        counts=tuple(tuple(row) for row in counts),
        lottery=lottery,
        mean=mean,
        second_moment=second,
        variance=variance,
    )


def count_dp_calls(monkeypatch, module) -> list:
    """Replace ``module.enumerate_rsd`` by a wrapper that appends the
    objective of every call to the list it returns."""
    calls = []

    def counted(instance, objective=None, cap=DEFAULT_ORACLE_CAP):
        calls.append(objective)
        return enumerate_rsd(instance, objective, cap=cap)

    monkeypatch.setattr(module, "enumerate_rsd", counted)
    return calls


def record_orderings(monkeypatch) -> list:
    """Replace ``rsdlab.sd.sd_assign`` by a wrapper that appends a copy of
    every ordering it scores to the list it returns: on the scalar loop of
    ``sd.sd_total``, one ordering per sample, in sample order."""
    orders = []

    def recorded(prefs, order):
        orders.append(list(order))
        return sd_assign(prefs, order)

    monkeypatch.setattr("rsdlab.sd.sd_assign", recorded)
    return orders


def preference_rows_by_fractions(instance: AssignmentInstance) -> tuple[tuple[int, ...], ...]:
    """Reference ranking of a value or metric instance: each payoff row
    sorted on (payoff, item) keys in Fractions, values negated so the best
    comes first; ties go to the minimum item index."""
    n = instance.n
    if instance.setting == SETTING_VALUE:
        assert instance.values is not None
        return tuple(tuple(sorted(range(n), key=lambda g: (-row[g], g))) for row in instance.values)
    assert instance.costs is not None
    return tuple(tuple(sorted(range(n), key=lambda g: (row[g], g))) for row in instance.costs)


def matrix_violations_by_fractions(name: str, rows, n: int) -> list[Violation]:
    """Reference shape and sign check of a payoff matrix: the row count,
    each row's length, then every entry compared with 0 as a Fraction."""
    out = []
    if len(rows) != n:
        out.append(Violation("shape", (len(rows),), f"{name} has {len(rows)} rows, expected {n}"))
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            out.append(Violation("shape", (i, len(row)), f"{name} row {i} has {len(row)} entries, expected {n}"))
    for i, row in enumerate(rows, start=1):
        for g, x in enumerate(row, start=1):
            if x < 0:
                out.append(Violation("negative", (i, g), f"negative {name[:-1]} {clipped(str(x))} at agent {i}, item {g}"))
    return out


def four_point_scan(costs) -> list[Violation]:
    """Reference metric check: test the four-point condition
    c[i1][g1] <= c[i1][g2] + c[i2][g2] + c[i2][g1] on every index quadruple,
    in Fractions, and list each failure in (i1, g1, i2, g2) order."""
    n = len(costs)
    out = []
    for i1 in range(n):
        for g1 in range(n):
            lhs = costs[i1][g1]
            for i2 in range(n):
                for g2 in range(n):
                    if lhs > costs[i1][g2] + costs[i2][g2] + costs[i2][g1]:
                        out.append(Violation(
                            "triangle",
                            (i1 + 1, g1 + 1, i2 + 1, g2 + 1),
                            f"c[{i1 + 1}][{g1 + 1}]={clipped(str(lhs))} exceeds "
                            f"c[{i1 + 1}][{g2 + 1}]+c[{i2 + 1}][{g2 + 1}]+c[{i2 + 1}][{g1 + 1}]",
                        ))
    return out


def first_per_cell(violations: list[Violation]) -> list[Violation]:
    """The first violation of each (i1, g1) cell of a list in (i1, g1)
    order: what ``validate`` lists of a :func:`four_point_scan`."""
    cells: dict = {}
    for v in violations:
        cells.setdefault(v.indices[:2], v)
    return list(cells.values())


def reference_run_means(instance: AssignmentInstance, objective: Objective, k: int, runs: int, seed: int):
    """Reference sampler: one scalar ``substream(seed, run, i)`` per sample,
    its Fisher-Yates permutation, serial dictatorship and the exact integer
    score; each run's total is rounded once."""
    objective.require_compatible(instance)
    prefs = preference_rows(instance)
    scaled, denom = instance.table, instance.denom
    n = instance.n
    means = []
    for run in range(runs):
        total = 0
        for i in range(k):
            match = sd_assign(prefs, substream(seed, run, i).permutation(n))
            total += sum(scaled[a][match[a]] for a in range(n))
        means.append(float(Fraction(total, k * denom)))
    return tuple(means)


def lane_floor(n: int) -> int:
    """The fewest samples a batch of ``sd.sd_total`` runs on lanes with:
    1.5 n b, b the bits of an agent index; no batch does above LANES_MAX_N."""
    return (3 * n * (n - 1).bit_length() + 1) // 2 if n <= LANES_MAX_N else LANES + 1


def min_assignment_textbook(cost: list[list[int]]) -> list[int]:
    """Reference solver: the e-maxx shortest-augmenting-path algorithm as
    written, updating every column's potential or slack at every step;
    0-indexed agent -> item, ties to the first column of minimal slack."""
    n = len(cost)
    inf = math.inf
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match_col = [0] * (n + 1)  # match_col[j] = row currently assigned column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assign = [0] * n
    for j in range(1, n + 1):
        if match_col[j]:
            assign[match_col[j] - 1] = j - 1
    return assign


@contextlib.contextmanager
def int_digit_limit(digits):
    """Python's int-to-str digit limit set to ``digits`` (0: no limit)
    inside the block; a Python without the limit (before 3.10.7) runs the
    block as it is."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def entry_by_division(x: Fraction) -> int | str:
    """Reference writer for one entry: strip the powers of 2, then of 5,
    from the denominator by division, on every call."""
    x = Fraction(x)
    if x.denominator == 1:
        v = x.numerator
        return v if abs(v) < _JSON_INT_LIMIT else bounded_literal(exact_str(v))
    den = x.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{exact_str(x)} has no finite decimal representation")
    scale = max(twos, fives)
    digits = x.numerator * 10**scale // x.denominator
    sign = "-" if digits < 0 else ""
    text = exact_str(abs(digits)).rjust(scale + 1, "0")
    whole, frac = text[:-scale] if scale else text, text[-scale:] if scale else ""
    return bounded_literal(f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}")


def dumps_value_instance_by_division(instance: AssignmentInstance) -> str:
    """Reference bytes of a value instance's file, every entry written by
    :func:`entry_by_division`."""
    values = [[entry_by_division(x) for x in row] for row in instance.values]
    return json.dumps({"n": instance.n, "setting": instance.setting, "values": values}, indent=2) + "\n"


def parse_table_by_entries(rows, where: str) -> tuple[list[list[int]], int]:
    """Reference matrix reader: each entry read by ``_literal_ratio`` at its
    own address ``where[i][j]``, each row scaled to the lcm of its entries'
    denominators, then every row to the matrix's."""
    table, dens = [], []
    for i, row in enumerate(rows, start=1):
        ratios = [_literal_ratio(x, f"{where}[{i}][{j}]") for j, x in enumerate(row, start=1)]
        dens.append(math.lcm(*(d for _, d in ratios)))
        table.append([t * (dens[-1] // d) for t, d in ratios])
    denom = math.lcm(*dens)
    return [[t * (denom // den) for t in row] for row, den in zip(table, dens)], denom
