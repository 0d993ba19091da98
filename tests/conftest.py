"""Shared battery builders for the seeded random-instance tests, and the
slow references that the exact oracle, the metric check and the sampler are
held to."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from rsdlab import AssignmentInstance, random_abstract, random_metric_line, random_value
from rsdlab.core import SETTING_VALUE, Objective, Violation, clipped, integer_payoff_table, preference_rows
from rsdlab.exact import DEFAULT_ORACLE_CAP, ExactSummary, enumerate_rsd
from rsdlab.rng import substream
from rsdlab.sd import sd_assign


def metric_battery(count: int, base_seed: int, ns=(2, 3, 4, 5, 6, 7)) -> list[AssignmentInstance]:
    return [random_metric_line(ns[i % len(ns)], base_seed + i) for i in range(count)]


def value_battery(count: int, base_seed: int, ns=(2, 3, 4, 5, 6, 7)) -> list[AssignmentInstance]:
    return [random_value(ns[i % len(ns)], base_seed + i) for i in range(count)]


def abstract_battery(count: int, base_seed: int, ns=(2, 3, 4)) -> list[AssignmentInstance]:
    return [random_abstract(ns[i % len(ns)], base_seed + i) for i in range(count)]


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
        scaled, denom = integer_payoff_table(instance)
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


def reference_run_means(instance: AssignmentInstance, objective: Objective, k: int, runs: int, seed: int):
    """Reference sampler: one scalar ``substream(seed, run, i)`` per sample,
    its Fisher-Yates permutation, serial dictatorship and the exact integer
    score; each run's total is rounded once."""
    objective.require_compatible(instance)
    prefs = preference_rows(instance)
    scaled, denom = integer_payoff_table(instance)
    n = instance.n
    means = []
    for run in range(runs):
        total = 0
        for i in range(k):
            match = sd_assign(prefs, substream(seed, run, i).permutation(n))
            total += sum(scaled[a][match[a]] for a in range(n))
        means.append(float(Fraction(total, k * denom)))
    return tuple(means)
