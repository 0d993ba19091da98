"""Optimal one-to-one assignment: max welfare or min cost, exactly.

The O(n^3) potential-based assignment algorithm (shortest augmenting paths,
with the potential updates of each augmentation deferred to its end, as in
Jonker & Volgenant) runs on the instance's integer payoff ``table`` (the
payoffs times their common denominator ``denom``).  A positive scale preserves every comparison, so the
matching is the one the rational payoffs give, and its value is read off
the same table, its entries' sum over the denominator; the reported optimum
can be compared with exact enumeration results without tolerances.  Welfare
maximization negates the table and reuses the minimizer.  A factorial
brute-force solver, summing each matching's entries of the same table,
doubles as the independent test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import getitem

from .core import AssignmentInstance, Matching, Objective


@dataclass(frozen=True)
class OptResult:
    """An optimal perfect matching together with its exact objective value."""

    matching: Matching
    objective_value: Fraction


def _min_assignment(cost: list[list[int]]) -> list[int]:
    """Minimum-cost perfect matching (0-indexed agent -> item).

    Potential-based shortest-augmenting-path method (the e-maxx Hungarian
    algorithm), one augmentation per row; arithmetic stays in integers
    apart from the +inf sentinel for unreached columns.  Within one
    augmentation the potential updates are deferred: ``minv`` holds each
    free column's slack plus ``acc``, the sum of the steps' deltas so far,
    so a step scans only the free columns and moves no other entry, and
    the visited columns' potentials are settled once at the end.  Every
    comparison is the textbook one shifted by ``acc`` on both sides, so
    each step picks the same column (the first of minimal slack) and the
    matching is the textbook one.
    """
    n = len(cost)
    inf = math.inf
    root = n  # the extra column each augmentation starts from
    u = [0] * n
    v = [0] * (n + 1)
    row_of = [-1] * (n + 1)  # row_of[j] = row assigned to column j, -1 if none
    way = [0] * (n + 1)
    for i in range(n):
        row_of[root] = i
        j0 = root
        minv = [inf] * n
        free = list(range(n))
        visited = []  # (column, acc when it was reached)
        acc = 0
        while True:
            visited.append((j0, acc))
            i0 = row_of[j0]
            row = cost[i0]
            shift = u[i0] - acc
            best = inf
            j1 = -1
            for j in free:
                cur = row[j] - v[j] - shift
                slack = minv[j]
                if cur < slack:
                    minv[j] = slack = cur
                    way[j] = j0
                if slack < best:
                    best = slack
                    j1 = j
            acc = best
            j0 = j1
            if row_of[j0] < 0:
                break
            free.remove(j0)
        for j, reached in visited:
            delta = acc - reached
            u[row_of[j]] += delta
            v[j] -= delta
        while j0 != root:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    assign = [0] * n
    for j in range(n):
        assign[row_of[j]] = j
    return assign


def solve_opt(instance: AssignmentInstance, objective: Objective) -> OptResult:
    """Exact optimum: maximum welfare or minimum cost perfect matching."""
    objective.require_compatible(instance)
    scaled, denom = instance.table, instance.denom
    rows = [[-p for p in row] for row in scaled] if objective is Objective.WELFARE else scaled
    assign = _min_assignment(rows)
    total = sum(map(getitem, scaled, assign))  # before the welfare negation
    return OptResult(matching=Matching(tuple(g + 1 for g in assign)), objective_value=Fraction(total, denom))


def brute_force_opt(instance: AssignmentInstance, objective: Objective, cap: int = 7) -> OptResult:
    """Reference optimum by enumerating all n! matchings.

    Ties are broken lexicographically by the assignment vector; refuses
    n > cap.
    """
    objective.require_compatible(instance)
    n = instance.n
    if n > cap:
        raise ValueError(f"brute force over {n}! matchings refused: n={n} exceeds the cap of {cap}")
    rows, denom = instance.table, instance.denom
    best_assign: tuple[int, ...] | None = None
    best_total: int | None = None
    maximize = objective is Objective.WELFARE
    for assign in permutations(range(n)):
        total = sum(map(getitem, rows, assign))
        if best_total is None or (total > best_total if maximize else total < best_total):
            best_total = total
            best_assign = assign
    assert best_assign is not None and best_total is not None
    return OptResult(matching=Matching(tuple(g + 1 for g in best_assign)), objective_value=Fraction(best_total, denom))
