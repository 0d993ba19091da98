"""Optimal one-to-one assignment: max welfare or min cost, exactly.

The O(n^3) potential-based assignment algorithm runs on the integer payoff
table of :func:`rsdlab.core.integer_payoff_table` (the payoffs times their
common denominator).  A positive scale preserves every comparison, so the
matching is the one the rational payoffs give, and its value is then summed
exactly from the instance; the reported optimum can be compared with exact
enumeration results without tolerances.  Welfare maximization negates the
table and reuses the minimizer.  A factorial brute-force solver over the
rational entries doubles as the independent test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .core import AssignmentInstance, Matching, Objective, integer_payoff_table
from .sd import evaluate


@dataclass(frozen=True)
class OptResult:
    """An optimal perfect matching together with its exact objective value."""

    matching: Matching
    objective_value: Fraction


def _min_assignment(cost: list[list[int]]) -> list[int]:
    """Minimum-cost perfect matching (0-indexed agent -> item).

    Potential-based shortest-augmenting-path method; arithmetic stays in
    integers apart from the +inf sentinel for unreached columns.
    """
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


def solve_opt(instance: AssignmentInstance, objective: Objective) -> OptResult:
    """Exact optimum: maximum welfare or minimum cost perfect matching."""
    objective.require_compatible(instance)
    rows, _ = integer_payoff_table(instance)
    if objective is Objective.WELFARE:
        rows = [[-p for p in row] for row in rows]
    assign = _min_assignment(rows)
    matching = Matching(tuple(g + 1 for g in assign))
    return OptResult(matching=matching, objective_value=evaluate(instance, matching, objective))


def brute_force_opt(instance: AssignmentInstance, objective: Objective, cap: int = 7) -> OptResult:
    """Reference optimum by enumerating all n! matchings.

    Ties are broken lexicographically by the assignment vector; refuses
    n > cap.
    """
    objective.require_compatible(instance)
    n = instance.n
    if n > cap:
        raise ValueError(f"brute force over {n}! matchings refused: n={n} exceeds the cap of {cap}")
    matrix = instance.payoff_matrix()
    best_assign: tuple[int, ...] | None = None
    best_value: Fraction | None = None
    maximize = objective is Objective.WELFARE
    for assign in permutations(range(n)):
        value = sum((matrix[i][assign[i]] for i in range(n)), start=Fraction(0))
        if best_value is None or (value > best_value if maximize else value < best_value):
            best_value = value
            best_assign = assign
    assert best_assign is not None and best_value is not None
    return OptResult(
        matching=Matching(tuple(g + 1 for g in best_assign)),
        objective_value=best_value,
    )
