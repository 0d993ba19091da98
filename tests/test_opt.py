from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abstract_battery, metric_battery, min_assignment_textbook, value_battery
from rsdlab import (
    AssignmentInstance,
    Matching,
    Objective,
    bernoulli_welfare,
    brute_force_opt,
    build_reduction,
    dumps_instance,
    evaluate,
    loads_instance,
    random_metric_line,
    random_value,
    solve_opt,
    worst_case_metric_line,
)
from rsdlab.optimal import _min_assignment


@pytest.mark.parametrize("n", range(2, 9))
def test_worst_case_optimum_is_two(n):
    inst = worst_case_metric_line(n)
    assert solve_opt(inst, Objective.COST).objective_value == 2


def test_identity_matrix_optimum():
    n = 5
    rows = [[1 if i == g else 0 for g in range(n)] for i in range(n)]
    result = solve_opt(AssignmentInstance.from_values(rows), Objective.WELFARE)
    assert result.objective_value == n
    assert result.matching.assign == (1, 2, 3, 4, 5)


def test_bernoulli_optimum_is_one():
    result = brute_force_opt(bernoulli_welfare(4), Objective.WELFARE)
    assert result.objective_value == 1
    assert result.matching.item_of(1) == 1


def test_single_agent_brute_force():
    result = brute_force_opt(AssignmentInstance.from_values([[7]]), Objective.WELFARE)
    assert result.matching.assign == (1,)
    assert result.objective_value == 7


def test_brute_force_cap():
    with pytest.raises(ValueError, match="cap"):
        brute_force_opt(bernoulli_welfare(8), Objective.WELFARE)


def test_solver_agrees_with_brute_force():
    instances = value_battery(60, 3100, ns=(2, 3, 4, 5, 6)) + metric_battery(60, 3300, ns=(2, 3, 4, 5, 6))
    # reduction-built instances: payoffs up to about 2**360, far past float precision
    instances += [
        build_reduction(source, setting)
        for source in abstract_battery(8, 3500, ns=(3, 4, 5, 6))
        for setting in ("value", "metric")
    ]
    for inst in instances:
        objective = Objective.WELFARE if inst.setting == "value" else Objective.COST
        fast = solve_opt(inst, objective)
        slow = brute_force_opt(inst, objective)
        assert fast.objective_value == slow.objective_value
        assert evaluate(inst, fast.matching, objective) == fast.objective_value


def test_optimum_bounds_every_matching():
    for inst in value_battery(10, 4500, ns=(3, 4)):
        opt = solve_opt(inst, Objective.WELFARE).objective_value
        for assign in permutations(range(1, inst.n + 1)):
            assert evaluate(inst, Matching(assign), Objective.WELFARE) <= opt
    for inst in metric_battery(10, 4600, ns=(3, 4)):
        opt = solve_opt(inst, Objective.COST).objective_value
        for assign in permutations(range(1, inst.n + 1)):
            assert evaluate(inst, Matching(assign), Objective.COST) >= opt


def test_objective_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_opt(bernoulli_welfare(3), Objective.COST)


def test_exact_rational_entries_survive():
    rows = [["0.1", "0.3"], ["0.3", "0.1"]]
    result = solve_opt(AssignmentInstance.from_values(rows), Objective.WELFARE)
    assert result.objective_value == Fraction(3, 5)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 25).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_solver_picks_the_textbook_matching_on_tie_heavy_matrices(cost):
    # entries in {0, 1, 2}: most steps have several columns of minimal slack
    assert _min_assignment(cost) == min_assignment_textbook(cost)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("build, n, objective", [
    (random_value, 80, Objective.WELFARE),
    (random_metric_line, 20, Objective.COST),
], ids=["value80", "line20"])
def test_solver_picks_the_textbook_matching_on_large_files(build, n, objective, seed):
    # the benchmark's opt inputs, read back from their files; on a line
    # many matchings share the optimal cost, so the matching pins the ties
    instance = loads_instance(dumps_instance(build(n, seed)))
    rows = instance.table
    if objective is Objective.WELFARE:
        rows = [[-p for p in row] for row in rows]
    expected = tuple(g + 1 for g in min_assignment_textbook(rows))
    assert solve_opt(instance, objective).matching.assign == expected
