from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import metric_battery, tie_battery
from rsdlab import (
    AssignmentInstance,
    Matching,
    Objective,
    Ordering,
    SplitMix64,
    bernoulli_welfare,
    derive_preferences,
    evaluate,
    random_ordering,
    sd_run,
    serial_dictatorship,
    solve_opt,
    substream,
    worst_case_metric_line,
)
from rsdlab.core import integer_payoff_table, preference_rows
from rsdlab.sd import LANES, sd_assign, sd_total


def test_worst_case_identity_run():
    inst = worst_case_metric_line(3)
    matching = serial_dictatorship(inst, Ordering((1, 2, 3)))
    # agent@1 -> item@2, agent@2 -> item@4, agent@4 -> item@-1
    assert matching.assign == (2, 3, 1)
    assert evaluate(inst, matching, Objective.COST) == 8


def test_single_agent_matches_single_item():
    inst = AssignmentInstance.from_values([[3]])
    assert serial_dictatorship(inst, Ordering((1,))).assign == (1,)


def test_bernoulli_hand_run():
    inst = bernoulli_welfare(3)
    matching = serial_dictatorship(inst, Ordering((2, 1, 3)))
    assert matching.item_of(2) == 1  # zero-value dictator grabs min index
    assert matching.item_of(1) == 2
    assert matching.item_of(3) == 3


def test_invalid_ordering_rejected():
    inst = bernoulli_welfare(3)
    with pytest.raises(ValueError):
        serial_dictatorship(inst, Ordering((1, 1, 2)))
    with pytest.raises(ValueError):
        serial_dictatorship(inst, Ordering((1, 2)))


def test_evaluate_zero_matrix():
    inst = AssignmentInstance.from_values([[0] * 3] * 3)
    assert evaluate(inst, Matching((2, 3, 1)), Objective.WELFARE) == 0


def test_evaluate_matches_direct_sum():
    rows = [
        ["0.5", 2, 3, "0.25"],
        [1, 0, "1.5", 7],
        [4, "2.25", 0, 1],
        [2, 2, 2, "0.125"],
    ]
    inst = AssignmentInstance.from_values(rows)
    matching = Matching((4, 3, 2, 1))
    expected = Fraction("0.25") + Fraction("1.5") + Fraction("2.25") + Fraction(2)
    assert evaluate(inst, matching, Objective.WELFARE) == expected


def test_evaluate_rejects_mismatched_objective():
    inst = bernoulli_welfare(2)
    with pytest.raises(ValueError):
        evaluate(inst, Matching((1, 2)), Objective.COST)


def test_sd_run_bundles_exact_value():
    inst = worst_case_metric_line(2)
    run = sd_run(inst, Ordering((1, 2)), Objective.COST)
    assert run.matching.assign == (2, 1)
    assert run.objective_value == 4


def test_random_ordering_single_agent():
    rng = substream(1, 0, 0)
    for _ in range(5):
        assert random_ordering(rng, 1).seq == (1,)


def test_random_ordering_deterministic_per_state():
    a = random_ordering(substream(42, 3, 17), 8)
    b = random_ordering(substream(42, 3, 17), 8)
    assert a == b
    assert a.is_permutation()


def test_random_ordering_uniform_frequencies():
    rng = SplitMix64(2024)
    counts: dict[tuple, int] = {}
    draws = 60_000
    for _ in range(draws):
        seq = random_ordering(rng, 3).seq
        counts[seq] = counts.get(seq, 0) + 1
    assert len(counts) == 6
    for seq, c in counts.items():
        assert abs(c / draws - 1 / 6) < 0.01, (seq, c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sd_outputs_perfect_matchings(data):
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    inst = AssignmentInstance.from_values(rows)
    order = data.draw(st.permutations(list(range(1, n + 1))))
    matching = serial_dictatorship(inst, Ordering(tuple(order)))
    assert matching.is_perfect()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_each_dictator_gets_best_remaining_item(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    inst = AssignmentInstance.from_values(rows)
    order = data.draw(st.permutations(list(range(1, n + 1))))
    matching = serial_dictatorship(inst, Ordering(tuple(order)))
    remaining = set(range(1, n + 1))
    for agent in order:
        prefs = derive_preferences(inst, agent)
        best_remaining = min(remaining, key=prefs.index)
        assert matching.item_of(agent) == best_remaining
        remaining.remove(best_remaining)


def test_sd_cost_within_power_of_two_factor_of_opt():
    # every ordering of every small instance stays below 2^n times optimal
    for inst in metric_battery(12, base_seed=4000, ns=(2, 3, 4)):
        opt = solve_opt(inst, Objective.COST).objective_value
        bound = 2**inst.n * opt
        for order in permutations(range(1, inst.n + 1)):
            matching = serial_dictatorship(inst, Ordering(order))
            assert evaluate(inst, matching, Objective.COST) <= bound


@pytest.mark.parametrize("n", [1, 2, 9, 20, 257])
def test_sd_total_is_the_sum_of_sd_assign_scores(n):
    # arbitrary orderings, not Fisher-Yates draws, across a lane-batch boundary
    # where sd_assign is cheap; n = 257 is the first n whose agent indices
    # reach the high byte of their 16 bits
    rng = Random(n)
    count = 40 if n > 20 else LANES + 2
    for inst in tie_battery(2, 9100 + n, ns=(n,)):
        prefs = preference_rows(inst)
        scaled, _ = integer_payoff_table(inst)
        orders = [list(range(n)), list(range(n))[::-1]] + [rng.sample(range(n), n) for _ in range(count - 2)]
        expected = sum(scaled[a][g] for order in orders for a, g in enumerate(sd_assign(prefs, order)))
        assert sd_total(prefs, scaled, iter(orders)) == expected
        assert sd_total(prefs, scaled, []) == 0
