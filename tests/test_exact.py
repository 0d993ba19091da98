import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abstract_battery, enumerate_rsd_by_orderings, metric_battery, tie_battery, value_battery
from rsdlab import (
    AssignmentInstance,
    Family,
    Objective,
    bernoulli_welfare,
    binomial_failure_probability,
    binomial_upper_tail,
    build_reduction,
    counts_by_rank,
    enumerate_rsd,
    generate,
    random_abstract,
    solve_opt,
    verify_reverse_chernoff_grid,
)
from rsdlab.exact import expected_objective

OBJECTIVE_OF = {"value": Objective.WELFARE, "metric": Objective.COST}


def assert_matches_reference(inst):
    """The DP equals the n!-ordering reference field for field, with the
    setting's objective and without one."""
    for objective in dict.fromkeys((None, OBJECTIVE_OF.get(inst.setting))):
        assert enumerate_rsd(inst, objective) == enumerate_rsd_by_orderings(inst, objective)


@pytest.mark.parametrize("family", list(Family))
def test_dp_matches_ordering_enumeration_on_every_family(family):
    seeds = (0,) if family in (Family.BERNOULLI_WELFARE, Family.WORST_CASE_METRIC_LINE) else (0, 1, 2)
    for n in range(1, 8):
        for seed in seeds:
            assert_matches_reference(generate(family, n, seed))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dp_matches_ordering_enumeration_under_ties(data):
    # entries in {0, 1, 2} make most preference rows contain ties
    n = data.draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    if data.draw(st.booleans()):
        inst = AssignmentInstance.from_values(data.draw(st.lists(entries, min_size=n, max_size=n)))
    else:
        inst = AssignmentInstance.from_line_points(data.draw(entries), data.draw(entries))
    assert_matches_reference(inst)


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_dp_matches_ordering_enumeration_on_reduction_instances(setting):
    # payoffs are powers of two hundreds of bits long
    for n in range(1, 6):
        for seed in (0, 1):
            assert_matches_reference(build_reduction(random_abstract(n, seed), setting))


@pytest.mark.parametrize("n", range(8, 12))
def test_count_only_and_moment_calls_give_the_same_counts(n):
    # past the reach of the n!-ordering reference: each state's packed int
    # holds a zero partial sum in one call and a payoff sum in the other
    for family in Family:
        inst = generate(family, n, n)
        sources = [build_reduction(inst, setting) for setting in ("value", "metric")] if inst.setting == "abstract" else [inst]
        counts = enumerate_rsd(inst, cap=n).counts
        for built in sources:
            assert enumerate_rsd(built, cap=n).counts == counts
            assert enumerate_rsd(built, OBJECTIVE_OF[built.setting], cap=n).counts == counts


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dp_matches_ordering_enumeration_with_negative_payoffs(data):
    # enumerate_rsd does not validate, so a raw instance's negative partial
    # sums reach the packed state and are read back by a floor shift
    n = data.draw(st.integers(1, 6))
    entry = st.fractions(-5, 3, max_denominator=4)
    rows = tuple(tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(n))
    field = data.draw(st.sampled_from(["values", "costs"]))
    inst = AssignmentInstance(n=n, setting="value" if field == "values" else "metric", **{field: rows})
    assert_matches_reference(inst)


def test_the_dp_mean_equals_the_mean_read_off_the_counts():
    # the DP reads the mean off its last state; expected_objective reads it off the counts
    reductions = [build_reduction(source, setting)
                  for source in abstract_battery(8, 60, ns=(2, 3, 4, 5)) for setting in ("value", "metric")]
    for inst in [*value_battery(12, 300), *metric_battery(12, 400), *tie_battery(12, 500), *reductions]:
        objective = OBJECTIVE_OF[inst.setting]
        summary = enumerate_rsd(inst, objective)
        assert summary.mean == expected_objective(inst, objective, summary.counts)


@pytest.mark.parametrize("family", [Family.RANDOM_VALUE, Family.RANDOM_METRIC_LINE, Family.RANDOM_ABSTRACT])
def test_raised_cap_reaches_n_twelve(family):
    inst = generate(family, 12, 3)
    objective = OBJECTIVE_OF.get(inst.setting)
    summary = enumerate_rsd(inst, objective, cap=12)
    fact = math.factorial(12)
    assert summary.order_count == fact
    for i in range(12):
        assert sum(summary.counts[i]) == fact
        assert sum(row[i] for row in summary.counts) == fact
    if objective is not None:
        matrix = inst.payoff_matrix()
        assert summary.mean == sum(
            summary.lottery[a][g] * matrix[a][g] for a in range(12) for g in range(12)
        )
        assert summary.variance == summary.second_moment - summary.mean**2


@pytest.mark.parametrize("n", range(2, 7))
def test_bernoulli_mean_is_one_over_n(n):
    summary = enumerate_rsd(bernoulli_welfare(n), Objective.WELFARE)
    assert summary.mean == Fraction(1, n)
    assert summary.variance == Fraction(1, n) * (1 - Fraction(1, n))


def test_single_agent_summary():
    inst = AssignmentInstance.from_values([["2.5"]])
    summary = enumerate_rsd(inst, Objective.WELFARE)
    assert summary.counts == ((1,),)
    assert summary.lottery == ((Fraction(1),),)
    assert summary.mean == Fraction(5, 2)
    assert summary.variance == 0


def test_two_agent_abstract_contested_item():
    inst = AssignmentInstance.from_rankings([(1, 2), (1, 2)])
    summary = enumerate_rsd(inst)
    assert summary.counts == ((1, 1), (1, 1))
    assert summary.lottery == ((Fraction(1, 2), Fraction(1, 2)),) * 2
    assert summary.mean is None


def test_counts_are_doubly_stochastic_on_random_instances():
    instances = metric_battery(12, 500, ns=(2, 3, 4, 5)) + value_battery(12, 700, ns=(2, 3, 4, 5))
    for inst in instances:
        objective = Objective.COST if inst.setting == "metric" else Objective.WELFARE
        summary = enumerate_rsd(inst, objective)
        fact = math.factorial(inst.n)
        for row in summary.counts:
            assert sum(row) == fact
        for g in range(inst.n):
            assert sum(summary.counts[i][g] for i in range(inst.n)) == fact
        for row in summary.lottery:
            assert sum(row) == 1
        assert summary.variance == summary.second_moment - summary.mean**2


def test_welfare_mean_brackets_optimum():
    for inst in value_battery(18, 1200, ns=(2, 3, 4, 5)):
        summary = enumerate_rsd(inst, Objective.WELFARE)
        opt = solve_opt(inst, Objective.WELFARE).objective_value
        assert summary.mean <= opt <= inst.n * summary.mean


def test_counts_by_rank_reindexes():
    inst = AssignmentInstance.from_rankings([(2, 1), (1, 2)])
    summary = enumerate_rsd(inst)
    by_rank = counts_by_rank(summary, inst)
    # agent 1 always wins item 2 (uncontested), agent 2 always wins item 1
    assert by_rank == ((2, 0), (2, 0))


def test_cap_is_enforced():
    with pytest.raises(ValueError, match="cap of 4"):
        enumerate_rsd(bernoulli_welfare(5), Objective.WELFARE, cap=4)
    # explicit higher cap accepts the cost
    assert enumerate_rsd(bernoulli_welfare(5), Objective.WELFARE, cap=5).mean == Fraction(1, 5)


def test_binomial_failure_worked_examples():
    assert binomial_failure_probability(2, 4, "0.5") == Fraction(10, 16)
    assert binomial_failure_probability(2, 2, 1) == Fraction(1, 2)


def test_binomial_failure_rejects_bad_domain():
    with pytest.raises(ValueError):
        binomial_failure_probability(1, 4, "0.5")
    with pytest.raises(ValueError):
        binomial_failure_probability(3, 0, "0.5")
    with pytest.raises(ValueError):
        binomial_failure_probability(3, 4, 0)


def test_binomial_upper_tail_and_the_grid_refuse_n_below_two():
    with pytest.raises(ValueError, match="^need n >= 2 and k >= 1$"):
        binomial_upper_tail(1, 4, 1)
    (cell,) = verify_reverse_chernoff_grid([(1, 100, "0.5")])
    assert (cell.applicable, cell.reason, cell.exact_tail, cell.floor_bound, cell.holds) == (
        False, "hypothesis unmet: success probability 1/1 exceeds 1/2", None, None, None)


def test_binomial_failure_matches_direct_sum():
    # independent oracle: direct comb/pow sum over the failure set
    n, k, eps = 5, 40, Fraction(1, 4)
    expected = sum(
        Fraction(math.comb(k, x) * (n - 1) ** (k - x), n**k)
        for x in range(k + 1)
        if abs(Fraction(x, k) - Fraction(1, n)) >= eps / n
    )
    assert binomial_failure_probability(n, k, eps) == expected


def test_binomial_upper_tail_matches_direct_sum():
    n, k, x_min = 7, 33, 9
    expected = sum(
        Fraction(math.comb(k, x) * (n - 1) ** (k - x), n**k)
        for x in range(x_min, k + 1)
    )
    assert binomial_upper_tail(n, k, x_min) == expected


def test_reverse_chernoff_grid_worked_cells():
    cells = verify_reverse_chernoff_grid([
        (10, 120, "0.5"),   # eps^2 k / n = 3 exactly
        (4, 48, "0.5"),
        (10, 116, "0.5"),   # eps^2 k / n = 2.9 -> flagged
        (10, 200, "0.7"),   # eps > 1/2 -> flagged
    ])
    first, second, flagged, bad_eps = cells

    assert first.applicable and first.holds
    assert first.exact_tail >= Fraction(math.exp(-27))
    assert first.floor_bound == pytest.approx(math.exp(-27))
    # independent check of the threshold: X/k >= 0.15 means X >= 18
    assert first.exact_tail == binomial_upper_tail(10, 120, 18)

    assert second.applicable and second.holds
    assert second.floor_bound == pytest.approx(math.exp(-27))

    assert not flagged.applicable
    assert "hypothesis unmet" in flagged.reason
    assert flagged.exact_tail is None

    assert not bad_eps.applicable
    assert "eps" in bad_eps.reason
