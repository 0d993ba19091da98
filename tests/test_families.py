from fractions import Fraction

import pytest

from rsdlab import (
    Family,
    Objective,
    bernoulli_welfare,
    canonical_ordering,
    enumerate_rsd,
    evaluate,
    generate,
    serial_dictatorship,
    solve_opt,
    validate,
    worst_case_metric_line,
)


def test_bernoulli_worked_example():
    inst = bernoulli_welfare(2)
    assert inst.values == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))


def test_worst_case_coordinates():
    inst = worst_case_metric_line(3)
    assert inst.agent_points == (Fraction(1), Fraction(2), Fraction(4))
    assert inst.item_points == (Fraction(-1), Fraction(2), Fraction(4))


def test_canonical_ordering_is_identity():
    assert canonical_ordering(3).seq == (1, 2, 3)
    assert canonical_ordering(1).seq == (1,)


@pytest.mark.parametrize("n", range(1, 11))
def test_identity_ordering_costs_power_of_two(n):
    inst = worst_case_metric_line(n)
    matching = serial_dictatorship(inst, canonical_ordering(n))
    assert evaluate(inst, matching, Objective.COST) == 2**n


@pytest.mark.parametrize("n", range(2, 9))
def test_worst_case_mean_below_linear_multiple_of_opt(n):
    inst = worst_case_metric_line(n)
    assert solve_opt(inst, Objective.COST).objective_value == 2
    if n <= 7:
        mean = enumerate_rsd(inst, Objective.COST).mean
        assert mean <= 2 * n


def test_bernoulli_exact_moments():
    for n in (2, 4, 6):
        summary = enumerate_rsd(bernoulli_welfare(n), Objective.WELFARE)
        assert summary.mean == Fraction(1, n)
        assert summary.variance == Fraction(1, n) * (1 - Fraction(1, n))


@pytest.mark.parametrize("family", list(Family))
def test_generated_instances_validate(family):
    for n in (1, 2, 5):
        inst = generate(family, n, 11)
        assert inst.n == n
        assert validate(inst) == []


def test_random_families_are_seed_deterministic():
    for family in (Family.RANDOM_VALUE, Family.RANDOM_METRIC_LINE, Family.RANDOM_ABSTRACT):
        a = generate(family, 4, 123)
        b = generate(family, 4, 123)
        c = generate(family, 4, 124)
        assert a == b
        assert a != c
        assert generate(family, 4) == generate(family, 4, 0)


def test_random_abstract_rankings_are_permutations():
    inst = generate(Family.RANDOM_ABSTRACT, 5, 9)
    for row in inst.rankings:
        assert sorted(row) == [1, 2, 3, 4, 5]


def test_zero_agents_rejected():
    with pytest.raises(ValueError):
        generate(Family.RANDOM_VALUE, 0, 1)
    with pytest.raises(ValueError):
        canonical_ordering(0)


def test_generate_refuses_a_family_that_is_not_a_family():
    # a family's value is not the family: each branch compares by identity
    with pytest.raises(ValueError, match="^unknown family 'random-value'$"):
        generate("random-value", 3, 1)


def test_random_values_are_scaled_integers():
    inst = generate(Family.RANDOM_VALUE, 3, 77)
    for row in inst.values:
        for x in row:
            assert 0 <= x <= 1
            assert (x * 10**6).denominator == 1
