import math
from fractions import Fraction

import pytest

from rsdlab import (
    Inequality,
    Method,
    binomial_failure_probability,
    bound_value,
    sample_size,
    welfare_lower_bound_window,
)
from rsdlab.bounds import MAX_N


def test_welfare_bernstein_worked_example():
    plan = sample_size(Method.WELFARE_BERNSTEIN, 10, "0.5", "0.1")
    assert plan.k == 320
    assert plan.runs is None


def test_cost_median_of_means_worked_example():
    plan = sample_size(Method.COST_MEDIAN_OF_MEANS, 8, "0.5", "0.1")
    assert plan.k == 8192
    assert plan.runs == 32
    assert plan.k_raw == 8192  # exact rational, no log in k


def test_cost_chebyshev_degenerate_example():
    plan = sample_size(Method.COST_CHEBYSHEV, 1, 1, 1)
    assert plan.k == 1


def test_cost_single_run_ignores_delta():
    a = sample_size(Method.COST_SINGLE_RUN, 6, "0.5", "0.01")
    b = sample_size(Method.COST_SINGLE_RUN, 6, "0.5", "0.99")
    assert a.k == b.k == math.ceil(3 * 6**3 / 0.25)
    assert a.runs is None


def test_cost_bernstein_takes_the_larger_branch():
    # small n: polynomial branch; large n: 2^n branch dominates
    small = sample_size(Method.COST_BERNSTEIN, 3, "0.5", "0.1")
    assert small.k_raw == 4 * Fraction(27, Fraction(1, 4)) * Fraction(math.log(20.0))
    big = sample_size(Method.COST_BERNSTEIN, 15, "0.5", "0.1")
    assert big.k_raw == 4 * Fraction(2**15, Fraction(3, 2)) * Fraction(math.log(20.0))


def test_sample_size_domain_checks():
    with pytest.raises(ValueError):
        sample_size(Method.WELFARE_BERNSTEIN, 0, "0.5", "0.1")
    with pytest.raises(ValueError):
        sample_size(Method.WELFARE_BERNSTEIN, 5, "1.5", "0.1")
    with pytest.raises(ValueError):
        sample_size(Method.WELFARE_BERNSTEIN, 5, "0.5", 0)
    # a method's value is not the method: each branch compares by identity
    with pytest.raises(ValueError, match="^unknown method 'welfare-bernstein'$"):
        sample_size("welfare-bernstein", 5, "0.5", "0.1")


@pytest.mark.parametrize("method", list(Method))
def test_sample_size_plans_up_to_max_n_and_refuses_past_it(method):
    plan = sample_size(method, MAX_N, "0.5", "0.1")
    assert plan.n == MAX_N
    assert plan.k >= sample_size(method, MAX_N - 1, "0.5", "0.1").k
    for n in (MAX_N + 1, 10**12):
        with pytest.raises(ValueError, match=f"^n must be between 1 and {MAX_N}$"):
            sample_size(method, n, "0.5", "0.1")


@pytest.mark.parametrize("method", list(Method))
def test_sample_size_monotonicity(method):
    eps_grid = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    delta_grid = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)]
    for delta in delta_grid:
        for n in (2, 4, 8):
            ks = [sample_size(method, n, eps, delta).k for eps in eps_grid]
            assert ks == sorted(ks, reverse=True)  # non-increasing in eps
        for eps in eps_grid:
            ks = [sample_size(method, n, eps, delta).k for n in (2, 4, 8)]
            assert ks == sorted(ks)  # non-decreasing in n
    for eps in eps_grid:
        for n in (2, 4, 8):
            ks = [sample_size(method, n, eps, delta).k for delta in delta_grid]
            assert ks == sorted(ks, reverse=True)  # non-increasing in delta


def test_hoeffding_bernstein_preceiling_ratio():
    for n in range(1, 13):
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            for delta in (Fraction(1, 10), Fraction(1, 2)):
                hoeffding = sample_size(Method.WELFARE_HOEFFDING, n, eps, delta)
                bernstein = sample_size(Method.WELFARE_BERNSTEIN, n, eps, delta)
                assert hoeffding.k_raw / bernstein.k_raw == Fraction(3 * n, 16)


def test_bernstein_plan_beats_exact_binomial_failure():
    # the planned k really pushes the exact failure probability below delta
    for n in (2, 4, 8, 12):
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            for delta in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
                plan = sample_size(Method.WELFARE_BERNSTEIN, n, eps, delta)
                assert binomial_failure_probability(n, plan.k, eps) <= delta


def test_lower_bound_window_worked_example():
    window = welfare_lower_bound_window(10, "0.5", math.exp(-28))
    assert window.k_lo == 120
    assert window.k_hi == pytest.approx(10 / 2.25 * 28)
    assert window.applicable


def test_lower_bound_window_large_delta_not_applicable():
    window = welfare_lower_bound_window(10, "0.5", "0.1")
    assert not window.applicable
    assert "e^-27" in window.reason


def test_lower_bound_window_empty_iff_delta_hypothesis_fails():
    # ln(1/delta) <= 27 makes the window empty and the hypothesis false together
    window = welfare_lower_bound_window(6, "0.5", math.exp(-27))
    assert not window.applicable
    assert window.k_lo >= window.k_hi or "e^-27" in window.reason


def test_lower_bound_window_is_empty_just_below_e_to_the_minus_27():
    # the double below exp(-27) passes the delta hypothesis, but k_hi rounds to k_lo
    window = welfare_lower_bound_window(10, "0.5", math.nextafter(math.exp(-27), 0))
    assert (window.k_lo, window.k_hi, window.applicable, window.reason) == (120, 120.0, False, "window is empty")


@pytest.mark.parametrize("eps, delta, message", [
    ("0", "1e-20", "eps must lie in (0, 1]"),
    ("1.5", "1e-20", "eps must lie in (0, 1]"),
    ("0.5", "0", "delta must be positive"),
    ("0.5", "-1e-20", "delta must be positive"),
])
def test_lower_bound_window_refuses_eps_or_delta_out_of_range(eps, delta, message):
    with pytest.raises(ValueError) as info:
        welfare_lower_bound_window(10, eps, delta)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [1, 0])
def test_lower_bound_window_refuses_fewer_than_two_agents(n):
    with pytest.raises(ValueError, match="^n must be at least 2$"):
        welfare_lower_bound_window(n, "0.5", "0.1")


def test_bernstein_bound_worked_example():
    result = bound_value(Inequality.BERNSTEIN, t=3, alpha=1, total_variance=0)
    assert result.value == pytest.approx(2 * math.exp(-4.5))
    assert result.kind == "upper-tail-bound"
    assert not result.vacuous


def test_bhatia_davis_degenerate_interval():
    result = bound_value(Inequality.BHATIA_DAVIS, low=2.0, high=7.0, mean=2.0)
    assert result.value == 0.0
    assert result.kind == "variance-upper-bound"


def test_chebyshev_cantelli_worked_example():
    assert bound_value(Inequality.CHEBYSHEV_CANTELLI, t=1).value == 0.5


def test_hoeffding_and_chebyshev_values():
    assert bound_value(Inequality.HOEFFDING, t=2.0, sum_squared_ranges=8.0).value == pytest.approx(
        2 * math.exp(-1.0)
    )
    cheb = bound_value(Inequality.CHEBYSHEV, t=1.0, variance=4.0)
    assert cheb.value == 4.0
    assert cheb.vacuous  # above 1, returned as-is


def test_chernoff_bound_value():
    result = bound_value(Inequality.CHERNOFF, eta=1.0, mu=8.0)
    assert result.value == pytest.approx((math.e / 4) ** 8)


def test_reverse_chernoff_domain_enforced():
    good = bound_value(Inequality.REVERSE_CHERNOFF, eta=0.5, p=0.1, k=120)
    assert good.value == pytest.approx(math.exp(-27))
    assert good.kind == "lower-tail-bound"
    with pytest.raises(ValueError, match="eta\\^2"):
        bound_value(Inequality.REVERSE_CHERNOFF, eta=0.5, p=0.1, k=119)
    with pytest.raises(ValueError, match="p in"):
        bound_value(Inequality.REVERSE_CHERNOFF, eta=0.5, p=0.9, k=1000)
