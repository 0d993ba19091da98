import math
import threading
from fractions import Fraction

import pytest

from conftest import abstract_battery, lane_floor, metric_battery, reference_run_means, tie_battery, value_battery
from rsdlab import (
    Objective,
    bernoulli_welfare,
    build_reduction,
    check_approx,
    enumerate_rsd,
    estimate_mean,
    estimate_median_of_means,
    median,
    solve_opt,
    substream,
    worst_case_metric_line,
)
from rsdlab import sd as sd_module
from rsdlab.estimate import ExactFloatSum
from rsdlab.sd import _CHUNK, LANES, random_ordering, sd_run


def test_k_one_equals_single_run_value():
    inst = worst_case_metric_line(4)
    report = estimate_mean(inst, Objective.COST, k=1, seed=99)
    ordering = random_ordering(substream(99, 0, 0), 4)
    expected = float(sd_run(inst, ordering, Objective.COST).objective_value)
    assert report.estimate == expected
    assert report.run_values == (expected,)


def test_bernoulli_estimate_close_to_exact_mean():
    report = estimate_mean(bernoulli_welfare(3), Objective.WELFARE, k=60_000, seed=12345)
    assert abs(report.estimate - 1 / 3) < 0.02


def test_worst_case_estimate_close_to_enumeration():
    inst = worst_case_metric_line(3)
    exact = enumerate_rsd(inst, Objective.COST).mean
    report = estimate_mean(inst, Objective.COST, k=600_000, seed=31415)
    assert abs(report.estimate - float(exact)) < 0.02 * float(exact)


def test_zero_samples_rejected():
    with pytest.raises(ValueError):
        estimate_mean(bernoulli_welfare(2), Objective.WELFARE, k=0, seed=1)
    with pytest.raises(ValueError):
        estimate_median_of_means(bernoulli_welfare(2), Objective.WELFARE, k=5, runs=0, seed=1)


def test_median_definition():
    assert median([5.0, 1.0, 9.0]) == 5.0
    assert median([4.0]) == 4.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5


def test_single_run_median_of_means_equals_mean():
    inst = worst_case_metric_line(5)
    mom = estimate_median_of_means(inst, Objective.COST, k=400, runs=1, seed=777)
    mean = estimate_mean(inst, Objective.COST, k=400, seed=777)
    assert mom.estimate == mean.estimate
    assert mom.run_values == mean.run_values


def test_median_of_constant_runs_is_constant():
    # every matching of an all-ones instance has welfare n, so each run is exact
    from rsdlab import AssignmentInstance

    inst = AssignmentInstance.from_values([[1] * 3] * 3)
    report = estimate_median_of_means(inst, Objective.WELFARE, k=7, runs=5, seed=3)
    assert report.run_values == (3.0,) * 5
    assert report.estimate == 3.0


def test_reports_are_deterministic_across_repeated_calls():
    inst = worst_case_metric_line(5)
    reference = estimate_median_of_means(inst, Objective.COST, k=503, runs=4, seed=2718)
    for _ in range(3):
        again = estimate_median_of_means(inst, Objective.COST, k=503, runs=4, seed=2718)
        assert again.run_values == reference.run_values
        assert again.estimate == reference.estimate
    single = estimate_mean(inst, Objective.COST, k=997, seed=555)
    for _ in range(3):
        assert estimate_mean(inst, Objective.COST, k=997, seed=555) == single


def test_sampling_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("the estimator started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    inst = worst_case_metric_line(4)
    estimate_median_of_means(inst, Objective.COST, k=50, runs=3, seed=1)
    estimate_mean(inst, Objective.COST, k=50, seed=1)


def test_estimator_distribution_is_binomial_on_bernoulli():
    # k * estimate counts first-dictator hits, an exact Binomial(k, 1/n)
    n, k, trials = 2, 6, 100_000
    inst = bernoulli_welfare(n)
    counts = [0] * (k + 1)
    from rsdlab.rng import derive_seed

    for t in range(trials):
        report = estimate_mean(inst, Objective.WELFARE, k=k, seed=derive_seed(424242, t))
        hits = round(report.estimate * k)
        counts[hits] += 1
    for x in range(k + 1):
        p = math.comb(k, x) * (n - 1) ** (k - x) / n**k
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[x] / trials - p) <= 3 * se, (x, counts[x] / trials, p)


def test_run_values_stay_in_objective_range():
    for inst in value_battery(6, 6100, ns=(3, 4)):
        opt = float(solve_opt(inst, Objective.WELFARE).objective_value)
        report = estimate_median_of_means(inst, Objective.WELFARE, k=50, runs=3, seed=5)
        assert all(0 <= v <= opt for v in report.run_values)
    for inst in metric_battery(6, 6200, ns=(3, 4)):
        bound = 2**inst.n * float(solve_opt(inst, Objective.COST).objective_value)
        report = estimate_median_of_means(inst, Objective.COST, k=50, runs=3, seed=5)
        assert all(0 <= v <= bound for v in report.run_values)


def test_check_approx_exact_match_holds():
    verdict = check_approx(0.5, Fraction(1, 2), "0.25")
    assert verdict.holds and verdict.side == "within"


def test_check_approx_boundary_is_strict():
    verdict = check_approx(0.25, Fraction(1, 2), "0.5")
    assert not verdict.holds
    assert verdict.side == "under-fail"
    over = check_approx(0.75, Fraction(1, 2), "0.5")
    assert not over.holds and over.side == "over-fail"


def test_check_approx_zero_target_rule():
    assert check_approx(0.0, 0, "0.5").holds
    failed = check_approx(1e-9, 0, "0.5")
    assert not failed.holds and failed.side == "over-fail"


def test_check_approx_rejects_bad_eps():
    with pytest.raises(ValueError):
        check_approx(1.0, 1, 0)
    with pytest.raises(ValueError):
        check_approx(1.0, 1, 2)


def test_check_approx_rejects_a_negative_target():
    with pytest.raises(ValueError, match="^target must be non-negative$"):
        check_approx(1.0, -1, "0.5")


def test_exact_float_sum_merges_exactly():
    values = [0.1 * i for i in range(200)]
    whole = ExactFloatSum()
    for v in values:
        whole.add(v)
    left, right = ExactFloatSum(), ExactFloatSum()
    for v in values[:67]:
        left.add(v)
    for v in values[67:]:
        right.add(v)
    left.merge(right)
    assert left.mean(200) == whole.mean(200)
    assert whole.mean(200) == float(sum(Fraction(v) for v in values) / 200)


def test_run_means_are_the_correctly_rounded_mean_of_exact_sample_values():
    # random_value payoffs are millionths, which no double holds exactly, so
    # rounding any payoff or sample score before the mean shows in the last bits
    k, runs, seed = 30, 3, 2024
    for inst in value_battery(24, 7100, ns=(2, 3, 5, 7, 9, 10)):
        expected = tuple(
            float(Fraction(sum(
                sd_run(inst, random_ordering(substream(seed, j, i), inst.n), Objective.WELFARE).objective_value
                for i in range(k)
            ), k))
            for j in range(runs)
        )
        report = estimate_median_of_means(inst, Objective.WELFARE, k=k, runs=runs, seed=seed)
        assert report.run_values == expected
        assert estimate_mean(inst, Objective.WELFARE, k=k, seed=seed).estimate == expected[0]


def objective_of(inst):
    return Objective.WELFARE if inst.setting == "value" else Objective.COST


@pytest.fixture
def samplers(monkeypatch):
    """The path each sampled batch of an estimator call takes, in order:
    "lanes" or "scalar" once per batch of up to ``LANES`` samples."""
    seen = []
    for name, path in (("_lane_total", "lanes"), ("_scalar_total", "scalar")):
        def spy(*args, fn=getattr(sd_module, name), path=path):
            seen.append(path)
            return fn(*args)

        monkeypatch.setattr(sd_module, name, spy)
    return seen


def expected_paths(n, k, runs):
    """Each batch of up to LANES on lanes if it reaches the lane floor, else
    on the scalar loop."""
    batches = [min(LANES, k - start) for start in range(0, k, LANES)]
    return ["lanes" if count >= lane_floor(n) else "scalar" for count in batches] * runs


def battery_at(n, base_seed):
    return (value_battery(3, base_seed, ns=(n,)) + metric_battery(3, base_seed + 100, ns=(n,))
            + [inst for inst in tie_battery(6, base_seed + 200) if inst.n == n])


def mixed_battery():
    return (
        value_battery(3, 8100, ns=(1, 3, 8))
        + metric_battery(3, 8200, ns=(1, 2, 7))
        + tie_battery(3, 8300)
        # reduction-built: payoffs up to about 2**360
        + [build_reduction(source, setting)
           for source in abstract_battery(2, 8400, ns=(4, 5))
           for setting in ("value", "metric")]
    )


@pytest.mark.parametrize("k,runs,instances", [
    pytest.param(k, 2, mixed_battery, id=str(k)) for k in (1, 5, _CHUNK - 1, _CHUNK, _CHUNK + 1)
] + [
    # k * runs one short of n!, and n!: at n = 5 every batch is below the
    # lane floor (23) and runs on the scalar loop, at n = 6 above it (27)
    pytest.param(7, 17, lambda: battery_at(5, 8600), id="n5-below"),
    pytest.param(8, 15, lambda: battery_at(5, 8600), id="n5-at"),
    pytest.param(719, 1, lambda: battery_at(6, 8700), id="n6-below"),
    pytest.param(240, 3, lambda: battery_at(6, 8700), id="n6-at"),
    # 8! samples in all, on lanes: two runs of five batches, the last of 3,776
    pytest.param(20160, 2, lambda: (value_battery(1, 8750, ns=(8,)) + metric_battery(1, 8760, ns=(8,))
                                    + tie_battery(2, 8770, ns=(8,))), id="n8-at"),
] + [
    # one sample short of the lane floor at n = 9 (1.5 * 9 * 4 = 54) and at it;
    # one ordering short of a full lane batch, a full batch, and one into a second
    pytest.param(k, 2, lambda: battery_at(9, 8800) + tie_battery(2, 8900, ns=(9,)), id=f"n9-{k}")
    for k in (53, 54, LANES - 1, LANES, LANES + 1)
])
def test_run_means_equal_the_scalar_reference(k, runs, instances, samplers):
    seed = 8500 + k
    for inst in instances():
        samplers.clear()
        report = estimate_median_of_means(inst, objective_of(inst), k=k, runs=runs, seed=seed)
        assert report.run_values == reference_run_means(inst, objective_of(inst), k, runs, seed), inst
        assert samplers == expected_paths(inst.n, k, runs), inst


def test_reseeded_lane_batches_in_one_process_equal_the_scalar_reference(samplers):
    # every call below runs batches of one size, 3,456 lanes, and so reads
    # one cached set of lane constants: seed 1, seed 2 and seed 1 again, two
    # runs each, must each give the reference, or a seed- or run-dependent
    # value hides in that cache
    inst = value_battery(1, 9100, ns=(6,))[0]
    for seed in (1, 2, 1):
        samplers.clear()
        report = estimate_median_of_means(inst, Objective.WELFARE, k=3456, runs=2, seed=seed)
        assert report.run_values == reference_run_means(inst, Objective.WELFARE, 3456, 2, seed), seed
        assert samplers == ["lanes", "lanes"]
