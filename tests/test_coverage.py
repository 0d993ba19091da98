from fractions import Fraction

import pytest

import rsdlab.coverage
from conftest import count_dp_calls
from rsdlab import (
    AssignmentInstance,
    Method,
    Objective,
    bernoulli_welfare,
    coverage_csv,
    enumerate_rsd,
    resolve_reference,
    run_coverage,
    sample_size,
    worst_case_metric_line,
)
from rsdlab.coverage import ANALYTIC_FAMILY, EXACT_ORACLE, USER_SUPPLIED


def test_exact_estimator_never_fails():
    # all-ones values make every matching's welfare equal to n exactly
    inst = AssignmentInstance.from_values([[1] * 3] * 3)
    plan = sample_size(Method.WELFARE_BERNSTEIN, 3, "0.5", "0.5")
    report = run_coverage(inst, Objective.WELFARE, plan, trials=1, master_seed=5)
    assert report.failures == 0
    assert report.empirical_rate == 0
    assert report.reference == 3
    assert report.reference_provenance == EXACT_ORACLE


def test_reference_resolution_modes():
    inst = bernoulli_welfare(4)
    ref, provenance = resolve_reference(inst, Objective.WELFARE)
    assert ref == Fraction(1, 4) and provenance == EXACT_ORACLE
    ref, provenance = resolve_reference(inst, Objective.WELFARE, reference="0.25")
    assert ref == Fraction(1, 4) and provenance == USER_SUPPLIED
    ref, provenance = resolve_reference(
        inst, Objective.WELFARE, reference=Fraction(1, 4), provenance=ANALYTIC_FAMILY
    )
    assert provenance == ANALYTIC_FAMILY


def test_the_oracle_reference_runs_one_count_only_dp(monkeypatch):
    calls = count_dp_calls(monkeypatch, rsdlab.coverage)
    inst = worst_case_metric_line(5)
    ref, provenance = resolve_reference(inst, Objective.COST)
    assert (ref, provenance) == (enumerate_rsd(inst, Objective.COST).mean, EXACT_ORACLE)
    assert calls == [None]


def test_missing_reference_is_an_instructive_error():
    inst = bernoulli_welfare(12)
    with pytest.raises(ValueError, match="supply a reference"):
        resolve_reference(inst, Objective.WELFARE, oracle_cap=10)


def test_bernoulli_coverage_tracks_binomial_failure():
    inst = bernoulli_welfare(6)
    plan = sample_size(Method.WELFARE_BERNSTEIN, 6, "0.5", "0.2")
    report = run_coverage(
        inst, Objective.WELFARE, plan, trials=200, master_seed=90210,
        reference=Fraction(1, 6), reference_provenance=ANALYTIC_FAMILY,
    )
    assert report.empirical_rate <= Fraction(1, 5) + Fraction(1, 10)
    assert report.trials == 200
    assert len(report.rows) == 200


def test_median_of_means_coverage_small():
    inst = worst_case_metric_line(4)
    plan = sample_size(Method.COST_MEDIAN_OF_MEANS, 4, "0.5", "0.2")
    exact = enumerate_rsd(inst, Objective.COST).mean
    report = run_coverage(
        inst, Objective.COST, plan, trials=30, master_seed=11,
        reference=exact, reference_provenance=EXACT_ORACLE,
    )
    assert report.runs == plan.runs > 1
    assert report.empirical_rate <= Fraction(3, 10)


def test_coverage_reports_are_reproducible():
    inst = bernoulli_welfare(5)
    plan = sample_size(Method.WELFARE_BERNSTEIN, 5, "0.5", "0.2")
    kwargs = dict(trials=40, master_seed=314, reference=Fraction(1, 5))
    a = run_coverage(inst, Objective.WELFARE, plan, **kwargs)
    b = run_coverage(inst, Objective.WELFARE, plan, **kwargs)
    assert coverage_csv(a) == coverage_csv(b)
    assert a.rows == b.rows


def test_csv_shape_and_verdicts():
    inst = bernoulli_welfare(3)
    plan = sample_size(Method.WELFARE_BERNSTEIN, 3, "0.5", "0.5")
    report = run_coverage(inst, Objective.WELFARE, plan, trials=5, master_seed=1)
    lines = coverage_csv(report).strip().split("\n")
    assert lines[0] == "trial_index,seed,estimate,reference,epsilon,verdict,side"
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[5] in ("pass", "fail")
        assert fields[6] in ("within", "over-fail", "under-fail")


def test_criterion_9_plan_covers_the_n12_line_against_the_dp_reference():
    # the criterion-9 plan at n = 12 draws 663,552 samples per trial, all on
    # lanes: each run of 27,648 in batches of 4,096
    inst = worst_case_metric_line(12)
    plan = sample_size(Method.COST_MEDIAN_OF_MEANS, 12, "0.5", "0.2")
    assert (plan.k, plan.runs) == (27_648, 24)
    report = run_coverage(inst, Objective.COST, plan, trials=1, master_seed=121_212, oracle_cap=12)
    assert report.reference_provenance == EXACT_ORACLE
    assert report.reference == enumerate_rsd(inst, Objective.COST, cap=12).mean
    assert report.failures == 0
