"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance is fixed here; nothing is calibrated at
run time.
"""

import dataclasses
import math
import time
from fractions import Fraction

from conftest import abstract_battery, metric_battery, reference_run_means, value_battery
from rsdlab import (
    Method,
    Objective,
    bernoulli_welfare,
    binomial_failure_probability,
    brute_force_opt,
    build_artifact,
    canonical_ordering,
    counts_by_rank,
    coverage_csv,
    derive_preferences,
    enumerate_rsd,
    estimate_median_of_means,
    evaluate,
    remove_agent_best,
    run_coverage,
    sample_size,
    serial_dictatorship,
    solve_opt,
    verify_reverse_chernoff_grid,
    worst_case_metric_line,
)
from rsdlab.coverage import ANALYTIC_FAMILY, EXACT_ORACLE
from rsdlab.rng import _CHUNK


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_bernoulli_exact_mean():
    started = time.perf_counter()
    ok = True
    for n in range(2, 9):
        summary = enumerate_rsd(bernoulli_welfare(n), Objective.WELFARE)
        ok = ok and summary.mean == Fraction(1, n)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1: Bernoulli family mean is exactly 1/n for n in 2..8",
        ok and elapsed < 60,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_worst_case_family_costs():
    started = time.perf_counter()
    ok = True
    for n in range(2, 11):
        inst = worst_case_metric_line(n)
        matching = serial_dictatorship(inst, canonical_ordering(n))
        ok = ok and evaluate(inst, matching, Objective.COST) == 2**n
        ok = ok and solve_opt(inst, Objective.COST).objective_value == 2
    elapsed = time.perf_counter() - started
    _report(
        "criterion 2: identity-ordering cost 2^n and optimum 2 for n in 2..10",
        ok and elapsed < 1,
        f"{elapsed:.2f}s",
    )


def test_criterion_03_lottery_structure():
    instances = value_battery(100, 20_000) + metric_battery(100, 21_000)
    ok = True
    for inst in instances:
        objective = Objective.WELFARE if inst.setting == "value" else Objective.COST
        summary = enumerate_rsd(inst, objective)
        fact = math.factorial(inst.n)
        ok = ok and all(sum(row) == fact for row in summary.counts)
        ok = ok and all(
            sum(summary.counts[i][g] for i in range(inst.n)) == fact
            for g in range(inst.n)
        )
        ok = ok and all(sum(row) == 1 for row in summary.lottery)
        ok = ok and all(
            sum(summary.lottery[i][g] for i in range(inst.n)) == 1
            for g in range(inst.n)
        )
    _report("criterion 3: counts and lottery are exactly doubly stochastic (200 instances)", ok)


def test_criterion_04_cost_second_moment_and_claims():
    started = time.perf_counter()
    ok = True
    for inst in metric_battery(200, 22_000):
        n = inst.n
        summary = enumerate_rsd(inst, Objective.COST)
        opt = solve_opt(inst, Objective.COST).objective_value
        ok = ok and summary.second_moment <= n**3 * opt**2
        ok = ok and summary.mean <= n * opt
        best = [inst.cost(i, derive_preferences(inst, i)[0]) for i in range(1, n + 1)]
        ok = ok and sum(best) <= opt
        ok = ok and sum(b * b for b in best) <= opt**2
        for i in range(1, n + 1):
            reduced = remove_agent_best(inst, i)
            opt_reduced = solve_opt(reduced.instance, Objective.COST).objective_value
            ok = ok and opt_reduced <= opt + best[i - 1]
            if n - 1 <= 7:
                mean_reduced = enumerate_rsd(reduced.instance, Objective.COST).mean
                ok = ok and mean_reduced <= (n - 1) * opt_reduced
    elapsed = time.perf_counter() - started
    _report(
        "criterion 4: E[cost^2] <= n^3 OPT^2 plus the removal claims (200 metric instances)",
        ok and elapsed < 600,
        f"{elapsed:.1f}s",
    )


def test_criterion_05_welfare_variance_and_linearity():
    ok = True
    for inst in value_battery(200, 23_000):
        summary = enumerate_rsd(inst, Objective.WELFARE)
        opt = solve_opt(inst, Objective.WELFARE).objective_value
        ok = ok and summary.variance <= (opt - summary.mean) * summary.mean
        ok = ok and opt <= inst.n * summary.mean
    _report(
        "criterion 5: variance <= (OPT - mean) * mean and OPT <= n * mean (200 value instances)",
        ok,
    )


def test_criterion_06_reduction_round_trip():
    ok = True
    for source in abstract_battery(50, 24_000, ns=(2, 3, 4)):
        for setting in ("value", "metric"):
            artifact = build_artifact(source, setting)
            summary = enumerate_rsd(artifact.built)
            ok = ok and counts_by_rank(summary, artifact.built) == artifact.counts
            if setting == "metric":
                entries = [x for row in artifact.built.costs for x in row]
                ok = ok and max(entries) < 2 * min(entries)
    from rsdlab import AssignmentInstance, exact_scaled_total, build_reduction, decode_counts

    worked = AssignmentInstance.from_rankings([(1, 2), (1, 2)])
    ok = ok and exact_scaled_total(build_reduction(worked, "value"), Objective.WELFARE) == 85
    metric_total = exact_scaled_total(build_reduction(worked, "metric"), Objective.COST)
    ok = ok and metric_total == 1109
    ok = ok and decode_counts(metric_total, 2, "metric")[1] == 4
    _report(
        "criterion 6: decode(scaled total) equals enumeration counts (50 sources, both settings); "
        "worked totals 85/1109 with top block 4",
        ok,
    )


def test_criterion_07_welfare_coverage():
    started = time.perf_counter()
    plan = sample_size(Method.WELFARE_BERNSTEIN, 10, "0.5", "0.1")
    ok = plan.k == 320
    exact_failure = binomial_failure_probability(10, plan.k, "0.5")
    ok = ok and exact_failure <= Fraction(1, 10)
    report = run_coverage(
        bernoulli_welfare(10), Objective.WELFARE, plan,
        trials=1000, master_seed=70_707,
        reference=Fraction(1, 10), reference_provenance=ANALYTIC_FAMILY,
    )
    limit = 0.1 + 3 * math.sqrt(0.1 * 0.9 / 1000)
    ok = ok and float(report.empirical_rate) <= limit
    elapsed = time.perf_counter() - started
    _report(
        "criterion 7: k=320 Bernstein plan has exact failure <= 0.1 and empirical rate within slack",
        ok and elapsed < 60,
        f"exact={float(exact_failure):.5f} empirical={float(report.empirical_rate):.4f} "
        f"limit={limit:.4f} {elapsed:.1f}s",
    )


def test_criterion_08_anti_concentration_grid():
    eps_grid = [Fraction(1, 2), Fraction(2, 5)]
    cells = []
    for n in (4, 6, 8, 10, 12):
        for eps in eps_grid:
            k = math.ceil(Fraction(3 * n) / (eps * eps))
            cells.append((n, k, eps))
    results = verify_reverse_chernoff_grid(cells)
    ok = all(cell.applicable and cell.holds for cell in results)
    _report(
        "criterion 8: exact binomial overshoot tail dominates exp(-9 eps^2 k/n) on the whole grid",
        ok,
        f"{len(results)} cells",
    )


def test_criterion_09_median_of_means_coverage():
    started = time.perf_counter()
    inst = worst_case_metric_line(6)
    plan = sample_size(Method.COST_MEDIAN_OF_MEANS, 6, "0.5", "0.2")
    ok = plan.k == 3456 and plan.runs == 24
    exact = enumerate_rsd(inst, Objective.COST).mean
    report = run_coverage(
        inst, Objective.COST, plan,
        trials=100, master_seed=60_606,
        reference=exact, reference_provenance=EXACT_ORACLE,
    )
    limit = 0.2 + 3 * math.sqrt(0.2 * 0.8 / 100)
    ok = ok and float(report.empirical_rate) <= limit
    elapsed = time.perf_counter() - started
    _report(
        "criterion 9: median-of-means coverage on the n=6 line family stays within slack",
        ok and elapsed < 300,
        f"empirical={float(report.empirical_rate):.3f} limit={limit:.3f} {elapsed:.1f}s",
    )


def test_criterion_10_opt_solver_equivalence():
    ok = True
    for inst in value_battery(500, 25_000, ns=(2, 3, 4, 5, 6)):
        fast = solve_opt(inst, Objective.WELFARE).objective_value
        slow = brute_force_opt(inst, Objective.WELFARE).objective_value
        ok = ok and fast == slow
    for inst in metric_battery(500, 26_000, ns=(2, 3, 4, 5, 6)):
        fast = solve_opt(inst, Objective.COST).objective_value
        slow = brute_force_opt(inst, Objective.COST).objective_value
        ok = ok and fast == slow
    _report("criterion 10: assignment solver equals brute force on 500 instances per setting", ok)


def test_criterion_11_determinism_across_repeats_and_chunks():
    inst = worst_case_metric_line(6)
    baseline = estimate_median_of_means(inst, Objective.COST, k=600, runs=8, seed=99)
    repeat = estimate_median_of_means(inst, Objective.COST, k=600, runs=8, seed=99)
    ok = baseline.run_values == repeat.run_values and baseline.estimate == repeat.estimate
    # one sample either side of a packed chunk: one scalar substream per sample
    # is the reference, however the estimator splits a run into chunks
    for k in (_CHUNK - 1, _CHUNK + 1):
        report = estimate_median_of_means(inst, Objective.COST, k=k, runs=8, seed=99)
        ok = ok and report.run_values == reference_run_means(inst, Objective.COST, k, 8, 99)

    plan = sample_size(Method.COST_MEDIAN_OF_MEANS, 6, "0.5", "0.5")
    plan = dataclasses.replace(plan, k=200, runs=4)
    csvs = {
        coverage_csv(run_coverage(
            inst, Objective.COST, plan, trials=25, master_seed=5, reference=Fraction(188, 45),
        ))
        for _ in range(3)
    }
    ok = ok and len(csvs) == 1
    _report("criterion 11: estimator and coverage outputs are bit-identical across repeats and chunk partitions", ok)


def test_criterion_12_sample_size_table():
    bernstein = sample_size(Method.WELFARE_BERNSTEIN, 10, "0.5", "0.1")
    mom = sample_size(Method.COST_MEDIAN_OF_MEANS, 8, "0.5", "0.1")
    ok = bernstein.k == 320 and mom.k == 8192 and mom.runs == 32
    for n in range(1, 13):
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            for delta in (Fraction(1, 20), Fraction(1, 10)):
                hoeffding = sample_size(Method.WELFARE_HOEFFDING, n, eps, delta)
                bern = sample_size(Method.WELFARE_BERNSTEIN, n, eps, delta)
                ok = ok and hoeffding.k_raw / bern.k_raw == Fraction(3 * n, 16)
    _report("criterion 12: worked ceilings (320; 8192 with 32 runs) and exact 3n/16 ratio", ok)
