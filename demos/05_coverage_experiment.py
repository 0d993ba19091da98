#!/usr/bin/env python3
"""Do the guarantees hold in practice?  Measure the failure rate.

A coverage experiment reruns an estimator many times with independent
seeds, checks each estimate against the exact expected value with the
strict |Q - mean| < eps * mean criterion, and compares the observed failure
fraction to the planned delta.  The guarantees are conservative, so the
observed rate usually sits far below its budget.
"""

from fractions import Fraction

from rsdlab import (
    Method,
    Objective,
    bernoulli_welfare,
    coverage_csv,
    enumerate_rsd,
    run_coverage,
    sample_size,
    worst_case_metric_line,
)


def main():
    print("welfare: single-valuable-item instance, n = 8, eps = 0.5, delta = 0.1")
    plan = sample_size(Method.WELFARE_BERNSTEIN, 8, "0.5", "0.1")
    report = run_coverage(
        bernoulli_welfare(8), Objective.WELFARE, plan,
        trials=400, master_seed=1234,
        reference=Fraction(1, 8), reference_provenance="analytic-family",
    )
    print(f"  plan: k = {plan.k} samples per trial")
    print(f"  reference mean = {report.reference} [{report.reference_provenance}]")
    print(f"  failures: {report.failures}/{report.trials} "
          f"(observed rate {float(report.empirical_rate):.4f}, budget {float(report.delta):.2f})")
    print()

    print("cost: line family, n = 5, median of means, eps = 0.5, delta = 0.2")
    inst = worst_case_metric_line(5)
    plan = sample_size(Method.COST_MEDIAN_OF_MEANS, 5, "0.5", "0.2")
    exact = enumerate_rsd(inst, Objective.COST).mean
    report = run_coverage(
        inst, Objective.COST, plan,
        trials=60, master_seed=88,
        reference=exact, reference_provenance="exact-oracle",
    )
    print(f"  plan: k = {plan.k} per run, {plan.runs} runs per trial")
    print(f"  reference mean = {report.reference} = {float(report.reference):.6f}")
    print(f"  failures: {report.failures}/{report.trials} "
          f"(observed rate {float(report.empirical_rate):.4f}, budget {float(report.delta):.2f})")
    print()

    print("per-trial CSV (first five rows):")
    for line in coverage_csv(report).splitlines()[:6]:
        print("  " + line)


if __name__ == "__main__":
    main()
