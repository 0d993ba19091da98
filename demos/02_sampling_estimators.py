#!/usr/bin/env python3
"""Sampling the expected objective value instead of enumerating it.

Exact enumeration dies at n! work, but a sample mean over uniformly random
orderings converges fast for welfare, and median-of-means rescues the
heavy-tailed cost case.  This demo compares both estimators against the
exact oracle on a small instance, then shows the reproducibility contract:
the same seed gives bit-identical results on every call.
"""

from rsdlab import (
    Objective,
    enumerate_rsd,
    estimate_mean,
    estimate_median_of_means,
    worst_case_metric_line,
)


def main():
    inst = worst_case_metric_line(6)
    exact = enumerate_rsd(inst, Objective.COST).mean
    print(f"instance: line family, n = 6; exact expected cost = {exact} = {float(exact):.6f}")
    print()

    print("plain mean estimator, growing sample budget:")
    for k in (100, 1_000, 10_000, 100_000):
        report = estimate_mean(inst, Objective.COST, k=k, seed=7)
        rel = abs(report.estimate - float(exact)) / float(exact)
        print(f"  k={k:>7}: estimate = {report.estimate:.6f}  relative error = {rel:.4%}")
    print()

    print("median of means (k=2000 per run), which tames occasional 2^n-cost runs:")
    report = estimate_median_of_means(inst, Objective.COST, k=2_000, runs=9, seed=11)
    print(f"  run means : {[round(v, 4) for v in report.run_values]}")
    print(f"  median    : {report.estimate:.6f}  (exact {float(exact):.6f})")
    print()

    print("determinism: same seed, repeated calls, identical bits")
    baseline = estimate_median_of_means(inst, Objective.COST, k=2_000, runs=9, seed=11)
    for call in (2, 3, 4):
        again = estimate_median_of_means(inst, Objective.COST, k=2_000, runs=9, seed=11)
        same = again.run_values == baseline.run_values
        print(f"  call {call}: run values identical = {same}")


if __name__ == "__main__":
    main()
