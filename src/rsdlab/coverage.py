"""Empirical failure-rate experiments for the estimator guarantees.

A coverage run repeats a configured estimator over many independent trials
(trial t reseeds through ``derive_seed(master_seed, t)``), checks each
estimate against a reference expected value with the strict relative
criterion, and reports the failed fraction next to the guarantee's target
failure probability.  Reports are deterministic: identical inputs and
master seed reproduce identical trial rows and identical CSV bytes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bounds import SampleSizePlan
from .core import AssignmentInstance, Objective, as_fraction, clipped, exact_str
from .estimate import check_approx, estimate_median_of_means
from .exact import DEFAULT_ORACLE_CAP, enumerate_rsd, expected_objective
from .rng import derive_seed

EXACT_ORACLE = "exact-oracle"
ANALYTIC_FAMILY = "analytic-family"
USER_SUPPLIED = "user-supplied"


@dataclass(frozen=True)
class TrialRow:
    trial_index: int
    seed: int
    estimate: float
    reference: Fraction
    eps: Fraction
    holds: bool
    side: str


@dataclass(frozen=True)
class CoverageReport:
    objective: Objective
    method: str
    k: int
    runs: int
    base_seed: int
    trials: int
    reference: Fraction
    reference_provenance: str
    eps: Fraction
    delta: Fraction | None
    failures: int
    empirical_rate: Fraction
    rows: tuple[TrialRow, ...]


def resolve_reference(
    instance: AssignmentInstance,
    objective: Objective,
    reference=None,
    provenance: str | None = None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> tuple[Fraction, str]:
    """Reference expected value: user-supplied, or by linearity off one count-only DP."""
    if reference is not None:
        reference = as_fraction(reference)
        if reference < 0:  # refused before any sample is drawn
            raise ValueError(f"reference must be non-negative, got {clipped(exact_str(reference))}")
        return reference, provenance or USER_SUPPLIED
    if instance.n > oracle_cap:
        raise ValueError(
            f"no reference available: n={instance.n} exceeds the enumeration cap "
            f"{oracle_cap}; supply a reference expected value explicitly"
        )
    counts = enumerate_rsd(instance, cap=oracle_cap).counts
    return expected_objective(instance, objective, counts), EXACT_ORACLE


def run_coverage(
    instance: AssignmentInstance,
    objective: Objective,
    plan: SampleSizePlan,
    trials: int,
    master_seed: int,
    reference=None,
    reference_provenance: str | None = None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> CoverageReport:
    """Run ``trials`` estimator invocations and count strict-accuracy failures."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ref, provenance = resolve_reference(instance, objective, reference, reference_provenance, oracle_cap)
    runs = 1 if plan.runs is None else plan.runs
    rows = []
    failures = 0
    for t in range(trials):
        seed = derive_seed(master_seed, t)
        report = estimate_median_of_means(instance, objective, plan.k, runs, seed)
        verdict = check_approx(report.estimate, ref, plan.eps)
        if not verdict.holds:
            failures += 1
        rows.append(TrialRow(
            trial_index=t,
            seed=seed,
            estimate=report.estimate,
            reference=ref,
            eps=plan.eps,
            holds=verdict.holds,
            side=verdict.side,
        ))
    return CoverageReport(
        objective=objective,
        method=plan.method.value,
        k=plan.k,
        runs=runs,
        base_seed=master_seed,
        trials=trials,
        reference=ref,
        reference_provenance=provenance,
        eps=plan.eps,
        delta=plan.delta,
        failures=failures,
        empirical_rate=Fraction(failures, trials),
        rows=tuple(rows),
    )


CSV_HEADER = "trial_index,seed,estimate,reference,epsilon,verdict,side"


def coverage_csv(report: CoverageReport) -> str:
    """One row per trial; deterministic bytes for identical reports."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in report.rows:
        verdict = "pass" if row.holds else "fail"
        out.write(
            f"{row.trial_index},{row.seed},{row.estimate!r},{exact_str(row.reference)},"
            f"{exact_str(row.eps)},{verdict},{row.side}\n"
        )
    return out.getvalue()


def write_coverage_csv(report: CoverageReport, path: str | Path) -> None:
    Path(path).write_text(coverage_csv(report), encoding="utf-8", newline="")
