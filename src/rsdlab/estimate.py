"""Sampling estimators for the expected objective value of RSD.

One estimator, :func:`estimate_median_of_means`, draws ``runs`` independent
runs of ``k`` agent orderings, each uniform and with replacement, runs
serial dictatorship on each ordering, and returns the median of the per-run
mean objective values (for an even number of runs, the mean of the two
middle order statistics), trading samples for exponentially better
confidence on heavy-tailed cost instances.  :func:`estimate_mean`, the plain
k-sample mean, is its one-run case.

Reproducibility contract: sample ``i`` of run ``j`` uses the dedicated
substream ``(seed, j, i)``, and a run's samples are the orderings
:func:`rsdlab.rng.run_permutations` yields, bit-identical to the scalar
``substream(seed, j, i).permutation(n)``.  Each ordering is scored exactly
on the integer payoff table of :func:`rsdlab.core.integer_payoff_table`.  A
run sums its k integer scores and rounds once, to the float nearest the
exact mean ``total / (k * denom)``.  Both choices make the report bit-for-bit
identical however the samples are partitioned.

Each run is one call of :func:`rsdlab.sd.sd_total`, which takes it in
batches of up to :data:`rsdlab.sd.LANES` (4,096) samples.  A batch of at
least 1.5 n b samples (b the bits of an agent index) at n <=
:data:`rsdlab.sd.LANES_MAX_N` (192) runs on lanes: its shuffles and serial
dictatorship run on every sample at once, one bit of a Python int each,
straight from the packed draws.  Any other batch, small or at larger n,
scores its orderings one at a time with :func:`rsdlab.sd.sd_assign`.
Both give the exact integer total, and all of it runs in one thread.

The reported means are doubles, so an instance on which a matching could
total more than the double range is refused with ``ValueError``; its exact
expected value comes from :func:`rsdlab.exact.enumerate_rsd`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .core import AssignmentInstance, Objective, as_fraction, integer_payoff_table, preference_rows
from .sd import sd_assign, sd_total  # sd_assign unused: bench/tracing.py patches it here


class ExactFloatSum:
    """Exact, order-independent accumulator for IEEE doubles.

    The estimators no longer use it (they sum integer scores); it stays for
    the benchmark's traced replay of the sampling stages, ``bench/tracing.py``.
    Each double is the integer ``numerator << (1074 - log2 denominator)`` in
    units of 2**-1074, so sums and merges are plain integer additions and the
    final mean is rounded exactly once.
    """

    __slots__ = ("_acc",)

    def __init__(self):
        self._acc = 0

    def add(self, x: float) -> None:
        num, den = x.as_integer_ratio()
        self._acc += num << (1074 - (den.bit_length() - 1))

    def merge(self, other: "ExactFloatSum") -> None:
        self._acc += other._acc

    def mean(self, count: int) -> float:
        return float(Fraction(self._acc, count << 1074))


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimator invocation.

    ``run_values`` holds the per-run means (a single entry for the plain
    mean estimator); ``estimate`` is their median.  Wall time is excluded
    from equality so reports can be compared for reproducibility.
    """

    estimate: float
    k: int
    runs: int
    objective: Objective
    seed: int
    run_values: tuple[float, ...]
    wall_time: float = field(compare=False, default=0.0)


def _sampling_tables(instance: AssignmentInstance, objective: Objective):
    objective.require_compatible(instance)
    scaled, denom = integer_payoff_table(instance)
    # No matching totals more than the sum of the row maxima, and rounding is
    # monotone, so if that bound fits a double every run mean does too.
    try:
        float(Fraction(sum(max(map(abs, row)) for row in scaled), denom))
    except OverflowError:
        bits = max(p.bit_length() for row in scaled for p in row) - denom.bit_length()
        raise ValueError(
            f"payoffs reach about 2**{bits}, so payoffs or matching totals exceed the "
            f"floating-point range (2**1024) that sampling works in; compute the exact "
            f"expected value with `rsdlab exact` instead"
        ) from None
    return preference_rows(instance), scaled, denom


def estimate_mean(
    instance: AssignmentInstance,
    objective: Objective,
    k: int,
    seed: int,
) -> EstimateReport:
    """Mean objective value over ``k`` uniformly random orderings: the
    one-run case of :func:`estimate_median_of_means`, whose report it returns."""
    return estimate_median_of_means(instance, objective, k, 1, seed)


def median(values) -> float:
    """Median with the even case resolved as the mean of the two middles."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def estimate_median_of_means(
    instance: AssignmentInstance,
    objective: Objective,
    k: int,
    runs: int,
    seed: int,
) -> EstimateReport:
    """Median of ``runs`` independent k-sample mean estimates.

    Run ``j`` (0-indexed internally) uses substreams ``(seed, j, i)``, so
    identical arguments give an identical report.
    """
    if k < 1 or runs < 1:
        raise ValueError("k and runs must be at least 1")
    started = time.perf_counter()
    prefs, scaled, denom = _sampling_tables(instance, objective)
    values = tuple(float(Fraction(sd_total(prefs, scaled, seed, run, k), k * denom)) for run in range(runs))
    return EstimateReport(
        estimate=median(values),
        k=k,
        runs=runs,
        objective=objective,
        seed=seed,
        run_values=values,
        wall_time=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class ApproxVerdict:
    """Strict relative-accuracy check of an estimate against a reference.

    ``holds`` is true iff ``|estimate - target| < eps * target`` (with the
    degenerate rule that a zero target is approximated only by an exactly
    zero estimate).  ``side`` records which strict bound failed.
    """

    target: Fraction
    eps: Fraction
    holds: bool
    side: str  # "within" | "over-fail" | "under-fail"


def check_approx(estimate, target, eps) -> ApproxVerdict:
    """Exact strict check that ``estimate`` is within a (1 +- eps) factor."""
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    target = as_fraction(target)
    if target < 0:
        raise ValueError("target must be non-negative")
    est = as_fraction(estimate)
    if target == 0:
        holds = est == 0
        return ApproxVerdict(target, eps, holds, "within" if holds else "over-fail")
    diff = est - target
    if abs(diff) < eps * target:
        return ApproxVerdict(target, eps, True, "within")
    return ApproxVerdict(target, eps, False, "over-fail" if diff > 0 else "under-fail")
