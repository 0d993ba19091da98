"""Sample-size calculators and concentration-inequality evaluators.

Each estimator guarantee in this package comes with a closed-form sample
count; ``sample_size`` evaluates those forms and returns exact ceilings.
The rational coefficient of each formula is kept exact and the single
logarithm is evaluated once in double precision, so a plan is reproducible
and its pre-ceiling value is available for exact ratio checks.

Methods (k = samples per run, lam = number of runs):

* ``WELFARE_BERNSTEIN``      k >= 8n/(3 eps^2) * ln(2/delta)
* ``WELFARE_HOEFFDING``      k >= n^2/(2 eps^2) * ln(2/delta)
* ``COST_MEDIAN_OF_MEANS``   k >= 4n^3/eps^2,  lam >= 4/ln(4/e) * ln(2/delta)
* ``COST_SINGLE_RUN``        k >= 3n^3/eps^2   (delta ignored: the
  guarantee is a fixed at-most-1/4 failure probability per side)
* ``COST_BERNSTEIN``         k >= 4 max(n^3/eps^2, 2^n/(3 eps)) * ln(2/delta)
* ``COST_CHEBYSHEV``         k >= n^3/(eps^2 delta)

``bound_value`` evaluates the inequalities behind those guarantees at given
parameters, tagging each result as an upper or lower tail bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import as_fraction


class Method(enum.Enum):
    WELFARE_BERNSTEIN = "welfare-bernstein"
    WELFARE_HOEFFDING = "welfare-hoeffding"
    COST_MEDIAN_OF_MEANS = "cost-median-of-means"
    COST_SINGLE_RUN = "cost-single-run"
    COST_BERNSTEIN = "cost-bernstein"
    COST_CHEBYSHEV = "cost-chebyshev"


@dataclass(frozen=True)
class SampleSizePlan:
    """Exact ceilings for one method, with the pre-ceiling values kept."""

    method: Method
    n: int
    eps: Fraction
    delta: Fraction
    k: int
    runs: int | None
    k_raw: Fraction
    runs_raw: Fraction | None


MAX_N = 100_000
"""Largest n that :func:`sample_size` plans for.  The ``cost-bernstein`` k
grows as 2^n, about 30,100 digits at this bound, and the time to write it
out grows as the square of its digits."""


def _check_domain(n: int, eps: Fraction, delta: Fraction) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N}")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")


def _ln(x: Fraction) -> Fraction:
    # the only inexact step: one double-precision logarithm, held exactly after
    try:
        return Fraction(math.log(float(x)))
    except (OverflowError, ValueError):  # x beyond or below the double range; math.log takes ints of any size
        return Fraction(math.log(x.numerator) - math.log(x.denominator))


def sample_size(method: Method, n: int, eps, delta) -> SampleSizePlan:
    """Smallest integer sample counts satisfying ``method``'s formula."""
    eps = as_fraction(eps)
    delta = as_fraction(delta)
    _check_domain(n, eps, delta)
    eps2 = eps * eps
    runs_raw: Fraction | None = None

    if method is Method.WELFARE_BERNSTEIN:
        k_raw = Fraction(8 * n, 3) / eps2 * _ln(2 / delta)
    elif method is Method.WELFARE_HOEFFDING:
        k_raw = Fraction(n * n, 2) / eps2 * _ln(2 / delta)
    elif method is Method.COST_MEDIAN_OF_MEANS:
        k_raw = Fraction(4 * n**3) / eps2
        # ln(4/e) = ln 4 - 1
        runs_raw = 4 / Fraction(math.log(4.0) - 1.0) * _ln(2 / delta)
    elif method is Method.COST_SINGLE_RUN:
        k_raw = Fraction(3 * n**3) / eps2
    elif method is Method.COST_BERNSTEIN:
        k_raw = 4 * max(Fraction(n**3) / eps2, Fraction(2**n) / (3 * eps)) * _ln(2 / delta)
    elif method is Method.COST_CHEBYSHEV:
        k_raw = Fraction(n**3) / (eps2 * delta)
    else:
        raise ValueError(f"unknown method {method!r}")

    return SampleSizePlan(
        method=method,
        n=n,
        eps=eps,
        delta=delta,
        k=max(1, math.ceil(k_raw)),
        runs=max(1, math.ceil(runs_raw)) if runs_raw is not None else None,
        k_raw=k_raw,
        runs_raw=runs_raw,
    )


@dataclass(frozen=True)
class LowerBoundWindow:
    """Sample-count window in which the mean estimator provably fails.

    For n >= 2, eps in (0, 1] and delta < e^-27, any k with
    ``k_lo <= k < k_hi`` (k_lo = 3n/eps^2, k_hi = n/(9 eps^2) * ln(1/delta))
    leaves some instance on which the k-sample mean misses an
    eps-approximation with probability above delta.  Outside those
    hypotheses no claim is made and ``applicable`` is false.  ``k_hi`` is
    the double nearest ``n/(9 eps^2) * _ln(1/delta)``, also for eps or delta
    beyond the double range; a ``k_hi`` beyond that range is refused with
    ``ValueError``.
    """

    n: int
    eps: Fraction
    delta: Fraction
    k_lo: Fraction
    k_hi: float
    applicable: bool
    reason: str | None


def welfare_lower_bound_window(n: int, eps, delta) -> LowerBoundWindow:
    eps = as_fraction(eps)
    delta = as_fraction(delta)
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if delta <= 0:
        raise ValueError("delta must be positive")
    eps2 = eps * eps
    k_lo = Fraction(3 * n) / eps2
    coef = Fraction(n, 9) / eps2
    try:
        k_hi = float(coef * _ln(1 / delta))
    except OverflowError:
        raise ValueError(
            "k_hi = n ln(1/delta) / (9 eps^2) exceeds the floating-point range (2**1024)"
        ) from None
    reason = None
    if delta >= 1 or float(delta) >= math.exp(-27):
        reason = "delta must be below e^-27"
    elif not k_lo < k_hi:
        reason = "window is empty"
    return LowerBoundWindow(
        n=n, eps=eps, delta=delta, k_lo=k_lo, k_hi=k_hi,
        applicable=reason is None, reason=reason,
    )


class Inequality(enum.Enum):
    BERNSTEIN = "bernstein"
    HOEFFDING = "hoeffding"
    CHEBYSHEV = "chebyshev"
    CHEBYSHEV_CANTELLI = "chebyshev-cantelli"
    CHERNOFF = "chernoff"
    REVERSE_CHERNOFF = "reverse-chernoff"
    BHATIA_DAVIS = "bhatia-davis"


UPPER_TAIL = "upper-tail-bound"
LOWER_TAIL = "lower-tail-bound"
VARIANCE_UPPER = "variance-upper-bound"


@dataclass(frozen=True)
class BoundValue:
    """Closed-form bound value; ``vacuous`` marks tail bounds above 1."""

    inequality: Inequality
    value: float
    kind: str
    vacuous: bool


def _require(cond: bool, hypothesis: str) -> None:
    if not cond:
        raise ValueError(f"hypothesis violated: {hypothesis}")


def bernstein_bound(t: float, alpha: float, total_variance: float) -> float:
    """2 exp(-3t^2 / (6 sum(var) + 2 alpha t)) for |X_i| <= alpha, mean 0."""
    _require(t > 0, "t > 0")
    _require(alpha > 0, "alpha > 0")
    _require(total_variance >= 0, "sum of variances >= 0")
    return 2.0 * math.exp(-3.0 * t * t / (6.0 * total_variance + 2.0 * alpha * t))


def hoeffding_bound(t: float, sum_squared_ranges: float) -> float:
    """2 exp(-2t^2 / sum((b_i - a_i)^2)) for X_i in [a_i, b_i]."""
    _require(t > 0, "t > 0")
    _require(sum_squared_ranges > 0, "sum of squared ranges > 0")
    return 2.0 * math.exp(-2.0 * t * t / sum_squared_ranges)


def chebyshev_bound(t: float, variance: float) -> float:
    """variance / t^2 bound on Pr[|X - mean| >= t]."""
    _require(t > 0, "t > 0")
    _require(variance >= 0, "variance >= 0")
    return variance / (t * t)


def chebyshev_cantelli_bound(t: float) -> float:
    """1 / (1 + t^2) bound on Pr[X - mean >= t sigma]."""
    _require(t > 0, "t > 0")
    return 1.0 / (1.0 + t * t)


def chernoff_bound(eta: float, mu: float) -> float:
    """(e^eta / (1+eta)^(1+eta))^mu bound on Pr[X >= (1+eta) mu]."""
    _require(eta > 0, "eta > 0")
    _require(mu >= 0, "mu >= 0")
    return (math.exp(eta) / (1.0 + eta) ** (1.0 + eta)) ** mu


def reverse_chernoff_bound(eta: float, p: float, k: int) -> float:
    """exp(-9 eta^2 p k) lower bound on Pr[mean(X) >= (1+eta) p]."""
    _require(0 < p <= 0.5, "p in (0, 1/2]")
    _require(0 < eta <= 0.5, "eta in (0, 1/2]")
    _require(k >= 1, "k >= 1")
    _require(eta * eta * p * k >= 3, "eta^2 * p * k >= 3")
    return math.exp(-9.0 * eta * eta * p * k)


def bhatia_davis_bound(low: float, high: float, mean: float) -> float:
    """(high - mean)(mean - low) bound on the variance of X in [low, high]."""
    _require(low <= mean <= high, "low <= mean <= high")
    return (high - mean) * (mean - low)


_DISPATCH = {
    Inequality.BERNSTEIN: (bernstein_bound, UPPER_TAIL),
    Inequality.HOEFFDING: (hoeffding_bound, UPPER_TAIL),
    Inequality.CHEBYSHEV: (chebyshev_bound, UPPER_TAIL),
    Inequality.CHEBYSHEV_CANTELLI: (chebyshev_cantelli_bound, UPPER_TAIL),
    Inequality.CHERNOFF: (chernoff_bound, UPPER_TAIL),
    Inequality.REVERSE_CHERNOFF: (reverse_chernoff_bound, LOWER_TAIL),
    Inequality.BHATIA_DAVIS: (bhatia_davis_bound, VARIANCE_UPPER),
}


def bound_value(inequality: Inequality, **params) -> BoundValue:
    """Evaluate one inequality's closed form at ``params``.

    Tail-bound values above 1 are returned as-is with ``vacuous`` set; they
    are never clamped silently.
    """
    fn, kind = _DISPATCH[inequality]
    value = fn(**params)
    vacuous = kind in (UPPER_TAIL, LOWER_TAIL) and value > 1.0
    return BoundValue(inequality=inequality, value=value, kind=kind, vacuous=vacuous)
