"""Exact evaluation of random serial dictatorship by a state-merging DP.

Computing the assignment lottery (or the expected objective value) of RSD
is #P-hard in general, so no polynomial-time method is expected; this
module pays an exponential cost over states instead of a factorial one over
the n! agent orderings.  After any prefix of an ordering, what serial
dictatorship does next depends only on which agents have acted and which
items are taken, so every prefix that reaches the same pair of sets is
merged into one state.  The DP walks the reachable states layer by layer
(one layer per number of agents who have acted), keeping per state the
number of prefixes that reach it and the sums the second moment needs, as
exact integers.  The mean needs no per-state sums: it is read off the count
matrix by linearity (:func:`expected_objective`).  Each state costs O(n^2)
steps, and there are at most C(2n, n) < 4^n of them, usually far fewer.

The result is the reference oracle that every estimator and every encoded
instance in this package is checked against, which is why it still refuses
to run past a configurable cap; no floating point enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import AssignmentInstance, Objective, as_fraction, integer_payoff_table, preference_rows

DEFAULT_ORACLE_CAP = 10


@dataclass(frozen=True)
class ExactSummary:
    """Exact summary of RSD over all n! orderings of one instance.

    ``counts[i-1][g-1]`` is the number of orderings under which agent ``i``
    receives item ``g``; every row and every column sums to ``n!``.
    ``lottery`` is the same matrix divided by ``n!`` (doubly stochastic).
    Moments are exact rationals over the uniform ordering distribution and
    are ``None`` when no objective was requested.  All of it is computed by
    the state-merging DP of :func:`enumerate_rsd`, whose cost is exponential
    in n, not factorial; ``order_count`` is still ``n!``, the number of
    orderings the summary covers.
    """

    n: int
    objective: Objective | None
    order_count: int
    counts: tuple[tuple[int, ...], ...]
    lottery: tuple[tuple[Fraction, ...], ...]
    mean: Fraction | None
    second_moment: Fraction | None
    variance: Fraction | None


def check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(
            f"exact enumeration over {n}! orderings refused: n={n} exceeds the cap of {cap} "
            f"(raise the cap explicitly to accept a cost exponential in n)"
        )


def enumerate_rsd(
    instance: AssignmentInstance,
    objective: Objective | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> ExactSummary:
    """Summarize RSD exactly over all n! orderings by a state-merging DP.

    After a prefix of an ordering, serial dictatorship's future depends only
    on which agents have acted and which items are taken.  A state is that
    pair, packed into one int as ``taken | acted << n``, and carries ``w``,
    the number of prefixes that reach it, and ``s`` and ``sq``, the sum and
    the sum of squares of their partial objective values on the integer
    payoffs of :func:`rsdlab.core.integer_payoff_table`.  At depth d, an
    agent ``a`` who has not acted takes ``g``, its first untaken item in
    ``preference_rows`` (so ties still go to the minimum item index); each
    of the (n-d-1)! completions of those ``w`` prefixes gives ``a`` item
    ``g``, and with payoff p the successor state receives
    (w, s + w p, sq + 2 p s + w p^2).  Each layer is dropped once the next
    is built.  The last layer holds a single state whose ``w`` is n! and
    whose ``sq`` is the exact total of squares over all orderings; ``s`` only
    feeds that recurrence, as :func:`expected_objective` reads the mean off
    the counts.  The cost is exponential in n (reachable states), not n!.

    With ``objective=None`` the payoffs are taken as zero and only the count
    matrix and lottery are reported, which also covers abstract instances.
    """
    n = instance.n
    check_cap(n, cap)
    if objective is None:
        scaled = [[0] * n] * n
    else:
        objective.require_compatible(instance)
        scaled, denom = integer_payoff_table(instance)

    prefs = preference_rows(instance)
    counts = [[0] * n for _ in range(n)]
    layer = {0: (1, 0, 0)}
    for depth in range(n):
        completions = math.factorial(n - depth - 1)
        nxt: dict[int, tuple[int, int, int]] = {}
        for state, (w, s, sq) in layer.items():
            for a in range(n):
                acted_bit = 1 << (n + a)
                if state & acted_bit:
                    continue
                for g in prefs[a]:
                    if not state >> g & 1:
                        break
                counts[a][g] += w * completions
                key = state | acted_bit | 1 << g
                p = scaled[a][g]
                w0, s0, sq0 = nxt.get(key, (0, 0, 0))
                nxt[key] = (w0 + w, s0 + s + w * p, sq0 + sq + (2 * s + w * p) * p)
        layer = nxt
    (fact, _, total_sq), = layer.values()

    lottery = tuple(tuple(Fraction(c, fact) for c in row) for row in counts)
    if objective is None:
        mean = second = variance = None
    else:
        mean = expected_objective(instance, objective, counts)
        second = Fraction(total_sq, fact * denom * denom)
        variance = second - mean * mean
    return ExactSummary(
        n=n,
        objective=objective,
        order_count=fact,
        counts=tuple(tuple(row) for row in counts),
        lottery=lottery,
        mean=mean,
        second_moment=second,
        variance=variance,
    )


def expected_objective(instance: AssignmentInstance, objective: Objective, counts) -> Fraction:
    """E[objective] by linearity: the sum of counts[a][g] * payoff[a][g] over
    the n!-ordering count matrix, divided by n!, on the integer payoff table."""
    objective.require_compatible(instance)
    scaled, denom = integer_payoff_table(instance)
    total = sum(c * p for crow, prow in zip(counts, scaled) for c, p in zip(crow, prow))
    return Fraction(total, math.factorial(instance.n) * denom)


def counts_by_rank(summary: ExactSummary, instance: AssignmentInstance) -> tuple[tuple[int, ...], ...]:
    """Re-index the agent-by-item count matrix by preference rank.

    Entry ``[i-1][j-1]`` counts the orderings under which agent ``i``
    receives its rank-``j`` item.
    """
    prefs = preference_rows(instance)
    return tuple(
        tuple(summary.counts[a][prefs[a][j]] for j in range(instance.n))
        for a in range(instance.n)
    )


def _binomial_numerators(n: int, k: int):
    """Yield (x, N_x) with N_x = C(k, x) * (n-1)**(k-x), so that
    Pr[X = x] = N_x / n**k for X ~ Binomial(k, 1/n)."""
    num = (n - 1) ** k
    yield 0, num
    for x in range(1, k + 1):
        # binomial-coefficient recurrence; the division is exact at every step
        num = num * (k - x + 1) // (x * (n - 1))
        yield x, num


def binomial_failure_probability(n: int, k: int, eps) -> Fraction:
    """Exact Pr[|X/k - 1/n| >= eps/n] for X ~ Binomial(k, 1/n).

    This is the exact failure probability of the k-sample mean estimator on
    the instance whose objective is 1 precisely when a designated agent
    draws first (probability 1/n) and 0 otherwise; failure uses ``>=``
    because the approximation target is the strict inequality
    ``|Q - mean| < eps * mean``.
    """
    if n < 2:
        raise ValueError("n must be at least 2 (a single agent leaves nothing random)")
    if k < 1:
        raise ValueError("k must be at least 1")
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")

    # |x/k - 1/n| >= eps/n  <=>  |x*n - k| >= eps*k
    threshold = eps * k
    failure_num = 0
    for x, num in _binomial_numerators(n, k):
        if abs(x * n - k) >= threshold:
            failure_num += num
    return Fraction(failure_num, n**k)


def binomial_upper_tail(n: int, k: int, x_min: int) -> Fraction:
    """Exact Pr[X >= x_min] for X ~ Binomial(k, 1/n)."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    tail_num = 0
    for x, num in _binomial_numerators(n, k):
        if x >= x_min:
            tail_num += num
    return Fraction(tail_num, n**k)


@dataclass(frozen=True)
class AntiConcentrationCell:
    """One (n, k, eps) cell of the anti-concentration check.

    ``exact_tail`` is the exact binomial probability of overshooting the
    mean by a (1 + eps) factor; ``floor_bound`` is exp(-9 eps^2 k / n), the
    closed-form lower bound it must dominate.  Cells whose hypotheses
    (eps <= 1/2, 1/n <= 1/2, eps^2 k / n >= 3) fail are flagged and not
    evaluated.
    """

    n: int
    k: int
    eps: Fraction
    applicable: bool
    reason: str | None
    exact_tail: Fraction | None
    floor_bound: float | None
    holds: bool | None


def verify_reverse_chernoff_grid(cells) -> list[AntiConcentrationCell]:
    """Exact check that the binomial upper tail dominates its lower bound.

    For each applicable cell, computes Pr[X/k >= (1+eps)/n] exactly for
    X ~ Binomial(k, 1/n) and compares it against exp(-9 eps^2 k / n).
    """
    out = []
    for n, k, eps in cells:
        eps = as_fraction(eps)
        reason = None
        if not 0 < eps <= Fraction(1, 2):
            reason = f"hypothesis unmet: eps={eps} outside (0, 1/2]"
        elif n < 2:
            reason = f"hypothesis unmet: success probability 1/{n} exceeds 1/2"
        elif eps * eps * k < 3 * n:
            reason = f"hypothesis unmet: eps^2*k/n = {float(eps * eps * k / n):.4g} < 3"
        if reason is not None:
            out.append(AntiConcentrationCell(n, k, eps, False, reason, None, None, None))
            continue
        # X/k >= (1+eps)/n  <=>  x >= k(1+eps)/n
        x_min = math.ceil(Fraction(k, n) * (1 + eps))
        tail = binomial_upper_tail(n, k, x_min)
        bound = math.exp(-9 * float(eps) ** 2 * k / n)
        out.append(AntiConcentrationCell(
            n, k, eps, True, None, tail, bound, tail >= Fraction(bound),
        ))
    return out
