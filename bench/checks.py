"""Checks of the CLI's outputs against computations made apart from rsdlab.

Nothing here imports rsdlab.  Instances are read from their JSON files;
serial dictatorship (minimum-index ties), the n! enumeration and the
SplitMix64 generator are written afresh from the specification in the
package's docstrings; exact quantities are compared as Fractions.  Every
check raises ``CheckFailed`` with a message when it does not hold.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction
from itertools import permutations

from workloads import COVERAGE_K, COVERAGE_RUNS, COVERAGE_TRIALS

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- generator, written from the specification in rsdlab/rng.py -------------

def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, state: int):
        self.state = state & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def permutation(self, n: int) -> list[int]:
        """Decreasing-index Fisher-Yates, one multiply-shift draw per position."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = (self.next_u64() * (i + 1)) >> 64
            items[i], items[j] = items[j], items[i]
        return items


def substream(seed: int, run: int, index: int) -> SplitMix64:
    return SplitMix64(mix64(mix64(mix64(seed) + run) + index))


def derive_seed(master_seed: int, trial: int) -> int:
    return mix64(mix64(master_seed) ^ mix64(trial + GOLDEN))


# --- instances and serial dictatorship ---------------------------------------

def _number(x) -> Fraction:
    require(isinstance(x, (int, str)) and not isinstance(x, bool), f"bad number {x!r}")
    return Fraction(x)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_instance(path: str) -> dict:
    """``{"n", "setting", "payoff" (Fractions, or None), "prefs" (0-indexed)}``."""
    doc = _read_json(path)
    n, setting = doc["n"], doc["setting"]
    if setting == "abstract":
        return {"n": n, "setting": setting, "payoff": None,
                "prefs": [[g - 1 for g in row] for row in doc["rankings"]]}
    if "agent_points" in doc:
        items = [_number(x) for x in doc["item_points"]]
        payoff = [[abs(_number(a) - b) for b in items] for a in doc["agent_points"]]
    else:
        payoff = [[_number(x) for x in row] for row in doc["costs" if setting == "metric" else "values"]]
    sign = 1 if setting == "metric" else -1  # costs ascending, values descending
    prefs = [sorted(range(n), key=lambda g: (sign * row[g], g)) for row in payoff]
    return {"n": n, "setting": setting, "payoff": payoff, "prefs": prefs}


def serial_dictatorship(prefs, order) -> list[int]:
    taken = set()
    match = [0] * len(prefs)
    for agent in order:
        item = next(g for g in prefs[agent] if g not in taken)
        taken.add(item)
        match[agent] = item
    return match


def enumerate_orderings(inst: dict):
    """Counts ``[agent][item]`` over all n! orderings, and each ordering's
    objective value (empty without a payoff matrix)."""
    n, prefs, payoff = inst["n"], inst["prefs"], inst["payoff"]
    counts = [[0] * n for _ in range(n)]
    values = []
    for order in permutations(range(n)):
        match = serial_dictatorship(prefs, order)
        for a, g in enumerate(match):
            counts[a][g] += 1
        if payoff is not None:
            values.append(sum(payoff[a][g] for a, g in enumerate(match)))
    return counts, values


def _integer_payoff(payoff):
    scale = math.lcm(*(x.denominator for row in payoff for x in row))
    return [[int(x * scale) for x in row] for row in payoff], scale


def median_of_means(inst: dict, seed: int, k: int, runs: int) -> float:
    """The estimator's output recomputed: each run's sum kept exact and
    rounded to a double once, then the median of the run means (the mean of
    the two middle ones for an even count).  Equal bit for bit to the
    program's only where each sample's cost is exact in a double, as on the
    integer line instances used here."""
    n, prefs = inst["n"], inst["prefs"]
    scaled, scale = _integer_payoff(inst["payoff"])
    means = []
    for run in range(runs):
        total = 0
        for i in range(k):
            match = serial_dictatorship(prefs, substream(seed, run, i).permutation(n))
            total += sum(scaled[a][g] for a, g in enumerate(match))
        means.append(float(Fraction(total, k * scale)))
    means.sort()
    mid = runs // 2
    return means[mid] if runs % 2 else (means[mid - 1] + means[mid]) / 2


# --- coverage-line6 -----------------------------------------------------------

def check_reference(reference: Fraction, per_ordering: list[Fraction]) -> None:
    expected = Fraction(sum(per_ordering), len(per_ordering))
    require(reference == expected, f"reference {reference} != enumerated mean {expected}")


def check_estimate_range(estimate: float, per_ordering: list[Fraction]) -> None:
    low, high = min(per_ordering), max(per_ordering)
    require(low <= Fraction(estimate) <= high, f"estimate {estimate!r} outside [{low}, {high}]")


def check_bits(estimate: float, expected: float) -> None:
    require(estimate.hex() == expected.hex(), f"estimate {estimate!r} != recomputed {expected!r}")


def check_coverage_line6(workdir: str, master_seed: int) -> None:
    inst = read_instance(os.path.join(workdir, "line6.json"))
    _, per_ordering = enumerate_orderings(inst)
    with open(os.path.join(workdir, "coverage.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == COVERAGE_TRIALS, f"{len(rows)} CSV rows, expected {COVERAGE_TRIALS}")
    for row in rows:
        check_reference(Fraction(row["reference"]), per_ordering)
        check_estimate_range(float(row["estimate"]), per_ordering)
    trial_seed = derive_seed(master_seed, 0)
    require(int(rows[0]["seed"]) == trial_seed, f"trial 0 seed {rows[0]['seed']} != {trial_seed}")
    check_bits(float(rows[0]["estimate"]), median_of_means(inst, trial_seed, COVERAGE_K, COVERAGE_RUNS))


# --- exact-oracle -------------------------------------------------------------

def check_count_sums(counts, n: int) -> None:
    fact = math.factorial(n)
    require(len(counts) == n and all(len(row) == n for row in counts), "counts are not n x n")
    for i in range(n):
        require(sum(counts[i]) == fact, f"row {i + 1} of the counts sums to {sum(counts[i])}, not {fact}")
        column = sum(row[i] for row in counts)
        require(column == fact, f"column {i + 1} of the counts sums to {column}, not {fact}")


def check_mean(mean: Fraction, lottery, payoff) -> None:
    expected = sum(p * x for prow, xrow in zip(lottery, payoff) for p, x in zip(prow, xrow))
    require(mean == expected, f"mean {mean} != sum of lottery * payoff {expected}")


def check_second_moment(second: Fraction, mean: Fraction) -> None:
    require(second >= mean * mean, f"second moment {second} < mean squared {mean * mean}")


def check_bernoulli(mean: Fraction, n: int) -> None:
    require(mean == Fraction(1, n), f"bernoulli-welfare mean {mean} != 1/{n}")


def by_rank(counts, prefs):
    """Re-index agent-by-item counts as agent-by-preference-rank."""
    return [[counts[a][g] for g in prefs[a]] for a in range(len(prefs))]


def check_decoded(decoded, expected) -> None:
    require([list(r) for r in decoded] == expected, "decoded counts differ from the enumerated counts by rank")


def check_exact_output(instance_path: str, out_path: str, bernoulli: bool = False) -> None:
    inst = read_instance(instance_path)
    out = _read_json(out_path)
    n = inst["n"]
    require(out["order_count"] == math.factorial(n), f"order_count {out['order_count']} != {n}!")
    check_count_sums(out["counts"], n)
    if inst["payoff"] is None:
        require(out["mean"] is None, "a lottery-only run reported a mean")
        return
    mean = Fraction(out["mean"])
    check_mean(mean, [[Fraction(p) for p in row] for row in out["lottery"]], inst["payoff"])
    check_second_moment(Fraction(out["second_moment"]), mean)
    if bernoulli:
        check_bernoulli(mean, n)


def check_reduce_output(abstract_path: str, sidecar_path: str) -> None:
    inst = read_instance(abstract_path)
    sidecar = _read_json(sidecar_path)
    require(sidecar["round_trip"] == "pass", "reduce reported a failed round trip")
    counts, _ = enumerate_orderings(inst)
    check_decoded(sidecar["counts"], by_rank(counts, inst["prefs"]))


def check_exact_oracle(workdir: str, _seed: int) -> None:
    def f(name):
        return os.path.join(workdir, name)

    for base in ("value9", "line9", "abstract9", "bernoulli9"):
        check_exact_output(f(base + ".json"), f(base + ".exact.json"), bernoulli=base == "bernoulli9")
    for setting in ("value", "metric"):
        check_reduce_output(f("abstract8.json"), f(f"reduce-{setting}.json.decode.json"))


# --- large-instance -----------------------------------------------------------

def sorted_matching_cost(line_path: str) -> Fraction:
    """On a line, matching agents to items in sorted order minimises total cost."""
    doc = _read_json(line_path)
    agents = sorted(_number(x) for x in doc["agent_points"])
    items = sorted(_number(x) for x in doc["item_points"])
    return sum((abs(a - b) for a, b in zip(agents, items)), Fraction(0))


def scipy_optimum(payoff, maximize: bool) -> Fraction:
    """Optimal assignment by scipy on integer-scaled entries, exact in doubles
    while n times the largest scaled entry stays below 2**53."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    scaled, scale = _integer_payoff(payoff)
    require(len(scaled) * max(max(row) for row in scaled) < 2**53, "scaled entries too large for doubles")
    rows, cols = linear_sum_assignment(np.array(scaled, dtype=np.float64), maximize=maximize)
    return Fraction(sum(scaled[r][c] for r, c in zip(rows, cols)), scale)


def check_optimum(reported: Fraction, expected: Fraction, what: str) -> None:
    require(reported == expected, f"{what}: reported optimum {reported} != {expected}")


def check_matching(out: dict, payoff) -> None:
    matching = out["matching"]  # 1-indexed items
    require(sorted(matching) == list(range(1, len(payoff) + 1)), "opt matching is not a permutation")
    value = sum(payoff[a][g - 1] for a, g in enumerate(matching))
    require(value == Fraction(out["optimal_value"]), f"matching scores {value}, not {out['optimal_value']}")


def check_estimate_at_least(estimate: float, optimum: Fraction) -> None:
    require(Fraction(estimate) >= optimum, f"cost estimate {estimate!r} below the optimum {optimum}")


def check_large_instance(workdir: str, _seed: int) -> None:
    def f(name):
        return os.path.join(workdir, name)

    line = read_instance(f("line.json"))
    matrix = read_instance(f("line-matrix.json"))
    require(matrix["payoff"] == line["payoff"], "the matrix-form copy differs from the point-based costs")
    optimum = sorted_matching_cost(f("line.json"))
    for name in ("line.opt.json", "line-matrix.opt.json"):
        out = _read_json(f(name))
        check_optimum(Fraction(out["optimal_value"]), optimum, name)
        check_matching(out, line["payoff"])
    value = read_instance(f("value.json"))
    out = _read_json(f("value.opt.json"))
    check_optimum(Fraction(out["optimal_value"]), scipy_optimum(value["payoff"], maximize=True), "value.opt.json")
    check_matching(out, value["payoff"])
    check_estimate_at_least(_read_json(f("line.estimate.json"))["estimate"], optimum)


# Each takes the run's work directory and seed; inputs are read back from files.
CHECKS = {
    "coverage-line6": check_coverage_line6,
    "exact-oracle": check_exact_oracle,
    "large-instance": check_large_instance,
}
