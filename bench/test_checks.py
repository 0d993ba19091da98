"""Tests of the benchmark's own checkers: the independent enumerator and
generator agree with known answers, and every check rejects a wrong value."""

import json
import math
from fractions import Fraction

import pytest

import checks


def write_instance(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return checks.read_instance(str(path))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_enumerator_gives_one_over_n_on_bernoulli_welfare(tmp_path, n):
    values = [[1 if (a, g) == (0, 0) else 0 for g in range(n)] for a in range(n)]
    inst = write_instance(tmp_path, {"n": n, "setting": "value", "values": values})
    counts, per_ordering = checks.enumerate_orderings(inst)
    assert Fraction(sum(per_ordering), len(per_ordering)) == Fraction(1, n)
    checks.check_count_sums(counts, n)


@pytest.mark.parametrize("n", [3, 6, 8])
def test_identity_ordering_costs_two_to_the_n_on_worst_case_line(tmp_path, n):
    agents = [2**i for i in range(n)]
    items = [-1] + [2**i for i in range(1, n)]
    inst = write_instance(tmp_path, {"n": n, "setting": "metric",
                                     "agent_points": agents, "item_points": items})
    match = checks.serial_dictatorship(inst["prefs"], range(n))
    assert sum(inst["payoff"][a][g] for a, g in enumerate(match)) == 2**n


def test_splitmix64_matches_reference_outputs():
    rng = checks.SplitMix64(0)
    assert [rng.next_u64() for _ in range(2)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    perm = checks.substream(7, 1, 2).permutation(9)
    assert sorted(perm) == list(range(9))


def test_sorted_matching_is_the_line_optimum(tmp_path):
    doc = {"n": 4, "setting": "metric", "agent_points": [5, 1, 9, 3], "item_points": [2, 8, 0, 4]}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    inst = checks.read_instance(str(path))
    assert checks.sorted_matching_cost(str(path)) == checks.scipy_optimum(inst["payoff"], maximize=False)


LINE_COSTS = [Fraction(c) for c in (2, 4, 8, 16)]
GOOD_AND_BAD = [
    ("check_reference", (Fraction(15, 2), LINE_COSTS), (Fraction(7), LINE_COSTS)),
    ("check_estimate_range", (16.0, LINE_COSTS), (16.000000000000004, LINE_COSTS)),
    ("check_bits", (0.1 + 0.2, 0.30000000000000004), (0.3, 0.30000000000000004)),
    ("check_count_sums", ([[1, 1], [1, 1]], 2), ([[2, 0], [1, 1]], 2)),
    ("check_mean", (Fraction(3, 2), [[Fraction(1, 2)] * 2] * 2, [[1, 2], [0, 0]]),
     (Fraction(2), [[Fraction(1, 2)] * 2] * 2, [[1, 2], [0, 0]])),
    ("check_second_moment", (Fraction(5, 2), Fraction(3, 2)), (Fraction(2), Fraction(3, 2))),
    ("check_bernoulli", (Fraction(1, 9), 9), (Fraction(1, 8), 9)),
    ("check_decoded", (((1, 2), (3, 0)), [[1, 2], [3, 0]]), (((1, 2), (2, 1)), [[1, 2], [3, 0]])),
    ("check_optimum", (Fraction(2), Fraction(2), "opt"), (Fraction(3), Fraction(2), "opt")),
    ("check_matching", ({"matching": [2, 1], "optimal_value": "3"}, [[9, 1], [2, 9]]),
     ({"matching": [2, 1], "optimal_value": "4"}, [[9, 1], [2, 9]])),
    ("check_estimate_at_least", (2.0, Fraction(2)), (1.9999999999999998, Fraction(2))),
]


@pytest.mark.parametrize("name,good,bad", GOOD_AND_BAD, ids=[case[0] for case in GOOD_AND_BAD])
def test_check_accepts_right_and_rejects_wrong_value(name, good, bad):
    check = getattr(checks, name)
    check(*good)
    with pytest.raises(checks.CheckFailed):
        check(*bad)


def test_matching_must_be_a_permutation():
    with pytest.raises(checks.CheckFailed):
        checks.check_matching({"matching": [1, 1], "optimal_value": "11"}, [[9, 1], [2, 9]])


def test_count_sums_reject_a_wrong_column():
    fact = math.factorial(3)
    rows_ok_columns_bad = [[fact, 0, 0], [fact, 0, 0], [0, 0, fact]]
    with pytest.raises(checks.CheckFailed):
        checks.check_count_sums(rows_ok_columns_bad, 3)
