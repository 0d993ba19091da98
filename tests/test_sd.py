import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from operator import getitem
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lane_floor, metric_battery, record_orderings, tie_battery
from rsdlab import (
    AssignmentInstance,
    Matching,
    Objective,
    Ordering,
    SplitMix64,
    bernoulli_welfare,
    derive_preferences,
    evaluate,
    random_ordering,
    sd_run,
    serial_dictatorship,
    solve_opt,
    substream,
    worst_case_metric_line,
)
from rsdlab.core import preference_rows
from rsdlab.rng import _words, packed_draws
from rsdlab.sd import _CHUNK, LANES, LANES_MAX_N, _shuffled_planes, sd_assign, sd_total


def test_worst_case_identity_run():
    inst = worst_case_metric_line(3)
    matching = serial_dictatorship(inst, Ordering((1, 2, 3)))
    # agent@1 -> item@2, agent@2 -> item@4, agent@4 -> item@-1
    assert matching.assign == (2, 3, 1)
    assert evaluate(inst, matching, Objective.COST) == 8


def test_single_agent_matches_single_item():
    inst = AssignmentInstance.from_values([[3]])
    assert serial_dictatorship(inst, Ordering((1,))).assign == (1,)


def test_bernoulli_hand_run():
    inst = bernoulli_welfare(3)
    matching = serial_dictatorship(inst, Ordering((2, 1, 3)))
    assert matching.item_of(2) == 1  # zero-value dictator grabs min index
    assert matching.item_of(1) == 2
    assert matching.item_of(3) == 3


def test_invalid_ordering_rejected():
    inst = bernoulli_welfare(3)
    with pytest.raises(ValueError):
        serial_dictatorship(inst, Ordering((1, 1, 2)))
    with pytest.raises(ValueError):
        serial_dictatorship(inst, Ordering((1, 2)))


def test_evaluate_refuses_a_matching_that_is_not_perfect():
    inst = bernoulli_welfare(3)
    for matching in (Matching((1, 1, 2)), Matching((1, 2))):
        with pytest.raises(ValueError, match=r"^matching must be a perfect matching on 1\.\.n$"):
            evaluate(inst, matching, Objective.WELFARE)


def test_evaluate_zero_matrix():
    inst = AssignmentInstance.from_values([[0] * 3] * 3)
    assert evaluate(inst, Matching((2, 3, 1)), Objective.WELFARE) == 0


def test_evaluate_matches_direct_sum():
    rows = [
        ["0.5", 2, 3, "0.25"],
        [1, 0, "1.5", 7],
        [4, "2.25", 0, 1],
        [2, 2, 2, "0.125"],
    ]
    inst = AssignmentInstance.from_values(rows)
    matching = Matching((4, 3, 2, 1))
    expected = Fraction("0.25") + Fraction("1.5") + Fraction("2.25") + Fraction(2)
    assert evaluate(inst, matching, Objective.WELFARE) == expected


def test_evaluate_rejects_mismatched_objective():
    inst = bernoulli_welfare(2)
    with pytest.raises(ValueError):
        evaluate(inst, Matching((1, 2)), Objective.COST)


def test_sd_run_bundles_exact_value():
    inst = worst_case_metric_line(2)
    run = sd_run(inst, Ordering((1, 2)), Objective.COST)
    assert run.matching.assign == (2, 1)
    assert run.objective_value == 4


def test_random_ordering_single_agent():
    rng = substream(1, 0, 0)
    for _ in range(5):
        assert random_ordering(rng, 1).seq == (1,)


def test_random_ordering_deterministic_per_state():
    a = random_ordering(substream(42, 3, 17), 8)
    b = random_ordering(substream(42, 3, 17), 8)
    assert a == b
    assert a.is_permutation()


def test_random_ordering_uniform_frequencies():
    rng = SplitMix64(2024)
    counts: dict[tuple, int] = {}
    draws = 60_000
    for _ in range(draws):
        seq = random_ordering(rng, 3).seq
        counts[seq] = counts.get(seq, 0) + 1
    assert len(counts) == 6
    for seq, c in counts.items():
        assert abs(c / draws - 1 / 6) < 0.01, (seq, c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sd_outputs_perfect_matchings(data):
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    inst = AssignmentInstance.from_values(rows)
    order = data.draw(st.permutations(list(range(1, n + 1))))
    matching = serial_dictatorship(inst, Ordering(tuple(order)))
    assert matching.is_perfect()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_each_dictator_gets_best_remaining_item(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    inst = AssignmentInstance.from_values(rows)
    order = data.draw(st.permutations(list(range(1, n + 1))))
    matching = serial_dictatorship(inst, Ordering(tuple(order)))
    remaining = set(range(1, n + 1))
    for agent in order:
        prefs = derive_preferences(inst, agent)
        best_remaining = min(remaining, key=prefs.index)
        assert matching.item_of(agent) == best_remaining
        remaining.remove(best_remaining)


def test_sd_cost_within_power_of_two_factor_of_opt():
    # every ordering of every small instance stays below 2^n times optimal
    for inst in metric_battery(12, base_seed=4000, ns=(2, 3, 4)):
        opt = solve_opt(inst, Objective.COST).objective_value
        bound = 2**inst.n * opt
        for order in permutations(range(1, inst.n + 1)):
            matching = serial_dictatorship(inst, Ordering(order))
            assert evaluate(inst, matching, Objective.COST) <= bound


@lru_cache(maxsize=4)
def substream_orders(seed, run, k, n):
    """The scalar reference: ``substream(seed, run, i).permutation(n)`` for
    ``i`` in ``range(k)``."""
    return tuple(substream(seed, run, i).permutation(n) for i in range(k))


def scalar_batches(orders, k, n):
    """The orderings among the first ``k`` of ``orders`` that ``sd_total``
    scores on its scalar loop: those of each batch of up to ``LANES`` below
    the lane floor."""
    batches = [orders[start:min(k, start + LANES)] for start in range(0, k, LANES)]
    return [order for batch in batches if len(batch) < lane_floor(n) for order in batch]


def check_sd_total(monkeypatch, instances, seed, run, ks, n):
    """``sd_total`` of each of ``ks`` samples is the sum of the ``sd_assign``
    scores of the substream orderings, and its scalar loop scores exactly
    those of its scalar batches, one by one and in order."""
    orders = substream_orders(seed, run, max(ks), n)
    for inst in instances:
        prefs = preference_rows(inst)
        scaled = inst.table
        scores = [sum(map(getitem, scaled, sd_assign(prefs, order))) for order in orders]
        for k in sorted(ks):
            scored = record_orderings(monkeypatch)
            assert sd_total(prefs, scaled, seed, run, k) == sum(scores[:k]), k
            assert scored == scalar_batches(orders, k, n), k
        assert sd_total(prefs, scaled, seed, run, 0) == 0


@pytest.mark.parametrize("n", [1, 2, 9, 20, LANES_MAX_N, LANES_MAX_N + 1, 257])
def test_sd_total_is_the_sum_of_sd_assign_scores(n, monkeypatch):
    # up to n = 20 the runs end in batches on both sides of the lane floor
    # and of LANES; LANES_MAX_N runs the widest lane batch, and above it
    # every batch runs the scalar loop, past one-byte agent indices at n = 257
    floor = lane_floor(n)
    ks = {1, 40} if n > LANES_MAX_N else {floor} if n > 20 else {max(floor - 1, 0), floor, LANES, LANES + 1, LANES + floor}
    seed = 9100 + n
    check_sd_total(monkeypatch, tie_battery(2 if n <= 20 else 1, seed, ns=(n,)), seed, 3, ks, n)


@pytest.mark.parametrize("n,k", [(150, 1500), (LANES_MAX_N + 1, _CHUNK + 1)])
def test_scalar_batches_across_a_chunk_score_the_substream_orderings(n, k, monkeypatch):
    # one batch on the scalar loop, below the lane floor at n = 150 (1,800)
    # and above LANES_MAX_N at n = 193, read in two chunks of packed draws
    assert _CHUNK < k < lane_floor(n)
    check_sd_total(monkeypatch, tie_battery(1, 9300 + n, ns=(n,)), 9300 + n, 5, {k}, n)


ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def decoded(planes, count, n):
    """The orderings that a batch's bit planes hold, sample 0 first."""
    columns = []
    for p in range(n):
        # bit b of the agent at position p, one byte per lane, moved to bit b
        column = sum(int.from_bytes(f"{plane[p]:0{count}b}".encode().translate(ZERO_ONE), "big") << b
                     for b, plane in enumerate(planes))
        columns.append(column.to_bytes(count, "big"))
    return [list(order) for order in zip(*columns)]


# the lane reader converts eight positions at a time: n = 2, 9, 10, 17 and 18
# end in a group of 1, 8, 1, 8 and 1 positions after 0, 0, 1, 1 and 2 full
# groups; n = 256 ends in a group of 7 after 31, and draws up to 255, a whole byte
@pytest.mark.parametrize("n", [2, 9, 10, 17, 18, 20, 256])
@pytest.mark.parametrize("k", [LANES - 1, LANES, LANES + 1])
def test_the_lane_shuffle_holds_the_orderings_of_run_permutations(k, n):
    seed, run = 41, 2
    orders = []
    for start in range(0, k, LANES):
        count = min(LANES, k - start)
        orders += decoded(_shuffled_planes(packed_draws(seed, run, start, count, n), count, n), count, n)
    assert orders == list(substream_orders(seed, run, LANES + 1, n)[:k])


@pytest.mark.parametrize("byteorder", ["little", "big"])
@pytest.mark.parametrize("n", [2, 18, 257])
def test_the_scalar_loop_reads_each_draw_from_the_high_word(n, byteorder, monkeypatch):
    # at n = 257 the draws below(257) need a second byte; the byte order that
    # is not this host's is read as such a host reads it, so its native words
    # come byte-swapped here and are swapped back
    seed, run, count = 41, 2, 5
    rngs = [substream(seed, run, s) for s in range(count)]
    expected = [[r.below(i + 1) for r in rngs] for i in range(n - 1, 0, -1)]
    monkeypatch.setattr("rsdlab.rng.sys", SimpleNamespace(byteorder=byteorder))
    words = [[int.from_bytes(w.to_bytes(8, sys.byteorder), byteorder) for w in _words(d, count)]
             for d in packed_draws(seed, run, 0, count, n)]
    assert words == expected
    monkeypatch.undo()
    check_sd_total(monkeypatch, tie_battery(1, seed, ns=(n,)), seed, run, {count}, n)
