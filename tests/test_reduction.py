import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsdlab.reduction
from conftest import abstract_battery, count_dp_calls, enumerate_rsd_by_orderings
from rsdlab import (
    AssignmentInstance,
    Objective,
    block_bits,
    build_artifact,
    build_reduction,
    counts_by_rank,
    decode_counts,
    derive_preferences,
    enumerate_rsd,
    exact_scaled_total,
    lottery_from_counts,
    random_abstract,
    round_trip_matches,
    validate,
)

TWO_AGENTS_SAME_FAVOURITE = AssignmentInstance.from_rankings([(1, 2), (1, 2)])


def test_block_bits_counts_factorial_bits():
    # bit length of n! equals ceil(log2(n! + 1)) for every n
    for n in range(1, 13):
        fact = math.factorial(n)
        q = block_bits(n)
        assert 2**q >= fact + 1 > 2 ** (q - 1)


def test_value_construction_worked_example():
    built = build_reduction(TWO_AGENTS_SAME_FAVOURITE, "value")
    assert block_bits(2) == 2
    assert built.values == (
        (Fraction(4), Fraction(1)),
        (Fraction(64), Fraction(16)),
    )


def test_metric_construction_worked_example():
    built = build_reduction(TWO_AGENTS_SAME_FAVOURITE, "metric")
    assert built.costs == (
        (Fraction(257), Fraction(260)),
        (Fraction(272), Fraction(320)),
    )
    assert validate(built) == []


def test_scaled_totals_worked_examples():
    value_built = build_reduction(TWO_AGENTS_SAME_FAVOURITE, "value")
    assert exact_scaled_total(value_built, Objective.WELFARE) == 85
    metric_built = build_reduction(TWO_AGENTS_SAME_FAVOURITE, "metric")
    assert exact_scaled_total(metric_built, Objective.COST) == 1109


def test_decode_worked_examples():
    counts, top = decode_counts(85, 2, "value")
    assert counts == ((1, 1), (1, 1))
    assert top is None
    counts, top = decode_counts(1109, 2, "metric")
    assert counts == ((1, 1), (1, 1))
    assert top == 4


def test_decode_zero_total():
    counts, _ = decode_counts(0, 3, "value")
    assert counts == ((0, 0, 0),) * 3


def test_lottery_from_counts_uniform():
    lottery = lottery_from_counts(((1, 1), (1, 1)), TWO_AGENTS_SAME_FAVOURITE)
    assert lottery == ((Fraction(1, 2), Fraction(1, 2)),) * 2


def test_lottery_rejects_bad_row_sum():
    with pytest.raises(ValueError, match="corrupted"):
        lottery_from_counts(((1, 0), (1, 1)), TWO_AGENTS_SAME_FAVOURITE)


def test_built_preferences_reproduce_source_rankings():
    for source in abstract_battery(50, 7000, ns=(2, 3, 4)):
        for setting in ("value", "metric"):
            built = build_reduction(source, setting)
            for agent in range(1, source.n + 1):
                assert derive_preferences(built, agent) == source.ranking(agent)


def test_metric_entries_within_factor_two():
    for source in abstract_battery(12, 7600, ns=(2, 3, 4)):
        built = build_reduction(source, "metric")
        entries = [x for row in built.costs for x in row]
        assert max(entries) < 2 * min(entries)
        assert validate(built) == []


def test_round_trip_against_enumeration():
    for source in abstract_battery(12, 8000, ns=(2, 3, 4)):
        for setting in ("value", "metric"):
            artifact = build_artifact(source, setting)
            assert round_trip_matches(artifact)
            summary = enumerate_rsd(artifact.built)
            assert counts_by_rank(summary, artifact.built) == artifact.counts
            assert artifact.lottery == summary.lottery


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_a_built_instance_that_ranks_otherwise_fails_the_round_trip(setting):
    # agent 1's counts are (6, 0, 0) whatever it ranks below its favourite,
    # so only the preferences tell the swapped instance from the built one
    artifact = build_artifact(AssignmentInstance.from_rankings([[1, 2, 3], [2, 3, 1], [3, 2, 1]]), setting)
    assert artifact.counts[0] == (6, 0, 0) and round_trip_matches(artifact)
    rows = [list(row) for row in artifact.built.payoff_matrix()]
    rows[0][1], rows[0][2] = rows[0][2], rows[0][1]  # agent 1's rank-2 and rank-3 payoffs
    swapped = (AssignmentInstance.from_values if setting == "value" else AssignmentInstance.from_costs)(rows)
    assert not round_trip_matches(dataclasses.replace(artifact, built=swapped))


def test_metric_top_block_is_n_times_factorial():
    for source in abstract_battery(9, 8200, ns=(2, 3, 4)):
        artifact = build_artifact(source, "metric")
        assert artifact.top_block == source.n * math.factorial(source.n)


def test_bit_blocks_are_disjoint():
    # reads the layout the encoder and the decoder share
    for n in range(1, 13):
        q = block_bits(n)
        for setting in ("value", "metric"):
            blocks, _ = rsdlab.reduction._offsets(n, setting)
            offsets = [offset for row in blocks for offset in row]
            assert len(offsets) == n * n
            bits = [bit for offset in offsets for bit in range(offset, offset + q)]
            assert len(set(bits)) == n * n * q
            assert min(bits) >= 0 and max(bits) < n * n * q
            for row in blocks:
                ascending = row if setting == "metric" else row[::-1]
                assert all(a < b for a, b in zip(ascending, ascending[1:]))


def test_entry_bit_length_is_polynomial():
    for n in (2, 4, 8):
        built = build_reduction(
            AssignmentInstance.from_rankings([tuple(range(1, n + 1))] * n), "value"
        )
        q = block_bits(n)
        longest = max(int(x).bit_length() for row in built.values for x in row)
        assert longest <= n * n * q + 1


def test_rejects_non_abstract_source():
    with pytest.raises(ValueError, match=r"^reduce expects an abstract instance \(rankings only\)$"):
        build_reduction(AssignmentInstance.from_values([[1]]), "value")
    with pytest.raises(ValueError):
        build_reduction(TWO_AGENTS_SAME_FAVOURITE, "euclidean")


def test_rejects_an_invalid_source():
    with pytest.raises(ValueError, match=r"^source instance is invalid: ranking of agent 2 is not a permutation of 1\.\.2$"):
        build_reduction(AssignmentInstance.from_rankings([(1, 2), (1, 1)]), "value")


def test_block_bits_and_decode_counts_refuse_what_has_no_layout():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        block_bits(0)
    with pytest.raises(ValueError, match="^scaled total must be non-negative$"):
        decode_counts(-1, 2, "value")


def test_exact_scaled_total_refuses_a_non_integral_instance():
    # E[welfare] = 1/3 and 1! = 1: no integer carries it
    with pytest.raises(ValueError, match="scaled total is not an integer"):
        exact_scaled_total(AssignmentInstance.from_values([["1/3"]]), Objective.WELFARE)


@settings(max_examples=50)
@given(st.data())
def test_encode_decode_identity_on_synthetic_counts(data):
    # any count matrix with entries in [0, n!] survives the bit round trip
    n = data.draw(st.integers(1, 4))
    fact = math.factorial(n)
    q = block_bits(n)
    counts = data.draw(st.lists(
        st.lists(st.integers(0, fact), min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    for setting, offset in (
        ("value", lambda i, j: (i * n - j) * q),
        ("metric", lambda i, j: ((i - 1) * n + j - 1) * q),
    ):
        total = sum(
            counts[i - 1][j - 1] << offset(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
        decoded, _ = decode_counts(total, n, setting)
        assert decoded == tuple(tuple(row) for row in counts)


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_a_round_trip_runs_one_count_only_dp(monkeypatch, setting):
    calls = count_dp_calls(monkeypatch, rsdlab.reduction)
    artifact = build_artifact(random_abstract(5, 3), setting)
    assert round_trip_matches(artifact)
    assert calls == [None]


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_scaled_total_is_n_factorial_times_the_reference_mean(setting):
    objective = Objective.WELFARE if setting == "value" else Objective.COST
    for n in range(2, 7):
        for seed in (0, 1):
            built = build_reduction(random_abstract(n, seed), setting)
            reference = enumerate_rsd_by_orderings(built, objective)
            assert exact_scaled_total(built, objective) == math.factorial(n) * reference.mean
