from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abstract_battery,
    four_point_scan,
    matrix_violations_by_fractions,
    metric_battery,
    preference_rows_by_fractions,
)
from rsdlab import (
    AssignmentInstance,
    Method,
    Objective,
    bernoulli_welfare,
    build_reduction,
    check_approx,
    derive_preferences,
    random_metric_line,
    remove_agent_best,
    sample_size,
    solve_opt,
    validate,
    worst_case_metric_line,
)
from rsdlab import core
from rsdlab.core import MAX_EXPONENT, QUOTED_LENGTH, as_fraction, exact_int, exact_str, preference_rows


def test_bernoulli_preferences_follow_min_index():
    inst = bernoulli_welfare(4)
    assert derive_preferences(inst, 1) == (1, 2, 3, 4)
    # zero-value agents tie everywhere, so min index wins throughout
    assert derive_preferences(inst, 3) == (1, 2, 3, 4)


def test_single_agent_preferences():
    inst = AssignmentInstance.from_values([[5]])
    assert derive_preferences(inst, 1) == (1,)


def test_worst_case_preferences_sort_by_distance():
    inst = worst_case_metric_line(3)
    # agent at 1; items at -1, 2, 4 cost 2, 1, 3
    assert derive_preferences(inst, 1) == (2, 1, 3)


def test_preferences_reject_bad_agent_index():
    inst = bernoulli_welfare(2)
    with pytest.raises(ValueError):
        derive_preferences(inst, 0)
    with pytest.raises(ValueError):
        derive_preferences(inst, 3)


def test_point_based_metric_instances_validate():
    inst = AssignmentInstance.from_line_points([0, 3, "7.5"], [1, 2, 10])
    assert validate(inst) == []


def test_triangle_violation_is_located():
    inst = AssignmentInstance.from_costs([[1, 10], [1, 1]])
    violations = validate(inst)
    assert any(v.code == "triangle" and v.indices == (1, 2, 2, 1) for v in violations)


@settings(max_examples=300)
@given(st.data())
def test_metric_check_lists_exactly_the_four_point_scan(data):
    n = data.draw(st.integers(1, 5))
    # 0, ties and entries far apart enough to break the four-point condition
    entry = st.sampled_from([Fraction(x) for x in ("0", "1/3", "1/2", "1", "7/4", "3", "10")])
    costs = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assert validate(AssignmentInstance.from_costs(costs)) == four_point_scan(costs)


def test_metric_check_on_reduction_built_costs():
    # costs of hundreds of bits; raising one entry to the sum of all costs breaks the metric
    for source in abstract_battery(10, 4100, ns=(2, 3, 4, 5, 6)):
        costs = [list(row) for row in build_reduction(source, "metric").costs]
        assert validate(AssignmentInstance.from_costs(costs)) == four_point_scan(costs) == []
        costs[-1][0] = sum(map(sum, costs))
        violations = validate(AssignmentInstance.from_costs(costs))
        assert violations == four_point_scan(costs)
        assert violations


def test_large_matrix_metric_instance_validates():
    # n=60 guards the O(n^3) check: a quadruple scan would take minutes
    inst = random_metric_line(60, 8)
    assert validate(AssignmentInstance.from_costs(inst.costs)) == []


def test_negative_value_entry_reported():
    inst = AssignmentInstance.from_values([[1, 0], [0, -1]])
    violations = validate(inst)
    assert len(violations) == 1
    assert violations[0].code == "negative"
    assert violations[0].indices == (2, 2)


def test_non_square_matrix_reported():
    inst = AssignmentInstance(n=2, setting="value", values=((Fraction(1),),))
    codes = {v.code for v in validate(inst)}
    assert "shape" in codes


def test_non_permutation_ranking_reported():
    inst = AssignmentInstance.from_rankings([(1, 1), (2, 1)])
    violations = validate(inst)
    assert [v.code for v in violations] == ["ranking"]
    assert violations[0].indices == (1,)


def test_validate_checks_rankings_against_a_huge_declared_n_without_allocating_it():
    # a list of 10**18 ints would be asked for if the sort came before the length check
    n = 10**18
    inst = AssignmentInstance(n=n, setting="abstract", rankings=((1,),))
    assert [(v.code, v.message) for v in validate(inst)] == [
        ("shape", f"expected {n} rankings"),
        ("ranking", f"ranking of agent 1 is not a permutation of 1..{n}"),
    ]


def test_remove_agent_best_worst_case():
    inst = worst_case_metric_line(3)
    reduced = remove_agent_best(inst, 1)
    assert reduced.removed_item == 2  # the item at coordinate 2
    assert reduced.instance.agent_points == (Fraction(2), Fraction(4))
    assert reduced.instance.item_points == (Fraction(-1), Fraction(4))
    assert reduced.agent_of == (2, 3)
    assert reduced.item_of == (1, 3)


def test_remove_agent_best_identity_value():
    inst = AssignmentInstance.from_values([[1, 0], [0, 1]])
    reduced = remove_agent_best(inst, 2)
    assert reduced.instance.n == 1
    assert reduced.instance.values == ((Fraction(1),),)


def test_remove_agent_best_rejects_single_agent():
    with pytest.raises(ValueError):
        remove_agent_best(AssignmentInstance.from_values([[1]]), 1)


def test_removed_instance_claim_on_random_metric_instances():
    # OPT of the reduced instance never exceeds OPT plus the removed best cost
    for inst in metric_battery(100, base_seed=900):
        opt = solve_opt(inst, Objective.COST).objective_value
        for agent in range(1, inst.n + 1):
            best = derive_preferences(inst, agent)[0]
            reduced = remove_agent_best(inst, agent)
            opt_reduced = solve_opt(reduced.instance, Objective.COST).objective_value
            assert opt_reduced <= opt + inst.cost(agent, best)


def test_remove_preserves_validity():
    for inst in metric_battery(30, base_seed=75):
        reduced = remove_agent_best(inst, 1 + inst.n // 2)
        assert validate(reduced.instance) == []


@settings(max_examples=60)
@given(st.data())
def test_derived_preferences_are_permutations(data):
    n = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["value", "metric"]))
    entries = data.draw(st.lists(
        st.lists(st.integers(0, 8), min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    if kind == "value":
        inst = AssignmentInstance.from_values(entries)
    else:
        agents = data.draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
        items = data.draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
        inst = AssignmentInstance.from_line_points(agents, items)
    for agent in range(1, n + 1):
        prefs = derive_preferences(inst, agent)
        assert sorted(prefs) == list(range(1, n + 1))


@settings(max_examples=40)
@given(
    agents=st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    items=st.lists(st.integers(-50, 50), min_size=1, max_size=6),
)
def test_line_points_always_metric(agents, items):
    n = min(len(agents), len(items))
    inst = AssignmentInstance.from_line_points(agents[:n], items[:n])
    assert validate(inst) == []


def _square(entry, n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=200)
@given(st.data())
def test_ranking_on_the_integer_table_matches_the_fraction_sort_under_ties(data):
    n = data.draw(st.integers(1, 7))
    rows = data.draw(_square(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]), n))
    for inst in (AssignmentInstance.from_values(rows), AssignmentInstance.from_costs(rows)):
        assert preference_rows(inst) == preference_rows_by_fractions(inst)


@settings(max_examples=100)
@given(st.data())
def test_ranking_matches_the_fraction_sort_with_negative_entries(data):
    n = data.draw(st.integers(1, 6))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    rows = data.draw(_square(entry, n))
    for inst in (AssignmentInstance.from_values(rows), AssignmentInstance.from_costs(rows)):
        assert preference_rows(inst) == preference_rows_by_fractions(inst)


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_ranking_matches_the_fraction_sort_on_reductions(setting):
    for source in abstract_battery(12, 5300, ns=(2, 3, 4, 5)):
        inst = build_reduction(source, setting)
        assert preference_rows(inst) == preference_rows_by_fractions(inst)


def test_validate_reports_shapes_then_signs_in_order():
    rows = (
        (Fraction(1), Fraction(-1, 2), Fraction(0)),
        (Fraction(-3),),
        (Fraction(2), Fraction(2), Fraction("-0.25"), Fraction(7)),
    )
    for setting, field, noun in (("value", "values", "value"), ("metric", "costs", "cost")):
        messages = [v.message for v in validate(AssignmentInstance(n=3, setting=setting, **{field: rows}))]
        assert messages == [
            f"{field} row 2 has 1 entries, expected 3",
            f"{field} row 3 has 4 entries, expected 3",
            f"negative {noun} -1/2 at agent 1, item 2",
            f"negative {noun} -3 at agent 2, item 1",
            f"negative {noun} -1/4 at agent 3, item 3",
        ]


@settings(max_examples=150)
@given(st.data())
def test_validate_lists_the_fraction_sign_check_on_bad_matrices(data):
    n = data.draw(st.integers(1, 4))
    entry = st.sampled_from([Fraction(x) for x in ("-7/2", "-1", "-1/3", "0", "1/2", "2")])
    rows = data.draw(st.lists(st.lists(entry, max_size=n + 1), max_size=n + 1))
    rows = tuple(tuple(row) for row in rows)
    for setting, field in (("value", "values"), ("metric", "costs")):
        expected = matrix_violations_by_fractions(field, rows, n)
        if setting == "metric" and not expected:
            expected = four_point_scan(rows)
        assert validate(AssignmentInstance(n=n, setting=setting, **{field: rows})) == expected


def test_validate_reports_a_negative_entry_past_the_int_string_limit():
    huge = -(10**5000)
    (violation,) = validate(AssignmentInstance.from_values([[huge]]))
    assert violation.message == f"negative value -1{'0' * 38}… (5002 characters) at agent 1, item 1"


def test_violation_messages_cut_values_longer_than_the_quoted_length():
    whole, cut = -(10**(QUOTED_LENGTH - 2)), -(10**(QUOTED_LENGTH - 1))
    messages = [v.message for v in validate(AssignmentInstance.from_values([[whole, cut], [0, 0]]))]
    assert messages == [
        f"negative value {whole} at agent 1, item 1",
        f"negative value {str(cut)[:QUOTED_LENGTH]}… ({QUOTED_LENGTH + 1} characters) at agent 1, item 2",
    ]
    (violation,) = validate(AssignmentInstance.from_costs([[10**45, 0], [0, 0]]))
    assert violation.message == f"c[1][1]=1{'0' * 39}… (46 characters) exceeds c[1][2]+c[2][2]+c[2][1]"


def test_exact_str_writes_any_number_of_pieces_without_recursing(monkeypatch):
    # with one digit per piece, a 1,500-digit int takes more pieces than the
    # default recursion limit allows frames
    monkeypatch.setattr(core, "_PIECE_DIGITS", 1)
    monkeypatch.setattr(core, "_PIECE", 10)
    # the expected digits are literal, not str(x), so the test holds under
    # any int-to-str digit limit; each x is coprime to 10**1499 + 1
    cases = [(1234567890 * (10**1500 - 1) // (10**10 - 1), "1234567890" * 150),
             (10**1499 + 7, "1" + "0" * 1498 + "7"),
             (10**1499, "1" + "0" * 1499)]
    for x, digits in cases:
        assert exact_str(x) == digits
        assert exact_str(-x) == "-" + digits
        assert exact_str(Fraction(-x, 10**1499 + 1)) == f"-{digits}/1{'0' * 1498}1"
        assert exact_int(exact_str(x)) == x


_BEYOND = f"decimal exponent beyond ±{MAX_EXPONENT}"
_NOT_A_LITERAL = "is not a numeric literal"
_PAST_THE_BOUND = [
    (f"1e-{MAX_EXPONENT + 1}", _BEYOND), (f"1e{MAX_EXPONENT + 1}", _BEYOND),
    # an underscore or a non-ASCII digit makes no literal, whatever the exponent
    ("2.5E+4_301", _NOT_A_LITERAL), ("1e-\u0664\u0663\u0660\u0661", _NOT_A_LITERAL),
    ("1e-" + "9" * 100, _BEYOND),
]


@pytest.mark.parametrize("text, message", _PAST_THE_BOUND, ids=[text for text, _ in _PAST_THE_BOUND])
def test_as_fraction_refuses_a_string_exponent_past_the_bound(text, message):
    # refused on the text, so no 10**e is ever built
    with pytest.raises(ValueError, match=message):
        as_fraction(text)


def test_as_fraction_and_sample_size_take_a_string_exponent_at_the_bound():
    tiny = Fraction(1, 10**MAX_EXPONENT)
    assert as_fraction(f"1e-{MAX_EXPONENT}") == tiny
    with pytest.raises(ValueError, match=_NOT_A_LITERAL):
        as_fraction("1e-\u0664\u0663\u0660\u0660")
    assert as_fraction(f"1e{MAX_EXPONENT}") == 1 / tiny
    plan = sample_size(Method.WELFARE_BERNSTEIN, 5, "0.5", f"1e-{MAX_EXPONENT}")
    assert plan == sample_size(Method.WELFARE_BERNSTEIN, 5, Fraction(1, 2), tiny)


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_as_fraction_refuses_infinities_and_nan(x):
    # Fraction(inf) raises OverflowError and Fraction(nan) ValueError; both
    # are one ValueError here, also through sample_size and check_approx
    message = f"^{x} is not a finite number$"
    with pytest.raises(ValueError, match=message):
        as_fraction(x)
    with pytest.raises(ValueError, match=message):
        sample_size(Method.WELFARE_BERNSTEIN, 5, "0.5", x)
    with pytest.raises(ValueError, match=message):
        check_approx(x, 1, "0.5")
