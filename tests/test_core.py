import re
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abstract_battery,
    first_per_cell,
    four_point_scan,
    int_digit_limit,
    matrix_violations_by_fractions,
    metric_battery,
    min_plus_violations,
    preference_rows_by_fractions,
)
from rsdlab import (
    AssignmentInstance,
    Matching,
    Method,
    Objective,
    Ordering,
    Violation,
    bernoulli_welfare,
    build_reduction,
    check_approx,
    derive_preferences,
    dumps_instance,
    loads_instance,
    random_abstract,
    random_metric_line,
    random_value,
    remove_agent_best,
    sample_size,
    solve_opt,
    validate,
    worst_case_metric_line,
)
from rsdlab import core
from rsdlab.core import MAX_EXPONENT, PAYOFF_FIELD, QUOTED_LENGTH, as_fraction, exact_int, exact_str, preference_rows
from rsdlab.rng import SplitMix64


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


@settings(max_examples=500)
@given(st.data())
def test_metric_check_lists_the_first_four_point_failure_of_each_cell(data):
    n = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        # 0, ties and entries far apart enough to break the four-point condition
        entry = st.sampled_from([Fraction(x) for x in ("0", "1/3", "1/2", "1", "7/4", "3", "10")])
        costs = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        # a line metric with at most one entry moved, so the pair test both accepts and refuses
        agents, items = (data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)) for _ in range(2))
        costs = [[Fraction(abs(a - b)) for b in items] for a in agents]
        i, g = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        costs[i][g] = max(Fraction(0), costs[i][g] + Fraction(data.draw(st.integers(-6, 6)), 2))
    inst = AssignmentInstance.from_costs(costs)
    assert validate(inst) == min_plus_violations(inst.table, inst.denom) == first_per_cell(four_point_scan(costs))


def _nonmetric_matrix():
    # the CI step's kind of matrix: entries drawn from {0, 1, 100}
    draws = SplitMix64(1)
    return [AssignmentInstance.from_costs([[(0, 1, 100)[draws.below(3)] for _ in range(60)] for _ in range(60)])]


def _line_matrix_with_a_raised_corner():
    # one corner at a time raised to the sum of all costs: in the first row every other agent is a
    # witness of the failing cell, in the last row every agent before it
    line = random_metric_line(60, 8)
    out = []
    for i, g in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        table = [list(row) for row in line.table]
        table[i][g] = sum(map(sum, table))
        out.append(AssignmentInstance.from_table(line.n, line.setting, table, line.denom))
    return out


def _reduction_built_costs():
    # the costs of test_metric_check_on_reduction_built_costs, before and after one entry is raised
    out = []
    for source in abstract_battery(10, 4100, ns=(2, 3, 4, 5, 6)):
        costs = [list(row) for row in build_reduction(source, "metric").costs]
        out.append(AssignmentInstance.from_costs(costs))
        costs[-1][0] = sum(map(sum, costs))
        out.append(AssignmentInstance.from_costs(costs))
    return out


@pytest.mark.parametrize("build, failing", [(_nonmetric_matrix, 1), (_line_matrix_with_a_raised_corner, 4),
                                            (_reduction_built_costs, 10)],
                         ids=["nonmetric-60", "line-60-raised-corner", "reduction-built"])
def test_metric_check_lists_what_the_min_plus_scan_lists(build, failing):
    instances = build()
    expected = [min_plus_violations(inst.table, inst.denom) for inst in instances]
    assert [validate(inst) for inst in instances] == expected
    assert sum(map(bool, expected)) == failing


def test_a_pair_that_fails_only_in_the_second_order_is_listed():
    # agents 1 and 2 hold in the order (1, 2), c[1][g] - c[2][g] <= 0 <= every sum,
    # and fail in the order (2, 1): c[2][1] = 5 > c[2][2] + c[1][2] + c[1][1] = 0
    inst = AssignmentInstance.from_costs([[0, 0], [5, 0]])
    assert validate(inst) == [Violation("triangle", (2, 1, 1, 2), "c[2][1]=5 exceeds c[2][2]+c[1][2]+c[1][1]")]
    assert validate(AssignmentInstance.from_costs([[0, 5], [0, 0]])) == [
        Violation("triangle", (1, 2, 2, 1), "c[1][2]=5 exceeds c[1][1]+c[2][1]+c[2][2]")]


def test_metric_check_on_reduction_built_costs():
    # costs of hundreds of bits; raising one entry to the sum of all costs breaks the metric
    for source in abstract_battery(10, 4100, ns=(2, 3, 4, 5, 6)):
        costs = [list(row) for row in build_reduction(source, "metric").costs]
        assert validate(AssignmentInstance.from_costs(costs)) == four_point_scan(costs) == []
        costs[-1][0] = sum(map(sum, costs))
        violations = validate(AssignmentInstance.from_costs(costs))
        assert violations == first_per_cell(four_point_scan(costs))
        assert violations


def test_large_matrix_metric_instance_validates():
    # n=60 guards the O(n^3) check: a quadruple scan would take minutes
    inst = random_metric_line(60, 8)
    assert validate(AssignmentInstance.from_costs(inst.costs)) == []


def test_non_metric_matrix_lists_one_violation_per_failing_cell():
    # n=60 guards the O(n^2) report: this matrix has 1,442,481 failing quadruples
    draws = SplitMix64(1)
    n = 60
    costs = [[Fraction((0, 1, 100)[draws.below(3)]) for _ in range(n)] for _ in range(n)]
    violations = validate(AssignmentInstance.from_costs(costs))
    cells = [v.indices[:2] for v in violations]
    assert 0 < len(violations) <= n * n
    assert cells == sorted(set(cells))
    for v in violations:
        i1, g1, i2, g2 = (x - 1 for x in v.indices)
        assert v.code == "triangle"
        assert costs[i1][g1] > costs[i1][g2] + costs[i2][g2] + costs[i2][g1]


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
        ("shape", f"rankings has 1 rows, expected {n}"),
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


def test_remove_agent_best_refuses_an_abstract_instance_and_an_agent_out_of_range():
    with pytest.raises(ValueError, match="^removal is defined for value and metric instances only$"):
        remove_agent_best(AssignmentInstance.from_rankings([(1, 2), (2, 1)]), 1)
    for agent in (0, 3):
        with pytest.raises(ValueError, match=rf"^agent index {agent} out of range 1\.\.2$"):
            remove_agent_best(AssignmentInstance.from_values([[1, 0], [0, 1]]), agent)


def test_an_abstract_instance_has_no_payoff_matrix():
    with pytest.raises(ValueError, match="^abstract instances carry no payoff matrix$"):
        AssignmentInstance.from_rankings([(1,)]).payoff_matrix()


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


@pytest.mark.parametrize("inst", [
    random_metric_line(20, 7),
    AssignmentInstance.from_line_points(["0.5", "1/3", "-7/6"], ["2", "-0.25", "5/3"]),
    worst_case_metric_line(12),
], ids=["random-line-20", "fractions", "worst-case-12"])
def test_point_defined_costs_skip_the_four_point_check(inst, monkeypatch):
    def refused(_):
        raise AssertionError("the four-point check ran")

    monkeypatch.setattr(core, "_triangle_violations", refused)
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
            expected = first_per_cell(four_point_scan(rows))
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


_JUNK = st.one_of(st.floats(), st.text(max_size=3), st.none(), st.complex_numbers(), st.decimals(),
                  st.lists(st.integers(0, 3), max_size=2))
# what a refusal of a field, row or entry reads like
_NAMED = re.compile(r"(entry \d+ of )?(row \d+ of )?(values|costs|rankings|agent_points|item_points)"
                    r"( has type \w+(, not a sequence)?|: .+)", re.S)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_lists_values_of_the_wrong_type_and_never_raises(data):
    # the constructor refuses a value of the wrong type, naming it, and
    # validate returns a list on every instance that was built
    n = data.draw(st.integers(1, 4))
    setting, field = data.draw(st.sampled_from([("value", "values"), ("metric", "costs"), ("abstract", "rankings")]))
    payoff = st.one_of(st.integers(-1, 3), st.fractions(-1, 3, max_denominator=3))
    good = st.integers(1, n) if setting == "abstract" else payoff
    entry = st.one_of(good, good, _JUNK)
    # a set or a dict, as a row or holding the rows or the points, has no order to read
    row = st.one_of(st.lists(entry, min_size=n, max_size=n).map(tuple), entry,
                    st.sets(good, max_size=n), st.dictionaries(st.integers(0, n - 1), good))
    rows = st.lists(row, min_size=n, max_size=n)
    fields = {field: data.draw(st.one_of(rows.map(tuple), rows.map(tuple), rows.map(lambda rs: dict(enumerate(rs))),
                                         st.sets(st.lists(good, min_size=n, max_size=n).map(tuple), min_size=1)))}
    if setting == "metric" and data.draw(st.booleans()):
        points = st.one_of(st.lists(st.one_of(good, _JUNK), min_size=n, max_size=n).map(tuple), st.sets(good, max_size=n))
        fields = dict(agent_points=data.draw(points), item_points=data.draw(points))
    declared = data.draw(st.one_of(st.just(n), _JUNK))
    # ordered lists of ints and Fractions (ints only for ranks) are never refused
    kinds = int if setting == "abstract" else (int, Fraction)
    rows = fields.get(field)
    lists = list(fields.values()) if rows is None else rows if isinstance(rows, Sequence) else [set()]
    plain = all(isinstance(xs, Sequence) and all(isinstance(x, kinds) for x in xs) for xs in lists)
    try:
        inst = AssignmentInstance(n=declared, setting=setting, **fields)
    except (TypeError, ValueError) as refused:
        if isinstance(declared, int):
            assert not plain and _NAMED.fullmatch(str(refused))
        else:
            assert type(refused) is ValueError and str(refused) == "field 'n': expected an integer"
        return
    assert isinstance(declared, int) and all(isinstance(f, Sequence) for f in fields.values())
    violations = validate(inst)
    assert isinstance(violations, list) and all(isinstance(v, Violation) for v in violations)


def test_validate_names_each_field_or_row_that_is_not_a_sequence():
    # the constructor names it, so validate is never given one
    fields = [
        ("value", dict(values=({5, 1}, {3, 4})), "row 1 of values has type set, not a sequence"),
        ("metric", dict(costs=((0, 1), {0: 1, 1: 0})), "row 2 of costs has type dict, not a sequence"),
        ("abstract", dict(rankings={(1, 2), (2, 1)}), "rankings has type set, not a sequence"),
        ("metric", dict(agent_points={0, 1}, item_points=(0, 1)), "agent_points has type set, not a sequence"),
        ("abstract", dict(rankings=([1, 2], {2, 1})), "row 2 of rankings has type set, not a sequence"),
    ]
    for setting, f, message in fields:
        with pytest.raises(TypeError, match=f"^{message}$"):
            AssignmentInstance(n=2, setting=setting, **f)


LONE_POINT_LIST = "point-based metric instance requires both 'agent_points' and 'item_points'"


@pytest.mark.parametrize("fields, named", [
    (dict(n=0, setting="value", values=()), Violation("size", (0,), "n must be positive, got 0")),
    (dict(n=2, setting="value"), "value instance requires field 'values'"),
    (dict(n=2, setting="metric"), "metric instance requires 'costs' or 'agent_points'/'item_points'"),
    (dict(n=2, setting="metric", agent_points=(0, 1), item_points=(1,)),
     Violation("shape", (2, 1), "point lists have 2 and 1 entries, expected 2")),
    (dict(n=2, setting="metric", item_points=(0, 1)), LONE_POINT_LIST),
    (dict(n=2, setting="metric", agent_points=(0, 1)), LONE_POINT_LIST),
    (dict(n=2, setting="abstract"), "abstract instance requires field 'rankings'"),
    (dict(n=2, setting="euclidean"), "field 'setting': unknown setting 'euclidean'"),
], ids=["n-zero", "no-values", "no-costs", "point-count", "item-points-only", "agent-points-only", "no-rankings",
        "unknown-setting"])
def test_validate_names_a_missing_field_a_bad_size_or_an_unknown_setting(fields, named):
    # validate names a bad size or point count; the constructor refuses a
    # missing payload, a lone point list or an unknown setting, in the file
    # reader's words, so validate is never given one
    if isinstance(named, Violation):
        assert validate(AssignmentInstance(**fields)) == [named]
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            AssignmentInstance(**fields)


def test_the_public_constructors_refuse_a_row_that_is_not_a_sequence():
    refused = [
        (lambda: AssignmentInstance.from_values([{5, 1}, {3, 4}]), "row 1 of values has type set, not a sequence"),
        (lambda: AssignmentInstance.from_costs([(0, 1), {1: 5, 0: 1}]), "row 2 of costs has type dict, not a sequence"),
        (lambda: AssignmentInstance.from_rankings([{2, 1}, [1, 2]]), "row 1 of rankings has type set, not a sequence"),
    ]
    for build, message in refused:
        with pytest.raises(TypeError, match=f"^{message}$"):
            build()
    # sequences of any kind are still read in order
    assert AssignmentInstance.from_values(iter([range(2), "12"])).values == ((0, 1), (1, 2))
    assert AssignmentInstance.from_rankings(([2, 1], range(1, 3))).rankings == ((2, 1), (1, 2))


def test_the_public_constructors_refuse_a_set_or_mapping_of_rows():
    refused = [
        (lambda: AssignmentInstance.from_values({(5, 1), (3, 4)}), "values has type set, not a sequence"),
        (lambda: AssignmentInstance.from_costs({(0, 1): 0, (1, 0): 0}), "costs has type dict, not a sequence"),
        (lambda: AssignmentInstance.from_costs({(0, 1): 0, (1, 0): 0}.keys()), "costs has type dict_keys, not a sequence"),
        (lambda: AssignmentInstance.from_rankings({(1, 2), (2, 1)}), "rankings has type set, not a sequence"),
        (lambda: AssignmentInstance.from_rankings(frozenset({(1, 2), (2, 1)})),
         "rankings has type frozenset, not a sequence"),
    ]
    for build, message in refused:
        with pytest.raises(TypeError, match=f"^{message}$"):
            build()
    # generators and other ordered iterables of rows are still read in order
    assert AssignmentInstance.from_values(row for row in ([5, 1], [3, 4])).values == ((5, 1), (3, 4))
    assert AssignmentInstance.from_costs(iter([(0, 1), (1, 0)])).costs == ((0, 1), (1, 0))
    assert AssignmentInstance.from_rankings(row for row in ([2, 1], [1, 2])).rankings == ((2, 1), (1, 2))


def test_from_line_points_refuses_point_lists_that_are_not_sequences():
    with pytest.raises(TypeError, match="^agent_points has type set, not a sequence$"):
        AssignmentInstance.from_line_points({3, 1}, [0, 2])
    with pytest.raises(TypeError, match="^item_points has type dict_keys, not a sequence$"):
        AssignmentInstance.from_line_points([3, 1], {0: 1, 2: 3}.keys())
    with pytest.raises(TypeError, match="^item_points has type generator"):
        AssignmentInstance.from_line_points([3, 1], (x for x in (0, 2)))
    with pytest.raises(TypeError, match="^agent_points has type generator"):
        AssignmentInstance.from_line_points((x for x in (3, 1)), [0, 2])
    assert AssignmentInstance.from_line_points(range(3, 0, -2), (0, 2)).agent_points == (3, 1)


def test_float_ranks_and_orderings_are_refused_never_truncated():
    with pytest.raises(TypeError, match="^entry 1 of row 1 of rankings has type float$"):
        AssignmentInstance.from_rankings([[1.7, 2.2], [2.9, 1.0]])
    for kind in (Ordering, Matching):
        with pytest.raises(TypeError):
            kind((1.5, 2.9))


def test_entries_are_named_in_the_constructors_refusal():
    with pytest.raises(TypeError, match="^entry 2 of row 1 of values has type NoneType$"):
        AssignmentInstance.from_values([[1, None], [0, 1]])
    with pytest.raises(ValueError, match="^entry 1 of row 2 of costs: 'x' is not a numeric literal$"):
        AssignmentInstance.from_costs([[0, 1], ["x", 0]])
    with pytest.raises(ValueError, match="^entry 2 of item_points: inf is not a finite number$"):
        AssignmentInstance.from_line_points([0, 1], [2, float("inf")])


def test_a_value_or_abstract_instance_refuses_point_lists():
    # the file reader refuses them as payload fields of another setting; a
    # value instance that held them was read as a point instance, so that
    # remove_agent_best returned a metric instance
    points = dict(agent_points=(0, 1), item_points=(2, 3))
    for setting, payload in (("value", dict(values=((1, 2), (3, 4)))), ("abstract", dict(rankings=((1, 2), (2, 1))))):
        with pytest.raises(ValueError, match=f"^{setting} instance does not read 'agent_points', 'item_points'$"):
            AssignmentInstance(n=2, setting=setting, **payload, **points)
    reduced = remove_agent_best(AssignmentInstance(n=2, setting="value", values=((1, 2), (3, 4))), 1)
    assert reduced.instance == AssignmentInstance.from_values([[3]])


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


def _twins(inst):
    """The same payoffs built every other way: through a file, the raw
    constructor and the public constructors (for points, from the points)."""
    field = PAYOFF_FIELD[inst.setting]
    rows = inst.payoff_matrix()
    twins = [loads_instance(dumps_instance(inst))]
    if inst.point_based:
        points = dict(agent_points=inst.agent_points, item_points=inst.item_points)
        twins += [AssignmentInstance(inst.n, inst.setting, **points), AssignmentInstance.from_line_points(*points.values())]
    else:
        public = AssignmentInstance.from_values if field == "values" else AssignmentInstance.from_costs
        twins += [AssignmentInstance(n=inst.n, setting=inst.setting, **{field: rows}), public(rows),
                  public([[str(x) for x in row] for row in rows]),
                  AssignmentInstance.from_table(inst.n, inst.setting, [[7 * t for t in row] for row in inst.table],
                                                7 * inst.denom)]
    return twins


@pytest.mark.parametrize("inst", [
    random_value(6, 3),
    bernoulli_welfare(4),
    AssignmentInstance.from_values([["0.5", "3/8"], [2, "-0.25"]]),
    random_metric_line(5, 2),
    AssignmentInstance.from_costs(random_metric_line(5, 2).costs),
    worst_case_metric_line(4),
    AssignmentInstance.from_line_points(["0.5", "-1.25"], ["2", "0.75"]),
    build_reduction(random_abstract(4, 1), "value"),
    build_reduction(random_abstract(4, 1), "metric"),
], ids=["random-value", "bernoulli", "fractions", "line-points", "line-matrix", "worst-case", "decimal-points",
        "reduction-value", "reduction-metric"])
def test_equal_payoffs_make_equal_instances_however_built(inst):
    for twin in _twins(inst):
        assert (twin.table, twin.denom) == (inst.table, inst.denom)
        assert twin == inst and hash(twin) == hash(inst) and repr(twin) == repr(inst)


@pytest.mark.parametrize("denom", [-1, 0, True])
def test_from_table_refuses_a_denominator_that_is_not_a_positive_int(denom):
    with pytest.raises(ValueError, match=f"^denom must be a positive integer, got {denom!r}$"):
        AssignmentInstance.from_table(2, "value", [[1, 2], [2, 1]], denom)


@pytest.mark.parametrize("digits", [4300, 640])
def test_from_table_names_a_denominator_past_the_int_string_limit(digits):
    with int_digit_limit(digits), pytest.raises(
            ValueError, match=f"^denom must be a positive integer, got -1{'0' * 38}… \\(5002 characters\\)$"):
        AssignmentInstance.from_table(1, "value", [[1]], -10**5000)


def test_from_table_refuses_an_unhashable_setting_as_the_constructor_does():
    for build in (lambda: AssignmentInstance(n=1, setting=["value"], values=[[1]]),
                  lambda: AssignmentInstance.from_table(1, ["value"], [[1]], 1)):
        with pytest.raises(ValueError, match=r"^field 'setting': unknown setting \['value'\]$"):
            build()


def test_the_stored_table_is_reduced_whatever_the_literals_or_scale():
    half = AssignmentInstance.from_values([[Fraction(1, 2), 1]])
    assert (half.table, half.denom) == (((1, 2),), 2)
    for same in (
        loads_instance('{"n": 1, "setting": "value", "values": [["0.50", "2/2"]]}'),
        loads_instance('{"n": 1, "setting": "value", "values": [["5e-1", 1.000]]}'),
        loads_instance('{"n": 1, "setting": "value", "values": [["2/4", "10E-1"]]}'),
        AssignmentInstance.from_table(1, "value", [[500_000, 1_000_000]], 1_000_000),
        AssignmentInstance(n=1, setting="value", values=[[Fraction(1, 2), True]]),
    ):
        assert same == half and hash(same) == hash(half)
    # a matrix the setting does not read is refused
    with pytest.raises(ValueError, match="^value instance does not read 'costs'$"):
        AssignmentInstance(n=1, setting="value", values=((Fraction(1, 2), 1),), costs=((9, 9),))
    assert half.costs is None and AssignmentInstance.from_rankings([[1]]).table is None
