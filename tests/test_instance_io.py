import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    dumps_value_instance_by_division,
    entry_by_division,
    int_digit_limit,
    parse_table_by_entries,
)
from rsdlab import (
    AssignmentInstance,
    InstanceFormatError,
    bernoulli_welfare,
    build_reduction,
    dumps_instance,
    loads_instance,
    random_abstract,
    random_metric_line,
    random_value,
    worst_case_metric_line,
)
from rsdlab.core import PAYOFF_FIELD, QUOTED_LENGTH, as_fraction, exact_int, exact_str
from rsdlab.families import LINE_GRID, VALUE_SCALE, Family, FamilySpec, generate
from rsdlab.instance_io import (
    MAX_EXPONENT,
    MAX_LITERAL_LENGTH,
    _parse_table,
    _plain_row,
    _row_writer,
    instance_from_dict,
    instance_to_dict,
    parse_literal,
    save_instance,
    write_json,
)
from rsdlab.rng import substream


def test_deep_nesting_is_a_format_error():
    with pytest.raises(InstanceFormatError, match="nested too deeply"):
        loads_instance("[" * 100_000 + "]" * 100_000)


def test_round_trip_all_settings():
    for inst in (
        bernoulli_welfare(3),
        worst_case_metric_line(4),
        random_value(3, 5),
        random_metric_line(3, 6),
        random_abstract(4, 7),
        # payoffs near 2**4176, written as long integer strings
        build_reduction(random_abstract(12, 8), "value"),
        build_reduction(random_abstract(12, 8), "metric"),
    ):
        assert loads_instance(dumps_instance(inst)) == inst


def test_decimal_strings_parse_exactly():
    inst = loads_instance('{"n": 2, "setting": "value", "values": [["0.1", 2], [3, "0.25"]]}')
    assert inst.value(1, 1) == Fraction(1, 10)
    assert inst.value(2, 2) == Fraction(1, 4)


def test_json_decimal_literals_never_touch_floats():
    inst = loads_instance('{"n": 1, "setting": "value", "values": [[0.1]]}')
    assert inst.value(1, 1) == Fraction(1, 10)


def test_matrix_cost_instance_round_trip():
    inst = AssignmentInstance.from_costs([[1, 2], [2, 1]])
    text = dumps_instance(inst)
    assert '"costs"' in text
    assert loads_instance(text) == inst


def test_big_integers_become_decimal_strings():
    big = 2**80
    text = dumps_instance(AssignmentInstance.from_values([[big]]))
    assert str(big) in text
    assert loads_instance(text).value(1, 1) == big


@pytest.mark.parametrize("build", [AssignmentInstance.from_values, AssignmentInstance.from_costs])
@pytest.mark.parametrize("rows", [[[1, 2], []], [[], ["0.5", "2.25"]], [[]]])
def test_an_empty_payoff_row_is_written_as_an_empty_list_and_read_back(build, rows):
    inst = build(rows)
    text = dumps_instance(inst)
    assert [] in json.loads(text)[PAYOFF_FIELD[inst.setting]]
    back = loads_instance(text)
    assert (back.table, back.denom) == (inst.table, inst.denom)


class _FractionSubclass(Fraction):
    pass


def _written(write, x):
    """``write(x)``, or the text of the ValueError it raises."""
    try:
        return write(x)
    except ValueError as exc:
        return ValueError, str(exc)


_TWO_FIVE = st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 60), st.integers(0, 60))
_ENTRIES = st.one_of(
    st.builds(Fraction, st.integers(-(10**40), 10**40), _TWO_FIVE),
    # no finite decimal form: both writers raise the same text
    st.builds(Fraction, st.integers(-(10**40), 10**40).filter(bool),
              st.builds(lambda d, p: d * p, _TWO_FIVE, st.sampled_from([3, 7, 21, 3**40]))),
    # integers on both sides of the largest one JSON writes as a number
    st.builds(lambda sign, k: sign * (2**53 + k), st.sampled_from([1, -1]), st.integers(-3, 3)),
    st.integers(-(10**30), 10**30),
    st.builds(_FractionSubclass, st.integers(-1000, 1000), _TWO_FIVE),
)


_LENGTH_BOUND_ERROR = (ValueError, f"literal longer than {MAX_LITERAL_LENGTH} characters")


# a decimal 1/2**k has k digits after "0."; the sign counts, as on reading
@pytest.mark.parametrize("x, written", [
    (Fraction(257), [257]),
    (Fraction(-1, 4), ["-0.25"]),
    (Fraction(123456, 10**6), ["0.123456"]),
    (Fraction(1, 3), (ValueError, "1/3 has no finite decimal representation")),
    (Fraction(1, 2 ** (MAX_LITERAL_LENGTH - 2)),
     ["0." + exact_str(5 ** (MAX_LITERAL_LENGTH - 2)).zfill(MAX_LITERAL_LENGTH - 2)]),
    (Fraction(10 ** (MAX_LITERAL_LENGTH - 1)), ["1" + "0" * (MAX_LITERAL_LENGTH - 1)]),
    (Fraction(1, 2 ** (MAX_LITERAL_LENGTH - 1)), _LENGTH_BOUND_ERROR),
    (Fraction(-(10 ** (MAX_LITERAL_LENGTH - 1))), _LENGTH_BOUND_ERROR),
    (Fraction(exact_int("1" * 5000), 10), ["1" * 4999 + ".1"]),  # past the int-to-str digit limit
], ids=["257", "-1/4", "0.123456", "1/3", "longest-decimal", "longest-integer", "decimal-too-long",
        "integer-too-long", "past-the-int-str-limit"])
def test_the_row_writer_writes_a_one_entry_row(x, written):
    assert _written(_row_writer(x.denominator), [x.numerator]) == written


def test_dumps_instance_matches_the_division_writer_byte_for_byte():
    inst = random_value(80, 7)
    assert dumps_instance(inst) == dumps_value_instance_by_division(inst)


@st.composite
def _row_and_denom(draw):
    """A table row of ints over ``denom``: scales from 0 to past 512 digits,
    an odd factor that leaves other entries with no finite decimal, and
    entries negative, at 2**53 and past 512 digits."""
    odd = draw(st.sampled_from([1, 1, 3, 21]))
    denom = 2 ** draw(st.sampled_from([0, 1, 6, 512, 513, 700])) * 5 ** draw(st.sampled_from([0, 3, 512, 513])) * odd
    entry = st.one_of(
        st.integers(0, 10**15).map(lambda t: t * odd),
        st.integers(-(10**15), 10**15).map(lambda t: t * odd),
        st.integers(-(10**6), 10**6),
        # whole numbers on both sides of the largest one JSON writes as a number
        st.builds(lambda sign, k: sign * (2**53 + k) * denom, st.sampled_from([1, 1, -1]), st.integers(-3, 3)),
        st.builds(lambda e, k: (10**e + k) * odd, st.sampled_from([509, 511, 512, 513, 600]), st.integers(-2, 2)),
    )
    return draw(st.lists(entry, min_size=1, max_size=8)), denom


@settings(deadline=None)
@given(_row_and_denom())
@example(([0, 2**53 - 1, 2**53, 5], 1))
@example(([2**53 * 10**6 - 1, 2**53 * 10**6, 2**53 * 10**6 + 1], 10**6))
@example(([1, 10**(MAX_LITERAL_LENGTH - 1), 10**MAX_LITERAL_LENGTH], 1))
@example(([3, 4], 6))
def test_the_row_writer_writes_each_entry_as_the_division_writer(row_and_denom):
    row, denom = row_and_denom
    expected = _written(lambda r: [entry_by_division(Fraction(t, denom)) for t in r], row)
    assert _written(_row_writer(denom), row) == expected
    with int_digit_limit(640):
        assert _written(_row_writer(denom), tuple(row)) == expected


# denominators thousands of digits long, passed by index: their repr is
# longer than the least int-to-str digit limit (640) lets Python print
@pytest.mark.parametrize("x", [
    Fraction(1, 2**3000),
    Fraction(-(10**2000) - 7, 5**4000),
    Fraction(3, 2**1500 * 5**2500),
    Fraction(1, 3 * 10**2000),
    Fraction(1, 2**MAX_LITERAL_LENGTH),
])
def test_format_number_matches_the_division_writer_on_long_denominators(x):
    """A one-entry row over a long denominator is written as the division
    writer writes the entry."""
    expected = _written(lambda v: [entry_by_division(v)], x)
    assert _written(_row_writer(x.denominator), [x.numerator]) == expected
    with int_digit_limit(640):
        assert _written(_row_writer(x.denominator), (x.numerator,)) == expected


@pytest.mark.parametrize("inst", [
    AssignmentInstance.from_costs(random_metric_line(20, 7).costs),
    # payoffs near 2**4176, their rows past 512 digits
    build_reduction(random_abstract(12, 8), "value"),
    build_reduction(random_abstract(12, 8), "metric"),
    AssignmentInstance.from_values([[Fraction(-1, 4), 2**53], [Fraction(3, 8), -(2**60)]]),
])
def test_tables_are_written_as_the_division_writer_writes_them(inst):
    rows = inst.payoff_matrix()
    assert _written(dumps_instance, inst) == _written(lambda i: _dumped_by_division(i, rows), inst)


@pytest.mark.parametrize("n", [2, 17, 80])
def test_random_value_instances_round_trip(n):
    inst = random_value(n, 7)
    assert loads_instance(dumps_instance(inst)) == inst


def test_missing_fields_are_named():
    with pytest.raises(InstanceFormatError, match="'n'"):
        loads_instance('{"setting": "value", "values": [[1]]}')
    with pytest.raises(InstanceFormatError, match="values"):
        loads_instance('{"n": 1, "setting": "value"}')
    with pytest.raises(InstanceFormatError, match="setting"):
        loads_instance('{"n": 1, "setting": "euclidean"}')


def test_bad_entries_are_addressed():
    with pytest.raises(InstanceFormatError, match=r"values\[1\]\[2\]"):
        loads_instance('{"n": 1, "setting": "value", "values": [[1, "x"]]}')
    with pytest.raises(InstanceFormatError, match=r"rankings\[2\]\[1\]"):
        loads_instance('{"n": 2, "setting": "abstract", "rankings": [[1, 2], ["1", 2]]}')


_MALFORMED = [
    pytest.param("abstract", '"rankings": [[1, 2], [2, true]]', "rankings[2][2]: expected an integer item index",
                 id="rank-true"),
    pytest.param("abstract", '"rankings": [[1, "2"], [2, 1]]', "rankings[1][2]: expected an integer item index",
                 id="rank-string"),
    pytest.param("abstract", '"rankings": [[1, 2], [1.0, 2]]', "rankings[2][1]: expected an integer item index",
                 id="rank-float"),
    # a JSON integer of 20 characters or more is kept as text
    pytest.param("abstract", '"rankings": [[1, 2], [2, 123456789012345678901]]',
                 "rankings[2][2]: expected an integer item index", id="rank-21-digits"),
    pytest.param("abstract", '"rankings": [[null, 2], [2, 1]]', "rankings[1][1]: expected an integer item index",
                 id="rank-null"),
    pytest.param("abstract", '"rankings": [[1, 2], {"1": 2}]', "rankings: expected a list of rows", id="rankings-row"),
    pytest.param("abstract", '"rankings": "1 2 / 2 1"', "rankings: expected a list of rows", id="rankings-field"),
    pytest.param("value", '"values": [[1, 2], [3, "0x4"]]', "values[2][2]: '0x4' is not a numeric literal",
                 id="values-literal"),
    pytest.param("metric", '"costs": [[0, 1], [1, false]]', "costs[2][2]: booleans are not numbers", id="costs-bool"),
    pytest.param("metric", '"agent_points": [0, 1], "item_points": [2, "1/0"]',
                 "item_points[2]: '1/0' has a zero denominator", id="point-literal"),
    pytest.param("value", '"values": [[1, 2], 3]', "values: expected a list of rows", id="values-row"),
    pytest.param("metric", '"agent_points": {"1": 0}, "item_points": [2, 3]', "agent_points: expected a list",
                 id="points-field"),
    pytest.param("metric", '"agent_points": [0, 1, 2], "item_points": [3, 4, 5]',
                 "field 'n'=2 disagrees with 3 agent points", id="point-count"),
]


@pytest.mark.parametrize("setting, fields, message", _MALFORMED)
def test_malformed_files_give_the_whole_message(setting, fields, message):
    with pytest.raises(InstanceFormatError) as info:
        loads_instance(f'{{"n": 2, "setting": "{setting}", {fields}}}')
    assert str(info.value) == message


@pytest.mark.parametrize("points", [
    '"agent_points": [0, 1], "item_points": [5, 6]', '"agent_points": [0, 1]', '"item_points": [5, 6]',
], ids=["both", "agent-points", "item-points"])
def test_a_metric_file_with_costs_and_points_is_refused(points):
    text = f'{{"n": 2, "setting": "metric", "costs": [[0, 100], [100, 0]], {points}}}'
    with pytest.raises(InstanceFormatError) as info:
        loads_instance(text)
    assert str(info.value) == "metric instance takes 'costs' or 'agent_points'/'item_points', not both"


@pytest.mark.parametrize("setting, fields, foreign", [
    ("value", '"values": [[1, 2], [3, 4]], "rankings": [[2, 1], [1, 2]], "costs": [[9, 9], [9, 9]]',
     "'costs', 'rankings'"),
    ("value", '"values": [[1, 2], [3, 4]], "item_points": [0, 1]', "'item_points'"),
    ("metric", '"costs": [[0, 1], [1, 0]], "values": [[1, 2], [3, 4]]', "'values'"),
    ("metric", '"agent_points": [0, 1], "item_points": [2, 3], "rankings": [[1, 2], [2, 1]]', "'rankings'"),
    ("abstract", '"rankings": [[1, 2], [2, 1]], "values": [[1, 2], [3, 4]]', "'values'"),
    ("abstract", '"rankings": [[1, 2], [2, 1]], "agent_points": [0, 1], "item_points": [2, 3]',
     "'agent_points', 'item_points'"),
], ids=["value-rankings-costs", "value-points", "costs-values", "points-rankings", "abstract-values",
        "abstract-points"])
def test_a_payload_field_of_another_setting_is_refused(setting, fields, foreign):
    with pytest.raises(InstanceFormatError) as info:
        loads_instance(f'{{"n": 2, "setting": "{setting}", {fields}}}')
    assert str(info.value) == f"{setting} instance does not read {foreign}"


_PAYLOADS = {"values": [[1, 2], [3, 4]], "costs": [[0, 1], [1, 0]], "agent_points": [0, 1], "item_points": [2, 3],
             "rankings": [[1, 2], [2, 1]]}


def test_the_reader_and_the_constructor_hold_one_rule_on_fields():
    # every subset of the payload fields in each setting (the empty one is a
    # missing payload), an unknown setting, and an n that is a bool or a str
    docs = [{"n": 2, "setting": setting, **{field: _PAYLOADS[field] for field in fields}}
            for setting in ("value", "metric", "abstract")
            for size in range(len(_PAYLOADS) + 1) for fields in itertools.combinations(_PAYLOADS, size)]
    docs += [{"n": 2, "setting": "euclidean", "values": _PAYLOADS["values"]},
             {"n": True, "setting": "value", "values": _PAYLOADS["values"]},
             {"n": "2", "setting": "value", "values": _PAYLOADS["values"]}]
    accepted = 0
    for doc in docs:
        try:
            read = instance_from_dict(doc)
        except InstanceFormatError as refused:
            with pytest.raises(ValueError) as built:
                AssignmentInstance(**doc)
            assert str(built.value) == str(refused)
        else:
            assert AssignmentInstance(**doc) == read
            accepted += 1
    assert accepted == 4  # values; costs; both point lists; rankings


def test_fields_outside_the_payload_are_ignored():
    inst = loads_instance('{"n": 1, "setting": "value", "values": [[3]], "name": "one", "points": [1]}')
    assert inst == AssignmentInstance.from_values([[3]])


def test_point_instance_requires_both_point_lists():
    with pytest.raises(InstanceFormatError, match="item_points"):
        loads_instance('{"n": 1, "setting": "metric", "agent_points": [0]}')


def test_zero_denominator_is_addressed():
    with pytest.raises(InstanceFormatError, match=r"costs\[2\]\[1\]: '1/0' has a zero denominator"):
        loads_instance('{"n": 2, "setting": "metric", "costs": [[0, 1], ["1/0", 0]]}')
    with pytest.raises(InstanceFormatError, match=r"item_points\[1\]"):
        loads_instance('{"n": 1, "setting": "metric", "agent_points": [0], "item_points": ["3/0"]}')


@pytest.mark.parametrize("entry", [
    f'"1e{MAX_EXPONENT}"', f"1e{MAX_EXPONENT}", f'"2.5E-{MAX_EXPONENT}"', f"2.5E-{MAX_EXPONENT}",
])
def test_exponent_at_the_bound_loads(entry):
    inst = loads_instance(f'{{"n": 1, "setting": "value", "values": [[{entry}]]}}')
    assert inst.value(1, 1) == Fraction(entry.strip('"'))


_BEYOND = "decimal exponent beyond"
_PAST_THE_BOUND = [
    (f'"1e{MAX_EXPONENT + 1}"', _BEYOND), (f"1e{MAX_EXPONENT + 1}", _BEYOND),
    (f'"2.5E-{MAX_EXPONENT + 1}"', _BEYOND), (f"2.5E-{MAX_EXPONENT + 1}", _BEYOND),
    # an underscore or a non-ASCII digit makes no literal, whatever the exponent
    ('"1e4_301"', "'1e4_301' is not a numeric literal"), ("1e" + "9" * 50, _BEYOND),
    ('"1e-\u0664\u0663\u0660\u0661"', "'1e-\u0664\u0663\u0660\u0661' is not a numeric literal"),
]


@pytest.mark.parametrize("entry, message", _PAST_THE_BOUND, ids=[entry for entry, _ in _PAST_THE_BOUND])
def test_exponent_past_the_bound_is_rejected_before_conversion(entry, message):
    # rejected on the text, so no 10**e is ever built
    with pytest.raises(InstanceFormatError, match=rf"values\[1\]\[1\]: {message}"):
        loads_instance(f'{{"n": 1, "setting": "value", "values": [[{entry}]]}}')


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_reductions_past_the_int_string_limit_round_trip(setting):
    # the n=18 payoffs have about 5,200 (value) and 5,300 (metric) digits
    built = build_reduction(random_abstract(18, 1), setting)
    assert max(x.numerator.bit_length() for row in built.payoff_matrix() for x in row) > 17_000
    assert loads_instance(dumps_instance(built)) == built


def test_the_longest_reduction_that_loads_round_trips():
    # at n = 21 the longest payoff literal has about 8,800 characters
    built = build_reduction(random_abstract(21, 1), "metric")
    assert loads_instance(dumps_instance(built)) == built


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_the_writer_refuses_a_literal_the_reader_refuses(setting):
    built = build_reduction(random_abstract(22, 1), setting)
    longest = max(len(exact_str(x.numerator)) for row in built.payoff_matrix() for x in row)
    assert longest > MAX_LITERAL_LENGTH  # about 10,200 characters
    with pytest.raises(ValueError) as written:
        dumps_instance(built)
    with pytest.raises(InstanceFormatError) as read:
        loads_instance(f'{{"n": 1, "setting": "value", "values": [["{"1" * longest}"]]}}')
    assert str(read.value) == f"values[1][1]: {written.value}"


@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_integer_strings_up_to_the_length_bound_load(sign):
    digits = "7" * (MAX_LITERAL_LENGTH - len(sign))
    magnitude = (10 ** len(digits) - 1) // 9 * 7
    inst = loads_instance(f'{{"n": 1, "setting": "value", "values": [["{sign}{digits}"]]}}')
    assert inst.value(1, 1) == (-magnitude if sign == "-" else magnitude)


def test_bare_json_integers_past_the_int_string_limit_load():
    inst = loads_instance(f'{{"n": 1, "setting": "value", "values": [[{"7" * 5000}]]}}')
    assert inst.value(1, 1) == (10**5000 - 1) // 9 * 7


@pytest.mark.parametrize("entry", [
    '"' + "1" * (MAX_LITERAL_LENGTH + 1) + '"',
    "1" * (MAX_LITERAL_LENGTH + 1),
    '"' + "0." + "5" * (MAX_LITERAL_LENGTH - 1) + '"',
])
def test_literal_past_the_length_bound_is_rejected_before_conversion(entry):
    with pytest.raises(InstanceFormatError, match=rf"values\[1\]\[1\]: literal longer than {MAX_LITERAL_LENGTH}"):
        loads_instance(f'{{"n": 1, "setting": "value", "values": [[{entry}]]}}')


_DIGIT_TEXT = st.text("0123456789", min_size=1, max_size=300)


@given(
    sign=st.sampled_from(["", "-"]),
    whole=_DIGIT_TEXT,
    frac=st.one_of(st.just(""), _DIGIT_TEXT),
)
@example(sign="-", whole="0", frac="")
@example(sign="-", whole="0", frac="000")
@example(sign="", whole="0" * 300, frac="0" * 299 + "1")
@example(sign="-", whole="9" * 300, frac="9" * 300)
@example(sign="", whole="1" * 512, frac="")
@example(sign="-", whole="1" * 256, frac="2" * 257)
def test_plain_decimals_read_as_fraction_reads_them(sign, whole, frac):
    text = sign + whole + ("." + frac if frac else "")
    value = parse_literal(text, "x")
    assert type(value) is Fraction
    assert value == Fraction(text)


# Forms other than a plain decimal, with the value or the message they have
# on every Python version; Fraction reads "١٢.٥" on every version, "1_000"
# from 3.11 on and "1 / 3" from 3.12 on.
_OTHER_FORMS = [
    (" 1.5 ", Fraction(3, 2)),
    ("+2", Fraction(2)),
    (".5", Fraction(1, 2)),
    ("5.", Fraction(5)),
    ("1e3", Fraction(1000)),
    ("3/4", Fraction(3, 4)),
    ("\u0661\u0662.\u0665", "x: '\u0661\u0662.\u0665' is not a numeric literal"),
    ("1" * 301, Fraction(int("1" * 301))),
    ("0." + "1" * 301, Fraction(int("1" * 301), 10**301)),
    ("-1-1", "x: '-1-1' is not a numeric literal"),
    ("", "x: '' is not a numeric literal"),
    ("1/0", "x: '1/0' has a zero denominator"),
    ("1_000", "x: '1_000' is not a numeric literal"),
    ("1 / 3", "x: '1 / 3' is not a numeric literal"),
]


@pytest.mark.parametrize("text, expected", _OTHER_FORMS)
def test_other_forms_read_as_before(text, expected):
    if isinstance(expected, Fraction):
        assert parse_literal(text, "x") == expected
    else:
        with pytest.raises(InstanceFormatError) as info:
            parse_literal(text, "x")
        assert str(info.value) == expected


@pytest.mark.parametrize("entry", ['"' + "1" * 5000 + 'e2"', "1" * 5000 + "e2"], ids=["string", "json-number"])
def test_a_mantissa_of_any_length_takes_an_exponent(entry):
    # Fraction refused this mantissa: it reads past Python's int-to-str limit
    assert as_fraction(entry.strip('"')) == exact_int("1" * 5000) * 100
    inst = loads_instance(f'{{"n": 1, "setting": "value", "values": [[{entry}]]}}')
    assert inst.value(1, 1) == exact_int("1" * 5000) * 100


@pytest.mark.parametrize("value", [
    Fraction(exact_int("1" * 5000), 10),
    -Fraction(exact_int("9" * 5000), 10**2500),
    Fraction(1, 10**5000),
])
def test_decimals_past_the_int_string_limit_round_trip(value):
    inst = AssignmentInstance.from_values([[value]])
    assert loads_instance(dumps_instance(inst)) == inst


@pytest.mark.parametrize("entry, value", [
    ('"0.' + "1" * 5000 + '"', Fraction(exact_int("1" * 5000), 10**5000)),
    ("0." + "1" * 5000, Fraction(exact_int("1" * 5000), 10**5000)),
    ('"' + "1" * 5000 + '/3"', Fraction(exact_int("1" * 5000), 3)),
    ('"-3/' + "1" * 5000 + '"', Fraction(-3, exact_int("1" * 5000))),
])
def test_decimal_and_fraction_literals_past_the_int_string_limit_load(entry, value):
    inst = loads_instance(f'{{"n": 1, "setting": "value", "values": [[{entry}]]}}')
    assert inst.value(1, 1) == value


@pytest.mark.parametrize("entry, message", [
    ("x" * 5000, "is not a numeric literal"),
    ("1" * 5000 + "/0", "has a zero denominator"),
    ("1" * 5000 + "/3.5", "is not a numeric literal"),
])
def test_long_literals_are_quoted_by_a_prefix_and_their_length(entry, message):
    quoted = f"{entry[:QUOTED_LENGTH]!r}… ({len(entry)} characters)"
    with pytest.raises(InstanceFormatError) as info:
        loads_instance(f'{{"n": 2, "setting": "value", "values": [[1, 2], [3, "{entry}"]]}}')
    assert str(info.value) == f"values[2][2]: {quoted} {message}"


_LITERAL_TEXT = st.one_of(
    st.text(alphabet="0123456789+-./ eE_١x", max_size=12),
    # digit runs past Python's 4,300-digit int-to-str limit and past the length bound
    st.builds(lambda sign, digits, times, tail: sign + digits * times + tail,
              st.sampled_from(["", "-", "+", " "]), st.text(alphabet="0123456789", min_size=1, max_size=9),
              st.integers(0, 1300), st.sampled_from(["", ".", ".5", "/3", "/0", "e2", " "])),
)


@settings(deadline=None)
@given(_LITERAL_TEXT)
@example("1" * 5000)
@example("0." + "1" * 5000)
def test_as_fraction_and_parse_literal_read_the_same_strings(text):
    try:
        value = parse_literal(text, "x")
    except InstanceFormatError as refused:
        with pytest.raises(ValueError) as info:
            as_fraction(text)
        assert str(refused) == f"x: {info.value}"
    else:
        assert as_fraction(text) == value


def test_as_fraction_reads_a_literal_up_to_the_length_bound():
    assert as_fraction("1" * MAX_LITERAL_LENGTH) == exact_int("1" * MAX_LITERAL_LENGTH)
    assert as_fraction("0." + "5" * (MAX_LITERAL_LENGTH - 2)) == Fraction(exact_int("5" * (MAX_LITERAL_LENGTH - 2)),
                                                                         10 ** (MAX_LITERAL_LENGTH - 2))
    for text in ("1" * (MAX_LITERAL_LENGTH + 1), "0." + "5" * (MAX_LITERAL_LENGTH - 1)):
        with pytest.raises(ValueError, match=f"^literal longer than {MAX_LITERAL_LENGTH} characters$"):
            as_fraction(text)


# ASCII text without underscores: literal characters, with ASCII whitespace
# only around the whole (Fraction reads whitespace around "/" from 3.12 on)
_ASCII_WHITESPACE = st.text(alphabet=" \t\n\r\f\v", max_size=2)
_ASCII_TEXT = st.builds(
    lambda lead, body, trail: lead + body + trail,
    _ASCII_WHITESPACE,
    st.one_of(
        st.text(alphabet="0123456789+-./eE", max_size=16),
        st.lists(st.sampled_from(["-", "+", ".", "/", "e", "E", "0", "7", "042", "1" * 300, "9" * 4300]),
                 max_size=6).map("".join),
    ),
    _ASCII_WHITESPACE,
)


@settings(deadline=None)
@given(_ASCII_TEXT)
@example("5.e3")
@example("-.5E-0004300")
@example("1/0")
@example("1/3e2")
@example("e" + "9" * 4300)
@example("1" * 512 + "." + "2" * 513)
@example("5.")
@example(".5")
def test_parse_number_reads_ascii_literals_as_fraction_does(text):
    # inside the bounds of both readers: Fraction builds 10**e and reads
    # each digit run with int(), whose default limit is MAX_EXPONENT digits
    assume(all(len(run) <= MAX_EXPONENT for run in re.findall("[0-9]+", text)))
    # int() and Fraction are bound by the int-to-str digit limit in force;
    # the exponents and the reference are read with the limit lifted
    with int_digit_limit(0):
        assume(all(int(e) <= MAX_EXPONENT for e in re.findall("[eE][-+]?([0-9]+)", text)))
    try:
        with int_digit_limit(0):
            expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            as_fraction(text)
    else:
        assert as_fraction(text) == expected


@given(st.text(max_size=8), st.one_of(st.just("_"), st.characters(min_codepoint=128)), st.text(max_size=8))
@example("1", "_", "000")
@example("", "\U00011F51", "")  # a Kawi digit, which Fraction reads from Python 3.12 on
@example("", "\u2003", " 1.5")  # an em space, which Fraction reads
def test_underscores_and_non_ascii_characters_are_refused(head, odd, tail):
    with pytest.raises(ValueError, match=" is not a numeric literal$"):
        as_fraction(head + odd + tail)


def _table_by_fractions(rows):
    """The integer table as it was built from Fraction rows: the lcm of the
    entries' denominators, then each numerator scaled up to it."""
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (denom // x.denominator) for x in row) for row in rows), denom


def _dumped_by_division(inst, rows):
    """Reference bytes of an instance's file: a value instance's by
    :func:`conftest.dumps_value_instance_by_division`, any other with every
    number written by :func:`conftest.entry_by_division`."""
    if inst.setting == "value":
        return dumps_value_instance_by_division(inst)
    doc = {"n": inst.n, "setting": inst.setting}
    if inst.point_based:
        doc["agent_points"] = [entry_by_division(x) for x in inst.agent_points]
        doc["item_points"] = [entry_by_division(x) for x in inst.item_points]
    else:
        doc["costs"] = [[entry_by_division(x) for x in row] for row in rows]
    return json.dumps(doc, indent=2) + "\n"


def _assert_stored_as_by_fractions(inst, rows):
    """``inst`` stores the Fraction ``rows`` as the old Fraction computation
    built their table, reads them back as those Fractions, and is written as
    the division writer writes them (or both raise the same error)."""
    rows = tuple(tuple(row) for row in rows)
    assert (inst.table, inst.denom) == _table_by_fractions(rows)
    assert inst.payoff_matrix() == rows
    assert all(type(x) is Fraction for row in inst.payoff_matrix() for x in row)
    assert _written(dumps_instance, inst) == _written(lambda i: _dumped_by_division(i, rows), inst)


_PAYOFF = st.one_of(
    st.builds(Fraction, st.integers(-(10**12), 10**12), _TWO_FIVE),
    st.integers(-(2**70), 2**70).map(Fraction),
    st.fractions(-20, 20, max_denominator=30),  # most of them with no finite decimal form
    st.builds(Fraction, st.integers(0, VALUE_SCALE), st.just(VALUE_SCALE)),  # random-value entries
)


@st.composite
def _literal(draw, x: Fraction) -> str:
    """The JSON text of one file literal of ``x``: ``"a/b"``, reduced or not,
    and for a finite decimal, a plain decimal with up to three trailing
    zeros, quoted or a JSON number, and a mantissa with a decimal exponent."""
    num, den = x.numerator, x.denominator
    k = draw(st.integers(1, 3))
    forms = [f'"{num}/{den}"', f'"{num * k}/{den * k}"']
    scale = next((s for s in range(64) if 10**s % den == 0), None)
    if scale is not None:
        scale += draw(st.integers(0, 3))
        digits = num * 10**scale // den
        whole, frac = divmod(abs(digits), 10**scale)
        text = f"{'-' if digits < 0 else ''}{whole}" + (f".{frac:0{scale}d}" if scale else "")
        forms += [f'"{text}"', text, f'"{digits}e-{scale}"', f'"{digits}E-{scale}"']
    return draw(st.sampled_from(forms))


def _literals(data, xs) -> str:
    return "[" + ", ".join(data.draw(_literal(x)) for x in xs) + "]"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_table_is_the_one_fraction_rows_give_on_every_path(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(_PAYOFF, min_size=n, max_size=n), min_size=n, max_size=n))
    # the public constructors, from Fractions, ints and strings
    given_as = [[data.draw(st.sampled_from([x, exact_str(x), *([x.numerator] if x.denominator == 1 else [])]))
                 for x in row] for row in rows]
    _assert_stored_as_by_fractions(AssignmentInstance.from_values(given_as), rows)
    _assert_stored_as_by_fractions(AssignmentInstance.from_costs(given_as), rows)
    # the file reader, each entry in one of its literal forms
    for setting, field in (("value", "values"), ("metric", "costs")):
        matrix = ", ".join(_literals(data, row) for row in rows)
        _assert_stored_as_by_fractions(loads_instance(f'{{"n": {n}, "setting": "{setting}", "{field}": [{matrix}]}}'), rows)
    # line points, given to the constructor and read from a file
    agents, items = (data.draw(st.lists(_PAYOFF, min_size=n, max_size=n)) for _ in range(2))
    costs = [[abs(a - b) for b in items] for a in agents]
    _assert_stored_as_by_fractions(AssignmentInstance.from_line_points(agents, items), costs)
    text = f'{{"n": {n}, "setting": "metric", "agent_points": {_literals(data, agents)}, "item_points": {_literals(data, items)}}}'
    _assert_stored_as_by_fractions(loads_instance(text), costs)


# Matrix entries for the row reader: plain decimals (the one-pass rows),
# JSON ints, and every form and near miss the per-entry reader reads or refuses
_PLAIN_ENTRY = st.builds(lambda whole, frac: whole + frac, st.text("0123456789", min_size=1, max_size=25),
                         st.just("") | st.text("0123456789", min_size=1, max_size=8).map(".".__add__))
_LONG_RUN = st.sampled_from([511, 512, 513, MAX_LITERAL_LENGTH - 1, MAX_LITERAL_LENGTH, MAX_LITERAL_LENGTH + 1])
_TABLE_ENTRY = st.one_of(
    _PLAIN_ENTRY,
    st.integers(-(10**25), 10**25),
    _LONG_RUN.map(lambda k: "7" * k),
    _LONG_RUN.map(lambda k: "0." + "3" * (k - 2)),
    st.sampled_from([True, False, None, 1.5, [1], "", "5.", ".5", "+1.5", "-2", "-0.25", "1e3", "2.5E-2", "3/4",
                     "6/8", "1/0", " 1.5", "1.5\n", "\t7", "1_000", "\u0661\u0662", "\u00b2", "1,2", "1.2.3", ",",
                     "0x10", "nan"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.lists(_PLAIN_ENTRY, max_size=5), st.lists(st.integers(-9, 10**30), max_size=5),
                          st.lists(_TABLE_ENTRY, max_size=5)), min_size=1, max_size=4))
@example([["9" * 512, "0"], ["9" * 512, "0.5"], ["0." + "1" * 511], ["0." + "1" * 512]])
@example([["1", "2"], ["1,2"], ["1.5", "2.25", "3"], [1, True], [0, 1]])
@example([["\u0661\u0662", "1.\uff15"]])
def test_the_row_reader_gives_the_per_entry_table_or_message(rows):
    try:
        expected = parse_table_by_entries(rows, "values")
    except InstanceFormatError as refused:
        with pytest.raises(InstanceFormatError) as info:
            _parse_table(rows, "values")
        assert str(info.value) == str(refused)
    else:
        assert _parse_table(rows, "values") == expected


@pytest.mark.parametrize("row, plain", [
    (["9" * 512, "0"], ([10**512 - 1, 0], 1)),
    (["9" * 511, "0.5"], ([10**512 - 10, 5], 10)),
    (["0." + "1" * 511], ([10**511 // 9], 10**511)),
    (["9" * 512, "0.5"], None),  # 513 digits at the row's scale
    (["0." + "1" * 512], None),
    (["1" * 700], None),
    (["1,2"], None),  # one entry, not two
    (["\u0661\u0662", "1.\uff15"], None),  # non-ASCII digits, which int() reads
    (["1", "2.50", "007.5"], ([100, 250, 750], 100)),
    ([1, 2, -3], ([1, 2, -3], 1)),
    ([1, True], None),
    ([1, "2"], ([1, 2], 1)),  # the writer mixes JSON ints and decimal strings in a row
    ([], None),
    (["0.5", 1], ([5, 10], 10)),
    ([2, "0.25", 10**509], ([200, 25, 10**511], 100)),
    (["0.5", True], None),  # a bool, a negative int or a 513-digit int goes entry by entry
    ([-1, "0.5"], None),
    ([10**512, "0"], None),
    ([10**700, "0.5"], None),  # str() of it raises under the least int-to-str digit limit
])
def test_the_one_pass_row_stops_at_512_digits_and_at_anything_not_plain(row, plain):
    assert _plain_row(row) == plain


def test_a_mixed_row_with_an_int_past_the_digit_limit_is_read_entry_by_entry():
    # str() of the int raises under the least int-to-str digit limit, so
    # the one-pass reader hands the row to the per-entry reader
    rows = [["0.5", 10**700], [1, 2]]
    with int_digit_limit(640):
        inst = instance_from_dict({"n": 2, "setting": "value", "values": rows})
        assert _plain_row(rows[0]) is None
        expected = AssignmentInstance.from_table(2, "value", *parse_table_by_entries(rows, "values"))
    assert inst == expected
    assert inst.denom == 2 and inst.table[0] == (1, 2 * 10**700)


def test_a_plain_row_past_the_least_digit_limit_loads():
    # the per-entry reader reads the 700 digits in pieces below 640
    with int_digit_limit(640):
        inst = loads_instance('{"n": 2, "setting": "value", "values": [["%s", "0.5"], ["1", "2"]]}' % ("1" * 700))
    assert inst.table[0][0] == (10**700 - 1) // 9 * 2


# Entries both the file reader and the constructors read: ints, plain
# decimals, ".5", "5.", exponents and "a/b", with digit runs about the
# one-pass reader's 512-digit bound
_RUN = st.one_of(st.text("0123456789", min_size=1, max_size=6),
                 st.sampled_from([511, 512, 513]).flatmap(lambda k: st.sampled_from(["9" * k, "1" + "0" * (k - 1)])))
_SHARED_ENTRY = st.one_of(
    st.integers(0, 10**25),
    st.sampled_from([511, 512, 513]).map(lambda k: 10 ** (k - 1)),
    _RUN,
    st.builds("{}.{}".format, _RUN, _RUN),
    _RUN.map(".".__add__),
    _RUN.map(lambda digits: digits + "."),
    st.builds("{}{}{}{}".format, _RUN, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 30)),
    st.builds("{}/{}".format, _RUN, _RUN.filter(lambda digits: digits.strip("0"))),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.one_of(_SHARED_ENTRY, st.integers(0, 10**6) | st.builds("{}.{}".format, _RUN, _RUN)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@example([["0.5", 1], [2, "0.25"]])
@example([["9" * 511 + ".5", 10**511], [".5", "5."]])
def test_the_reader_and_the_constructors_build_one_table_from_the_same_entries(rows):
    for setting, field, build in (("value", "values", AssignmentInstance.from_values),
                                  ("metric", "costs", AssignmentInstance.from_costs)):
        read = loads_instance(json.dumps({"n": len(rows), "setting": setting, field: rows}))
        built = build(rows)
        assert (read.table, read.denom) == (built.table, built.denom)
        assert read == built and hash(read) == hash(built)


def _family_rows(family: Family, n: int, seed: int):
    """The payoff rows of a generated instance as Fractions, drawn as the
    generators drew them before they built the integer table directly."""
    rng = substream(seed, 0, 0)
    if family is Family.BERNOULLI_WELFARE:
        return [[Fraction(int(i == g == 0)) for g in range(n)] for i in range(n)]
    if family is Family.RANDOM_VALUE:
        return [[Fraction(rng.below(VALUE_SCALE + 1), VALUE_SCALE) for _ in range(n)] for _ in range(n)]
    if family is Family.WORST_CASE_METRIC_LINE:
        agents, items = [Fraction(2**i) for i in range(n)], [Fraction(-1)] + [Fraction(2**i) for i in range(1, n)]
    else:
        agents, items = ([Fraction(rng.below(LINE_GRID + 1)) for _ in range(n)] for _ in range(2))
    return [[abs(a - b) for b in items] for a in agents]


@pytest.mark.parametrize("family", [f for f in Family if f is not Family.RANDOM_ABSTRACT])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
def test_every_generator_stores_the_table_its_fraction_rows_give(family, n, seed):
    _assert_stored_as_by_fractions(generate(FamilySpec(family, n, seed)), _family_rows(family, n, seed))


def test_the_abstract_generator_stores_no_table():
    inst = random_abstract(5, 3)
    assert (inst.table, inst.denom, inst.values, inst.costs) == (None, None, None, None)


def _points_by_entry(inst):
    return {"n": inst.n, "setting": inst.setting,
            **{name: [_row_writer(x.denominator)([x.numerator])[0] for x in getattr(inst, name)]
               for name in ("agent_points", "item_points")}}


@settings(max_examples=100, deadline=None)
@given(st.lists(_ENTRIES, max_size=6), st.lists(_ENTRIES, max_size=6))
@example([Fraction(1, 2), Fraction(3, 8), 5], [Fraction(-1, 4)])
@example([Fraction(1, 2), Fraction(1, 3)], [])
def test_a_point_list_is_written_as_one_row_with_each_points_own_literal(agents, items):
    # at the points' common denominator, trailing zeros cut, or the same refusal
    inst = AssignmentInstance.from_line_points(agents, items)
    assert _written(instance_to_dict, inst) == _written(_points_by_entry, inst)


def test_save_instance_writes_what_dumps_instance_returns_and_a_refused_instance_leaves_no_file(tmp_path):
    for inst in (random_value(5, 3), random_metric_line(5, 3), random_abstract(5, 3)):
        path = tmp_path / f"{inst.setting}.json"
        save_instance(inst, path)
        assert path.read_text(encoding="utf-8") == dumps_instance(inst)
    refused = tmp_path / "third.json"
    with pytest.raises(ValueError, match="^1/3 has no finite decimal representation$"):
        save_instance(AssignmentInstance.from_values([["1/3"]]), refused)
    assert not refused.exists()


def test_write_json_writes_ints_past_the_digit_limit(tmp_path):
    doc = {"k": 10**700, "rows": [[1, "0.5"], []], "reason": None}
    path = tmp_path / "doc.json"
    with int_digit_limit(640):
        write_json(path, doc)
    with int_digit_limit(0):
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
