from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
from rsdlab.core import QUOTED_LENGTH, exact_int
from rsdlab.instance_io import MAX_EXPONENT, MAX_LITERAL_LENGTH, format_number, parse_literal


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


def test_format_number_cases():
    assert format_number(Fraction(257)) == 257
    assert format_number(Fraction(-1, 4)) == "-0.25"
    assert format_number(Fraction(123456, 10**6)) == "0.123456"
    with pytest.raises(ValueError):
        format_number(Fraction(1, 3))


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


@pytest.mark.parametrize("entry", [
    f'"1e{MAX_EXPONENT + 1}"', f"1e{MAX_EXPONENT + 1}", f'"2.5E-{MAX_EXPONENT + 1}"',
    f"2.5E-{MAX_EXPONENT + 1}", '"1e4_301"', "1e" + "9" * 50,
])
def test_exponent_past_the_bound_is_rejected_before_conversion(entry):
    # rejected on the text, so no 10**e is ever built
    with pytest.raises(InstanceFormatError, match=r"values\[1\]\[1\]: decimal exponent beyond"):
        loads_instance(f'{{"n": 1, "setting": "value", "values": [[{entry}]]}}')


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_reductions_past_the_int_string_limit_round_trip(setting):
    # the n=18 payoffs have about 5,200 (value) and 5,300 (metric) digits
    built = build_reduction(random_abstract(18, 1), setting)
    assert max(x.numerator.bit_length() for row in built.payoff_matrix() for x in row) > 17_000
    assert loads_instance(dumps_instance(built)) == built


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


def _fraction_reading(text):
    """What Fraction's grammar, which varies with the Python version, makes
    of ``text``: its value, or the message parse_literal gives a refusal."""
    try:
        return Fraction(text)
    except ValueError:
        return f"x: {text!r} is not a numeric literal"


# Forms other than a plain decimal, with the value or the message they have
# always had; the last two are read by Fraction, whose grammar varies.
_FALLBACK_FORMS = [
    (" 1.5 ", Fraction(3, 2)),
    ("+2", Fraction(2)),
    (".5", Fraction(1, 2)),
    ("5.", Fraction(5)),
    ("1e3", Fraction(1000)),
    ("3/4", Fraction(3, 4)),
    ("\u0661\u0662.\u0665", Fraction(25, 2)),
    ("1" * 301, Fraction(int("1" * 301))),
    ("0." + "1" * 301, Fraction(int("1" * 301), 10**301)),
    ("-1-1", "x: '-1-1' is not a numeric literal"),
    ("", "x: '' is not a numeric literal"),
    ("1/0", "x: '1/0' has a zero denominator"),
    ("1_000", _fraction_reading("1_000")),
    ("1 / 3", _fraction_reading("1 / 3")),
]


@pytest.mark.parametrize("text, expected", _FALLBACK_FORMS)
def test_other_forms_read_as_before(text, expected):
    if isinstance(expected, Fraction):
        assert parse_literal(text, "x") == expected
    else:
        with pytest.raises(InstanceFormatError) as info:
            parse_literal(text, "x")
        assert str(info.value) == expected


@pytest.mark.parametrize("value", [
    Fraction(exact_int("1" * 5000), 10),
    -Fraction(exact_int("9" * 5000), 10**2500),
    Fraction(1, 10**5000),
])
def test_decimals_past_the_int_string_limit_round_trip(value):
    inst = AssignmentInstance.from_values([[value]])
    assert loads_instance(dumps_instance(inst)) == inst


def test_format_number_writes_decimals_past_the_int_string_limit():
    assert format_number(Fraction(exact_int("1" * 5000), 10)) == "1" * 4999 + ".1"


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
