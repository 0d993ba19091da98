from fractions import Fraction

import pytest

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
from rsdlab.instance_io import MAX_EXPONENT, format_number


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
