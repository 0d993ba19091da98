"""Instance files: JSON with exactly-parsed numbers.

Schema (UTF-8 JSON object)::

    {"n": int, "setting": "value" | "metric" | "abstract",
     "values": [[...]]            # value setting
     "costs": [[...]]             # metric setting, matrix form
     "agent_points": [...],       # metric setting, point form
     "item_points": [...]
     "rankings": [[...]]}         # abstract setting, 1-indexed items

Numeric entries are integers or decimal strings and are parsed exactly:
JSON number literals keep their text and are parsed like strings, so no
float rounding ever occurs, and strings like ``"0.25"`` or ``"257"`` are
parsed as exact decimals.  Writing follows the same rule; values that have
no finite decimal expansion are rejected rather than rounded.

A string in one of the ASCII forms ``[sign]digits[.digits]``,
``[sign].digits`` or ``[sign]digits/digits`` (sign ``-`` or ``+``, optional
whitespace around the whole) is read by this module at any length, with one
int conversion per digit run up to 512 digits and in pieces past that
(:func:`rsdlab.core.exact_int`).  Every other string goes to
:class:`fractions.Fraction`, which also reads underscores, exponents and
other Unicode digits; what it accepts beyond the forms above varies with the
Python version (underscores from 3.11, for one).  Integers and decimals are
written in pieces past Python's int-to-str digit limit
(:func:`rsdlab.core.exact_str`).  On reading, a literal longer than
:data:`MAX_LITERAL_LENGTH` characters, one whose decimal exponent exceeds
:data:`MAX_EXPONENT` in magnitude, or one whose denominator is zero is
rejected with :class:`InstanceFormatError`; a message quotes at most the
first :data:`rsdlab.core.QUOTED_LENGTH` characters of a literal, and its
length.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .core import (
    SETTING_ABSTRACT,
    SETTING_METRIC,
    SETTING_VALUE,
    AssignmentInstance,
    clipped,
    exact_int,
    exact_str,
)

_JSON_INT_LIMIT = 1 << 53  # larger integers are written as decimal strings

MAX_EXPONENT = 4300
"""Largest decimal exponent magnitude a numeric literal may carry; the same
as Python's default limit on the digits of an int parsed from a string."""
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)")

MAX_LITERAL_LENGTH = 10_000
"""Longest numeric literal text read, in characters, checked before any
conversion: the payoffs of the n=20 reduction take about 7,500 digits."""
# The ASCII forms of Fraction's grammar without underscores or an exponent,
# read here at any length: [sign]digits[.digits], [sign].digits and
# [sign]digits/digits, with optional whitespace around the whole.
_DIGITS = re.compile(r"\s*([-+]?)(?=\.?[0-9])([0-9]*)(?:\.([0-9]*)|/([0-9]+))?\s*")


class InstanceFormatError(ValueError):
    """Malformed instance file; the message names the offending field."""


def _exponent_too_large(text: str) -> bool:
    match = _EXPONENT.search(text)
    if match is None:
        return False
    digits = match[1].replace("_", "").lstrip("0")
    return len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT


def parse_literal(x, where: str) -> Fraction:
    """Exact value of an integer or a numeric string; ``where`` names it in
    the :class:`InstanceFormatError` raised for anything else."""
    if isinstance(x, str):
        if len(x) > MAX_LITERAL_LENGTH:
            raise InstanceFormatError(f"{where}: literal longer than {MAX_LITERAL_LENGTH} characters")
        digits = _DIGITS.fullmatch(x)
        if digits is not None:
            sign, whole, frac, den = digits.groups("")
            denominator = exact_int(den) if den else 10 ** len(frac)
            if denominator == 0:
                raise InstanceFormatError(f"{where}: {clipped(x, repr)} has a zero denominator")
            numerator = exact_int(whole + frac)
            return Fraction(-numerator if sign == "-" else numerator, denominator)
        # Fraction builds 10**e for an exponent e, so bound e on the text first
        if _exponent_too_large(x):
            raise InstanceFormatError(f"{where}: decimal exponent beyond ±{MAX_EXPONENT}")
        try:
            return Fraction(x)
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {clipped(x, repr)} is not a numeric literal") from exc
        except ZeroDivisionError as exc:
            raise InstanceFormatError(f"{where}: {clipped(x, repr)} has a zero denominator") from exc
    if isinstance(x, bool):
        raise InstanceFormatError(f"{where}: booleans are not numbers")
    if isinstance(x, int):
        return Fraction(x)
    raise InstanceFormatError(f"{where}: expected an integer or decimal string, got {type(x).__name__}")


def _parse_list(xs: list, where: str) -> list[Fraction]:
    """The entries of ``xs``; the address ``where[j]`` of an entry is
    formatted only when it fails, by parsing it again."""
    try:
        return [parse_literal(x, where) for x in xs]
    except InstanceFormatError:
        for j, x in enumerate(xs, start=1):
            parse_literal(x, f"{where}[{j}]")
        raise


def _parse_matrix(rows, where: str) -> list[list[Fraction]]:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceFormatError(f"{where}: expected a list of rows")
    return [_parse_list(row, f"{where}[{i}]") for i, row in enumerate(rows, start=1)]


def _parse_points(xs, where: str) -> list[Fraction]:
    if not isinstance(xs, list):
        raise InstanceFormatError(f"{where}: expected a list")
    return _parse_list(xs, where)


def instance_from_dict(doc: dict) -> AssignmentInstance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level: expected a JSON object")
    try:
        n = doc["n"]
        setting = doc["setting"]
    except KeyError as exc:
        raise InstanceFormatError(f"missing required field {exc.args[0]!r}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise InstanceFormatError("field 'n': expected an integer")
    if setting not in (SETTING_VALUE, SETTING_METRIC, SETTING_ABSTRACT):
        raise InstanceFormatError(f"field 'setting': unknown setting {setting!r}")

    if setting == SETTING_VALUE:
        if "values" not in doc:
            raise InstanceFormatError("value instance requires field 'values'")
        values = _parse_matrix(doc["values"], "values")
        return AssignmentInstance(n=n, setting=setting, values=tuple(tuple(r) for r in values))

    if setting == SETTING_METRIC:
        if "agent_points" in doc or "item_points" in doc:
            if not ("agent_points" in doc and "item_points" in doc):
                raise InstanceFormatError("point-based metric instance requires both 'agent_points' and 'item_points'")
            agents = _parse_points(doc["agent_points"], "agent_points")
            items = _parse_points(doc["item_points"], "item_points")
            inst = AssignmentInstance.from_line_points(agents, items)
            if inst.n != n:
                raise InstanceFormatError(f"field 'n'={n} disagrees with {inst.n} agent points")
            return inst
        if "costs" not in doc:
            raise InstanceFormatError("metric instance requires 'costs' or 'agent_points'/'item_points'")
        costs = _parse_matrix(doc["costs"], "costs")
        return AssignmentInstance(n=n, setting=setting, costs=tuple(tuple(r) for r in costs))

    if "rankings" not in doc:
        raise InstanceFormatError("abstract instance requires field 'rankings'")
    rankings = doc["rankings"]
    if not isinstance(rankings, list) or not all(isinstance(r, list) for r in rankings):
        raise InstanceFormatError("rankings: expected a list of rows")
    rows = []
    for i, row in enumerate(rankings, start=1):
        parsed = []
        for j, x in enumerate(row, start=1):
            if not isinstance(x, int) or isinstance(x, bool):
                raise InstanceFormatError(f"rankings[{i}][{j}]: expected an integer item index")
            parsed.append(x)
        rows.append(tuple(parsed))
    return AssignmentInstance(n=n, setting=setting, rankings=tuple(rows))


def format_number(x: Fraction) -> int | str:
    """Exact JSON encoding: small integers stay integers, everything else
    becomes a decimal string.  Raises if ``x`` has no finite decimal form."""
    x = Fraction(x)
    if x.denominator == 1:
        v = x.numerator
        return v if abs(v) < _JSON_INT_LIMIT else exact_str(v)
    den = x.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{exact_str(x)} has no finite decimal representation")
    scale = max(twos, fives)
    digits = x.numerator * 10**scale // x.denominator
    sign = "-" if digits < 0 else ""
    text = exact_str(abs(digits)).rjust(scale + 1, "0")
    whole, frac = text[:-scale] if scale else text, text[-scale:] if scale else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def instance_to_dict(instance: AssignmentInstance) -> dict:
    doc: dict = {"n": instance.n, "setting": instance.setting}
    if instance.setting == SETTING_VALUE:
        assert instance.values is not None
        doc["values"] = [[format_number(x) for x in row] for row in instance.values]
    elif instance.setting == SETTING_METRIC:
        if instance.point_based:
            assert instance.agent_points is not None and instance.item_points is not None
            doc["agent_points"] = [format_number(x) for x in instance.agent_points]
            doc["item_points"] = [format_number(x) for x in instance.item_points]
        else:
            assert instance.costs is not None
            doc["costs"] = [[format_number(x) for x in row] for row in instance.costs]
    else:
        assert instance.rankings is not None
        doc["rankings"] = [list(row) for row in instance.rankings]
    return doc


def _json_int(text: str) -> int | str:
    return int(text) if len(text) < 20 else text


def loads_instance(text: str) -> AssignmentInstance:
    # JSON numbers with a fraction or exponent, and integers of 20 characters
    # or more, stay literal text, parsed exactly (never as floats) and bounded
    # by parse_literal like strings
    try:
        doc = json.loads(text, parse_float=str, parse_int=_json_int)
    except RecursionError:
        raise InstanceFormatError("JSON nested too deeply to parse") from None
    return instance_from_dict(doc)


def load_instance(path: str | Path) -> AssignmentInstance:
    return loads_instance(Path(path).read_text(encoding="utf-8"))


def dumps_instance(instance: AssignmentInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def save_instance(instance: AssignmentInstance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")
