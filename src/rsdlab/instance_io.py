"""Instance files: JSON with exactly-parsed numbers.

Schema (UTF-8 JSON object)::

    {"n": int, "setting": "value" | "metric" | "abstract",
     "values": [[...]]            # value setting
     "costs": [[...]]             # metric setting, matrix form
     "agent_points": [...],       # metric setting, point form (never with costs)
     "item_points": [...]
     "rankings": [[...]]}         # abstract setting, 1-indexed items

A file carries only the payload fields its setting reads: a payload field
of another setting (say ``rankings`` in a value file) is refused, and the
refusal names it.  Fields outside these five are ignored.  The rule on
``n``, the setting and the payload fields is :func:`rsdlab.core.check_fields`,
the one :class:`rsdlab.core.AssignmentInstance` applies too; the reader
raises its message as :class:`InstanceFormatError`.

Numeric entries are integers or decimal strings and are parsed exactly:
JSON number literals keep their text and are parsed like strings, so no
float rounding ever occurs, and strings like ``"0.25"`` or ``"257"`` are
parsed as exact decimals.  Writing follows the same rule: a whole number
below 2**53 in magnitude is a JSON integer, any other number a decimal
string, and one with no finite decimal expansion is rejected rather than
rounded.  A value or cost matrix is read to the instance's integer table
and written from it, with no Fraction per entry, a row at a time at the
matrix's one decimal scale (:func:`_row_writer`); a point list is written
as one such row, at its points' common denominator.  :func:`write_json`,
the one writer of the CLI's JSON files too, streams the text to the file.
A row of JSON integers and plain decimals ``digits[.digits]``, mixed as the
writer writes them (one regular expression on the joined row), is read in
one pass at the row's scale 10**F, F its longest fraction; any other row,
or one past 512 digits at that scale, entry by entry, to the same ints and
messages.  Each row is then scaled up to the matrix's common denominator,
as the constructor scales its rows.

Strings are read by :func:`rsdlab.core.parse_ratio`, the same reader
:func:`rsdlab.core.as_fraction` and the constructor use, whose one ASCII
grammar is the same on every Python version:
``[sign]digits[.digits][exponent]``, ``[sign].digits[exponent]`` and
``[sign]digits/digits`` (sign ``-`` or ``+``, exponent ``e`` or ``E`` then
``[sign]digits``, optional ASCII whitespace around the whole), read
exactly at any length, to the ratio as written; underscores,
non-ASCII digits and every other form are refused.  Integers and decimals
are written in pieces past Python's int-to-str digit limit
(:func:`rsdlab.core.exact_str`).  On reading, a literal longer than
:data:`rsdlab.core.MAX_LITERAL_LENGTH` characters, one whose decimal
exponent exceeds :data:`rsdlab.core.MAX_EXPONENT` in magnitude, or one whose
denominator is zero is rejected with :class:`InstanceFormatError`, its
message led by the literal's place in the file; a message quotes at most
the first :data:`rsdlab.core.QUOTED_LENGTH` characters of a literal, and
its length.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .core import (
    MAX_EXPONENT,  # both limits are still importable from this module
    MAX_LITERAL_LENGTH,
    PAYOFF_FIELD,
    SETTING_ABSTRACT,
    _PIECE_DIGITS,
    AssignmentInstance,
    _ratio_row,
    _scaled_table,
    bounded_literal,
    check_fields,
    exact_str,
    parse_ratio,
)

_JSON_INT_LIMIT = 1 << 53  # larger integers are written as decimal strings
# One or more plain decimals, digits[.digits], ASCII digits only, joined by commas.
_PLAIN_ROW = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:,[0-9]+(?:\.[0-9]+)?)*")

class InstanceFormatError(ValueError):
    """Malformed instance file; the message names the offending field."""


def _literal_ratio(x, where: str) -> tuple[int, int]:
    """``(numerator, denominator)`` of an integer or a numeric string (read
    by :func:`rsdlab.core.parse_ratio`); ``where`` names it in the
    :class:`InstanceFormatError` raised for anything else."""
    if isinstance(x, str):
        try:
            return parse_ratio(x)
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {exc}") from None
    if isinstance(x, bool):
        raise InstanceFormatError(f"{where}: booleans are not numbers")
    if isinstance(x, int):
        return x, 1
    raise InstanceFormatError(f"{where}: expected an integer or decimal string, got {type(x).__name__}")


def parse_literal(x, where: str) -> Fraction:
    """Exact value of an integer or a numeric string, as :func:`_literal_ratio` reads it."""
    return Fraction(*_literal_ratio(x, where))


def _parse_item(x, where: str) -> int:
    """A ranking's entry: an integer item index, never a bool."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InstanceFormatError(f"{where}: expected an integer item index")
    return x


def _parse_list(xs: list, where: str, parse) -> list:
    """The entries of ``xs``, each read by ``parse``; the address ``where[j]``
    of an entry is formatted only when it fails, by parsing it again."""
    try:
        return [parse(x, where) for x in xs]
    except InstanceFormatError:
        for j, x in enumerate(xs, start=1):
            parse(x, f"{where}[{j}]")
        raise


def _parse_matrix(rows, where: str, parse) -> tuple[tuple, ...]:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceFormatError(f"{where}: expected a list of rows")
    return tuple(tuple(_parse_list(row, f"{where}[{i}]", parse)) for i, row in enumerate(rows, start=1))


def _parse_points(xs, where: str) -> list[Fraction]:
    if not isinstance(xs, list):
        raise InstanceFormatError(f"{where}: expected a list")
    return _parse_list(xs, where, parse_literal)


def _plain_row(row: list) -> tuple[list[int], int] | None:
    """``(ints, 10**F)`` of a row of ints, or of ints and plain decimals
    ``digits[.digits]`` with F their longest fraction: what
    :func:`_literal_ratio` and the row's scaling give.  None for any other
    row, or one with an entry past ``_PIECE_DIGITS`` digits at that scale."""
    kinds = set(map(type, row))
    if kinds == {int}:
        return row, 1
    if kinds == {int, str}:  # a mixed row, as the writer writes one
        try:
            row = list(map(str, row))  # an int past the int-to-str digit limit raises
        except ValueError:
            return None
    elif kinds != {str}:
        return None
    text = ",".join(row)  # a comma inside an entry adds one more than the join's
    if text.count(",") != len(row) - 1 or _PLAIN_ROW.fullmatch(text) is None:
        return None
    parts = [x.partition(".") for x in row]
    scale = max([len(frac) for _, _, frac in parts])
    if max([len(whole) for whole, _, _ in parts]) + scale > _PIECE_DIGITS:
        return None
    return [int(whole + frac.ljust(scale, "0")) for whole, _, frac in parts], 10**scale


def _parse_table(rows, where: str) -> tuple[list[list[int]], int]:
    """A payoff matrix as int rows over its entries' least common
    denominator, scaled as the constructor scales its rows
    (:func:`rsdlab.core._scaled_table`).  A row :func:`_plain_row` does not
    read is read entry by entry, a message naming the entry's place."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceFormatError(f"{where}: expected a list of rows")
    return _scaled_table(_plain_row(row) or _ratio_row(_parse_list(row, f"{where}[{i}]", _literal_ratio))
                         for i, row in enumerate(rows, start=1))


def instance_from_dict(doc: dict) -> AssignmentInstance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level: expected a JSON object")
    try:
        n = doc["n"]
        setting = doc["setting"]
    except KeyError as exc:
        raise InstanceFormatError(f"missing required field {exc.args[0]!r}") from exc
    try:
        check_fields(n, setting, doc)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None

    if setting == SETTING_ABSTRACT:
        return AssignmentInstance(n=n, setting=setting, rankings=_parse_matrix(doc["rankings"], "rankings", _parse_item))
    if "agent_points" not in doc:
        field = PAYOFF_FIELD[setting]
        return AssignmentInstance.from_table(n, setting, *_parse_table(doc[field], field))
    agents = _parse_points(doc["agent_points"], "agent_points")
    items = _parse_points(doc["item_points"], "item_points")
    inst = AssignmentInstance.from_line_points(agents, items)
    if inst.n != n:
        raise InstanceFormatError(f"field 'n'={n} disagrees with {inst.n} agent points")
    return inst


def _row_writer(denom: int):
    """The function that writes a row of ints ``t``, each ``t / denom``
    exactly: a whole number below 2**53 in magnitude as a JSON int, any
    other as a decimal string at the decimal scale of ``denom``, found once,
    trailing zeros cut.  It raises :class:`ValueError` if ``denom`` leaves an
    entry no finite decimal form, or if an entry's string is longer than the
    reader takes.  A row of non-negative entries below 2**53 at a scale
    of at most 512 digits takes ``divmod`` and ``str`` with no check per
    entry: its literals stay far below :data:`MAX_LITERAL_LENGTH`, and its
    whole numbers are JSON ints.  Any other row goes entry by entry."""
    twos = (denom & -denom).bit_length() - 1
    odd, fives = denom >> twos, 0
    while odd % 5 == 0:
        odd //= 5
        fives += 1
    scale = max(twos, fives)
    unit = 10**scale
    factor = unit * odd // denom

    def entry(t: int) -> int | str:
        text = exact_str(abs(t) * factor).rjust(scale + 1, "0")
        whole, frac = text[:len(text) - scale], text[len(text) - scale:].rstrip("0")
        if frac:
            return bounded_literal(f"{'-' if t < 0 else ''}{whole}.{frac}")
        q = t * factor // unit
        return q if abs(q) < _JSON_INT_LIMIT else bounded_literal(exact_str(q))

    def write(row) -> list[int | str]:
        if odd != 1:
            for t in row:
                if t % odd:
                    raise ValueError(f"{exact_str(Fraction(t, denom))} has no finite decimal representation")
            row = [t // odd for t in row]
        if scale > _PIECE_DIGITS or min(row, default=0) < 0 or max(row, default=0) * factor >= _JSON_INT_LIMIT * unit:
            return list(map(entry, row))
        return [f"{q}.{str(unit + r)[1:].rstrip('0')}" if r else q for q, r in (divmod(t * factor, unit) for t in row)]

    return write


def instance_to_dict(instance: AssignmentInstance) -> dict:
    doc: dict = {"n": instance.n, "setting": instance.setting}
    if instance.setting == SETTING_ABSTRACT:
        doc["rankings"] = [list(row) for row in instance.rankings]
    elif instance.point_based:
        for name in ("agent_points", "item_points"):
            ints, den = _ratio_row([(x.numerator, x.denominator) for x in getattr(instance, name)])
            doc[name] = _row_writer(den)(ints)
    else:
        doc[PAYOFF_FIELD[instance.setting]] = list(map(_row_writer(instance.denom), instance.table))
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


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` to ``path`` as ``json.dump(doc, fh, indent=2)`` streams
    it, then a newline.  Python's int-to-str digit limit, where it has one,
    is lifted while it writes, so the bytes do not depend on it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def save_instance(instance: AssignmentInstance, path: str | Path) -> None:
    write_json(path, instance_to_dict(instance))  # built first: a refused instance leaves no file
