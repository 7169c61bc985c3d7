"""One strict decoder from JSON values to the dataclasses that describe them,
and the one reader and one writer of CSV files.

Cluster files, run configs, model files, control API bodies and journal
records all go through :func:`decode`, which reads field names, types and
defaults from the target dataclass, so each schema is declared once;
:func:`encode` writes the same form back.  The rules:

- Types are exact.  An ``int`` field takes a JSON integer, never ``true``,
  ``1.0`` or ``"1"``; a ``float`` field takes any JSON number, which must be
  finite; ``str``, ``bool`` and enum fields take only a string, ``true`` or
  ``false``, and one of the enum's values.  Nothing is coerced.
- An object may carry only its dataclass's fields: unknown keys are refused.
- A key may be left out only when its field has a default: the field's own,
  or, where the constructor keeps a required parameter, a :func:`json_field`
  default, which only decoding reads.  ``json_field(key=...)`` names a JSON
  key that differs from the field name.
- Every refusal is a :class:`ConfigError` whose message starts with the JSON
  path of the value at fault, such as ``$.controller.max_batch_size``.  A
  ``ConfigError`` from a dataclass's own checks gets the path of its object.

Annotations understood: ``str``, ``int``, ``float``, ``bool``, ``dict`` (any
object, checked by whatever reads it), enums of strings, dataclasses,
``tuple[X, ...]`` and ``tuple[X, Y]`` (lists), and unions of these whose
members take different JSON types.

The trace and profile CSVs are read by :func:`read_csv`, which refuses a bad
header, row or field with the caller's error type, naming the file and line;
each caller keeps only the checks that span fields or rows.  Number columns
convert with ``csv_int`` and ``csv_float``, which refuse what only Python's
literal syntax takes.

Every CSV the package writes (the trace, the run logs and a sweep's
``combined.csv``) goes through :func:`write_csv_blocks`, which writes blocks
of whole rows: the run logs come as blocks formatted by
:mod:`pipelink.outputs`, and the other files as rows formatted one at a
time, through :func:`write_csv_lines`, which is built on it;
:func:`_csv_field` quotes a text field as the ``csv`` module does.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import io
import itertools
import json
import math
import types
import typing
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from .errors import ConfigError, PipelinkError

_MISSING = dataclasses.MISSING
_UNIONS = (typing.Union, types.UnionType)
_AS_IS = (str, int, float, bool, type(None), dict)
_WORDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a number", bool: "true or false", type(None): "null"}


def json_field(*, key: str | None = None, default=_MISSING):
    """A field with a JSON ``key`` other than its name, or a JSON-only ``default``."""
    return dataclasses.field(metadata={"json_key": key, "json_default": default})


@functools.cache
def _schema(cls: type) -> dict[str, tuple[str, object, object]]:
    """JSON key -> (field name, annotation, default or MISSING), in field order."""
    hints, schema = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        default = f.metadata.get("json_default", _MISSING)
        schema[f.metadata.get("json_key") or f.name] = (
            f.name, hints[f.name], f.default if default is _MISSING else default
        )
    return schema


def _json_type(tp) -> type:
    """The Python type of the JSON values that annotation ``tp`` decodes."""
    if dataclasses.is_dataclass(tp):
        return dict
    if typing.get_origin(tp) is tuple:
        return list
    return str if isinstance(tp, enum.EnumMeta) else tp


@functools.cache
def _members(tp) -> tuple[tuple[object, tuple[type, ...]], ...]:
    """Each member of annotation ``tp`` (``tp`` itself unless a union) and the
    Python types of the JSON values that it takes."""
    members = typing.get_args(tp) if typing.get_origin(tp) in _UNIONS else (tp,)
    return tuple((m, (float, int) if m is float else (_json_type(m),)) for m in members)


def _refuse(tp, value, path: str) -> ConfigError:
    words = " or ".join(
        "one of " + ", ".join(repr(e.value) for e in m) if isinstance(m, enum.EnumMeta)
        else _WORDS[kinds[0]]
        for m, kinds in _members(tp)
    )
    return ConfigError(f"{path}: expected {words}, got {value!r:.60}")


def decode(tp, value, path: str = "$"):
    """``value``, a JSON value as :func:`json.loads` returns it, decoded as ``tp``.

    ``path`` locates ``value`` in error messages; callers may put a file name
    before its ``$``.
    """
    member = next((m for m, kinds in _members(tp) if type(value) in kinds), None)
    if member is None:
        raise _refuse(tp, value, path)
    if type(value) is dict and member is not dict:
        return _decode_object(member, value, path)
    if type(value) is list:
        args = typing.get_args(member)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)} items, got {len(value)}")
        return tuple(decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if isinstance(member, enum.EnumMeta):
        try:
            return member(value)
        except ValueError:
            raise _refuse(tp, value, path) from None
    if member is float:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r:.60}")
        return number
    return value


def _decode_object(cls: type, value: dict, path: str):
    schema = _schema(cls)
    for key in value:
        if key not in schema:
            raise ConfigError(f"{path}: unknown key {key!r:.60} (have: {', '.join(schema)})")
    kwargs = {}
    for key, (name, tp, default) in schema.items():
        if key in value:
            kwargs[name] = decode(tp, value[key], f"{path}.{key}")
        elif default is _MISSING:
            raise ConfigError(f"{path}: missing key {key!r}")
        else:
            kwargs[name] = default
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def encode(value):
    """The JSON value of ``value``: the inverse of :func:`decode`."""
    if type(value) in _AS_IS:
        return value
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return {key: encode(getattr(value, name)) for key, (name, _, _) in _schema(type(value)).items()}


def read_json(path: str | Path):
    """The JSON value in the file at ``path``; text that is not JSON is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also an integer of too many digits
        raise ConfigError(f"{path}: bad JSON: {exc}") from None


def read_csv(
    path: str | Path,
    header: tuple[str, ...],
    columns: tuple[Callable[[str], object], ...],
    error: type[PipelinkError],
) -> Iterator[tuple[int, tuple]]:
    """Per non-blank row of the CSV at ``path``, its line number and its fields,
    each converted by the callable of its column in ``columns``.

    Line 1 must be ``header`` (fields stripped).  A missing header, a row of
    another width, a field over ``csv.field_size_limit()``, and a field whose
    callable raises ``ValueError`` raise ``error`` naming the file and line.
    Bytes that are not UTF-8 read as U+FFFD, which a number or enum column's
    callable refuses.
    """
    with Path(path).open(newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            if tuple(h.strip() for h in next(reader, ())) != header:
                raise error(f"{path}: line 1: expected header {','.join(header)}")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise error(f"{path}: line {reader.line_num}: "
                                f"expected {len(header)} fields, got {len(row)}")
                try:
                    fields = tuple(f(v) for f, v in zip(columns, row))
                except ValueError as exc:
                    raise error(f"{path}: line {reader.line_num}: {exc}") from None
                yield reader.line_num, fields
        except csv.Error as exc:
            raise error(f"{path}: line {reader.line_num}: {exc}") from None


def _plain_number(convert: Callable[[str], object]) -> Callable[[str], object]:
    """A CSV number column read by ``convert``, which takes only plain ASCII:
    the rest of Python's literal syntax (``_``, a leading ``+``, blanks
    around the number, other scripts' digits) is a ``ValueError``."""
    def column(text: str):
        if not text.isascii() or "_" in text or text[:1] == "+" or text != text.strip():
            raise ValueError(f"expected a plain number, got {text!r:.60}")
        return convert(text)
    return column


csv_int, csv_float = _plain_number(int), _plain_number(float)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    csv.writer(buf := io.StringIO()).writerow((text, ""))
    return buf.getvalue()[:-3]  # less the empty last field's "," and "\r\n"


def write_csv_blocks(path: str | Path, header: tuple[str, ...], blocks: Iterable[str]) -> None:
    """Write ``header``, then each block of whole rows with one ``write``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            fh.write(block)


def write_csv_lines(path: str | Path, header: tuple[str, ...], lines: Iterable[str]) -> None:
    """Write ``header``, then ``lines`` (whole rows) 1024 at a time, never all at once."""
    lines = iter(lines)
    write_csv_blocks(path, header, iter(lambda: "".join(itertools.islice(lines, 1024)), ""))
