"""Typed reading of JSON inputs: the one rule for config, action-set, layout and model files.

A value is checked against the annotation of the field it fills: `int` takes a
JSON integer, `float` an integer or number (stored as float), `str` a string,
`dict`/`list` an object/array, `X | None` also null, and `tuple[X, Y, ...]`
an array of that length whose items X, Y, ... take. A JSON true or false
decodes to a bool and is never an integer or a number. `check_fields` holds
a settings dataclass built in Python to its `int` and `float` annotations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import reprlib
import typing
from pathlib import Path
from types import MappingProxyType

_KIND_NAMES = {dict: "object", list: "array", str: "string", int: "integer", float: "number"}


def is_kind(value, kind: type) -> bool:
    """True when `value` decodes a JSON value of `kind`, a key of _KIND_NAMES."""
    accepted = (int, float) if kind is float else kind
    return isinstance(value, accepted) and not isinstance(value, bool)


def convert(hint, name: str, value):
    """`value` as a field annotated `hint` takes it; a mistyped value is named `name`."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if is_kind(value, list) and len(value) == len(args):
            return tuple(convert(arg, name, item) for arg, item in zip(args, value))
        kind = f"array of {len(args)} values"
    elif type(None) in args:  # X | None
        return None if value is None else convert(args[0], name, value)
    elif is_kind(value, hint):
        try:
            return float(value) if hint is float else value
        except OverflowError:  # an int beyond any float
            raise ValueError(
                f"{name} must be a finite number, got {reprlib.repr(value)}") from None
    else:
        kind = _KIND_NAMES[hint]
    raise ValueError(f"{name} must be a JSON {kind}, got {reprlib.repr(value)}")


def field(obj: dict, key: str, kind, where: str = ""):
    """obj[key], converted to `kind`; errors name the field `where + key`."""
    if key not in obj:
        raise ValueError(f"missing field {where + key!r}")
    return convert(kind, f"field {where + key!r}", obj[key])


def reject_unknown(obj: dict, known, where: str = "") -> None:
    """Raise naming the first key of `obj`, in sorted order, that is not in `known`."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown field {where + unknown[0]!r}")


@functools.cache
def field_types(cls) -> MappingProxyType:
    """Field name -> resolved annotation of dataclass `cls`, read once per class."""
    hints = typing.get_type_hints(cls)
    return MappingProxyType({f.name: hints[f.name] for f in dataclasses.fields(cls)})


def check_fields(obj) -> None:
    """Raise naming the first field of dataclass `obj` annotated `int` that holds
    no integer (numpy's count; a bool or a float does not) or `float` that holds
    no finite number. Integers are stored as Python ints: numpy's fixed-width
    ones wrap (25 * 25 is 113 in uint8) and do not serialize to JSON."""
    for name, hint in field_types(type(obj)).items():
        value = getattr(obj, name)
        if hint is int:
            object.__setattr__(obj, name, integer(name, value))
        elif hint is float and not _finite(value):
            raise ValueError(f"{name} must be a finite number, got {reprlib.repr(value)}")


def integer(name: str, value) -> int:
    """`value` as a Python int; `check_fields`' rule for a field `name` annotated `int`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def _finite(value) -> bool:
    """True for a real number, not a bool, that a float holds finitely."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond any float
        return False


def build(cls, data: dict, where: str = "", defaults: bool = True):
    """A `cls` from a decoded JSON object, each value converted to its field's type.

    An unknown key is an error; an omitted one takes the field's default, or
    is an error too when `defaults` is false. Range checks stay in `cls`.
    """
    types = field_types(cls)
    reject_unknown(data, types, where)
    return cls(**{
        key: field(data, key, hint, where)
        for key, hint in types.items()
        if key in data or not defaults
    })


def read_object(path, what: str) -> dict:
    """Decode a JSON object file, dropping "_"-prefixed comment keys."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as e:
        raise ValueError(f"cannot read {what} {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must be a JSON object")
    return {k: v for k, v in data.items() if not k.startswith("_")}
