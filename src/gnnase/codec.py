"""JSON codec derived from the fields of the settings dataclasses.

Encoding is ``dataclasses.asdict`` with tuples written as lists. Decoding
walks the type hints of the target dataclass: bool, int, float, str,
``X | None``, fixed-length tuples and nested dataclasses are checked here
(an int is accepted for a float, a float must be finite, a bool is not
accepted as a number, and only a JSON boolean is accepted as a bool).
Unknown keys are rejected, and every error is an InvalidConfig naming the
key path.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

from .errors import InvalidConfig


def to_json(obj) -> dict:
    """Plain JSON object of a dataclass instance, in field order."""
    return _plain(dataclasses.asdict(obj))


def _plain(value):
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def fields_from_json(cls, blob, path: str = "", names=None) -> dict:
    """Decode the keys of ``blob`` as fields of ``cls``; ``names`` limits the keys allowed.

    Raises:
        InvalidConfig: If blob is not an object, holds a key outside
            ``names`` (default: every field), or a value of the wrong type.
    """
    if not isinstance(blob, dict):
        raise InvalidConfig(f"{path or 'document'}: expected an object, got {blob!r}")
    hints = _hints(cls)
    allowed = hints if names is None else names
    unknown = sorted(set(blob) - set(allowed))
    if unknown:
        raise InvalidConfig(f"{', '.join(_join(path, key) for key in unknown)}: unknown key")
    return {key: decode(hints[key], value, _join(path, key)) for key, value in blob.items()}


def build(cls, kwargs: dict, path: str = ""):
    """Construct ``cls``, reporting a missing field or a failed range check as InvalidConfig."""
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in kwargs:
            raise InvalidConfig(f"{_join(path, f.name)}: missing")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise InvalidConfig(f"{path}: {err}" if path else str(err)) from err


def from_json(cls, blob, path: str = ""):
    """Dataclass instance from a JSON object, checked field by field."""
    return build(cls, fields_from_json(cls, blob, path), path)


def decode(hint, value, path: str):
    """Check one JSON value against a type hint and convert it."""
    if hint is bool:
        if not isinstance(value, bool):
            raise InvalidConfig(f"{path}: expected a boolean, got {value!r}")
        return value
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, path)
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return decode(inner, value, path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise InvalidConfig(f"{path}: expected {len(args)} values, got {value!r}")
        return tuple(decode(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float64's range
            number = math.inf
        if not math.isfinite(number):  # json reads the NaN and Infinity literals
            raise InvalidConfig(f"{path}: expected a finite number, got {value!r}")
        return number
    if not isinstance(value, hint) or isinstance(value, bool):
        raise InvalidConfig(f"{path}: expected {hint.__name__}, got {value!r}")
    return value
