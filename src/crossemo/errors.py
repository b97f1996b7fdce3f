"""The two kinds of failure, and `from_fields`, the one reader that checks a
JSON document against a type: every config section, synth spec, fold
option, fold plan, manifest record and header, run record and checkpoint
header is a dataclass read through it and written as its `asdict`. An
augmentation plan, written the same way, reads back through it too.

ValidationFailure is bad input (a damaged file, a bad config or manifest, an
impossible fold or shape): the CLI exits 2. RuntimeFailure is a fault while
running (I/O trouble, diverged training): the CLI exits 3, as it does for
MemoryError. The message says which check failed; there are no subclasses.
"""

import functools
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass


class CrossEmoError(Exception):
    pass


class ValidationFailure(CrossEmoError):
    pass


class RuntimeFailure(CrossEmoError):
    pass


# scalar annotation -> the JSON value types it takes
_SCALARS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


@functools.cache
def _field_types(cls) -> dict:
    """name -> (resolved annotation, required) per field of the dataclass `cls`."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _read(value, tp, where: str):
    """`value` read as the annotation `tp`, in one of the forms from_fields names."""
    if tp is float and isinstance(value, float) and not math.isfinite(value):
        raise ValidationFailure(f"{where} must be a finite number, got {value!r}")
    if type(value) is tp and tp in _SCALARS:
        return value
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp):
        return from_fields(tp, value, where)
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and type(None) in args:
        return None if value is None else _read(value, args[args[0] is type(None)], where)
    if tp is object or (tp in _SCALARS and isinstance(value, _SCALARS[tp])
                        and (tp is bool) == isinstance(value, bool)):
        return value
    if origin is tuple and isinstance(value, (list, tuple)):
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        if len(items) == len(value):
            return tuple(_read(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(value, items)))
    if origin is dict and isinstance(value, dict):
        return {k: _read(v, args[1], f"{where}.{k}") for k, v in value.items()}
    if tp not in _SCALARS and origin not in (tuple, dict):
        raise ValidationFailure(f"{where}: no reader for the annotation {tp}")
    name = tp.__name__ if isinstance(tp, type) else tp
    raise ValidationFailure(f"{where} must be {name}, got {value!r}")


def from_fields(cls, obj, what: str, ignore=()):
    """Build the dataclass `cls` from the JSON object `obj`, reading each
    field as its annotation: a nested dataclass (from an object), `X | None`,
    `tuple[X, ...]` or a fixed-length tuple (from an array), `dict[str, X]`,
    a scalar (a bool is never a number, a float is finite) or `object`
    (anything). Keys in `ignore` are skipped. Anything else, an unknown key
    or a missing required field (one without a default) raises
    ValidationFailure."""
    if not isinstance(obj, dict):
        raise ValidationFailure(f"{what} must be an object, got {obj!r}")
    types_ = _field_types(cls)
    unknown = sorted(set(obj) - set(types_) - set(ignore))
    if unknown:
        raise ValidationFailure(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [name for name, (_, required) in types_.items() if required and name not in obj]
    if missing:
        raise ValidationFailure(f"missing {what} keys: {', '.join(missing)}")
    return cls(**{name: _read(obj[name], tp, f"{what}.{name}")
                  for name, (tp, _) in types_.items() if name in obj})

