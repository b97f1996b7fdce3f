"""Exception hierarchy, and `from_fields`, the one reader that checks a
JSON document against a type: every config section, fold option, fold plan
and run record is a dataclass read through it.

ValidationFailure maps to CLI exit code 2 (bad input, bad config),
RuntimeFailure to exit code 3 (I/O trouble, diverged training).
"""

import functools
import types
import typing
from dataclasses import MISSING, fields, is_dataclass


class CrossEmoError(Exception):
    pass


class ValidationFailure(CrossEmoError):
    pass


class RuntimeFailure(CrossEmoError):
    pass


# audio
class MalformedHeader(ValidationFailure):
    pass


class UnsupportedEncoding(ValidationFailure):
    pass


class EmptyAudio(ValidationFailure):
    pass


class NonPositiveFactor(ValidationFailure):
    pass


class ResultTooShort(ValidationFailure):
    pass


class GainOutOfRange(ValidationFailure):
    pass


class IoFailure(RuntimeFailure):
    pass


# features
class SampleRateMismatch(ValidationFailure):
    pass


# corpus
class DuplicateId(ValidationFailure):
    pass


class MissingField(ValidationFailure):
    pass


class UnknownStyle(ValidationFailure):
    pass


class TooFewSpeakers(ValidationFailure):
    pass


class MissingSession(ValidationFailure):
    pass


class ClassTooSmall(ValidationFailure):
    pass


class NotEnoughUtterances(ValidationFailure):
    pass


# augment
class BadRange(ValidationFailure):
    pass


class UnknownRecipe(ValidationFailure):
    pass


# model
class ShapeMismatch(ValidationFailure):
    pass


class BatchTooSmall(ValidationFailure):
    pass


class LabelOutOfRange(ValidationFailure):
    pass


class BadConfig(ValidationFailure):
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
        raise BadConfig(f"{where}: no reader for the annotation {tp}")
    raise BadConfig(f"{where} must be {tp.__name__ if isinstance(tp, type) else tp}, got {value!r}")


def from_fields(cls, obj, what: str, ignore=()):
    """Build the dataclass `cls` from the JSON object `obj`, reading each
    field as its annotation: a nested dataclass (from an object), `X | None`,
    `tuple[X, ...]` or a fixed-length tuple (from an array), `dict[str, X]`,
    a scalar (a bool is never a number) or `object` (anything). Keys in
    `ignore` are skipped. Anything else, an unknown key or a missing required
    field (one without a default) raises BadConfig."""
    if not isinstance(obj, dict):
        raise BadConfig(f"{what} must be an object, got {obj!r}")
    types_ = _field_types(cls)
    unknown = sorted(set(obj) - set(types_) - set(ignore))
    if unknown:
        raise BadConfig(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [name for name, (_, required) in types_.items() if required and name not in obj]
    if missing:
        raise BadConfig(f"missing {what} keys: {', '.join(missing)}")
    return cls(**{name: _read(obj[name], tp, f"{what}.{name}")
                  for name, (tp, _) in types_.items() if name in obj})


class CheckpointMismatch(ValidationFailure):
    pass


# train
class EmptyTrainSet(ValidationFailure):
    pass


class TooFewPerClass(ValidationFailure):
    pass


class LeakageError(ValidationFailure):
    pass


class DivergedLoss(RuntimeFailure):
    pass


# evaluation
class EmptyMatrix(ValidationFailure):
    pass


class UnknownLabel(ValidationFailure):
    pass


class ClassSetMismatch(ValidationFailure):
    pass
