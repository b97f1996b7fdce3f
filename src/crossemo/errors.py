"""Exception hierarchy.

ValidationFailure maps to CLI exit code 2 (bad input, bad config),
RuntimeFailure to exit code 3 (I/O trouble, diverged training).
"""

from dataclasses import MISSING, fields


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


class BadRate(ValidationFailure):
    pass


class LabelOutOfRange(ValidationFailure):
    pass


class BadConfig(ValidationFailure):
    pass


# annotation -> the JSON value types it takes; a bool is never a number here
_SCALAR_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _type_ok(value, annotation) -> bool:
    """Whether `value` fits a field annotated `annotation` (a type or its
    text). Checked are the scalars above, each optionally `| None`, and
    tuples of them, `tuple[X, ...]` or fixed-length, given as JSON arrays."""
    name = annotation.__name__ if isinstance(annotation, type) else str(annotation)
    base = name.removesuffix(" | None")
    if value is None and base != name:
        return True  # `X | None` takes null
    if base.startswith("tuple[") and base.endswith("]"):
        items = base[len("tuple["):-1].split(", ")
        if not isinstance(value, (list, tuple)):
            return False
        if items[-1] == "...":
            items = items[:1] * len(value)
        return len(items) == len(value) and all(map(_type_ok, value, items))
    if base not in _SCALAR_TYPES:
        return True
    return isinstance(value, _SCALAR_TYPES[base]) and (base == "bool") == isinstance(value, bool)


def check_keys(obj: dict, types: dict, what: str) -> None:
    """Raise BadConfig on a key of `obj` that `types` (name -> annotation)
    does not name, or on a value that does not fit its annotation."""
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise BadConfig(f"unknown {what} keys: {', '.join(unknown)}")
    for name, value in obj.items():
        if not _type_ok(value, types[name]):
            raise BadConfig(f"{what} key {name!r} must be {types[name]}, got {value!r}")


def from_fields(cls, obj: dict, what: str):
    """Build the dataclass `cls` from `obj`; an unknown key, a mistyped
    value or a missing required field (one without a default) raises
    BadConfig instead of the constructor's TypeError."""
    check_keys(obj, {f.name: f.type for f in fields(cls)}, what)
    missing = [f.name for f in fields(cls) if f.name not in obj
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise BadConfig(f"missing {what} keys: {', '.join(missing)}")
    return cls(**obj)


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
