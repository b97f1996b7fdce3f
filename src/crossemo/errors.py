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
    text); only the scalars above, each optionally `| None`, are checked."""
    name = getattr(annotation, "__name__", str(annotation))
    base = name.removesuffix(" | None")
    if base not in _SCALAR_TYPES:
        return True
    if value is None:
        return base != name  # only `X | None` takes null
    return isinstance(value, _SCALAR_TYPES[base]) and (base == "bool") == isinstance(value, bool)


def from_fields(cls, obj: dict, what: str):
    """Build the dataclass `cls` from `obj`; an unknown key, a missing
    required field (one without a default) or a mistyped scalar value
    raises BadConfig instead of the constructor's TypeError."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise BadConfig(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in obj
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise BadConfig(f"missing {what} keys: {', '.join(missing)}")
    for f in fields(cls):
        if f.name in obj and not _type_ok(obj[f.name], f.type):
            raise BadConfig(f"{what} key {f.name!r} must be {f.type}, got {obj[f.name]!r}")
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
