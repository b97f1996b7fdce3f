"""Exception hierarchy.

ValidationFailure maps to CLI exit code 2 (bad input, bad config),
RuntimeFailure to exit code 3 (I/O trouble, diverged training).
"""

from dataclasses import fields


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


def from_fields(cls, obj: dict, what: str):
    """Build the dataclass `cls` from `obj`; a key that names none of its
    fields raises BadConfig instead of the constructor's TypeError."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise BadConfig(f"unknown {what} keys: {', '.join(unknown)}")
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
