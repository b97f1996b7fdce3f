"""Manifest ingestion, label mapping, fold construction and subsetting.

Manifests are JSON-lines: one utterance record per line, snake_case keys,
with an optional leading header line carrying the schema version. Manifest
objects are immutable after load; fold plans are plain id partitions that a
checker can re-validate before training.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    ClassTooSmall,
    DuplicateId,
    MissingField,
    MissingSession,
    NotEnoughUtterances,
    LeakageError,
    TooFewSpeakers,
    UnknownStyle,
    ValidationFailure,
    from_fields,
)
from .ioutil import read_json, read_jsonl, stable_hash64, write_json, write_jsonl

MANIFEST_SCHEMA_VERSION = 1

STYLES = ("acted", "elicited-scripted", "elicited-improvised", "natural")
EMOTIONS_4 = ("angry", "happy", "sad", "neutral")
MOSEI_EMOTIONS = ("anger", "disgust", "fear", "happiness", "sadness", "surprise")
MOSEI_TARGETS = {"anger": "angry", "happiness": "happy", "sadness": "sad"}

_REQUIRED_FIELDS = ("id", "audio_path", "corpus", "speaker", "style")


@dataclass(frozen=True)
class UtteranceRecord:
    id: str
    audio_path: str
    corpus: str
    speaker: str
    style: str
    session: str | None = None
    raw_labels: dict = field(default_factory=dict)
    emotion: str | None = None
    augmented: bool = False
    source_id: str | None = None

    def __post_init__(self):
        if self.style not in STYLES:
            raise UnknownStyle(f"record {self.id!r}: unknown style {self.style!r}")

    def to_json(self) -> dict:
        obj = {
            "id": self.id,
            "audio_path": self.audio_path,
            "corpus": self.corpus,
            "speaker": self.speaker,
            "style": self.style,
        }
        if self.session is not None:
            obj["session"] = self.session
        if self.raw_labels:
            obj["raw_labels"] = dict(self.raw_labels)
        if self.emotion is not None:
            obj["emotion"] = self.emotion
        if self.augmented:
            obj["augmented"] = True
        if self.source_id is not None:
            obj["source_id"] = self.source_id
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "UtteranceRecord":
        for name in _REQUIRED_FIELDS:
            if name not in obj:
                raise MissingField(f"record missing required field {name!r}: {obj}")
        if not isinstance(obj.get("augmented", False), bool):
            raise ValidationFailure(f"record {obj['id']!r}: augmented must be true or false")
        if not isinstance(obj.get("raw_labels", {}), dict):
            raise ValidationFailure(f"record {obj['id']!r}: raw_labels must be an object")
        for name in ("emotion", "source_id"):
            if not isinstance(obj.get(name), (str, type(None))):
                raise ValidationFailure(f"record {obj['id']!r}: {name} must be a string")
        return cls(
            id=str(obj["id"]),
            audio_path=str(obj["audio_path"]),
            corpus=str(obj["corpus"]),
            speaker=str(obj["speaker"]),
            style=str(obj["style"]),
            session=None if obj.get("session") is None else str(obj["session"]),
            raw_labels=dict(obj.get("raw_labels", {})),
            emotion=obj.get("emotion"),
            augmented=obj.get("augmented", False),
            source_id=obj.get("source_id"),
        )


@dataclass(frozen=True)
class CorpusManifest:
    name: str
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise DuplicateId(f"duplicate utterance id {r.id!r}")
            seen.add(r.id)
        object.__setattr__(self, "_by_id", {r.id: r for r in self.records})

    def __len__(self) -> int:
        return len(self.records)

    def get(self, utt_id: str) -> UtteranceRecord:
        return self._by_id[utt_id]

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._by_id

    @property
    def class_counts(self) -> Counter:
        return Counter(r.emotion for r in self.records if r.emotion is not None)

    @property
    def speakers(self) -> tuple:
        return tuple(sorted({r.speaker for r in self.records}))

    def labels_by_id(self) -> dict:
        return {r.id: r.emotion for r in self.records}


def load_manifest(path: str | Path) -> CorpusManifest:
    """Load a JSON-lines manifest. Duplicate ids and missing fields are
    rejected. The manifest name comes from the header line when present,
    else the uniform corpus tag, else the file stem."""
    rows = read_jsonl(path)
    header_name = None
    records = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValidationFailure(f"{path}: manifest row {row!r} is not an object")
        if "manifest_schema" in row and "id" not in row:
            schema = row["manifest_schema"]
            if type(schema) is not int or schema != MANIFEST_SCHEMA_VERSION:
                raise ValidationFailure(f"unsupported manifest schema {schema!r}")
            header_name = row.get("name")
            continue
        records.append(UtteranceRecord.from_json(row))
    corpora = {r.corpus for r in records}
    if header_name:
        name = header_name
    elif len(corpora) == 1:
        name = next(iter(corpora))
    else:
        name = Path(path).stem
    return CorpusManifest(name=name, records=tuple(records))


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    header = {"manifest_schema": MANIFEST_SCHEMA_VERSION, "name": manifest.name}
    write_jsonl(path, [header] + [r.to_json() for r in manifest.records])


@dataclass(frozen=True)
class LabelMapResult:
    manifest: CorpusManifest
    discarded: Counter


def _single_raw_label(record: UtteranceRecord) -> str:
    if record.raw_labels:
        if len(record.raw_labels) != 1:
            # categorical manifests carry exactly one raw annotation
            best = max(sorted(record.raw_labels), key=lambda k: record.raw_labels[k])
            return best
        return next(iter(record.raw_labels))
    if record.emotion is not None:
        return record.emotion
    raise MissingField(f"record {record.id!r} carries no label")


def map_labels_iemocap(manifest: CorpusManifest) -> LabelMapResult:
    """Four-class selection with 'excited' relabeled as 'happy'; everything
    outside {angry, happy, sad, neutral} is dropped and counted."""
    kept = []
    discarded: Counter = Counter()
    for r in manifest.records:
        label = _single_raw_label(r)
        if label == "excited":
            label = "happy"
        if label in EMOTIONS_4:
            kept.append(replace(r, emotion=label))
        else:
            discarded[label] += 1
    return LabelMapResult(CorpusManifest(manifest.name, tuple(kept)), discarded)


def map_labels_mosei(manifest: CorpusManifest) -> LabelMapResult:
    """Scored six-emotion annotations -> unequivocal four-class labels.

    All six scores zero means neutral. Otherwise a record is kept only when
    exactly one of anger/happiness/sadness is positive and every other score
    is zero; anything else is equivocal and dropped.
    """
    kept = []
    discarded: Counter = Counter()
    for r in manifest.records:
        scores = {e: float(r.raw_labels.get(e, 0.0)) for e in MOSEI_EMOTIONS}
        positives = [e for e, s in scores.items() if s > 0]
        if not positives:
            kept.append(replace(r, emotion="neutral"))
        elif len(positives) == 1 and positives[0] in MOSEI_TARGETS:
            kept.append(replace(r, emotion=MOSEI_TARGETS[positives[0]]))
        else:
            discarded["equivocal" if len(positives) > 1 else positives[0]] += 1
    return LabelMapResult(CorpusManifest(manifest.name, tuple(kept)), discarded)


LABEL_MAPS = {"iemocap": map_labels_iemocap, "mosei": map_labels_mosei}


@dataclass(frozen=True)
class Fold:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


@dataclass(frozen=True)
class FoldPlan:
    strategy: str
    folds: tuple[Fold, ...]
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "strategy": self.strategy,
            "seed": self.seed,
            "folds": [
                {"train_ids": sorted(f.train_ids), "test_ids": sorted(f.test_ids)}
                for f in self.folds
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FoldPlan":
        return from_fields(cls, obj, "fold plan", ignore=("schema_version",))


def save_fold_plan(plan: FoldPlan, path: str | Path) -> None:
    write_json(path, plan.to_json())


def load_fold_plan(path: str | Path) -> FoldPlan:
    return FoldPlan.from_json(read_json(path))


def make_folds_speaker_rotation(
    manifest: CorpusManifest, n_folds: int = 5, test_speakers: int = 5
) -> FoldPlan:
    """Rotate a sorted speaker list: fold k tests speakers
    [k*test_speakers, k*test_speakers + test_speakers) with wrap-around."""
    speakers = manifest.speakers
    if len(speakers) <= test_speakers:
        raise TooFewSpeakers(
            f"need more than {test_speakers} speakers, found {len(speakers)}"
        )
    folds = []
    for k in range(n_folds):
        test_set = {speakers[(k * test_speakers + i) % len(speakers)] for i in range(test_speakers)}
        train_ids = tuple(r.id for r in manifest.records if r.speaker not in test_set)
        test_ids = tuple(r.id for r in manifest.records if r.speaker in test_set)
        folds.append(Fold(train_ids, test_ids))
    return FoldPlan(strategy="speaker-rotation", folds=tuple(folds))


def make_folds_session_holdout(
    manifest: CorpusManifest, reverse_order: bool = False
) -> FoldPlan:
    """Leave-one-session-out: fold k tests the k-th session in lexicographic
    order (last-first when reverse_order)."""
    for r in manifest.records:
        if r.session is None:
            raise MissingSession(f"record {r.id!r} has no session")
    sessions = sorted({r.session for r in manifest.records})
    if reverse_order:
        sessions = sessions[::-1]
    folds = []
    for held_out in sessions:
        train_ids = tuple(r.id for r in manifest.records if r.session != held_out)
        test_ids = tuple(r.id for r in manifest.records if r.session == held_out)
        folds.append(Fold(train_ids, test_ids))
    return FoldPlan(strategy="session-holdout", folds=tuple(folds))


def _ids_by_class(manifest: CorpusManifest) -> dict:
    by_class: dict[str, list] = {}
    for r in manifest.records:
        if r.emotion is None:
            raise MissingField(f"record {r.id!r} has no emotion; map labels first")
        by_class.setdefault(r.emotion, []).append(r.id)
    if not by_class:
        raise ClassTooSmall("manifest has no labeled records")
    return {c: sorted(ids) for c, ids in sorted(by_class.items())}


def make_folds_proportional(
    manifest: CorpusManifest,
    n_folds: int = 5,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> FoldPlan:
    """Per fold, per class: draw round(class_count * test_fraction)
    utterances into the test side, without replacement, seeded."""
    if not 0.0 < test_fraction < 1.0:
        raise ValidationFailure(f"test_fraction must be in (0, 1), got {test_fraction}")
    by_class = _ids_by_class(manifest)
    folds = []
    for k in range(n_folds):
        rng = np.random.default_rng([seed, k])
        test: set = set()
        for c, ids in by_class.items():
            n_test = int(round(len(ids) * test_fraction))
            n_test = min(n_test, len(ids))
            chosen = rng.choice(len(ids), size=n_test, replace=False)
            test.update(ids[i] for i in chosen)
        train_ids = tuple(r.id for r in manifest.records if r.id not in test)
        test_ids = tuple(r.id for r in manifest.records if r.id in test)
        folds.append(Fold(train_ids, test_ids))
    return FoldPlan(strategy="proportional", folds=tuple(folds), seed=seed)


def make_split_80_20(manifest: CorpusManifest, seed: int = 0) -> FoldPlan:
    """Single-fold proportional split with a 0.2 test fraction."""
    plan = make_folds_proportional(manifest, n_folds=1, test_fraction=0.2, seed=seed)
    return FoldPlan(strategy="split-80-20", folds=plan.folds, seed=seed)


@dataclass(frozen=True)
class FoldOptions:
    """A strategy named in FOLD_STRATEGIES and the options its builder reads."""

    strategy: str = "split-80-20"
    n_folds: int = 5
    test_speakers: int = 5
    test_fraction: float = 0.2
    reverse_sessions: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in FOLD_STRATEGIES:
            raise ValidationFailure(
                f"unknown fold strategy {self.strategy!r}; valid: {list(FOLD_STRATEGIES)}"
            )


# strategy -> (builder(manifest, FoldOptions), the record field whose values a fold
# keeps apart, or None); lambdas look each builder up at call time, so a
# wrapped builder is seen
FOLD_STRATEGIES = {
    "speaker-rotation": (
        lambda m, o: make_folds_speaker_rotation(m, o.n_folds, o.test_speakers),
        "speaker",
    ),
    "session-holdout": (lambda m, o: make_folds_session_holdout(m, o.reverse_sessions), "session"),
    "proportional": (
        lambda m, o: make_folds_proportional(m, o.n_folds, o.test_fraction, o.seed),
        None,
    ),
    "split-80-20": (lambda m, o: make_split_80_20(m, o.seed), None),
}


def make_fold_plan(manifest: CorpusManifest, strategy: str, **opts) -> FoldPlan:
    """Build and validate the plan of a strategy named in FOLD_STRATEGIES over
    the originals of `manifest`; `opts` name other FoldOptions fields."""
    options = from_fields(FoldOptions, {"strategy": strategy, **opts}, "folds")
    build, _ = FOLD_STRATEGIES[options.strategy]
    originals = CorpusManifest(manifest.name, (r for r in manifest.records if not r.augmented))
    plan = build(originals, options)
    validate_fold_plan(plan, manifest)
    return plan


def _largest_remainder(counts: dict, total: int) -> dict:
    """Allocate `total` across classes proportionally to `counts`, never
    exceeding the available count per class."""
    n = sum(counts.values())
    if total > n:
        raise NotEnoughUtterances(f"requested {total} from {n} available")
    quotas = {c: total * counts[c] / n for c in counts}
    alloc = {c: min(int(quotas[c]), counts[c]) for c in counts}
    remaining = total - sum(alloc.values())
    order = sorted(counts, key=lambda c: (-(quotas[c] - int(quotas[c])), c))
    i = 0
    while remaining > 0:
        c = order[i % len(order)]
        if alloc[c] < counts[c]:
            alloc[c] += 1
            remaining -= 1
        i += 1
    return alloc


def subsample_balanced(
    manifests, per_corpus_counts: dict, seed: int = 0, name: str = "merged"
) -> CorpusManifest:
    """Merge class-proportional subsets of several corpora into one manifest.
    Record ids are prefixed with their corpus tag to stay unique."""
    merged = []
    for manifest in manifests:
        want = per_corpus_counts.get(manifest.name)
        if want is None:
            continue
        if want > len(manifest):
            raise NotEnoughUtterances(
                f"{manifest.name}: requested {want} of {len(manifest)} records"
            )
        by_class = _ids_by_class(manifest)
        alloc = _largest_remainder({c: len(ids) for c, ids in by_class.items()}, want)
        rng = np.random.default_rng([seed, stable_hash64(manifest.name) % (2**32)])
        for c, ids in by_class.items():
            chosen = rng.choice(len(ids), size=alloc[c], replace=False)
            for i in sorted(chosen):
                r = manifest.get(ids[i])
                merged.append(replace(r, id=f"{r.corpus}__{r.id}"))
    return CorpusManifest(name=name, records=tuple(merged))


def filter_style(manifest: CorpusManifest, style: str) -> CorpusManifest:
    if style not in STYLES:
        raise UnknownStyle(f"unknown style {style!r}")
    kept = tuple(r for r in manifest.records if r.style == style)
    return CorpusManifest(name=f"{manifest.name}.{style}", records=kept)


def check_fold(fold: Fold, manifest: CorpusManifest, apart=None, where="fold") -> None:
    """The rules every fold keeps: disjoint sides naming known original
    records only (an augmented copy follows its source, so no plan names
    one), and no value of the record field `apart`, if any, on both sides."""
    train, test = set(fold.train_ids), set(fold.test_ids)
    if train & test:
        raise LeakageError(f"{where}: train/test ids overlap")
    for utt_id in (*fold.train_ids, *fold.test_ids):
        if utt_id not in manifest:
            raise ValidationFailure(f"{where}: unknown id {utt_id!r}")
        if manifest.get(utt_id).augmented:
            raise LeakageError(f"{where}: augmented record {utt_id!r} named by the plan")
    if apart is not None:
        tr = {getattr(manifest.get(u), apart) for u in train}
        te = {getattr(manifest.get(u), apart) for u in test}
        if tr & te:
            raise ValidationFailure(f"{where}: {apart}s shared across sides")


def validate_fold_plan(plan: FoldPlan, manifest: CorpusManifest) -> None:
    """check_fold on every fold, keeping apart the field FOLD_STRATEGIES
    names for the plan's strategy (a strategy outside the table has none)."""
    _, apart = FOLD_STRATEGIES.get(plan.strategy, (None, None))
    for k, fold in enumerate(plan.folds):
        check_fold(fold, manifest, apart, f"fold {k}")
