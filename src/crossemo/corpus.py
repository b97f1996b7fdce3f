"""Manifest ingestion, label mapping, fold construction and subsetting.

Manifests are JSON-lines: one utterance record per line, snake_case keys,
with an optional leading header line carrying the schema version. Each row
is read by `errors.from_fields` as an UtteranceRecord (the header as a
ManifestHeader): an unknown, missing or mistyped key exits 2. A record is
written as its `asdict` without the optional fields at their default.
Manifest objects are immutable after load; fold plans are plain id
partitions, each side sorted, that a checker can re-validate before
training.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ValidationFailure, from_fields
from .ioutil import read_json, read_jsonl, stable_hash64, write_json, write_jsonl

MANIFEST_SCHEMA_VERSION = 1

STYLES = ("acted", "elicited-scripted", "elicited-improvised", "natural")
EMOTIONS_4 = ("angry", "happy", "sad", "neutral")
MOSEI_EMOTIONS = ("anger", "disgust", "fear", "happiness", "sadness", "surprise")
MOSEI_TARGETS = {"anger": "angry", "happiness": "happy", "sadness": "sad"}


@dataclass(frozen=True)
class UtteranceRecord:
    id: str
    audio_path: str
    corpus: str
    speaker: str
    style: str
    session: str | None = None
    raw_labels: dict[str, float] = field(default_factory=dict)
    emotion: str | None = None
    augmented: bool = False
    source_id: str | None = None

    def __post_init__(self):
        if self.style not in STYLES:
            raise ValidationFailure(f"record {self.id!r}: unknown style {self.style!r}")


# optional record field -> its default; a row leaves out a field at its default
_RECORD_DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default
    for f in fields(UtteranceRecord)
    if f.default is not MISSING or f.default_factory is not MISSING
}


@dataclass(frozen=True)
class ManifestHeader:
    manifest_schema: int
    name: str | None = None


@dataclass(frozen=True)
class CorpusManifest:
    name: str
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise ValidationFailure(f"duplicate utterance id {r.id!r}")
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
    rejected, and so is a header anywhere but the first row. The manifest
    name comes from the header when present, else the uniform corpus tag,
    else the file stem."""
    header_name = None
    records = []
    for n, row in enumerate(read_jsonl(path)):
        if not isinstance(row, dict):
            raise ValidationFailure(f"{path}: manifest row {row!r} is not an object")
        if "manifest_schema" in row and "id" not in row:
            if n:
                raise ValidationFailure(f"{path}: a manifest header after {n} rows; "
                                        "it may only be the first")
            header = from_fields(ManifestHeader, row, f"{path}: manifest header")
            if header.manifest_schema != MANIFEST_SCHEMA_VERSION:
                raise ValidationFailure(f"unsupported manifest schema {header.manifest_schema!r}")
            header_name = header.name
            continue
        records.append(from_fields(UtteranceRecord, row, f"{path}: record {row.get('id')!r}"))
    corpora = {r.corpus for r in records}
    if header_name:
        name = header_name
    elif len(corpora) == 1:
        name = next(iter(corpora))
    else:
        name = Path(path).stem
    return CorpusManifest(name=name, records=tuple(records))


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write the header, then each record's fields that differ from their
    defaults. The fields are read as they are, not copied as `asdict`
    would copy them."""
    rows = [asdict(ManifestHeader(MANIFEST_SCHEMA_VERSION, manifest.name))]
    names = [f.name for f in fields(UtteranceRecord)]
    for r in manifest.records:
        rows.append({k: v for k in names
                     if (v := getattr(r, k)) != _RECORD_DEFAULTS.get(k, MISSING)})
    write_jsonl(path, rows)


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
    raise ValidationFailure(f"record {record.id!r} carries no label")


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

    @classmethod
    def from_json(cls, obj: dict) -> "FoldPlan":
        # kept, unlike the other codecs, to skip the key save_fold_plan adds
        return from_fields(cls, obj, "fold plan", ignore=("schema_version",))


def save_fold_plan(plan: FoldPlan, path: str | Path) -> None:
    write_json(path, {"schema_version": 1, **asdict(plan)})


def load_fold_plan(path: str | Path) -> FoldPlan:
    return FoldPlan.from_json(read_json(path))


def _fold(manifest: CorpusManifest, on_test_side) -> Fold:
    """The fold whose test side holds the records `on_test_side` accepts;
    each side's ids sorted."""
    test = {r.id for r in manifest.records if on_test_side(r)}
    train = (r.id for r in manifest.records if r.id not in test)
    return Fold(tuple(sorted(train)), tuple(sorted(test)))


def make_folds_speaker_rotation(
    manifest: CorpusManifest, n_folds: int = 5, test_speakers: int = 5
) -> FoldPlan:
    """Rotate a sorted speaker list: fold k tests speakers
    [k*test_speakers, k*test_speakers + test_speakers) with wrap-around."""
    speakers = manifest.speakers
    if len(speakers) <= test_speakers:
        raise ValidationFailure(
            f"need more than {test_speakers} speakers, found {len(speakers)}"
        )
    folds = []
    for k in range(n_folds):
        test_set = {speakers[(k * test_speakers + i) % len(speakers)] for i in range(test_speakers)}
        folds.append(_fold(manifest, lambda r: r.speaker in test_set))
    return FoldPlan(strategy="speaker-rotation", folds=tuple(folds))


def make_folds_session_holdout(
    manifest: CorpusManifest, reverse_order: bool = False
) -> FoldPlan:
    """Leave-one-session-out: fold k tests the k-th session in lexicographic
    order (last-first when reverse_order)."""
    for r in manifest.records:
        if r.session is None:
            raise ValidationFailure(f"record {r.id!r} has no session")
    sessions = sorted({r.session for r in manifest.records})
    if reverse_order:
        sessions = sessions[::-1]
    folds = tuple(_fold(manifest, lambda r: r.session == held_out) for held_out in sessions)
    return FoldPlan(strategy="session-holdout", folds=folds)


def _ids_by_class(manifest: CorpusManifest) -> dict:
    by_class: dict[str, list] = {}
    for r in manifest.records:
        if r.emotion is None:
            raise ValidationFailure(f"record {r.id!r} has no emotion; map labels first")
        by_class.setdefault(r.emotion, []).append(r.id)
    if not by_class:
        raise ValidationFailure("manifest has no labeled records")
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
        folds.append(_fold(manifest, lambda r: r.id in test))
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
        raise ValidationFailure(f"requested {total} from {n} available")
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
            raise ValidationFailure(
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
        raise ValidationFailure(f"unknown style {style!r}")
    kept = tuple(r for r in manifest.records if r.style == style)
    return CorpusManifest(name=f"{manifest.name}.{style}", records=kept)


def check_fold(fold: Fold, manifest: CorpusManifest, apart=None, where="fold") -> None:
    """The rules every fold keeps: disjoint sides naming known original
    records only (an augmented copy follows its source, so no plan names
    one), and no value of the record field `apart`, if any, on both sides."""
    train, test = set(fold.train_ids), set(fold.test_ids)
    if train & test:
        raise ValidationFailure(f"{where}: train/test ids overlap")
    for utt_id in (*fold.train_ids, *fold.test_ids):
        if utt_id not in manifest:
            raise ValidationFailure(f"{where}: unknown id {utt_id!r}")
        if manifest.get(utt_id).augmented:
            raise ValidationFailure(f"{where}: augmented record {utt_id!r} named by the plan")
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
