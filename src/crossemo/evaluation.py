"""Metrics, confusion matrices, fold aggregation, and model evaluation.

Four metric variants are always reported side by side:

* ua_eq1 -- one-vs-rest accuracy (tp+tn)/(tp+tn+fp+fn), macro-averaged over
  classes for more than two classes;
* wa_eq2 -- one-vs-rest balanced accuracy 0.5*(tp/(tp+fn) + tn/(tn+fp)),
  macro-averaged likewise;
* mean_class_recall -- average of per-class recall (the conventional
  "unweighted accuracy" of the SER literature);
* overall_accuracy -- trace/total.

The variants disagree on imbalanced data, so every report carries all four
and names the one being displayed.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ClassSetMismatch, EmptyMatrix, UnknownLabel


@dataclass(frozen=True)
class ConfusionMatrix:
    classes: tuple
    counts: np.ndarray  # rows = true, cols = predicted

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.classes)
        if counts.shape != (n, n):
            raise EmptyMatrix(f"counts {counts.shape} for {n} classes")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_from_predictions(pairs, classes) -> ConfusionMatrix:
    """Exact counting of (true, predicted) pairs over an ordered class list."""
    classes = tuple(classes)
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for true, pred in pairs:
        if true not in index:
            raise UnknownLabel(f"true label {true!r} not in {classes}")
        if pred not in index:
            raise UnknownLabel(f"predicted label {pred!r} not in {classes}")
        counts[index[true], index[pred]] += 1
    return ConfusionMatrix(classes, counts)


def binary_reduce(cm: ConfusionMatrix, cls) -> tuple:
    """One-vs-rest (tp, tn, fp, fn) for one class."""
    if cls not in cm.classes:
        raise UnknownLabel(f"{cls!r} not in {cm.classes}")
    i = cm.classes.index(cls)
    tp = int(cm.counts[i, i])
    fn = int(cm.counts[i, :].sum() - tp)
    fp = int(cm.counts[:, i].sum() - tp)
    tn = int(cm.total - tp - fn - fp)
    return tp, tn, fp, fn


def _require_counts(cm: ConfusionMatrix) -> None:
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no counts")


def ua_eq1(cm: ConfusionMatrix) -> float:
    """Percent. Binary: (tp+tn)/(tp+tn+fp+fn) exactly; otherwise the
    macro-average of that quantity over one-vs-rest reductions."""
    _require_counts(cm)
    values = []
    for cls in cm.classes:
        tp, tn, fp, fn = binary_reduce(cm, cls)
        values.append((tp + tn) / (tp + tn + fp + fn))
    return 100.0 * float(np.mean(values))


def wa_eq2(cm: ConfusionMatrix) -> float:
    """Percent. Binary: 0.5*(tp/(tp+fn) + tn/(tn+fp)) exactly; otherwise the
    macro-average over one-vs-rest reductions. Classes absent from the truth
    are skipped with a warning."""
    _require_counts(cm)
    values = []
    for cls in cm.classes:
        tp, tn, fp, fn = binary_reduce(cm, cls)
        if tp + fn == 0 or tn + fp == 0:
            warnings.warn(f"class {cls!r} degenerate in wa_eq2; skipped", stacklevel=2)
            continue
        values.append(0.5 * (tp / (tp + fn) + tn / (tn + fp)))
    if not values:
        raise EmptyMatrix("every class degenerate in wa_eq2")
    return 100.0 * float(np.mean(values))


def conventional_metrics(cm: ConfusionMatrix) -> tuple:
    """(mean class recall, overall accuracy), both percent. Classes with no
    true instances are skipped from the recall average with a warning."""
    _require_counts(cm)
    recalls = []
    for i, cls in enumerate(cm.classes):
        row = cm.counts[i, :].sum()
        if row == 0:
            warnings.warn(f"class {cls!r} has no true instances; skipped", stacklevel=2)
            continue
        recalls.append(cm.counts[i, i] / row)
    if not recalls:
        raise EmptyMatrix("no class has true instances")
    mean_recall = 100.0 * float(np.mean(recalls))
    overall = 100.0 * float(np.trace(cm.counts)) / cm.total
    return mean_recall, overall


@dataclass(frozen=True)
class MetricSet:
    ua_eq1: float
    wa_eq2: float
    mean_class_recall: float
    overall_accuracy: float

    def to_json(self) -> dict:
        return asdict(self)


METRIC_KEYS = tuple(f.name for f in fields(MetricSet))


def metric_set(cm: ConfusionMatrix) -> MetricSet:
    recall, overall = conventional_metrics(cm)
    return MetricSet(
        ua_eq1=ua_eq1(cm),
        wa_eq2=wa_eq2(cm),
        mean_class_recall=recall,
        overall_accuracy=overall,
    )


def aggregate_folds(values) -> tuple:
    """(mean, population std); std is None for a single fold."""
    values = [float(v) for v in values]
    if not values:
        raise EmptyMatrix("no fold values to aggregate")
    mean = float(np.mean(values))
    std = float(np.std(values)) if len(values) >= 2 else None
    return mean, std


@dataclass(frozen=True)
class Prediction:
    utt_id: str
    true: str
    predicted: str
    scores: dict


@dataclass(frozen=True)
class EvalResult:
    confusion: ConfusionMatrix
    metrics: MetricSet
    predictions: tuple
    restricted: bool


def batched_logits(graph, store, ids, batch_size: int = 64):
    """Eval-mode forward over `ids`, `batch_size` utterances at a time.
    Yields (batch ids, logits array) per batch."""
    graph.set_mode("eval")
    for start in range(0, len(ids), batch_size):
        chunk = list(ids[start : start + batch_size])
        yield chunk, graph.forward(store.batch(chunk)).data


def evaluate_model(
    graph,
    classes,
    manifest,
    store,
    restrict_classes: bool = False,
    batch_size: int = 64,
) -> EvalResult:
    """Eval-mode argmax over the checkpoint's classes.

    When the test corpus lacks some class, default mode keeps the full
    argmax: predictions of absent classes count as errors. With
    `restrict_classes` the argmax runs over the classes present in the test
    manifest only, which must be a subset of the checkpoint's classes.
    """
    classes = tuple(classes)
    present = tuple(sorted({r.emotion for r in manifest.records if r.emotion}))
    missing = [c for c in present if c not in classes]
    if missing:
        raise ClassSetMismatch(
            f"test classes {missing} absent from checkpoint classes {classes}"
        )
    allowed = [i for i, c in enumerate(classes) if c in present or not restrict_classes]

    ids = [r.id for r in manifest.records]
    labels = manifest.labels_by_id()
    predictions = []
    for chunk, logits in batched_logits(graph, store, ids, batch_size):
        sub = logits[:, allowed]
        for utt_id, row, subrow in zip(chunk, logits, sub):
            pred = classes[allowed[int(np.argmax(subrow))]]
            scores = {c: float(row[i]) for i, c in enumerate(classes)}
            predictions.append(Prediction(utt_id, labels[utt_id], pred, scores))
    pairs = [(p.true, p.predicted) for p in predictions]
    cm = confusion_from_predictions(pairs, tuple(classes[i] for i in allowed))
    return EvalResult(
        confusion=cm,
        metrics=metric_set(cm),
        predictions=tuple(predictions),
        restricted=restrict_classes,
    )


def predictions_to_csv(result: EvalResult) -> str:
    header_classes = result.predictions[0].scores.keys() if result.predictions else []
    header = "utt_id,true,predicted," + ",".join(f"score_{c}" for c in header_classes)
    lines = [header]
    for p in result.predictions:
        scores = ",".join(f"{p.scores[c]:.6f}" for c in p.scores)
        lines.append(f"{p.utt_id},{p.true},{p.predicted},{scores}")
    return "\n".join(lines) + "\n"
