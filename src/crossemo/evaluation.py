"""Metrics, confusion matrices, fold aggregation, and model evaluation.

`one_vs_rest` reduces a confusion matrix to per-class (tp, tn, fp, fn)
arrays once, and `metric_set` computes four variants from them, always
reported side by side:

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
from dataclasses import dataclass, fields

import numpy as np

from .errors import ClassSetMismatch, EmptyMatrix, RuntimeFailure, UnknownLabel

# utterances per eval-mode forward, in evaluation and in training's validation
EVAL_BATCH = 64


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


def one_vs_rest(cm: ConfusionMatrix) -> tuple:
    """One-vs-rest (tp, tn, fp, fn), each an int64 array in class order."""
    tp = np.diag(cm.counts)
    fn = cm.counts.sum(axis=1) - tp
    fp = cm.counts.sum(axis=0) - tp
    tn = cm.total - tp - fn - fp
    return tp, tn, fp, fn


@dataclass(frozen=True)
class MetricSet:
    ua_eq1: float
    wa_eq2: float
    mean_class_recall: float
    overall_accuracy: float


METRIC_KEYS = tuple(f.name for f in fields(MetricSet))


def _skip(cm: ConfusionMatrix, keep: np.ndarray, message: str) -> None:
    for cls, kept in zip(cm.classes, keep):
        if not kept:
            warnings.warn(message.format(cls=cls), stacklevel=3)


def metric_set(cm: ConfusionMatrix) -> MetricSet:
    """All four variants, in percent, from one one-vs-rest reduction. Each
    macro-average runs over the classes in order. Classes with no true
    instances leave mean_class_recall, and classes without both a positive
    and a negative leave wa_eq2, each with a warning."""
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no counts")
    tp, tn, fp, fn = one_vs_rest(cm)
    true = tp + fn
    has_true = true > 0
    _skip(cm, has_true, "class {cls!r} has no true instances; skipped")
    if not has_true.any():
        raise EmptyMatrix("no class has true instances")
    two_sided = has_true & (tn + fp > 0)
    _skip(cm, two_sided, "class {cls!r} degenerate in wa_eq2; skipped")
    if not two_sided.any():
        raise EmptyMatrix("every class degenerate in wa_eq2")
    tp2, tn2, fp2, fn2 = (a[two_sided] for a in (tp, tn, fp, fn))
    return MetricSet(
        ua_eq1=100.0 * float(np.mean((tp + tn) / (tp + tn + fp + fn))),
        wa_eq2=100.0 * float(np.mean(0.5 * (tp2 / (tp2 + fn2) + tn2 / (tn2 + fp2)))),
        mean_class_recall=100.0 * float(np.mean(tp[has_true] / true[has_true])),
        overall_accuracy=100.0 * float(tp.sum()) / cm.total,
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


def batched_logits(graph, store, ids):
    """Eval-mode forward over `ids`, EVAL_BATCH utterances at a time.
    Yields (batch ids, logits array) per batch. A logit that is not finite
    raises RuntimeFailure: its argmax would be a prediction of nothing."""
    graph.set_mode("eval")
    for start in range(0, len(ids), EVAL_BATCH):
        chunk = list(ids[start : start + EVAL_BATCH])
        logits = graph.forward(store.batch(chunk)).data
        if not np.isfinite(logits).all():
            raise RuntimeFailure(f"non-finite logits in eval batch {start // EVAL_BATCH} "
                                 f"({chunk[0]} .. {chunk[-1]})")
        yield chunk, logits


def evaluate_model(graph, classes, manifest, store, restrict_classes: bool = False) -> EvalResult:
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
    for chunk, logits in batched_logits(graph, store, ids):
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
