"""Adam training loop with plateau learning-rate reduction.

A fold plan names original records only. Training carves validation from
the fold's train side and fits on the rest plus each augmented copy of the
manifest whose source it holds: a copy of a validation or test utterance
never trains.

A run is deterministic given (config, seed): per-epoch shuffles and dropout
masks are seeded from (seed, epoch), so an epoch-boundary resume replays
exactly the stream a straight run would have produced. Each epoch is
committed by one atomic write of checkpoint_last.bin, which holds the
weights, the Adam moments and the run state (step count, plateau, best
validation, history), so a crash at any point leaves the last committed
epoch to resume from. history.jsonl is a view derived from that commit:
rewritten after it, one JSON line per epoch: {epoch, train_loss, val_ua,
val_wa, lr}. The best-validation checkpoint is kept next to it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import CorpusManifest, Fold, check_fold
from .errors import (
    CheckpointMismatch,
    DivergedLoss,
    EmptyTrainSet,
    ShapeMismatch,
    TooFewPerClass,
    ValidationFailure,
    from_fields,
)
from .evaluation import batched_logits, confusion_from_predictions, metric_set
from .features import FbankConfig
from .ioutil import stable_hash64, write_json, write_jsonl
from .nn.checkpoint import check_arrays, load_checkpoint, load_into_graph, save_checkpoint
from .nn.models import ModelGraph
from .nn.ops import softmax_cross_entropy


# the paper's Adam (Kingma & Ba, arXiv:1412.6980), plateau schedule (see
# plateau_update) and share of each class held out of the train side for validation
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PLATEAU_PATIENCE = 4
PLATEAU_FACTOR = 0.8
PLATEAU_MIN_DELTA = 1e-6
LR_FLOOR = 1e-7
VALIDATION_FRACTION = 0.1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-4
    batch_size: int = 186
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValidationFailure("epochs, batch_size, learning_rate must be positive")


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def moments(self) -> dict:
        """`m::<param>` and `v::<param>`, as a checkpoint stores them."""
        return {f"{p}::{k}": a for p, d in (("m", self.m), ("v", self.v)) for k, a in d.items()}


def adam_step(params: dict, state: AdamState, lr: float) -> None:
    """One Adam update from the gradients stored on the parameters.
    Parameters without a gradient this step are left untouched."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"{name}: gradient {g.shape} vs parameter {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class PlateauState:
    lr: float
    best: float = -np.inf
    stall: int = 0


def plateau_update(state: PlateauState, val_metric: float) -> PlateauState:
    """Higher-is-better metric. An improvement beyond PLATEAU_MIN_DELTA
    resets the stall counter; once the counter reaches PLATEAU_PATIENCE the
    learning rate is multiplied by PLATEAU_FACTOR (floored at LR_FLOOR) and
    the counter resets. The rate never increases."""
    if val_metric > state.best + PLATEAU_MIN_DELTA:
        return PlateauState(lr=state.lr, best=val_metric, stall=0)
    stall = state.stall + 1
    if stall >= PLATEAU_PATIENCE:
        return PlateauState(
            lr=max(state.lr * PLATEAU_FACTOR, LR_FLOOR), best=state.best, stall=0
        )
    return PlateauState(lr=state.lr, best=state.best, stall=stall)


@dataclass(frozen=True)
class RunState:
    """What a resume continues from, besides the weights and Adam moments."""

    adam_t: int
    plateau: PlateauState
    best_val: float
    best_epoch: int
    history: tuple[dict[str, float], ...]


@dataclass(frozen=True)
class CheckpointExtra:
    """The `extra` of every checkpoint train_model writes: all an evaluation
    needs, plus in the last checkpoint the run state a resume needs."""

    classes: tuple[str, ...]
    train_tag: str
    fold: int
    features: FbankConfig
    run: RunState | None = None

    def __post_init__(self):
        if not self.classes:
            raise ValidationFailure("checkpoint extra has an empty class list")


def carve_validation(ids, labels_by_id: dict, fraction: float, seed: int):
    """Class-proportional validation split of the training side. Every class
    contributes at least one utterance to each side."""
    by_class: dict[str, list] = {}
    for utt_id in ids:
        by_class.setdefault(labels_by_id[utt_id], []).append(utt_id)
    fit, val = [], []
    for cls in sorted(by_class):
        members = sorted(by_class[cls])
        if len(members) < 2:
            raise TooFewPerClass(
                f"class {cls!r} has {len(members)} utterance(s); need >= 2 "
                "to carve a validation split"
            )
        n_val = int(round(len(members) * fraction))
        n_val = min(max(n_val, 1), len(members) - 1)
        rng = np.random.default_rng([seed, stable_hash64(cls) % 2**32])
        chosen = set(rng.choice(len(members), size=n_val, replace=False).tolist())
        for i, utt_id in enumerate(members):
            (val if i in chosen else fit).append(utt_id)
    return tuple(fit), tuple(val)


def iter_batches(ids, batch_size: int, rng: np.random.Generator):
    """Seeded shuffle, then contiguous batches; the final short batch is kept."""
    order = np.array(ids, dtype=object)
    rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        yield list(order[start : start + batch_size])


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_val_ua: float
    classes: tuple
    best_checkpoint: str
    last_checkpoint: str
    fit_ids: tuple
    val_ids: tuple


def predict_ids(graph: ModelGraph, store, ids, classes):
    """Eval-mode argmax predictions: list of (id, predicted class)."""
    return [
        (utt_id, classes[int(np.argmax(row))])
        for chunk, logits in batched_logits(graph, store, ids)
        for utt_id, row in zip(chunk, logits)
    ]


def train_model(
    graph: ModelGraph,
    manifest: CorpusManifest,
    fold: Fold,
    store,
    cfg: TrainConfig,
    out_dir: str | Path,
    resume: bool = False,
    fold_index: int = 0,
    run_config: dict | None = None,
) -> TrainResult:
    """Train `graph` on the fold's train side and the augmented copies of its
    fit part; the test side is only checked by check_fold. Checkpoints hold a
    CheckpointExtra. `run_config` is written as config.resolved.json once a
    resume is accepted, or before the first epoch of a fresh run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not fold.train_ids:
        raise EmptyTrainSet("fold has no training utterances")
    check_fold(fold, manifest)

    labels = manifest.labels_by_id()
    train = set(fold.train_ids)
    copies = sorted(r.id for r in manifest.records if r.augmented and r.source_id in train)
    for utt_id in (*fold.train_ids, *copies):
        if labels.get(utt_id) is None:
            raise ValidationFailure(f"record {utt_id!r} has no emotion label")

    fit_ids, val_ids = carve_validation(fold.train_ids, labels, VALIDATION_FRACTION, cfg.seed)
    val_set = set(val_ids)
    fit_ids += tuple(u for u in copies if manifest.get(u).source_id not in val_set)

    classes = tuple(sorted({labels[u] for u in (*fold.train_ids, *copies)}))
    class_index = {c: i for i, c in enumerate(classes)}

    adam = AdamState(graph.params)
    plateau = PlateauState(lr=cfg.learning_rate)
    history: list = []
    best_val = -np.inf
    best_epoch = 0
    start_epoch = 1

    best_path = str(out_dir / "checkpoint_best.bin")
    last_path = str(out_dir / "checkpoint_last.bin")
    history_path = out_dir / "history.jsonl"
    extra = CheckpointExtra(classes, manifest.name, fold_index, store.cfg)

    if resume and Path(last_path).exists():
        data = load_checkpoint(last_path, expect_digest=graph.digest)
        stored = from_fields(CheckpointExtra, data.extra, "checkpoint extra")
        for name in ("classes", "fold", "features"):
            if getattr(stored, name) != getattr(extra, name):
                raise CheckpointMismatch(
                    f"{last_path} was trained with {name} {getattr(stored, name)!r}, "
                    f"not {getattr(extra, name)!r}"
                )
        run = stored.run
        if run is None:
            raise CheckpointMismatch(f"{last_path} holds no training state to resume from")
        load_into_graph(graph, data)
        check_arrays("optimizer state", adam.moments(), data.state)
        adam.m, adam.v = ({k: data.state[f"{p}::{k}"] for k in graph.params} for p in "mv")
        adam.t, plateau = run.adam_t, run.plateau
        best_val, best_epoch, history = run.best_val, run.best_epoch, list(run.history)
        start_epoch = data.epoch + 1
        # a crash between a commit and its history write left the view behind
        write_jsonl(history_path, history)
    if run_config is not None:
        write_json(out_dir / "config.resolved.json", run_config)

    for epoch in range(start_epoch, cfg.epochs + 1):
        rng_shuffle = np.random.default_rng([cfg.seed, epoch, 0])
        rng_dropout = np.random.default_rng([cfg.seed, epoch, 1])
        graph.set_mode("train")
        losses = []
        for batch_ids in iter_batches(fit_ids, cfg.batch_size, rng_shuffle):
            feats = store.batch(batch_ids)
            targets = np.array([class_index[labels[u]] for u in batch_ids])
            graph.zero_grad()
            logits = graph.forward(feats, dropout_rng=rng_dropout)
            loss = softmax_cross_entropy(logits, targets)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                write_json(
                    out_dir / "diverged_state.json",
                    {"epoch": epoch, "lr": plateau.lr, "batch_ids": batch_ids,
                     "loss": repr(loss_value)},
                )
                raise DivergedLoss(
                    f"non-finite loss at epoch {epoch}; state dumped to "
                    f"{out_dir / 'diverged_state.json'}"
                )
            loss.backward()
            adam_step(graph.params, adam, plateau.lr)
            losses.append(loss_value)

        preds = predict_ids(graph, store, val_ids, classes)
        pairs = [(labels[u], p) for u, p in preds]
        cm = confusion_from_predictions(pairs, classes)
        metrics = metric_set(cm)
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "val_ua": metrics.ua_eq1,
            "val_wa": metrics.wa_eq2,
            "lr": plateau.lr,
        }
        history.append(record)

        if metrics.ua_eq1 > best_val:
            best_val = metrics.ua_eq1
            best_epoch = epoch
            save_checkpoint(graph, best_path, epoch, asdict(extra))
        plateau = plateau_update(plateau, metrics.ua_eq1)
        run = RunState(adam.t, plateau, best_val, best_epoch, tuple(history))
        save_checkpoint(graph, last_path, epoch, asdict(replace(extra, run=run)), adam.moments())
        write_jsonl(history_path, history)

    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_ua=float(best_val),
        classes=classes,
        best_checkpoint=best_path,
        last_checkpoint=last_path,
        fit_ids=fit_ids,
        val_ids=val_ids,
    )
