"""Operator surface: subcommands chaining the toolkit into experiments.

Every run directory is self-describing: the resolved configuration, seeds
and package version land next to the outputs, and canonical files are
written atomically. Exit codes: 0 ok, 2 validation failure, 3 runtime
failure or out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import BLAS_THREADS, NUMPY_IMPORTED_FIRST, __version__
from .errors import CrossEmoError, ValidationFailure, from_fields
from .ioutil import atomic_write_text, csv_text, read_json, write_json


def _out_root() -> Path:
    return Path(os.environ.get("CROSSEMO_OUT_ROOT", "runs"))


def cmd_synth(args) -> int:
    from .synth import generate_corpus, load_spec

    spec = load_spec(args.spec)
    out_dir = Path(args.out) if args.out else _out_root() / f"synth-{spec.name}"
    manifest = generate_corpus(spec, out_dir)
    counts = dict(sorted(manifest.class_counts.items()))
    print(f"[crossemo] wrote {len(manifest)} utterances to {out_dir} {counts}")
    print(out_dir / "manifest.jsonl")
    return 0


def cmd_prepare(args) -> int:
    from . import corpus

    manifest = corpus.load_manifest(args.manifest)
    discards = None
    if args.label_map != "none":
        result = corpus.LABEL_MAPS[args.label_map](manifest)
        manifest, discards = result.manifest, result.discarded

    # fold options left off the command line are absent here and take
    # FoldOptions' defaults
    names = {f.name for f in fields(corpus.FoldOptions)}
    plan = corpus.make_fold_plan(manifest, **{k: v for k, v in vars(args).items() if k in names})

    out_dir = Path(args.out) if args.out else _out_root() / "prepare"
    corpus.save_manifest(manifest, out_dir / "manifest.jsonl")
    corpus.save_fold_plan(plan, out_dir / "folds.json")
    if discards is not None:
        atomic_write_text(out_dir / "discards.csv",
                          csv_text([("label", "count"), *sorted(discards.items())]))
    print(
        f"[crossemo] {len(plan.folds)} folds ({plan.strategy}) over "
        f"{len(manifest)} records -> {out_dir}"
    )
    print(out_dir / "folds.json")
    return 0


def cmd_augment(args) -> int:
    from . import augment, corpus

    manifest = corpus.load_manifest(args.manifest)
    out_dir = Path(args.out) if args.out else _out_root() / f"augment-{args.recipe}"
    expanded, outcomes = augment.augment_corpus(
        manifest, args.recipe, args.seed, out_dir, out_dir / "manifest.jsonl"
    )
    failures = sum(1 for o in outcomes if o.status != "ok")
    print(
        f"[crossemo] rendered {len(outcomes) - failures}/{len(outcomes)} variants; "
        f"expanded manifest has {len(expanded)} records"
    )
    print(out_dir / "manifest.jsonl")
    return 0 if failures == 0 else 3


def _run_training(cfg, store=None, resume: bool = False):
    """Train one fold of `cfg`, reading features from `store` (by default a
    new one over `cfg.manifest`). Returns (manifest, fold, graph, result)."""
    from .corpus import load_fold_plan, load_manifest, validate_fold_plan
    from .features import FeatureStore
    from .nn.models import build_model
    from .train import train_model

    manifest = load_manifest(cfg.manifest)
    plan = load_fold_plan(cfg.fold_plan)
    validate_fold_plan(plan, manifest)
    if not 0 <= cfg.fold_index < len(plan.folds):
        raise ValidationFailure(
            f"fold_index {cfg.fold_index} out of range for {len(plan.folds)} folds"
        )
    fold = plan.folds[cfg.fold_index]
    if store is None:
        store = FeatureStore(manifest, cfg.features, cfg.feature_cache)
    graph = build_model(cfg.arch, cfg.model, seed=cfg.seed)
    print(f"[crossemo] built {cfg.arch}: {graph.parameter_count():,} parameters")

    resolved = {**cfg.resolved_json(), "package_version": __version__, "deterministic_mode": True,
                "blas_threads": BLAS_THREADS, "numpy_imported_first": NUMPY_IMPORTED_FIRST}
    result = train_model(
        graph, manifest, fold, store, cfg.train, cfg.out_dir,
        resume=resume, fold_index=cfg.fold_index, run_config=resolved,
    )
    return manifest, fold, graph, result


def _eval_sets(paths, features, restrict_classes: bool, matched: str | None = None) -> list:
    """(manifest, feature store, restrict_classes) per path, all loaded before any is scored.
    Each writes files named after it: no two, nor one and `matched`, may share a name."""
    from .corpus import load_manifest
    from .features import FeatureStore

    manifests = [load_manifest(path) for path in paths]
    names = [m.name for m in manifests] + ([matched] if matched else [])
    if repeated := sorted({n for n in names if names.count(n) > 1}):
        raise ValidationFailure(f"more than one test set is named {', '.join(repeated)}")
    return [(m, FeatureStore(m, features), restrict_classes) for m in manifests]


def _evaluate(graph, classes, sets, out_dir: Path, train_tag: str, fold: int,
              checkpoint: str, checkpoint_epoch: int) -> list:
    """Score `graph`, loaded from `checkpoint`, on each (manifest, store,
    restrict_classes) of `sets`. Writes metrics_<tag>.json (the run record
    plus confusion and provenance) and predictions_<tag>.csv per manifest
    into `out_dir`, and returns the run records."""
    from .evaluation import evaluate_model, predictions_to_csv
    from .report import RunRecord

    records = []
    for manifest, store, restrict_classes in sets:
        result = evaluate_model(graph, classes, manifest, store, restrict_classes=restrict_classes)
        tag = manifest.name
        record = RunRecord(train_tag=train_tag, test_tag=tag, fold=fold, metrics=result.metrics)
        write_json(out_dir / f"metrics_{tag}.json", {
            **asdict(record),
            "checkpoint": checkpoint,
            "checkpoint_epoch": checkpoint_epoch,
            "restrict_classes": result.restricted,
            "classes": list(result.confusion.classes),
            "confusion": result.confusion.counts.tolist(),
        })
        atomic_write_text(out_dir / f"predictions_{tag}.csv", predictions_to_csv(result))
        print(
            f"[crossemo] {tag}: ua_eq1 {result.metrics.ua_eq1:.2f} "
            f"wa_eq2 {result.metrics.wa_eq2:.2f} "
            f"mean_class_recall {result.metrics.mean_class_recall:.2f} "
            f"overall {result.metrics.overall_accuracy:.2f}"
        )
        records.append(record)
    return records


def cmd_train(args) -> int:
    from .config import load_json_config, resolve_experiment_config

    raw = load_json_config(args.config)
    cfg = resolve_experiment_config(raw, base_dir=Path(args.config).parent)
    eval_sets = _eval_sets(cfg.eval_manifests, cfg.features, cfg.restrict_classes)
    manifest, _, graph, result = _run_training(cfg, resume=args.resume)
    print(
        f"[crossemo] trained {len(result.history)} epoch records; "
        f"best val_ua {result.best_val_ua:.2f} at epoch {result.best_epoch}"
    )
    _evaluate(graph, result.classes, eval_sets, Path(cfg.out_dir), manifest.name,
              cfg.fold_index, result.last_checkpoint, result.history[-1]["epoch"])
    print(cfg.out_dir)
    return 0


def cmd_eval(args) -> int:
    from .nn.checkpoint import graph_from_checkpoint, load_checkpoint
    from .train import CheckpointExtra

    if not Path(args.checkpoint).exists():
        raise ValidationFailure(f"checkpoint not found: {args.checkpoint}")
    data = load_checkpoint(args.checkpoint)
    graph = graph_from_checkpoint(data)
    extra = from_fields(CheckpointExtra, data.extra, "checkpoint extra")

    out_dir = Path(args.out) if args.out else _out_root() / "eval"
    sets = _eval_sets(args.manifests, extra.features, args.restrict_classes)
    _evaluate(graph, extra.classes, sets, out_dir, extra.train_tag, extra.fold,
              str(args.checkpoint), data.epoch)
    print(out_dir)
    return 0


def cmd_report(args) -> int:
    import glob as globmod

    from .report import RunRecord, build_cross_matrix, save_report

    runs = []
    for pattern in args.runs:
        for path in sorted(globmod.glob(pattern)):
            try:
                runs.append(RunRecord.from_json(read_json(path)))
            except ValidationFailure as exc:
                raise ValidationFailure(f"{path}: {exc}") from exc
    if not runs:
        raise ValidationFailure(f"no run files matched {args.runs}")
    report = build_cross_matrix(runs)
    out_dir = Path(args.out) if args.out else _out_root() / "report"
    paths = save_report(report, out_dir, metric=args.metric)
    missing = sum(1 for c in report.cells.values() if c["missing"])
    print(
        f"[crossemo] report over {len(report.models)} models x "
        f"{len(report.test_sets)} test sets ({missing} missing cells)"
    )
    print(paths["table"])
    return 0


def cmd_pipeline(args) -> int:
    """Thin driver: synth -> folds -> (augment) -> train -> eval -> report
    from one config file."""
    from . import corpus
    from .augment import augment_corpus, get_recipe
    from .config import PipelineSections, load_json_config, resolve_experiment_config
    from .features import FeatureStore
    from .report import build_cross_matrix, save_report
    from .synth import corpus_manifest, generate_corpus

    raw = load_json_config(args.config)
    base_dir = Path(args.config).parent
    own = {f.name for f in fields(PipelineSections)}
    sections = from_fields(PipelineSections, {k: v for k, v in raw.items() if k in own}, "pipeline")
    # paths in `raw` are relative to base_dir; joining keeps an absolute one as it is
    run_dir = Path(_out_root() / "pipeline" if sections.out_dir is None else sections.out_dir)
    out_dir = base_dir / run_dir
    augment = sections.augment
    manifest_file = "manifest.jsonl" if augment is None else "manifest.augmented.jsonl"
    # the rest of the config is one `crossemo train` reads over the files
    # written below. It, the corpus, the fold plan, the augmentation recipe
    # and the test sets are all checked before any work, so a synthetic
    # corpus is rendered only once they pass
    run_raw = {k: v for k, v in raw.items() if k not in own}
    if ignored := sorted({"fold_plan", "fold_index"} & set(run_raw)):
        raise ValidationFailure(f"the pipeline plans its own folds; drop {', '.join(ignored)}")
    run_raw["manifest"] = str(run_dir / manifest_file)
    run_raw["fold_plan"] = str(run_dir / "folds.json")
    run_raw["out_dir"] = str(run_dir)
    cfg = resolve_experiment_config(run_raw, base_dir=base_dir)

    if (spec := sections.synth) is not None:
        corpus_dir = out_dir / f"corpus-{spec.name}"
        manifest = corpus_manifest(spec, corpus_dir)
    elif sections.manifest is not None:
        manifest = corpus.load_manifest(base_dir / sections.manifest)
    else:
        raise ValidationFailure("pipeline config needs either 'synth' or 'manifest'")
    plan = corpus.make_fold_plan(manifest, **asdict(sections.folds))
    every_fold = range(len(plan.folds))
    fold_indices = every_fold if sections.fold_indices is None else sections.fold_indices
    if len(set(fold_indices)) < len(fold_indices) or not set(fold_indices) <= set(every_fold):
        raise ValidationFailure(f"fold_indices {list(fold_indices)} must name distinct folds "
                                f"of the {len(plan.folds)} in the plan")
    eval_sets = _eval_sets(cfg.eval_manifests, cfg.features, cfg.restrict_classes, manifest.name)
    if augment is not None:
        get_recipe(augment.recipe)

    if spec is not None:
        generate_corpus(spec, corpus_dir)
    corpus.save_manifest(manifest, out_dir / "manifest.jsonl")
    corpus.save_fold_plan(plan, out_dir / "folds.json")
    if augment is not None:
        # the plan names originals; training adds each copy where its source fits
        manifest, _ = augment_corpus(
            manifest, augment.recipe, augment.seed, out_dir / "augment", out_dir / manifest_file,
        )

    # one store per manifest, shared by every fold: each utterance's
    # features are computed once per pipeline
    store = FeatureStore(manifest, cfg.features, cfg.feature_cache)

    runs = []
    for fold_index in fold_indices:
        fold_cfg = replace(cfg, fold_index=fold_index, out_dir=str(out_dir / f"fold{fold_index}"))
        _, fold, graph, result = _run_training(fold_cfg, store)

        # matched: the fold's own test side, scored over every trained class
        matched = corpus.CorpusManifest(
            name=manifest.name, records=tuple(manifest.get(u) for u in fold.test_ids)
        )
        runs += _evaluate(graph, result.classes, [(matched, store, False), *eval_sets],
                          Path(fold_cfg.out_dir), manifest.name, fold_index,
                          result.last_checkpoint, result.history[-1]["epoch"])

    report = build_cross_matrix(runs)
    paths = save_report(report, out_dir / "report")
    print(f"[crossemo] pipeline complete -> {out_dir}")
    print(paths["table"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .corpus import LABEL_MAPS

    parser = argparse.ArgumentParser(
        prog="crossemo",
        description="Cross-corpus speech emotion recognition experiment toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"crossemo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="map labels and build a fold plan")
    p.add_argument("--manifest", required=True)
    p.add_argument("--label-map", choices=("none", *LABEL_MAPS), default="none")
    p.add_argument("--strategy", required=True)
    p.add_argument("--n-folds", type=int, default=argparse.SUPPRESS)
    p.add_argument("--test-speakers", type=int, default=argparse.SUPPRESS)
    p.add_argument("--test-fraction", type=float, default=argparse.SUPPRESS)
    p.add_argument("--reverse-sessions", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("augment", help="plan and render an augmentation recipe")
    p.add_argument("--manifest", required=True)
    p.add_argument("--recipe", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train a model from an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on test manifests; the front-end, "
                       "classes, train tag and fold are read from the checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifests", nargs="+", required=True)
    p.add_argument("--restrict-classes", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="assemble a cross-corpus report from run files")
    p.add_argument("--runs", nargs="+", required=True, help="glob patterns of run JSON files")
    p.add_argument("--metric", default="ua_eq1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="chain synth/prepare/augment/train/eval/report")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CrossEmoError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the allocation's size, shape and dtype
        print(f"runtime error: out of memory: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
