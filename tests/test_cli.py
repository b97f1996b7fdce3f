"""The `crossemo` subcommands driven through `main([...])` on a tiny
synthetic corpus with the desk-scale model and one epoch."""

import argparse
import ast
import builtins
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import crossemo
from crossemo import corpus, errors, features
from crossemo.cli import build_parser, main
from crossemo.features import compute_features
from crossemo.ioutil import sha256_file, write_json
from crossemo.nn import ops
from crossemo.synth import SynthCorpusSpec, derive_shifted_corpus, generate_corpus


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """16 utterances (2 speakers x 4 classes x 2), a copy with one session
    per speaker, and a 4-utterance timbre-shifted sibling."""
    root = tmp_path_factory.mktemp("cli")
    spec = SynthCorpusSpec(
        name="tiny", n_speakers=2, utterances_per_class_per_speaker=2,
        duration_range=(0.6, 0.7), seed=3,
    )
    manifest = generate_corpus(spec, root / "tiny")
    sessions = corpus.CorpusManifest(
        "tiny", tuple(replace(r, session=r.speaker) for r in manifest.records)
    )
    corpus.save_manifest(sessions, root / "sessions.jsonl")
    shifted = replace(
        derive_shifted_corpus(spec, 0.25, name="tiny-shift"),
        n_speakers=1, utterances_per_class_per_speaker=1,
    )
    generate_corpus(shifted, root / "shift")
    return {
        "root": root,
        "manifest": root / "tiny" / "manifest.jsonl",
        "sessions": root / "sessions.jsonl",
        "shift": root / "shift" / "manifest.jsonl",
    }


@pytest.fixture(scope="module")
def prepared(tiny):
    """A split-80-20 plan of the tiny corpus: the `manifest`/`fold_plan` keys."""
    prep = tiny["root"] / "prep"
    assert run("prepare", "--manifest", tiny["manifest"], "--strategy", "split-80-20",
               "--seed", 1, "--out", prep) == 0
    return {"manifest": str(prep / "manifest.jsonl"), "fold_plan": str(prep / "folds.json")}


@pytest.fixture(scope="module")
def trained(tiny, prepared):
    """The prepared fold trained for one epoch: the run directory."""
    root = tiny["root"]
    write_json(root / "train.json", {
        "profile": "desk-scale", **prepared, "train": {"epochs": 1}, "out_dir": str(root / "train"),
    })
    assert run("train", "--config", root / "train.json") == 0
    return root / "train"


@pytest.mark.parametrize(
    "strategy, manifest_key, argv, opts, n_folds",
    [
        ("speaker-rotation", "manifest", ["--n-folds", 2, "--test-speakers", 1],
         {"n_folds": 2, "test_speakers": 1}, 2),
        ("session-holdout", "sessions", ["--reverse-sessions"],
         {"reverse_sessions": True}, 2),
        ("proportional", "manifest", ["--n-folds", 3, "--test-fraction", 0.25, "--seed", 4],
         {"n_folds": 3, "test_fraction": 0.25, "seed": 4}, 3),
        ("split-80-20", "manifest", ["--seed", 2], {"seed": 2}, 1),
    ],
)
def test_prepare_strategies(tiny, tmp_path, strategy, manifest_key, argv, opts, n_folds):
    assert run("prepare", "--manifest", tiny[manifest_key], "--strategy", strategy,
               *argv, "--out", tmp_path) == 0
    written = corpus.load_fold_plan(tmp_path / "folds.json")
    expected = corpus.make_fold_plan(corpus.load_manifest(tiny[manifest_key]), strategy, **opts)
    assert len(written.folds) == n_folds
    assert written == expected


def test_prepare_unknown_strategy(tiny, tmp_path):
    assert run("prepare", "--manifest", tiny["manifest"], "--strategy", "by-moon-phase",
               "--out", tmp_path) == 2


def test_augment(tiny, tmp_path):
    assert run("augment", "--manifest", tiny["manifest"], "--recipe", "volume",
               "--out", tmp_path) == 0
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 16
    assert all(",ok," in line for line in summary[1:])
    assert len(corpus.load_manifest(tmp_path / "manifest.jsonl")) == 32
    assert (tmp_path / "plan.json").exists()


def test_augment_missing_wav_exits_3(tiny, tmp_path):
    manifest = corpus.load_manifest(tiny["manifest"])
    broken = replace(manifest.records[0], audio_path=str(tmp_path / "gone.wav"))
    corpus.save_manifest(
        corpus.CorpusManifest("tiny", (broken,) + manifest.records[1:]), tmp_path / "m.jsonl"
    )
    assert run("augment", "--manifest", tmp_path / "m.jsonl", "--recipe", "volume",
               "--out", tmp_path / "out") == 3
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    failed = [r for r in rows if ",ok," not in r]
    assert len(rows) == 16 and len(failed) == 1 and failed[0].startswith(broken.id)


def test_out_of_memory_exits_3(prepared, tmp_path, capsys, monkeypatch):
    def no_memory(buffer, cfg):
        raise MemoryError("Unable to allocate 20.6 MiB for an array with shape "
                          "(32, 207, 777) and data type float32")

    monkeypatch.setattr(features, "compute_features", no_memory)
    write_json(tmp_path / "train.json", {
        "profile": "desk-scale", **prepared, "train": {"epochs": 1},
        "out_dir": str(tmp_path / "run"),
    })
    capsys.readouterr()
    assert run("train", "--config", tmp_path / "train.json") == 3
    err = capsys.readouterr().err
    assert "runtime error: out of memory: Unable to allocate 20.6 MiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("first, blas_env, threads", [
    ("", {"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
    ("import numpy; ", {}, ["1", "1", "1"]),
], ids=["explicit-openblas", "numpy-first"])
def test_run_records_the_blas_setting(prepared, tmp_path, first, blas_env, threads):
    write_json(tmp_path / "train.json", {
        "profile": "desk-scale", **prepared, "train": {"epochs": 1},
        "out_dir": str(tmp_path / "run"),
    })
    src = str(Path(crossemo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in crossemo.BLAS_VARS}
    code = first + "import sys; from crossemo.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "train", "--config", str(tmp_path / "train.json")],
        capture_output=True, text=True, timeout=120,
        env={**env, **blas_env, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    resolved = json.loads((tmp_path / "run" / "config.resolved.json").read_text())
    assert resolved["blas_threads"] == dict(zip(crossemo.BLAS_VARS, threads))
    assert resolved["numpy_imported_first"] is bool(first)


def test_resume_without_run_state_exits_2(prepared, trained, tmp_path, capsys):
    # a last checkpoint as written before it carried the Adam and run state
    from crossemo.nn.checkpoint import graph_from_checkpoint, load_checkpoint, save_checkpoint

    run_dir = tmp_path / "run"
    data = load_checkpoint(trained / "checkpoint_last.bin")
    assert data.extra["run"]["history"] and data.state
    extra = {k: v for k, v in data.extra.items() if k != "run"}
    save_checkpoint(graph_from_checkpoint(data), run_dir / "checkpoint_last.bin", data.epoch, extra)
    write_json(tmp_path / "train.json", {
        "profile": "desk-scale", **prepared, "train": {"epochs": 2}, "out_dir": str(run_dir),
    })
    capsys.readouterr()
    assert run("train", "--config", tmp_path / "train.json", "--resume") == 2
    assert "Traceback" not in capsys.readouterr().err


def test_eval_truncated_checkpoint_exits_2(tiny, trained, tmp_path, capsys):
    raw = (trained / "checkpoint_last.bin").read_bytes()
    (tmp_path / "half.bin").write_bytes(raw[: len(raw) // 2])
    capsys.readouterr()
    assert run("eval", "--checkpoint", tmp_path / "half.bin", "--manifests", tiny["shift"],
               "--out", tmp_path / "eval") == 2
    assert "Traceback" not in capsys.readouterr().err


def test_eval_cut_wav_exits_2(tiny, trained, tmp_path, capsys):
    manifest = corpus.load_manifest(tiny["shift"])
    raw = Path(manifest.records[0].audio_path).read_bytes()
    (tmp_path / "cut.wav").write_bytes(raw[: len(raw) // 2])
    cut = replace(manifest.records[0], audio_path=str(tmp_path / "cut.wav"))
    corpus.save_manifest(replace(manifest, records=(cut,) + manifest.records[1:]),
                         tmp_path / "m.jsonl")
    capsys.readouterr()
    assert run("eval", "--checkpoint", trained / "checkpoint_last.bin",
               "--manifests", tmp_path / "m.jsonl", "--out", tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert "cut.wav" in err and "Traceback" not in err


def patch_header(src: Path, dst: Path, edit, dumps=json.dumps) -> None:
    """Copy checkpoint `src` to `dst` with `edit` applied to its JSON header."""
    raw = src.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + n])
    edit(header)
    encoded = dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + n :])


def test_eval_checkpoint_with_non_finite_weight_exits_2(tiny, trained, tmp_path, capsys):
    # it once loaded and scored the argmax of NaN logits with exit 0
    raw = bytearray((trained / "checkpoint_last.bin").read_bytes())
    (n,) = struct.unpack_from("<I", raw, 8)
    struct.pack_into("<f", raw, 12 + n, math.nan)  # the first cell of the first parameter
    (tmp_path / "nan.bin").write_bytes(raw)
    capsys.readouterr()
    assert run("eval", "--checkpoint", tmp_path / "nan.bin", "--manifests", tiny["shift"],
               "--out", tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert "NaN or Inf" in err and "Traceback" not in err


def test_eval_checkpoint_with_mistyped_extra_exits_2(tiny, trained, tmp_path, capsys):
    # save_checkpoint refuses such an extra, so patch it into the header bytes
    patch_header(trained / "checkpoint_last.bin", tmp_path / "bad.bin",
                 lambda header: header.update(extra=1))
    capsys.readouterr()
    assert run("eval", "--checkpoint", tmp_path / "bad.bin", "--manifests", tiny["shift"],
               "--out", tmp_path / "eval") == 2
    assert "Traceback" not in capsys.readouterr().err


def test_eval_checkpoint_with_removed_model_keys_exits_2(tiny, trained, tmp_path, capsys):
    # a checkpoint written while the conv stack still had stride and batch-norm keys
    patch_header(trained / "checkpoint_last.bin", tmp_path / "old.bin",
                 lambda header: header["config"].update(conv_stride=1, conv_batchnorm=False))
    capsys.readouterr()
    assert run("eval", "--checkpoint", tmp_path / "old.bin", "--manifests", tiny["shift"],
               "--out", tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert "conv_batchnorm" in err and "conv_stride" in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_eval_non_finite_logits_exits_3(tiny, trained, tmp_path, capsys):
    # finite classifier weights of 3e38 overflow every logit; eval once
    # exited 0 with every score inf and every prediction the first class
    raw = bytearray((trained / "checkpoint_last.bin").read_bytes())
    (n,) = struct.unpack_from("<I", raw, 8)
    offset = 12 + n
    for entry in json.loads(raw[12:offset])["index"]:
        size = 4 * math.prod(entry["shape"])
        if entry["name"] == "classifier.w":
            raw[offset : offset + size] = struct.pack(f"<{size // 4}f", *[3e38] * (size // 4))
        offset += size
    (tmp_path / "big.bin").write_bytes(raw)
    capsys.readouterr()
    assert run("eval", "--checkpoint", tmp_path / "big.bin", "--manifests", tiny["shift"],
               "--out", tmp_path / "eval") == 3
    err = capsys.readouterr().err
    assert "non-finite logits in eval batch 0" in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


def eval_damaged(tiny, trained, tmp_path, capsys, damage) -> str:
    """`crossemo eval` of the trained last checkpoint as `damage(src, dst)`
    copies it into a fresh run directory. Requires exit 2, no traceback and
    no metrics written; returns stderr."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    shutil.copy(trained / "config.resolved.json", run_dir)  # as in a real run directory
    damage(trained / "checkpoint_last.bin", run_dir / "checkpoint_last.bin")
    capsys.readouterr()
    assert run("eval", "--checkpoint", run_dir / "checkpoint_last.bin",
               "--manifests", tiny["shift"], "--out", tmp_path / "eval") == 2
    assert not (tmp_path / "eval").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("key, value", [("fold", "x"), ("train_tag", 5)])
def test_eval_checkpoint_with_mistyped_extra_field_exits_2(tiny, trained, tmp_path, capsys,
                                                           key, value):
    err = eval_damaged(tiny, trained, tmp_path, capsys, lambda src, dst: patch_header(
        src, dst, lambda header: header["extra"].update({key: value})))
    assert f"checkpoint extra.{key}" in err


def cut_blob(src: Path, dst: Path, name: str) -> None:
    """Copy checkpoint `src` to `dst` with blob `name` cut to its first value,
    of shape [1]."""
    raw = src.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + n])
    offset, blobs = 12 + n, []
    for entry in header["index"]:
        size = 4 * math.prod(entry["shape"])
        blob = raw[offset : offset + size]
        offset += size
        if entry["name"] == name:
            blob, entry["shape"] = blob[:4], [1]
        blobs.append(blob)
    encoded = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<I", len(encoded)) + encoded + b"".join(blobs))


def test_eval_checkpoint_with_misshapen_statistic_exits_2(tiny, trained, tmp_path, capsys):
    # a statistic of shape [1] would broadcast silently
    err = eval_damaged(tiny, trained, tmp_path, capsys,
                       lambda src, dst: cut_blob(src, dst, "fc0.bn.mean"))
    assert "fc0.bn.mean" in err


def resume_exit(prepared, run_dir: Path, capsys, **sections) -> tuple:
    """`crossemo train --resume` of the desk-scale run in `run_dir` for two
    epochs, with `sections` merged into its config: (exit code, stderr)."""
    write_json(run_dir.parent / "resume.json", {
        "profile": "desk-scale", **prepared, "train": {"epochs": 2}, "out_dir": str(run_dir),
        **sections,
    })
    capsys.readouterr()
    code = run("train", "--config", run_dir.parent / "resume.json", "--resume")
    return code, capsys.readouterr().err


def test_resume_with_misshapen_moment_exits_2(prepared, trained, tmp_path, capsys):
    (tmp_path / "run").mkdir()
    cut_blob(trained / "checkpoint_last.bin", tmp_path / "run" / "checkpoint_last.bin", "m::fc0.b")
    code, err = resume_exit(prepared, tmp_path / "run", capsys)
    assert code == 2 and "m::fc0.b" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda run_state: run_state.pop("plateau"),
    lambda run_state: run_state.update(adam_t="3"),
    lambda run_state: run_state.update(history=5),
], ids=["no-plateau", "adam_t-str", "history-int"])
def test_resume_with_malformed_run_state_exits_2(prepared, trained, tmp_path, capsys, edit):
    (tmp_path / "run").mkdir()
    patch_header(trained / "checkpoint_last.bin", tmp_path / "run" / "checkpoint_last.bin",
                 lambda header: edit(header["extra"]["run"]))
    code, err = resume_exit(prepared, tmp_path / "run", capsys)
    assert code == 2 and "checkpoint extra.run" in err and "Traceback" not in err


def test_refused_resume_keeps_the_resolved_config(prepared, trained, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in ("checkpoint_last.bin", "config.resolved.json"):
        (run_dir / name).write_bytes((trained / name).read_bytes())
    code, err = resume_exit(prepared, run_dir, capsys, model={"blstm_hidden": 16})
    assert code == 2 and "digest" in err
    assert (run_dir / "config.resolved.json").read_bytes() == (
        trained / "config.resolved.json"
    ).read_bytes()


def test_resume_with_another_front_end_exits_2(prepared, trained, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "checkpoint_last.bin").write_bytes((trained / "checkpoint_last.bin").read_bytes())
    code, err = resume_exit(prepared, run_dir, capsys, features={"max_seconds": 0.5})
    assert code == 2 and "trained with features" in err and "Traceback" not in err
    assert not (run_dir / "history.jsonl").exists()


def test_cli_surface_is_pinned():
    # every option of every subcommand; a new flag fails here until it is reviewed
    def options(parser):
        return tuple(s for action in parser._actions for s in action.option_strings)

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert options(parser) == ("-h", "--help", "--version")
    assert {name: options(p)[2:] for name, p in sub.choices.items()} == {
        "synth": ("--spec", "--out"),
        "prepare": ("--manifest", "--label-map", "--strategy", "--n-folds", "--test-speakers",
                    "--test-fraction", "--reverse-sessions", "--seed", "--out"),
        "augment": ("--manifest", "--recipe", "--seed", "--out"),
        "train": ("--config", "--resume"),
        "eval": ("--checkpoint", "--manifests", "--restrict-classes", "--out"),
        "report": ("--runs", "--metric", "--out"),
        "pipeline": ("--config",),
    }


@pytest.mark.parametrize("rate", [0, -16000])
def test_synth_bad_sample_rate_exits_2(tmp_path, capsys, rate):
    write_json(tmp_path / "spec.json", {"name": "bad", "sample_rate": rate})
    capsys.readouterr()
    assert run("synth", "--spec", tmp_path / "spec.json", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "sample_rate" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_synth_writes_the_serial_bytes(tmp_path, monkeypatch):
    spec = SynthCorpusSpec(name="cli", n_speakers=1, utterances_per_class_per_speaker=1,
                           classes=("angry", "happy", "sad"), duration_range=(0.6, 0.7), seed=2)
    write_json(tmp_path / "spec.json", asdict(spec))
    assert run("synth", "--spec", tmp_path / "spec.json", "--out", tmp_path / "cli") == 0
    monkeypatch.setattr(ops, "_cores", lambda: 1)
    generate_corpus(spec, tmp_path / "serial")
    hashes = [{p.name: sha256_file(p) for p in (tmp_path / d).glob("*.wav")}
              for d in ("cli", "serial")]
    assert len(hashes[0]) == 3 and hashes[0] == hashes[1]


@pytest.mark.parametrize("key, value", [
    ("sample_rate", "16000"),
    ("n_speakers", True),
    ("duration_range", ["1.0", 1.4]),
    ("duration_range", [1.0, 1.2, 1.4]),
    ("speaker_timbre_spread", 0.08),  # no longer a key, at its old default
])
def test_synth_mistyped_field_exits_2(tmp_path, capsys, key, value):
    write_json(tmp_path / "spec.json", {"name": "bad", key: value})
    capsys.readouterr()
    assert run("synth", "--spec", tmp_path / "spec.json", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def dumps_with_overflow(obj) -> str:
    """`json.dumps`, which writes NaN and Infinity as bare tokens, with the
    string "1e999" written as that number, which reads as inf."""
    return json.dumps(obj).replace('"1e999"', "1e999")


def non_finite_document(kind, value, tiny, prepared, trained, tmp_path) -> tuple:
    """Write a document of `kind` with `value` in one of its number fields;
    return the command that reads it and the field's key."""
    def dump(path, obj):
        path.write_text(dumps_with_overflow(obj))
        return path
    if kind in ("config", "fold-plan"):
        config = {"profile": "desk-scale", **prepared, "train": {"epochs": 1},
                  "out_dir": str(tmp_path / "run")}
        if kind == "config":
            config["train"]["learning_rate"] = value
        else:
            plan = json.loads(Path(prepared["fold_plan"]).read_text())
            config["fold_plan"] = str(dump(tmp_path / "folds.json", {**plan, "seed": value}))
        key = "learning_rate" if kind == "config" else "seed"
        return ["train", "--config", dump(tmp_path / "train.json", config)], key
    if kind == "synth-spec":
        spec = {"name": "bad", "timbre_scale": value}
        return ["synth", "--spec", dump(tmp_path / "spec.json", spec)], "timbre_scale"
    if kind == "manifest":  # NaN was labelled neutral, and written back out as NaN
        lines = Path(tiny["manifest"]).read_text().splitlines()
        lines[3] = dumps_with_overflow({**json.loads(lines[3]), "raw_labels": {"anger": value}})
        (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
        return ["prepare", "--manifest", tmp_path / "m.jsonl", "--label-map", "mosei",
                "--strategy", "split-80-20", "--out", tmp_path / "prep"], "anger"
    if kind == "checkpoint":
        patch_header(trained / "checkpoint_last.bin", tmp_path / "bad.bin",
                     lambda header: header["extra"]["run"]["plateau"].update(lr=value),
                     dumps_with_overflow)
        return ["eval", "--checkpoint", tmp_path / "bad.bin", "--manifests", tiny["shift"],
                "--out", tmp_path / "eval"], "lr"
    record = {"train_tag": "a", "test_tag": "b", "fold": 0,
              "metrics": {"ua_eq1": value, "wa_eq2": 50.0, "mean_class_recall": 50.0,
                          "overall_accuracy": 50.0}}
    dump(tmp_path / "metrics_b.json", record)
    return ["report", "--runs", tmp_path / "metrics_*.json", "--out", tmp_path / "report"], "ua_eq1"


# NaN and -Infinity are tokens that JSON does not have; 1e999 is a JSON
# number that reads as inf. The fold plan's only number, its seed, is an int
NON_FINITE = [(kind, value) for kind in ("config", "fold-plan", "synth-spec", "manifest",
                                         "checkpoint", "run-record")
              for value in (math.nan, -math.inf, "1e999")
              if (kind, value) != ("fold-plan", "1e999")]


@pytest.mark.parametrize("kind, value", NON_FINITE, ids=[f"{k}-{v}" for k, v in NON_FINITE])
def test_non_finite_number_exits_2_naming_its_key(tiny, prepared, trained, tmp_path, capsys,
                                                  kind, value):
    # each document once read such a value without complaint
    argv, key = non_finite_document(kind, value, tiny, prepared, trained, tmp_path)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not any((tmp_path / out).exists() for out in ("run", "prep", "eval", "report"))


def test_python_dash_m_runs_the_cli():
    src = str(Path(crossemo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "crossemo", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "pipeline" in proc.stdout


def test_train_and_eval_do_not_import_scipy_signal():
    # only the bass and treble shelves filter; the import costs over a second
    src = str(Path(crossemo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, crossemo.cli, crossemo.train, crossemo.features, crossemo.evaluation; "
            "print('scipy.signal' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_the_cli_prints():
    package = Path(crossemo.__file__).parent
    calls = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert calls == []


def test_two_kinds_of_failure_are_pinned():
    # ValidationFailure exits 2, RuntimeFailure exits 3; a new exception
    # class fails here until it is reviewed
    pinned = ["CrossEmoError", "ValidationFailure", "RuntimeFailure"]
    assert [name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, BaseException)] == pinned
    exceptions = set(pinned) | {name for name, value in vars(builtins).items()
                                if isinstance(value, type) and issubclass(value, BaseException)}
    package = Path(crossemo.__file__).parent
    defined = [
        f"{path.relative_to(package)}:{node.name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) in exceptions
                for base in node.bases)
    ]
    assert defined == [f"errors.py:{name}" for name in pinned]


def test_one_typed_reader_is_pinned():
    # documents are read by errors.from_fields and written as their asdict;
    # a new hand-written codec fails here until it is reviewed
    package = Path(crossemo.__file__).parent
    codecs = [
        f"{cls.name}.{node.name}"
        for path in sorted(package.rglob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in ("to_json", "from_json")
    ]
    assert sorted(codecs) == ["FbankConfig.to_json", "FoldPlan.from_json", "RunRecord.from_json"]


# reached only from tests and the benchmark until the cross-corpus matrix
# (ROADMAP item 4) wires them in
NOT_YET_CALLED = {
    "config.reference_synth_spec_dict",
    "corpus.subsample_balanced",
    "corpus.filter_style",
    "ioutil.sha256_file",
    "synth.derive_shifted_corpus",
    # the models pool inside conv2d; the benchmark's tracer still probes this
    # op by name (perfbench/tracer.py) until ROADMAP item 3 moves the timers
    # into the package, and the pooled conv2d is tested against it
    "nn.ops.max_pool2d",
}


def test_every_top_level_definition_is_named_elsewhere():
    # a function or class that no other statement of the package names is dead
    package = Path(crossemo.__file__).parent
    defined, named = [], {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{stmt.name}", stmt.name, (module, i)))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
                named.setdefault(name, set()).add((module, i))
    dead = {dotted for dotted, name, where in defined if not named.get(name, set()) - {where}}
    assert dead == NOT_YET_CALLED


def test_train_eval_report(tiny, trained, tmp_path):
    history = (trained / "history.jsonl").read_text().splitlines()
    assert len(history) == 1
    assert run("eval", "--checkpoint", trained / "checkpoint_last.bin",
               "--manifests", tiny["shift"], "--out", tmp_path / "eval") == 0
    record = json.loads((tmp_path / "eval" / "metrics_tiny-shift.json").read_text())
    assert (record["train_tag"], record["test_tag"], record["fold"]) == ("tiny", "tiny-shift", 0)
    assert (tmp_path / "eval" / "predictions_tiny-shift.csv").exists()

    assert run("report", "--runs", tmp_path / "eval" / "metrics_*.json",
               "--out", tmp_path / "report") == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["cells"]["tiny|tiny-shift"]["matched"] is False

    del record["train_tag"]
    write_json(tmp_path / "bad" / "metrics_tiny-shift.json", record)
    assert run("report", "--runs", tmp_path / "bad" / "metrics_*.json",
               "--out", tmp_path / "bad_report") == 2
    # an unknown metric is rejected before any report file is written
    assert run("report", "--runs", tmp_path / "eval" / "metrics_*.json", "--metric", "nope",
               "--out", tmp_path / "nope_report") == 2
    assert not (tmp_path / "nope_report").exists()


def test_desk_profile_with_blstm_arch(prepared, tmp_path):
    base = {
        "profile": "desk-scale",
        "arch": "blstm-att",
        **prepared,
        "train": {"epochs": 1},
        "out_dir": str(tmp_path / "run"),
    }
    write_json(tmp_path / "ok.json", {**base, "model": {"hidden": 8, "attention_dim": 4}})
    assert run("train", "--config", tmp_path / "ok.json") == 0
    resolved = json.loads((tmp_path / "run" / "config.resolved.json").read_text())
    assert resolved["model"]["hidden"] == 8
    write_json(tmp_path / "bad.json", {**base, "model": {"hidden": 8, "conv_channels": [4]}})
    assert run("train", "--config", tmp_path / "bad.json") == 2


@pytest.mark.parametrize("section", [{"train": {"epoch": 3}}, {"features": {"n_band": 23}}])
def test_train_misspelled_key(prepared, tmp_path, section):
    write_json(tmp_path / "bad.json", {
        "profile": "desk-scale", **prepared, **section, "out_dir": str(tmp_path / "run"),
    })
    assert run("train", "--config", tmp_path / "bad.json") == 2


@pytest.mark.parametrize("section, key, value", [
    ("train", "epochs", "3"),
    ("train", "batch_size", 8.5),
    ("train", "early_stop_patience", True),
    ("features", "n_bands", "23"),
    ("features", "per_band_norm", 1),
    ("model", "n_classes", "4"),
    ("model", "pool_after", ["1"]),
    ("model", "fc_sizes", 16),
    # keys that no longer exist, at the values they used to default to
    ("model", "conv_batchnorm", False),
    ("model", "conv_stride", 1),
    ("features", "per_band_norm", False),
    ("train", "early_stop_patience", None),
    ("train", "beta1", 0.9),
    ("train", "beta2", 0.999),
    ("train", "adam_eps", 1e-8),
    ("train", "plateau_patience", 4),
    ("train", "plateau_factor", 0.8),
    ("train", "plateau_min_delta", 1e-6),
    ("train", "lr_floor", 1e-7),
    ("train", "validation_fraction", 0.1),
    ("features", "window_ms", 26.0),
    ("features", "shift_ms", 9.0),
    ("features", "fft_size", 512),
    ("features", "log_floor", 1e-10),
    ("model", "conv_kernel", 3),
    ("model", "dropout", 0.2),
])
def test_train_mistyped_value_exits_2(prepared, tmp_path, capsys, section, key, value):
    write_json(tmp_path / "bad.json", {
        "profile": "desk-scale", **prepared, section: {key: value},
        "out_dir": str(tmp_path / "run"),
    })
    capsys.readouterr()
    assert run("train", "--config", tmp_path / "bad.json") == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, overrides", [
    ("train", {"eval_manifest": []}),
    ("train", {"sede": 3}),
    ("train", {"seed": 2.7}),
    ("train", {"seed": "3"}),
    ("train", {"seed": True}),
    ("train", {"fold_index": "x"}),
    ("train", {"restrict_classes": "no"}),
    ("pipeline", {"sede": 3}),
    ("pipeline", {"augment": {"recip": "volume"}}),
    ("pipeline", {"augment": {"recipe": "volume", "seed": "0"}}),
], ids=["eval_manifest", "sede", "seed-float", "seed-str", "seed-bool", "fold_index-str",
        "restrict_classes-str", "pipeline-sede", "augment-recip", "augment-seed-str"])
def test_top_level_config_key_exits_2(tiny, prepared, tmp_path, capsys, command, overrides):
    out = tmp_path / "run"
    base = pipeline_config(tiny, out) if command == "pipeline" else {
        "profile": "desk-scale", **prepared, "train": {"epochs": 1}, "out_dir": str(out),
    }
    write_json(tmp_path / "bad.json", {**base, **overrides})
    capsys.readouterr()
    assert run(command, "--config", tmp_path / "bad.json") == 2
    err = capsys.readouterr().err
    key = next(iter(overrides))
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "train"])
def test_band_count_mismatch_exits_2_before_any_work(tiny, prepared, tmp_path, capsys, command):
    # a 40-band front-end feeding a 23-band model: refused before synthesis
    out = tmp_path / "run"
    synth = {"name": "tiny", "n_speakers": 2, "utterances_per_class_per_speaker": 2,
             "duration_range": [0.6, 0.7], "seed": 3}
    base = pipeline_config(tiny, out, synth=synth) if command == "pipeline" else {
        "profile": "desk-scale", **prepared, "train": {"epochs": 1}, "out_dir": str(out),
    }
    write_json(tmp_path / "bad.json", {**base, "features": {"n_bands": 40}})
    capsys.readouterr()
    assert run(command, "--config", tmp_path / "bad.json") == 2
    err = capsys.readouterr().err
    assert "input_bands" in err and "n_bands" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_train_scores_eval_manifests(tiny, prepared, trained, tmp_path):
    write_json(tmp_path / "train.json", {
        "profile": "desk-scale", **prepared, "train": {"epochs": 1},
        "eval_manifests": [str(tiny["shift"])], "out_dir": str(tmp_path / "run"),
    })
    assert run("train", "--config", tmp_path / "train.json") == 0
    # the same record and predictions `crossemo eval` writes for the last checkpoint
    assert run("eval", "--checkpoint", tmp_path / "run" / "checkpoint_last.bin",
               "--manifests", tiny["shift"], "--out", tmp_path / "eval") == 0
    for name in ("metrics_tiny-shift.json", "predictions_tiny-shift.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "eval" / name).read_bytes()

    write_json(tmp_path / "missing.json", {
        "profile": "desk-scale", **prepared, "train": {"epochs": 1},
        "eval_manifests": [str(tmp_path / "does-not-exist.jsonl")],
        "out_dir": str(tmp_path / "run2"),
    })
    assert run("train", "--config", tmp_path / "missing.json") == 3
    assert not (tmp_path / "run2" / "checkpoint_last.bin").exists()


@pytest.mark.parametrize("command", ["train", "eval", "pipeline"])
def test_test_sets_of_one_name_exit_2_before_training(tiny, prepared, trained, tmp_path,
                                                      capsys, command):
    # each test set writes metrics_<name>.json: one result was once lost, and
    # the pipeline trained every fold before refusing its report
    shutil.copy(tiny["shift"], tmp_path / "again.jsonl")
    twins = [str(tiny["shift"]), str(tmp_path / "again.jsonl")]
    out = tmp_path / "run"
    configs = {
        "train": {"profile": "desk-scale", **prepared, "train": {"epochs": 1},
                  "eval_manifests": twins, "out_dir": str(out)},
        # the corpus's own name is the name of the pipeline's matched set
        "pipeline": pipeline_config(tiny, out, eval_manifests=[str(tiny["manifest"])]),
    }
    argv = ["eval", "--checkpoint", trained / "checkpoint_last.bin", "--manifests", *twins,
            "--out", out]
    if command in configs:
        write_json(tmp_path / "bad.json", configs[command])
        argv = [command, "--config", tmp_path / "bad.json"]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    name = "tiny" if command == "pipeline" else "tiny-shift"
    assert f"more than one test set is named {name}" in err and "Traceback" not in err
    assert not out.exists()


def pipeline_config(tiny, out_dir, **overrides) -> dict:
    return {
        "profile": "desk-scale",
        "manifest": str(tiny["manifest"]),
        "folds": {"strategy": "split-80-20", "seed": 1},
        "augment": {"recipe": "volume", "seed": 0},
        "train": {"epochs": 1},
        "eval_manifests": [str(tiny["shift"])],
        "out_dir": str(out_dir),
        **overrides,
    }


def test_pipeline(tiny, tmp_path):
    out = tmp_path / "run"
    write_json(tmp_path / "pipe.json", pipeline_config(tiny, out))
    assert run("pipeline", "--config", tmp_path / "pipe.json") == 0
    report = json.loads((out / "report" / "report.json").read_text())
    assert report["cells"]["tiny|tiny"]["matched"] is True
    assert report["cells"]["tiny|tiny-shift"]["matched"] is False
    assert len((out / "augment" / "summary.csv").read_text().splitlines()) == 1 + 16

    # the run records the pipeline writes rebuild its report
    assert run("report", "--runs", out / "fold*" / "metrics_*.json",
               "--out", tmp_path / "again") == 0
    assert (tmp_path / "again" / "report.json").read_bytes() == (
        out / "report" / "report.json"
    ).read_bytes()


def test_pipeline_unknown_fold_option(tiny, tmp_path):
    folds = {"strategy": "split-80-20", "n_fold": 2}
    write_json(tmp_path / "pipe.json", pipeline_config(tiny, tmp_path / "run", folds=folds))
    assert run("pipeline", "--config", tmp_path / "pipe.json") == 2


@pytest.mark.parametrize("synth", [
    {"name": "tiny", "n_speaker": 2},
    {"name": "tiny", "signatures": {"sad": {"f0": 120.0}}},
], ids=["spec", "signature"])
def test_pipeline_unknown_synth_key(tiny, tmp_path, synth):
    write_json(tmp_path / "pipe.json", pipeline_config(tiny, tmp_path / "run", synth=synth))
    assert run("pipeline", "--config", tmp_path / "pipe.json") == 2


def test_pipeline_missing_synth_signature_field(tiny, tmp_path, capsys):
    synth = {"name": "tiny", "signatures": {"sad": {"f0_hz": 120.0}}}
    write_json(tmp_path / "pipe.json", pipeline_config(tiny, tmp_path / "run", synth=synth))
    capsys.readouterr()
    assert run("pipeline", "--config", tmp_path / "pipe.json") == 2
    err = capsys.readouterr().err
    assert "f0_slope" in err and "Traceback" not in err


def test_pipeline_fold_options_checked_before_synthesis(tiny, tmp_path, capsys):
    # a 2-speaker corpus cannot hold out 5 speakers: refused before any WAV is rendered
    synth = {"name": "tiny", "n_speakers": 2, "utterances_per_class_per_speaker": 2,
             "duration_range": [0.6, 0.7], "seed": 3}
    write_json(tmp_path / "pipe.json", pipeline_config(
        tiny, tmp_path / "run", synth=synth, folds={"strategy": "speaker-rotation"}))
    capsys.readouterr()
    assert run("pipeline", "--config", tmp_path / "pipe.json") == 2
    assert "speakers" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.json"]


def test_pipeline_recipe_checked_before_synthesis(tiny, tmp_path, capsys):
    # no WAV, manifest or fold plan is written for a recipe that does not exist
    synth = {"name": "tiny", "n_speakers": 2, "utterances_per_class_per_speaker": 2,
             "duration_range": [0.6, 0.7], "seed": 3}
    write_json(tmp_path / "pipe.json", pipeline_config(
        tiny, tmp_path / "run", synth=synth, augment={"recipe": "nope", "seed": 0}))
    capsys.readouterr()
    assert run("pipeline", "--config", tmp_path / "pipe.json") == 2
    assert "unknown recipe 'nope'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.json"]


def test_pipeline_computes_features_once_per_utterance(tiny, tmp_path, monkeypatch):
    computed = []  # the audio of each front-end call; every utterance's audio differs

    def counting(buffer, cfg):
        computed.append(buffer.samples.tobytes())
        return compute_features(buffer, cfg)

    monkeypatch.setattr(features, "compute_features", counting)
    out = tmp_path / "run"
    folds = {"strategy": "speaker-rotation", "n_folds": 2, "test_speakers": 1}
    write_json(tmp_path / "pipe.json", pipeline_config(tiny, out, folds=folds))
    assert run("pipeline", "--config", tmp_path / "pipe.json") == 0
    assert len(corpus.load_fold_plan(out / "folds.json").folds) == 2
    assert computed and len(computed) == len(set(computed))


def test_pipeline_config_paths_relative_to_its_directory(tiny, tmp_path, monkeypatch):
    # run from tmp_path with the config one directory down: out_dir, and the
    # synthesized corpus under it, are relative to the config's directory
    monkeypatch.chdir(tmp_path)
    synth = {"name": "tiny", "n_speakers": 2, "utterances_per_class_per_speaker": 2,
             "duration_range": [0.6, 0.7], "seed": 3}
    config = pipeline_config(tiny, "run", synth=synth, eval_manifests=[])
    del config["manifest"]
    write_json(tmp_path / "cfg" / "pipe.json", config)
    assert run("pipeline", "--config", "cfg/pipe.json") == 0
    assert (tmp_path / "cfg" / "run" / "corpus-tiny" / "manifest.jsonl").exists()
    assert (tmp_path / "cfg" / "run" / "fold0" / "metrics_tiny.json").exists()


def test_prepare_augment_train_chain_equals_pipeline(tmp_path):
    # the plan names originals; `train` adds the augmented copies itself, so
    # the chain of subcommands trains exactly what the pipeline trains
    synth = {"name": "tiny", "n_speakers": 2, "utterances_per_class_per_speaker": 2,
             "duration_range": [0.6, 0.7], "seed": 3}
    write_json(tmp_path / "spec.json", synth)
    assert run("synth", "--spec", tmp_path / "spec.json", "--out", tmp_path / "corpus") == 0
    assert run("prepare", "--manifest", tmp_path / "corpus" / "manifest.jsonl",
               "--strategy", "split-80-20", "--seed", 1, "--out", tmp_path / "prep") == 0
    assert run("augment", "--manifest", tmp_path / "prep" / "manifest.jsonl",
               "--recipe", "2sp-2vol", "--seed", 5, "--out", tmp_path / "aug") == 0
    # preparing the augmented manifest plans its originals
    assert run("prepare", "--manifest", tmp_path / "aug" / "manifest.jsonl",
               "--strategy", "split-80-20", "--seed", 1, "--out", tmp_path / "prep-aug") == 0
    assert (tmp_path / "prep-aug" / "folds.json").read_bytes() == (
        tmp_path / "prep" / "folds.json"
    ).read_bytes()
    write_json(tmp_path / "train.json", {
        "profile": "desk-scale", "manifest": str(tmp_path / "aug" / "manifest.jsonl"),
        "fold_plan": str(tmp_path / "prep" / "folds.json"), "train": {"epochs": 2},
        "out_dir": str(tmp_path / "chain"),
    })
    assert run("train", "--config", tmp_path / "train.json") == 0

    write_json(tmp_path / "pipe.json", {
        "profile": "desk-scale", "synth": synth,
        "folds": {"strategy": "split-80-20", "seed": 1},
        "augment": {"recipe": "2sp-2vol", "seed": 5},
        "train": {"epochs": 2}, "out_dir": str(tmp_path / "pipe"),
    })
    assert run("pipeline", "--config", tmp_path / "pipe.json") == 0
    history = (tmp_path / "chain" / "history.jsonl").read_bytes()
    assert len(history.splitlines()) == 2
    assert history == (tmp_path / "pipe" / "fold0" / "history.jsonl").read_bytes()


MALFORMED = {
    # train config sections
    "train-int": ("train", {"train": 5}),
    "features-int": ("train", {"features": 5}),
    "model-int": ("train", {"model": 5}),
    "profile-list": ("train", {"profile": ["desk-scale"]}),
    # pipeline config sections
    "folds-int": ("pipeline", {"folds": 5}),
    "folds-seed-str": ("pipeline", {"folds": {"seed": "3"}}),
    "n_folds-str": ("pipeline", {"folds": {"strategy": "proportional", "n_folds": "2"}}),
    "fold_indices-str": ("pipeline", {"fold_indices": "0"}),
    "fold_indices-float": ("pipeline", {"fold_indices": [0.0]}),
    "fold_indices-out-of-range": ("pipeline", {"fold_indices": [0, 5]}),
    "fold_indices-repeated": ("pipeline", {"fold_indices": [0, 0]}),
    "augment-int": ("pipeline", {"augment": 5}),
    "synth-int": ("pipeline", {"synth": 5}),
    "out_dir-int": ("pipeline", {"out_dir": 5}),
    # the pipeline writes its own plan and trains fold_indices
    "pipeline-fold_plan": ("pipeline", {"fold_plan": "/nonexistent/folds.json"}),
    "pipeline-fold_index": ("pipeline", {"fold_index": 7}),
    # keys that no longer exist, at the values they used to default to
    "pipeline-train-removed-key": ("pipeline", {"train": {"epochs": 1, "beta1": 0.9}}),
    "pipeline-synth-removed-key": ("pipeline", {"synth": {"name": "tiny",
                                                          "speaker_timbre_spread": 0.08}}),
    # files the subcommands read
    "folds-json-corrupt": ("file", None),
    "folds-json-empty": ("file", None),
    "manifest-corrupt": ("file", None),
    "manifest-augmented-str": ("file", None),
    "manifest-raw_labels-list": ("file", None),
    "manifest-emotion-int": ("file", None),
    "manifest-source_id-int": ("file", None),
    "manifest-schema-str": ("file", None),
    "manifest-schema-float": ("file", None),
    "checkpoint-without-features": ("file", None),
}

# (line of the manifest file, keys merged into that line's JSON object)
MANIFEST_EDITS = {
    "manifest-augmented-str": (1, {"augmented": "false"}),
    "manifest-raw_labels-list": (1, {"raw_labels": ["angry"]}),
    "manifest-emotion-int": (1, {"emotion": 5}),
    "manifest-source_id-int": (1, {"source_id": 5}),
    "manifest-schema-str": (0, {"manifest_schema": "x"}),
    "manifest-schema-float": (0, {"manifest_schema": 1.5}),
}


def corrupt_file_argv(case, tiny, prepared, trained, tmp_path) -> list:
    """Write the damaged file of `case` and return the command that reads it."""
    if case.startswith("folds-json"):
        (tmp_path / "folds.json").write_text("{not json" if case.endswith("corrupt") else "{}")
        write_json(tmp_path / "bad.json", {
            "profile": "desk-scale", **prepared, "fold_plan": str(tmp_path / "folds.json"),
            "train": {"epochs": 1}, "out_dir": str(tmp_path / "run"),
        })
        return ["train", "--config", tmp_path / "bad.json"]
    if case.startswith("manifest"):
        lines = Path(tiny["manifest"]).read_text().splitlines()  # a header, then records
        if case.endswith("corrupt"):
            lines[2] = lines[2][: len(lines[2]) // 2]
        else:
            line, edit = MANIFEST_EDITS[case]
            lines[line] = json.dumps({**json.loads(lines[line]), **edit})
        (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
        return ["prepare", "--manifest", tmp_path / "m.jsonl", "--strategy", "split-80-20",
                "--out", tmp_path / "prep"]
    # a checkpoint written before its extra carried the front-end
    patch_header(trained / "checkpoint_last.bin", tmp_path / "old.bin",
                 lambda header: header["extra"].pop("features"))
    return ["eval", "--checkpoint", tmp_path / "old.bin",
            "--manifests", tiny["shift"], "--out", tmp_path / "eval"]


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_config_exits_2(tiny, prepared, trained, tmp_path, capsys, case):
    command, overrides = MALFORMED[case]
    out = tmp_path / "run"
    if command == "file":
        argv = corrupt_file_argv(case, tiny, prepared, trained, tmp_path)
    else:
        base = pipeline_config(tiny, out) if command == "pipeline" else {
            "profile": "desk-scale", **prepared, "train": {"epochs": 1}, "out_dir": str(out),
        }
        write_json(tmp_path / "bad.json", {**base, **overrides})
        argv = [command, "--config", tmp_path / "bad.json"]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if command != "file":  # a config is read before any work starts
        assert not out.exists()
