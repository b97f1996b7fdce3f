"""The `crossemo` subcommands driven through `main([...])` on a tiny
synthetic corpus with the desk-scale model and one epoch."""

import ast
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import crossemo
from crossemo import corpus, features
from crossemo.cli import main
from crossemo.features import compute_features
from crossemo.ioutil import write_json
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
    assert written.to_json() == expected.to_json()


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


def test_eval_checkpoint_with_mistyped_extra_exits_2(tiny, trained, tmp_path, capsys):
    # save_checkpoint refuses such an extra, so patch it into the header bytes
    raw = (trained / "checkpoint_last.bin").read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + n])
    header["extra"] = 1
    encoded = json.dumps(header).encode("utf-8")
    (tmp_path / "bad.bin").write_bytes(
        raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + n :]
    )
    capsys.readouterr()
    assert run("eval", "--checkpoint", tmp_path / "bad.bin", "--manifests", tiny["shift"],
               "--out", tmp_path / "eval") == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("rate", [0, -16000])
def test_synth_bad_sample_rate_exits_2(tmp_path, capsys, rate):
    write_json(tmp_path / "spec.json", {"name": "bad", "sample_rate": rate})
    capsys.readouterr()
    assert run("synth", "--spec", tmp_path / "spec.json", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "sample_rate" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("sample_rate", "16000"),
    ("n_speakers", True),
    ("duration_range", ["1.0", 1.4]),
    ("duration_range", [1.0, 1.2, 1.4]),
])
def test_synth_mistyped_field_exits_2(tmp_path, capsys, key, value):
    write_json(tmp_path / "spec.json", {"name": "bad", key: value})
    capsys.readouterr()
    assert run("synth", "--spec", tmp_path / "spec.json", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_python_dash_m_runs_the_cli():
    src = str(Path(crossemo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "crossemo", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "pipeline" in proc.stdout


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
    "augment-int": ("pipeline", {"augment": 5}),
    "synth-int": ("pipeline", {"synth": 5}),
    "out_dir-int": ("pipeline", {"out_dir": 5}),
    # files the subcommands read
    "folds-json-corrupt": ("file", None),
    "folds-json-empty": ("file", None),
    "manifest-corrupt": ("file", None),
    "manifest-augmented-str": ("file", None),
    "resolved-without-features": ("file", None),
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
        row = json.loads(lines[1])
        if case.endswith("corrupt"):
            lines[2] = lines[2][: len(lines[2]) // 2]
        else:
            lines[1] = json.dumps({**row, "augmented": "false"})
        (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
        return ["prepare", "--manifest", tmp_path / "m.jsonl", "--strategy", "split-80-20",
                "--out", tmp_path / "prep"]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "checkpoint_last.bin").write_bytes((trained / "checkpoint_last.bin").read_bytes())
    resolved = json.loads((trained / "config.resolved.json").read_text())
    del resolved["features"]
    write_json(run_dir / "config.resolved.json", resolved)
    return ["eval", "--checkpoint", run_dir / "checkpoint_last.bin",
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
