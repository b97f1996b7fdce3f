"""The `crossemo` subcommands driven through `main([...])` on a tiny
synthetic corpus with the desk-scale model and one epoch."""

import json
from dataclasses import replace

import pytest

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
