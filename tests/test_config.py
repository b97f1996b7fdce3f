"""JSON-with-comments parsing of config files, and the set of config fields."""

import json
from dataclasses import fields

import pytest

from crossemo.config import (
    PROFILES,
    AugmentOptions,
    ExperimentConfig,
    PipelineSections,
    load_json_config,
    resolve_experiment_config,
    strip_json_comments,
)
from crossemo.corpus import FoldOptions
from crossemo.errors import ValidationFailure
from crossemo.features import FbankConfig
from crossemo.nn.models import BlstmAttConfig, CnnBlstmAttConfig
from crossemo.synth import SynthCorpusSpec
from crossemo.train import TrainConfig


def test_line_and_block_comments_are_removed():
    text = '{"a": 1, // to the end of the line\n "b": /* inline */ 2 /* two\nlines */}'
    assert json.loads(strip_json_comments(text)) == {"a": 1, "b": 2}


def test_comment_markers_and_escaped_quotes_inside_strings_are_kept():
    text = r'{"url": "http://x/*y*/", "quote": "say \"//hi\" /*", "end": "\\"} // gone'
    assert json.loads(strip_json_comments(text)) == {
        "url": "http://x/*y*/", "quote": 'say "//hi" /*', "end": "\\",
    }


@pytest.mark.parametrize("text", ['{"a": 1} /* never closed', '{"a": /* never closed 1}'])
def test_unterminated_block_comment_is_a_validation_failure(tmp_path, text):
    (tmp_path / "c.json").write_text(text)
    with pytest.raises(ValidationFailure, match="unterminated"):
        load_json_config(tmp_path / "c.json")


def field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def test_config_surface_is_pinned():
    # every settable config value; a new one fails here until it is reviewed
    assert field_names(ExperimentConfig) == (
        "manifest", "fold_plan", "out_dir", "fold_index", "features", "feature_cache", "arch",
        "model", "train", "eval_manifests", "restrict_classes", "seed",
    )
    assert field_names(FbankConfig) == ("n_bands", "max_seconds", "sample_rate")
    assert field_names(CnnBlstmAttConfig) == (
        "conv_channels", "pool_after", "blstm_hidden", "fc_sizes", "attention_dim",
        "n_classes", "input_bands",
    )
    assert field_names(BlstmAttConfig) == (
        "blstm_layers", "hidden", "attention_dim", "n_classes", "input_bands",
    )
    assert field_names(TrainConfig) == ("epochs", "learning_rate", "batch_size", "seed")
    assert field_names(FoldOptions) == (
        "strategy", "n_folds", "test_speakers", "test_fraction", "reverse_sessions", "seed",
    )
    assert field_names(AugmentOptions) == ("recipe", "seed")
    assert field_names(PipelineSections) == (
        "synth", "manifest", "folds", "augment", "fold_indices", "out_dir",
    )
    assert field_names(SynthCorpusSpec) == (
        "name", "n_speakers", "utterances_per_class_per_speaker", "classes", "duration_range",
        "seed", "timbre_scale", "pitch_scale", "reverb_seconds", "sample_rate", "signatures",
    )


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_shipped_profile_resolves(profile):
    cfg = resolve_experiment_config(
        {"profile": profile, "manifest": "m.jsonl", "fold_plan": "f.json", "out_dir": "run"}
    )
    if profile == "paper-default":
        # the defaults the unit tests take as the paper's configuration
        assert (cfg.model, cfg.features, cfg.train) == (
            CnnBlstmAttConfig(), FbankConfig(), TrainConfig()
        )
