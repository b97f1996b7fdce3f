"""Experiment configuration: JSON with comments, shipped profiles, and the
resolution of raw dicts into typed module configs."""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .corpus import FoldOptions
from .errors import ValidationFailure, from_fields
from .features import FbankConfig
from .ioutil import parse_json
from .nn.models import ARCH_CNN, config_from_dict
from .synth import SynthCorpusSpec
from .train import TrainConfig

PROFILES = {
    "paper-default": "paper_default.json",
    "desk-scale": "desk_scale.json",
}


def strip_json_comments(text: str) -> str:
    """Remove // line comments and /* */ block comments outside strings. An
    unterminated block comment raises ValidationFailure."""
    out = []
    i = 0
    n = len(text)
    in_string = False
    while i < n:
        ch = text[i]
        if in_string:
            out.append(ch)
            if ch == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            out.append(ch)
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end < 0:
                raise ValidationFailure(f"unterminated /* comment at offset {i}")
            i = end + 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def load_json_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationFailure(f"cannot read config {path}: {exc}") from exc
    obj = parse_json(strip_json_comments(text), f"config {path}")
    if not isinstance(obj, dict):
        raise ValidationFailure(f"config {path} must hold a JSON object")
    return obj


def load_profile(name: str) -> dict:
    if not isinstance(name, str) or name not in PROFILES:
        raise ValidationFailure(
            f"unknown profile {name!r}; available: {', '.join(sorted(PROFILES))}"
        )
    resource = importlib.resources.files("crossemo.profiles") / PROFILES[name]
    return json.loads(resource.read_text(encoding="utf-8"))


def reference_synth_spec_dict() -> dict:
    resource = importlib.resources.files("crossemo.profiles") / "reference_synth.json"
    return json.loads(resource.read_text(encoding="utf-8"))


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved training configuration for one run directory."""

    manifest: str
    fold_plan: str
    out_dir: str
    fold_index: int = 0
    features: FbankConfig = field(default_factory=FbankConfig)
    feature_cache: str | None = None
    arch: str = ARCH_CNN
    model: object = field(default_factory=dict)  # a config of `arch`, once resolved
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_manifests: tuple[str, ...] = ()
    restrict_classes: bool = False
    seed: int = 0

    def resolved_json(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


@dataclass(frozen=True)
class AugmentOptions:
    recipe: str = "2sp-2vol"
    seed: int = 0


@dataclass(frozen=True)
class PipelineSections:
    """A pipeline config's own keys; the rest is the train config of each
    fold, whose `manifest` and `fold_plan` the pipeline writes in `out_dir`."""

    synth: SynthCorpusSpec | None = None
    manifest: str | None = None
    folds: FoldOptions = field(default_factory=FoldOptions)
    augment: AugmentOptions | None = None
    fold_indices: tuple[int, ...] | None = None
    out_dir: str | None = None


def resolve_experiment_config(raw: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    """Merge an optional named profile under the user's overrides and read
    the result as an ExperimentConfig, the model section as a config of its
    architecture. Relative paths resolve against `base_dir`."""
    base_dir = Path(base_dir)
    merged: dict = {}
    if "profile" in raw:
        merged = load_profile(raw["profile"])
        if raw.get("arch", merged.get("arch")) != merged.get("arch"):
            # a profile's model keys belong to the profile's architecture
            merged.pop("model", None)
    merged = _deep_merge(merged, {k: v for k, v in raw.items() if k != "profile"})
    cfg = from_fields(ExperimentConfig, merged, "config")

    def respath(p):  # joining keeps an absolute path as it is
        return str(base_dir / p)

    return replace(
        cfg,
        manifest=respath(cfg.manifest),
        fold_plan=respath(cfg.fold_plan),
        feature_cache=respath(cfg.feature_cache) if cfg.feature_cache else None,
        model=config_from_dict(cfg.arch, cfg.model),
        train=replace(cfg.train, seed=merged.get("train", {}).get("seed", cfg.seed)),
        eval_manifests=tuple(respath(p) for p in cfg.eval_manifests),
        out_dir=respath(cfg.out_dir),
    )
