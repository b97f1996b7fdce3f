"""Experiment configuration: JSON with comments, shipped profiles, and the
resolution of raw dicts into typed module configs."""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ValidationFailure, from_fields
from .features import FbankConfig
from .nn.models import config_from_dict
from .train import TrainConfig

PROFILES = {
    "paper-default": "paper_default.json",
    "desk-scale": "desk_scale.json",
}


def strip_json_comments(text: str) -> str:
    """Remove // line comments and /* */ block comments outside strings."""
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
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                i += 1
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def load_json_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationFailure(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(strip_json_comments(text))
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"config {path} is not valid JSON: {exc}") from exc


def load_profile(name: str) -> dict:
    if name not in PROFILES:
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
    fold_index: int
    features: FbankConfig
    feature_cache: str | None
    arch: str
    model: object
    train: TrainConfig
    eval_manifests: tuple
    restrict_classes: bool
    out_dir: str
    seed: int

    def resolved_json(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


def resolve_experiment_config(raw: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    """Merge an optional named profile under the user's overrides and build
    the typed configs. Relative paths resolve against `base_dir`."""
    base_dir = Path(base_dir)
    merged: dict = {}
    if "profile" in raw:
        merged = load_profile(raw["profile"])
        if raw.get("arch", merged.get("arch")) != merged.get("arch"):
            # a profile's model keys belong to the profile's architecture
            merged.pop("model", None)
    merged = _deep_merge(merged, {k: v for k, v in raw.items() if k != "profile"})

    for required in ("manifest", "fold_plan", "out_dir"):
        if required not in merged:
            raise ValidationFailure(f"config missing required field {required!r}")

    def respath(p):  # joining keeps an absolute path as it is
        return str(base_dir / p)

    seed = int(merged.get("seed", 0))
    features = FbankConfig.from_json(merged.get("features", {}))
    arch = merged.get("arch", "cnn-blstm-att")
    model = config_from_dict(arch, merged.get("model", {}))
    train_fields = dict(merged.get("train", {}))
    train_fields.setdefault("seed", seed)
    train = from_fields(TrainConfig, train_fields, "train")
    return ExperimentConfig(
        manifest=respath(merged["manifest"]),
        fold_plan=respath(merged["fold_plan"]),
        fold_index=int(merged.get("fold_index", 0)),
        features=features,
        feature_cache=(
            respath(merged["feature_cache"]) if merged.get("feature_cache") else None
        ),
        arch=arch,
        model=model,
        train=train,
        eval_manifests=tuple(respath(p) for p in merged.get("eval_manifests", [])),
        restrict_classes=bool(merged.get("restrict_classes", False)),
        out_dir=respath(merged["out_dir"]),
        seed=seed,
    )
