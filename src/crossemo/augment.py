"""Deterministic augmentation plans and their rendering.

A recipe is a tuple of effect kinds, one per variant (RECIPE_VARIANTS); a
plan binds every (utterance, variant) pair to a concrete factor drawn from
FACTOR_RANGE by a stable hash of (base_seed, utterance_id, variant_index,
range). Rendering materializes one WAV per entry and returns an expanded
manifest whose augmented records inherit all metadata from their source.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .audio import EffectSpec, apply_effect, read_wav, write_wav
from .corpus import CorpusManifest, save_manifest
from .errors import CrossEmoError, ValidationFailure
from .ioutil import atomic_write_text, csv_text, stable_hash64, write_json

FACTOR_RANGE = (0.6, 1.5)

# effect kinds per recipe, one per variant; "7vars" covers all six effects
# plus a second independent speed draw
RECIPE_VARIANTS = {
    "speed": ("speed",),
    "volume": ("volume",),
    "2sp-2vol": ("speed", "speed", "volume", "volume"),
    "7vars": ("speed", "volume", "tempo", "bass", "treble", "overdrive", "speed"),
}


def get_recipe(name: str) -> tuple:
    """The effect kinds of recipe `name`, one per variant: its entry in
    RECIPE_VARIANTS. An unknown name raises ValidationFailure."""
    if name not in RECIPE_VARIANTS:
        raise ValidationFailure(
            f"unknown recipe {name!r}; valid recipes: {', '.join(sorted(RECIPE_VARIANTS))}"
        )
    return RECIPE_VARIANTS[name]


def draw_factor(base_seed: int, utterance_id: str, variant_index: int, factor_range) -> float:
    """Uniform draw in [lo, hi], a pure function of all four inputs."""
    lo, hi = float(factor_range[0]), float(factor_range[1])
    if not lo < hi:
        raise ValidationFailure(f"factor range must satisfy lo < hi, got [{lo}, {hi}]")
    u = stable_hash64(base_seed, utterance_id, variant_index, repr(lo), repr(hi)) / 2.0**64
    return lo + u * (hi - lo)


@dataclass(frozen=True)
class PlanEntry:
    source_id: str
    variant_index: int
    effect: str  # an EffectSpec kind
    factor: float
    output_path: str


@dataclass(frozen=True)
class AugmentPlan:
    recipe: str
    base_seed: int
    out_dir: str
    entries: tuple[PlanEntry, ...]


def save_plan(plan: AugmentPlan, path: str | Path) -> None:
    write_json(path, {"schema_version": 1, **asdict(plan)})


def augmented_id(source_id: str, recipe: str, variant_index: int) -> str:
    return f"{source_id}__{recipe}__v{variant_index}"


def plan_augmentation(
    manifest: CorpusManifest, recipe: str, base_seed: int, out_dir: str | Path
) -> AugmentPlan:
    """One entry per (record, variant of the named recipe), so |entries| =
    |records| * len(get_recipe(recipe)); each factor is a draw_factor in
    FACTOR_RANGE."""
    kinds = get_recipe(recipe)
    out_dir = str(out_dir)
    entries = []
    for record in manifest.records:
        for k, kind in enumerate(kinds):
            factor = draw_factor(base_seed, record.id, k, FACTOR_RANGE)
            path = str(Path(out_dir) / f"{augmented_id(record.id, recipe, k)}.wav")
            entries.append(PlanEntry(source_id=record.id, variant_index=k,
                                     effect=kind, factor=factor, output_path=path))
    return AugmentPlan(recipe=recipe, base_seed=base_seed, out_dir=out_dir, entries=tuple(entries))


@dataclass(frozen=True)
class RenderOutcome:
    output_id: str
    status: str  # "ok" or an error message
    duration_s: float | None


def apply_plan(plan: AugmentPlan, manifest: CorpusManifest):
    """Render every entry; failures are collected per entry, not fatal.

    Returns (expanded manifest, outcomes). The expanded manifest holds the
    originals plus one augmented record per successful entry, inheriting
    speaker/session/style/emotion from the source and flagged augmented.
    """
    outcomes = []
    new_records = list(manifest.records)
    for entry in plan.entries:
        out_id = augmented_id(entry.source_id, plan.recipe, entry.variant_index)
        try:
            source = manifest.get(entry.source_id)
        except KeyError:
            outcomes.append(RenderOutcome(out_id, "unknown source id", None))
            continue
        try:
            buffer = read_wav(source.audio_path)
            rendered = apply_effect(buffer, EffectSpec(entry.effect, entry.factor))
            write_wav(rendered, entry.output_path)
        except CrossEmoError as exc:
            outcomes.append(RenderOutcome(out_id, f"{type(exc).__name__}: {exc}", None))
            continue
        new_records.append(
            replace(
                source,
                id=out_id,
                audio_path=entry.output_path,
                augmented=True,
                source_id=source.id,
            )
        )
        outcomes.append(RenderOutcome(out_id, "ok", rendered.duration))
    return CorpusManifest(manifest.name, tuple(new_records)), outcomes


def outcomes_to_csv(outcomes) -> str:
    return csv_text([("output_id", "status", "duration_s"), *(
        (o.output_id, o.status, "" if o.duration_s is None else f"{o.duration_s:.6f}")
        for o in outcomes)])


def augment_corpus(
    manifest: CorpusManifest, recipe: str, seed: int, out_dir: str | Path, manifest_path
):
    """Plan `recipe` over every record and render it under `out_dir`/wav.
    Writes plan.json and summary.csv into `out_dir` and the expanded
    manifest to `manifest_path`. Returns (expanded manifest, outcomes)."""
    out_dir = Path(out_dir)
    plan = plan_augmentation(manifest, recipe, seed, out_dir / "wav")
    save_plan(plan, out_dir / "plan.json")
    expanded, outcomes = apply_plan(plan, manifest)
    atomic_write_text(out_dir / "summary.csv", outcomes_to_csv(outcomes))
    save_manifest(expanded, manifest_path)
    return expanded, outcomes
