import hashlib

import numpy as np
import pytest

from crossemo.audio import EFFECTS, EffectSpec, read_wav, write_wav, AudioBuffer
from crossemo.augment import (
    RECIPE_VARIANTS,
    AugmentPlan,
    apply_plan,
    augmented_id,
    draw_factor,
    get_recipe,
    plan_augmentation,
    save_plan,
)
from crossemo.corpus import CorpusManifest, UtteranceRecord
from crossemo.errors import ValidationFailure, from_fields
from crossemo.ioutil import read_json, sha256_file
from conftest import make_manifest, tone


class TestRecipes:
    @pytest.mark.parametrize(
        "name,n_variants,expansion",
        [("speed", 1, 2), ("volume", 1, 2), ("2sp-2vol", 4, 5), ("7vars", 7, 8)],
    )
    def test_recipe_shapes(self, name, n_variants, expansion):
        kinds = get_recipe(name)
        assert len(kinds) == n_variants
        assert 1 + len(kinds) == expansion  # originals plus one copy per variant

    def test_7vars_covers_all_effects(self):
        kinds = set(RECIPE_VARIANTS["7vars"])
        assert kinds == {"speed", "volume", "tempo", "bass", "treble", "overdrive"}

    def test_unknown_recipe(self):
        with pytest.raises(ValidationFailure, match="valid recipes"):
            get_recipe("9vars")

    def test_every_recipe_kind_is_an_effect(self):
        for name, kinds in RECIPE_VARIANTS.items():
            assert set(kinds) <= set(EFFECTS), name

    def test_effect_outside_the_table_is_rejected(self):
        with pytest.raises(ValidationFailure, match="unknown effect 'chorus'"):
            EffectSpec("chorus", 1.0)


class TestDrawFactor:
    def test_deterministic(self):
        a = draw_factor(7, "utt1", 0, (0.6, 1.5))
        b = draw_factor(7, "utt1", 0, (0.6, 1.5))
        assert a == b

    def test_monte_carlo_distribution(self):
        draws = np.array(
            [draw_factor(1, f"u{i}", 0, (0.6, 1.5)) for i in range(100_000)]
        )
        assert abs(draws.mean() - 1.05) < 0.01
        assert draws.min() >= 0.6
        assert draws.max() <= 1.5

    def test_variant_index_changes_factor(self):
        collisions = sum(
            draw_factor(5, f"u{i}", 0, (0.6, 1.5)) == draw_factor(5, f"u{i}", 1, (0.6, 1.5))
            for i in range(10_000)
        )
        assert collisions == 0

    def test_bad_range(self):
        with pytest.raises(ValidationFailure, match="factor range must satisfy lo < hi"):
            draw_factor(1, "u", 0, (1.5, 0.6))


class TestPlanAugmentation:
    def test_2sp_2vol_times_five(self, tmp_path):
        manifest = make_manifest(4290)
        plan = plan_augmentation(manifest, "2sp-2vol", 11, tmp_path)
        assert len(plan.entries) == 17160
        assert len(manifest) + len(plan.entries) == 4290 * 5

    def test_7vars_times_eight(self, tmp_path):
        manifest = make_manifest(4290)
        plan = plan_augmentation(manifest, "7vars", 11, tmp_path)
        assert len(plan.entries) == 30030
        assert len(manifest) + len(plan.entries) == 4290 * 8

    def test_empty_manifest(self, tmp_path):
        plan = plan_augmentation(CorpusManifest("x", ()), "speed", 0, tmp_path)
        assert plan.entries == ()

    def test_output_path_format(self, tmp_path):
        manifest = make_manifest(1)
        plan = plan_augmentation(manifest, "speed", 0, tmp_path)
        assert plan.entries[0].output_path.endswith("u0000__speed__v0.wav")

    def test_factors_within_template_range(self, tmp_path):
        manifest = make_manifest(50)
        plan = plan_augmentation(manifest, "7vars", 3, tmp_path)
        assert all(0.6 <= e.factor <= 1.5 for e in plan.entries)

    def test_plan_determinism_and_round_trip(self, tmp_path):
        manifest = make_manifest(10)
        a = plan_augmentation(manifest, "2sp-2vol", 99, tmp_path / "out")
        b = plan_augmentation(manifest, "2sp-2vol", 99, tmp_path / "out")
        assert a == b
        save_plan(a, tmp_path / "plan.json")
        back = from_fields(AugmentPlan, read_json(tmp_path / "plan.json"), "plan",
                           ignore=("schema_version",))
        assert back == a

    def test_plan_json_bytes_are_pinned(self, tmp_path):
        # SHA-256 of the plan.json written before recipes became plain tuples
        # of effect kinds: it pins every factor drawn from FACTOR_RANGE
        plan = plan_augmentation(make_manifest(10), "7vars", 99, "aug")
        save_plan(plan, tmp_path / "plan.json")
        digest = hashlib.sha256((tmp_path / "plan.json").read_bytes()).hexdigest()
        assert digest == "15734a4699c45fe656314da2995d2f581254beb2a99559bfefa61a988427af84"


class TestApplyPlan:
    def small_corpus(self, tmp_path, n=3, seconds=2.0):
        records = []
        for i in range(n):
            path = tmp_path / f"in_{i}.wav"
            write_wav(tone(200 + 60 * i, seconds, amp=0.4), path)
            records.append(
                UtteranceRecord(
                    id=f"u{i}",
                    audio_path=str(path),
                    corpus="mini",
                    speaker=f"s{i}",
                    style="acted",
                    emotion=["angry", "happy", "sad"][i % 3],
                )
            )
        return CorpusManifest("mini", tuple(records))

    def test_duration_rule_and_inheritance(self, tmp_path):
        manifest = self.small_corpus(tmp_path, n=1)
        plan = plan_augmentation(manifest, "speed", 4, tmp_path / "aug")
        factor = plan.entries[0].factor
        expanded, outcomes = apply_plan(plan, manifest)
        assert all(o.status == "ok" for o in outcomes)
        augmented = [r for r in expanded.records if r.augmented]
        assert len(augmented) == 1
        assert augmented[0].emotion == manifest.records[0].emotion
        assert augmented[0].speaker == manifest.records[0].speaker
        assert augmented[0].source_id == "u0"
        rendered = read_wav(augmented[0].audio_path)
        assert abs(rendered.duration - 2.0 / factor) < 0.05

    def test_rerun_is_byte_identical(self, tmp_path):
        manifest = self.small_corpus(tmp_path)
        plan = plan_augmentation(manifest, "2sp-2vol", 8, tmp_path / "aug")
        apply_plan(plan, manifest)
        hashes = {e.output_path: sha256_file(e.output_path) for e in plan.entries}
        apply_plan(plan, manifest)
        assert hashes == {e.output_path: sha256_file(e.output_path) for e in plan.entries}

    def test_io_failure_collected_not_fatal(self, tmp_path):
        manifest = self.small_corpus(tmp_path, n=2)
        broken = CorpusManifest(
            "mini",
            (
                manifest.records[0],
                UtteranceRecord(
                    id="missing",
                    audio_path=str(tmp_path / "nope.wav"),
                    corpus="mini",
                    speaker="sx",
                    style="acted",
                    emotion="sad",
                ),
            ),
        )
        plan = plan_augmentation(broken, "volume", 0, tmp_path / "aug")
        expanded, outcomes = apply_plan(plan, broken)
        by_status = {o.output_id: o.status for o in outcomes}
        assert by_status[augmented_id("u0", "volume", 0)] == "ok"
        assert by_status[augmented_id("missing", "volume", 0)] != "ok"
        assert len([r for r in expanded.records if r.augmented]) == 1

    def test_unstable_treble_fails_its_entry_and_every_wav_is_finite(self, tmp_path):
        path = tmp_path / "low.wav"
        write_wav(tone(440, 1.0, sr=5000), path)
        manifest = CorpusManifest("low", (UtteranceRecord(
            id="u0", audio_path=str(path), corpus="low", speaker="s0", style="acted",
            emotion="sad"),))
        plan = plan_augmentation(manifest, "7vars", 3, tmp_path / "aug")
        expanded, outcomes = apply_plan(plan, manifest)
        status = {o.output_id: o.status for o in outcomes}
        treble = augmented_id("u0", "7vars", RECIPE_VARIANTS["7vars"].index("treble"))
        assert status.pop(treble) == (
            "ValidationFailure: treble shelf: its 3000-Hz corner is not below the Nyquist "
            "frequency of a 5000-Hz buffer, so the filter is unstable")
        assert set(status.values()) == {"ok"}
        assert len(expanded) == 7
        written = sorted((tmp_path / "aug").iterdir())
        assert [p.stem for p in written] == sorted(status)
        for wav in written:
            assert np.isfinite(read_wav(wav).samples).all()

    def test_all_seven_variants_render(self, tmp_path):
        manifest = self.small_corpus(tmp_path, n=1, seconds=1.5)
        plan = plan_augmentation(manifest, "7vars", 21, tmp_path / "aug")
        expanded, outcomes = apply_plan(plan, manifest)
        assert all(o.status == "ok" for o in outcomes)
        assert len(expanded) == 8
