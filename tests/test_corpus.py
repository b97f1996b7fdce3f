import json

import numpy as np
import pytest

from crossemo.corpus import (
    CorpusManifest,
    Fold,
    FoldPlan,
    UtteranceRecord,
    filter_style,
    load_fold_plan,
    load_manifest,
    make_fold_plan,
    make_folds_proportional,
    make_folds_session_holdout,
    make_folds_speaker_rotation,
    make_split_80_20,
    map_labels_iemocap,
    map_labels_mosei,
    save_fold_plan,
    save_manifest,
    subsample_balanced,
    validate_fold_plan,
)
from crossemo.errors import (
    ClassTooSmall,
    DuplicateId,
    MissingField,
    MissingSession,
    NotEnoughUtterances,
    LeakageError,
    TooFewSpeakers,
    UnknownStyle,
    ValidationFailure,
)
from conftest import make_manifest, make_record


def raw_record(i, label, **overrides):
    fields = {
        "id": f"r{i:05d}",
        "audio_path": f"/data/r{i:05d}.wav",
        "corpus": "demo",
        "speaker": f"s{i % 10:02d}",
        "style": "elicited-scripted",
        "raw_labels": {label: 1.0},
    }
    fields.update(overrides)
    return UtteranceRecord(**fields)


def dialog_corpus_manifest():
    """Manifest shaped like the four-class dialog corpus: per-class totals
    1103/1636/1084/1708 over five sessions (sessions one to four hold 4290
    records, the fifth 1241), plus out-of-set labels that mapping drops."""
    counts = {"angry": 1103, "happy": 595, "excited": 1041, "sad": 1084, "neutral": 1708}
    session_sizes = [1072, 1072, 1073, 1073, 1241]
    # style split inside the first four sessions: 2078 scripted / 2212 improvised
    records = []
    labels = [lab for lab, n in sorted(counts.items()) for _ in range(n)]
    rng = np.random.default_rng(202)
    rng.shuffle(labels)
    boundaries = np.cumsum(session_sizes)
    scripted_left = 2078
    i = 0
    for label in labels:
        session_idx = int(np.searchsorted(boundaries, i, side="right"))
        if session_idx < 4 and scripted_left > 0:
            style = "elicited-scripted"
            scripted_left -= 1
        else:
            style = "elicited-improvised"
        records.append(
            raw_record(
                i,
                label,
                session=f"session{session_idx + 1}",
                style=style,
                speaker=f"s{session_idx * 2 + (i % 2)}",
            )
        )
        i += 1
    # a handful of labels outside the four-class set
    for j, label in enumerate(["frustrated", "surprised", "frustrated"]):
        records.append(raw_record(90000 + j, label, session="session5"))
    return CorpusManifest(name="dialog", records=tuple(records))


class TestManifestIo:
    def test_load_three_records(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = [make_record(i).to_json() for i in range(3)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        manifest = load_manifest(path)
        assert len(manifest) == 3

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = make_record(0).to_json()
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(DuplicateId):
            load_manifest(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = make_record(0).to_json()
        del row["speaker"]
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(MissingField, match="speaker"):
            load_manifest(path)

    def test_unknown_style(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = make_record(0).to_json()
        row["style"] = "whispered"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(UnknownStyle):
            load_manifest(path)

    @pytest.mark.parametrize("line, message", [
        ("5", "not an object"), ("null", "not an object"), ('["u0000"]', "not an object"),
        ("{not json", "line 2 is not valid JSON"),
    ])
    def test_row_that_is_not_an_object_rejected(self, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(make_record(0).to_json()) + "\n" + line + "\n")
        with pytest.raises(ValidationFailure, match=message):
            load_manifest(path)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_augmented_must_be_a_boolean(self, tmp_path, value):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**make_record(0).to_json(), "augmented": value}) + "\n")
        with pytest.raises(ValidationFailure, match="augmented"):
            load_manifest(path)

    def test_save_load_round_trip(self, tmp_path):
        manifest = make_manifest(8)
        save_manifest(manifest, tmp_path / "m.jsonl")
        back = load_manifest(tmp_path / "m.jsonl")
        assert back.name == manifest.name
        assert back.records == manifest.records


class TestLabelMapIemocap:
    def test_excited_merges_into_happy(self):
        records = [raw_record(i, "happy") for i in range(595)]
        records += [raw_record(1000 + i, "excited") for i in range(1041)]
        result = map_labels_iemocap(CorpusManifest("x", tuple(records)))
        assert result.manifest.class_counts["happy"] == 1636

    def test_out_of_set_label_dropped_and_counted(self):
        records = [raw_record(0, "frustrated"), raw_record(1, "angry")]
        result = map_labels_iemocap(CorpusManifest("x", tuple(records)))
        assert len(result.manifest) == 1
        assert result.discarded["frustrated"] == 1

    def test_paper_shaped_counts(self):
        result = map_labels_iemocap(dialog_corpus_manifest())
        counts = result.manifest.class_counts
        assert counts["angry"] == 1103
        assert counts["happy"] == 1636
        assert counts["sad"] == 1084
        assert counts["neutral"] == 1708
        assert len(result.manifest) == 5531


class TestLabelMapMosei:
    def score_record(self, i, **scores):
        base = {e: 0.0 for e in ("anger", "disgust", "fear", "happiness", "sadness", "surprise")}
        base.update(scores)
        return raw_record(i, "x", raw_labels=base)

    def test_all_zero_is_neutral(self):
        result = map_labels_mosei(CorpusManifest("m", (self.score_record(0),)))
        assert result.manifest.records[0].emotion == "neutral"

    def test_single_positive_target(self):
        result = map_labels_mosei(CorpusManifest("m", (self.score_record(0, happiness=2.0),)))
        assert result.manifest.records[0].emotion == "happy"

    def test_multi_label_dropped(self):
        result = map_labels_mosei(
            CorpusManifest("m", (self.score_record(0, happiness=1.0, sadness=1.0),))
        )
        assert len(result.manifest) == 0
        assert result.discarded["equivocal"] == 1

    def test_non_target_positive_dropped(self):
        result = map_labels_mosei(CorpusManifest("m", (self.score_record(0, fear=2.0),)))
        assert len(result.manifest) == 0


class TestSpeakerRotation:
    def manifest24(self):
        records = []
        for i in range(240):
            records.append(make_record(i, speaker=f"s{i % 24:02d}"))
        return CorpusManifest("rot", tuple(records))

    def test_rotation_assignment(self):
        plan = make_folds_speaker_rotation(self.manifest24(), n_folds=5, test_speakers=5)
        manifest = self.manifest24()

        def test_speaker_set(fold):
            return {manifest.get(u).speaker for u in fold.test_ids}

        assert test_speaker_set(plan.folds[0]) == {f"s{i:02d}" for i in range(5)}
        assert test_speaker_set(plan.folds[1]) == {f"s{i:02d}" for i in range(5, 10)}
        assert test_speaker_set(plan.folds[4]) == {"s20", "s21", "s22", "s23", "s00"}

    def test_19_5_speaker_split(self):
        manifest = self.manifest24()
        plan = make_folds_speaker_rotation(manifest, n_folds=5, test_speakers=5)
        for fold in plan.folds:
            train_spk = {manifest.get(u).speaker for u in fold.train_ids}
            test_spk = {manifest.get(u).speaker for u in fold.test_ids}
            assert len(train_spk) == 19 and len(test_spk) == 5
            assert not train_spk & test_spk

    def test_too_few_speakers(self):
        records = tuple(make_record(i, speaker=f"s{i}") for i in range(4))
        with pytest.raises(TooFewSpeakers):
            make_folds_speaker_rotation(CorpusManifest("x", records), test_speakers=5)


class TestSessionHoldout:
    def test_five_sessions_five_folds(self):
        manifest = map_labels_iemocap(dialog_corpus_manifest()).manifest
        plan = make_folds_session_holdout(manifest)
        assert len(plan.folds) == 5
        fold0_sessions = {manifest.get(u).session for u in plan.folds[0].test_ids}
        assert fold0_sessions == {"session1"}
        train_sessions = {manifest.get(u).session for u in plan.folds[0].train_ids}
        assert train_sessions == {"session2", "session3", "session4", "session5"}

    def test_reverse_order_reproduces_last_session_first(self):
        manifest = map_labels_iemocap(dialog_corpus_manifest()).manifest
        plan = make_folds_session_holdout(manifest, reverse_order=True)
        fold0_sessions = {manifest.get(u).session for u in plan.folds[0].test_ids}
        assert fold0_sessions == {"session5"}

    def test_paper_shaped_fold_sizes(self):
        manifest = map_labels_iemocap(dialog_corpus_manifest()).manifest
        plan = make_folds_session_holdout(manifest, reverse_order=True)
        assert len(plan.folds[0].train_ids) == 4290
        assert len(plan.folds[0].test_ids) == 1241

    def test_partition_property(self):
        manifest = map_labels_iemocap(dialog_corpus_manifest()).manifest
        plan = make_folds_session_holdout(manifest)
        all_test = [u for fold in plan.folds for u in fold.test_ids]
        assert len(all_test) == len(set(all_test)) == len(manifest)

    def test_missing_session(self):
        records = (make_record(0), make_record(1))
        with pytest.raises(MissingSession):
            make_folds_session_holdout(CorpusManifest("x", records))


class TestProportionalFolds:
    def manifest_classes(self, counts, name="p"):
        records = []
        i = 0
        for label, n in counts.items():
            for _ in range(n):
                records.append(make_record(i, emotion=label, corpus=name))
                i += 1
        return CorpusManifest(name, tuple(records))

    def test_per_class_proportionality(self):
        manifest = self.manifest_classes({"angry": 100, "happy": 60, "sad": 40})
        plan = make_folds_proportional(manifest, n_folds=5, test_fraction=0.2, seed=3)
        for fold in plan.folds:
            test_counts = {}
            for u in fold.test_ids:
                test_counts[manifest.get(u).emotion] = test_counts.get(manifest.get(u).emotion, 0) + 1
            assert abs(test_counts["angry"] - 20) <= 1
            assert abs(test_counts["happy"] - 12) <= 1
            assert abs(test_counts["sad"] - 8) <= 1

    def test_deterministic_under_seed(self):
        manifest = self.manifest_classes({"angry": 100, "happy": 60})
        a = make_folds_proportional(manifest, seed=9)
        b = make_folds_proportional(manifest, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        manifest = self.manifest_classes({"angry": 500, "happy": 500})
        a = make_folds_proportional(manifest, seed=1)
        b = make_folds_proportional(manifest, seed=2)
        assert set(a.folds[0].test_ids) != set(b.folds[0].test_ids)

    def test_split_80_20_sizes(self):
        # corpus shaped like the first single-speaker corpus: 5430 records
        manifest = self.manifest_classes(
            {"angry": 764, "happy": 761, "sad": 754, "neutral": 3151}
        )
        plan = make_split_80_20(manifest, seed=0)
        assert len(plan.folds) == 1
        n_test = len(plan.folds[0].test_ids)
        # exact per-class rounding of a 0.2 fraction gives 1086 +- 4
        assert abs(n_test - 1086) <= 4
        assert n_test + len(plan.folds[0].train_ids) == 5430

    def test_unlabeled_manifest_rejected(self):
        manifest = make_manifest(10, emotion=None)
        with pytest.raises((MissingField, ClassTooSmall)):
            make_folds_proportional(manifest)


class TestSubsampleBalanced:
    def corpus(self, name, per_class):
        records = []
        i = 0
        for label, n in per_class.items():
            for _ in range(n):
                records.append(
                    make_record(i, corpus=name, emotion=label, id=f"{name}_{i}")
                )
                i += 1
        return CorpusManifest(name, tuple(records))

    def test_merged_size_2004(self):
        manifests = [
            self.corpus("RAV", {"angry": 150, "happy": 150, "sad": 150, "neutral": 80}),
            self.corpus("TF1", {"angry": 300, "happy": 200, "sad": 200, "neutral": 400}),
            self.corpus("TF2", {"angry": 300, "happy": 300, "sad": 300, "neutral": 300}),
            self.corpus("TM1", {"angry": 200, "happy": 300, "sad": 300, "neutral": 200}),
        ]
        merged = subsample_balanced(
            manifests, {"RAV": 450, "TF1": 518, "TF2": 518, "TM1": 518}, seed=5
        )
        assert len(merged) == 2004

    def test_not_enough_utterances(self):
        manifest = self.corpus("tiny", {"angry": 3, "happy": 2})
        with pytest.raises(NotEnoughUtterances):
            subsample_balanced([manifest], {"tiny": 10})

    def test_ids_prefixed_and_unique(self):
        a = self.corpus("ca", {"angry": 4, "happy": 4})
        b = self.corpus("cb", {"angry": 4, "happy": 4})
        merged = subsample_balanced([a, b], {"ca": 4, "cb": 4}, seed=1)
        assert len({r.id for r in merged.records}) == 8
        assert all(r.id.startswith(("ca__", "cb__")) for r in merged.records)

    def test_class_proportional_allocation(self):
        manifest = self.corpus("c", {"angry": 80, "happy": 20})
        merged = subsample_balanced([manifest], {"c": 50}, seed=2)
        counts = merged.class_counts
        assert counts["angry"] == 40 and counts["happy"] == 10


class TestFilterStyle:
    def test_paper_shaped_script_impro_sizes(self):
        manifest = map_labels_iemocap(dialog_corpus_manifest()).manifest
        plan = make_folds_session_holdout(manifest, reverse_order=True)
        train_ids = set(plan.folds[0].train_ids)
        train_manifest = CorpusManifest(
            "train", tuple(r for r in manifest.records if r.id in train_ids)
        )
        scripted = filter_style(train_manifest, "elicited-scripted")
        improvised = filter_style(train_manifest, "elicited-improvised")
        assert len(scripted) == 2078
        assert len(improvised) == 2212

    def test_empty_manifest(self):
        empty = CorpusManifest("x", ())
        assert len(filter_style(empty, "acted")) == 0

    def test_idempotent(self):
        manifest = make_manifest(10)
        once = filter_style(manifest, "acted")
        twice = filter_style(once, "acted")
        assert [r.id for r in once.records] == [r.id for r in twice.records]

    def test_unknown_style(self):
        with pytest.raises(UnknownStyle):
            filter_style(make_manifest(4), "sung")


class TestFoldPlanValidation:
    def test_round_trip_and_validate(self, tmp_path):
        manifest = make_manifest(20)
        plan = FoldPlan(
            strategy="proportional",
            folds=(Fold(tuple(f"u{i:04d}" for i in range(15)),
                        tuple(f"u{i:04d}" for i in range(15, 20))),),
            seed=1,
        )
        save_fold_plan(plan, tmp_path / "plan.json")
        back = load_fold_plan(tmp_path / "plan.json")
        validate_fold_plan(back, manifest)

    def test_overlap_rejected(self):
        manifest = make_manifest(4)
        plan = FoldPlan("proportional", (Fold(("u0000", "u0001"), ("u0001",)),))
        with pytest.raises(ValidationFailure):
            validate_fold_plan(plan, manifest)

    def test_unknown_id_rejected(self):
        manifest = make_manifest(2)
        plan = FoldPlan("proportional", (Fold(("u0000",), ("zzz",)),))
        with pytest.raises(ValidationFailure):
            validate_fold_plan(plan, manifest)

    def test_augmented_in_test_rejected(self):
        records = (
            make_record(0),
            make_record(1, id="u0000__speed__v0", augmented=True, source_id="u0000"),
        )
        manifest = CorpusManifest("x", records)
        plan = FoldPlan("proportional", (Fold(("u0000",), ("u0000__speed__v0",)),))
        with pytest.raises(LeakageError):
            validate_fold_plan(plan, manifest)

    # u0000..u0003: speakers s0 s1 s0 s1, sessions S0 S0 S1 S1
    SEPARATION = CorpusManifest(
        "sep", tuple(make_record(i, speaker=f"s{i % 2}", session=f"S{i // 2}") for i in range(4))
    )
    SPEAKERS_SHARED = Fold(("u0000", "u0001"), ("u0002", "u0003"))  # sessions apart
    SESSIONS_SHARED = Fold(("u0000", "u0002"), ("u0001", "u0003"))  # speakers apart
    BOTH_SHARED = Fold(("u0000", "u0003"), ("u0001", "u0002"))

    def test_speaker_rotation_keeps_speakers_apart(self):
        with pytest.raises(ValidationFailure, match="speakers shared"):
            validate_fold_plan(
                FoldPlan("speaker-rotation", (self.SPEAKERS_SHARED,)), self.SEPARATION
            )
        validate_fold_plan(FoldPlan("speaker-rotation", (self.SESSIONS_SHARED,)), self.SEPARATION)

    def test_session_holdout_keeps_sessions_apart(self):
        with pytest.raises(ValidationFailure, match="sessions shared"):
            validate_fold_plan(
                FoldPlan("session-holdout", (self.SESSIONS_SHARED,)), self.SEPARATION
            )
        validate_fold_plan(FoldPlan("session-holdout", (self.SPEAKERS_SHARED,)), self.SEPARATION)

    def test_strategy_outside_the_table_has_no_separation_check(self):
        validate_fold_plan(FoldPlan("custom", (self.BOTH_SHARED,)), self.SEPARATION)


class TestMakeFoldPlan:
    # 40 records over 8 speakers, 4 sessions and 4 classes
    MANIFEST = CorpusManifest(
        "plan", tuple(make_record(i, speaker=f"s{i % 8}", session=f"S{i % 4}") for i in range(40))
    )

    @pytest.mark.parametrize(
        "strategy, opts, direct",
        [
            ("speaker-rotation", {"n_folds": 3, "test_speakers": 2},
             lambda m: make_folds_speaker_rotation(m, n_folds=3, test_speakers=2)),
            ("session-holdout", {}, lambda m: make_folds_session_holdout(m)),
            ("session-holdout", {"reverse_sessions": True},
             lambda m: make_folds_session_holdout(m, reverse_order=True)),
            ("proportional", {"n_folds": 2, "test_fraction": 0.3, "seed": 5},
             lambda m: make_folds_proportional(m, n_folds=2, test_fraction=0.3, seed=5)),
            ("proportional", {}, lambda m: make_folds_proportional(m)),
            ("split-80-20", {"seed": 7}, lambda m: make_split_80_20(m, seed=7)),
        ],
    )
    def test_equals_direct_call(self, strategy, opts, direct):
        assert make_fold_plan(self.MANIFEST, strategy, **opts) == direct(self.MANIFEST)

    def test_unknown_strategy(self):
        with pytest.raises(ValidationFailure):
            make_fold_plan(self.MANIFEST, "by-moon-phase")

    def test_unknown_option(self):
        with pytest.raises(ValidationFailure):
            make_fold_plan(self.MANIFEST, "split-80-20", n_fold=2)
