import json
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from crossemo.corpus import CorpusManifest, Fold
from crossemo.errors import (
    BadConfig,
    DivergedLoss,
    EmptyTrainSet,
    LeakageError,
    TooFewPerClass,
    ValidationFailure,
    from_fields,
)
from crossemo.nn.checkpoint import load_checkpoint, graph_from_checkpoint
from crossemo.nn.models import build_cnn_blstm_att
from crossemo.nn.tensor import Tensor
from crossemo.train import (
    AdamState,
    PlateauState,
    TrainConfig,
    adam_step,
    carve_validation,
    iter_batches,
    plateau_update,
    train_model,
)
from conftest import make_record


class TestAdam:
    def make_params(self, values):
        return {"w": Tensor(np.array(values, dtype=np.float64), requires_grad=True)}

    def test_zero_gradient_leaves_parameters(self):
        params = self.make_params([1.0, -2.0])
        params["w"].grad = np.zeros(2)
        state = AdamState(params)
        state.m["w"][:] = 0.5
        adam_step(params, state, 1e-3)
        assert np.array_equal(params["w"].data, [1.0, -2.0]) is False  # moments decay, tiny drift
        # with zero gradient AND zero moments nothing moves
        params2 = self.make_params([1.0, -2.0])
        params2["w"].grad = np.zeros(2)
        adam_step(params2, AdamState(params2), 1e-3)
        assert np.array_equal(params2["w"].data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        params = self.make_params([0.0, 0.0])
        params["w"].grad = np.array([0.3, -7.0])
        adam_step(params, AdamState(params), 1e-3)
        # bias correction makes the first update ~ lr * sign(g)
        assert np.allclose(params["w"].data, [-1e-3, 1e-3], rtol=1e-4)

    def test_three_steps_deterministic(self):
        def run():
            params = self.make_params([0.5])
            state = AdamState(params)
            for g in ([0.2], [-0.4], [0.1]):
                params["w"].grad = np.array(g)
                adam_step(params, state, 1e-3)
            return params["w"].data.copy()

        assert np.array_equal(run(), run())

    def test_skips_parameters_without_gradient(self):
        params = {
            "used": Tensor(np.ones(2), requires_grad=True),
            "unused": Tensor(np.ones(2), requires_grad=True),
        }
        params["used"].grad = np.ones(2)
        adam_step(params, AdamState(params), 1e-3)
        assert np.array_equal(params["unused"].data, np.ones(2))
        assert not np.array_equal(params["used"].data, np.ones(2))


class TestPlateau:
    def run_metrics(self, metrics, lr=1e-4):
        state = PlateauState(lr=lr)
        for m in metrics:
            state = plateau_update(state, m)
        return state

    def test_improving_metrics_keep_lr(self):
        assert self.run_metrics([0.5, 0.6, 0.7]).lr == 1e-4

    def test_flat_metrics_reduce_once(self):
        state = self.run_metrics([0.7, 0.7, 0.7, 0.7, 0.7])
        assert state.lr == pytest.approx(8e-5)

    def test_forty_flat_epochs_ten_reductions(self):
        metrics = [0.7] + [0.7] * 40
        state = self.run_metrics(metrics)
        assert state.lr == pytest.approx(1e-4 * 0.8**10, rel=1e-9)

    def test_lr_floor(self):
        metrics = [0.7] + [0.7] * 400
        assert self.run_metrics(metrics).lr == pytest.approx(1e-7)

    def test_lr_never_increases(self):
        rng = np.random.default_rng(0)
        state = PlateauState(lr=1e-4)
        last = state.lr
        for _ in range(100):
            state = plateau_update(state, float(rng.uniform(0, 1)))
            assert state.lr <= last
            last = state.lr


class TestCarveValidation:
    def test_ten_percent_of_hundred(self):
        ids = [f"u{i}" for i in range(100)]
        labels = {u: "happy" for u in ids}
        fit, val = carve_validation(ids, labels, 0.1, seed=0)
        assert len(val) == 10 and len(fit) == 90
        assert not set(fit) & set(val)

    def test_deterministic(self):
        ids = [f"u{i}" for i in range(50)]
        labels = {u: ("happy" if i % 2 else "sad") for i, u in enumerate(ids)}
        assert carve_validation(ids, labels, 0.2, 7) == carve_validation(ids, labels, 0.2, 7)

    def test_class_proportions_within_one(self):
        ids = [f"u{i}" for i in range(120)]
        labels = {u: ["angry", "happy", "sad"][i % 3] for i, u in enumerate(ids)}
        fit, val = carve_validation(ids, labels, 0.1, 3)
        per_class = {}
        for u in val:
            per_class[labels[u]] = per_class.get(labels[u], 0) + 1
        assert all(abs(n - 4) <= 1 for n in per_class.values())

    def test_too_few_per_class(self):
        with pytest.raises(TooFewPerClass):
            carve_validation(["a"], {"a": "happy"}, 0.1, 0)


class TestBatching:
    def test_batch_partitioning_4290_at_186(self):
        ids = [f"u{i}" for i in range(4290)]
        batches = list(iter_batches(ids, 186, np.random.default_rng(0)))
        assert len(batches) == 24
        assert [len(b) for b in batches[:-1]] == [186] * 23
        assert len(batches[-1]) == 12

    def test_shuffle_seeded(self):
        ids = [f"u{i}" for i in range(100)]
        a = list(iter_batches(ids, 16, np.random.default_rng(5)))
        b = list(iter_batches(ids, 16, np.random.default_rng(5)))
        assert a == b
        c = list(iter_batches(ids, 16, np.random.default_rng(6)))
        assert a != c


class TrainHarness:
    """Small real corpus + store used by the training-loop tests."""

    def __init__(self, tmp_path, desk_fbank, desk_model_config, n_per_class=4, seed=0):
        from crossemo.features import FeatureStore
        from crossemo.synth import SynthCorpusSpec, generate_corpus

        spec = SynthCorpusSpec(
            name="train", n_speakers=2, utterances_per_class_per_speaker=n_per_class, seed=seed
        )
        self.manifest = generate_corpus(spec, tmp_path / "corpus")
        self.store = FeatureStore(self.manifest, desk_fbank)
        self.model_config = desk_model_config
        self.ids = tuple(r.id for r in self.manifest.records)

    def graph(self, seed=0):
        return build_cnn_blstm_att(self.model_config, seed=seed)


class TestTrainModel:
    def test_empty_train_set(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        with pytest.raises(EmptyTrainSet):
            train_model(
                h.graph(), h.manifest, Fold((), h.ids), h.store,
                TrainConfig(epochs=1, seed=0), tmp_path / "run",
            )

    def test_leakage_guard_train_test_overlap(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        fold = Fold(h.ids, h.ids[:1])
        with pytest.raises(LeakageError):
            train_model(h.graph(), h.manifest, fold, h.store,
                        TrainConfig(epochs=1, seed=0), tmp_path / "run")

    def test_leakage_guard_augmented_derivative(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        test_id = h.ids[-1]
        source = h.manifest.get(test_id)
        aug = make_record(
            0,
            id=f"{test_id}__speed__v0",
            augmented=True,
            source_id=test_id,
            emotion=source.emotion,
            corpus=source.corpus,
        )
        manifest = CorpusManifest(h.manifest.name, h.manifest.records + (aug,))
        fold = Fold(tuple(u for u in h.ids[:-1]) + (aug.id,), (test_id,))
        with pytest.raises(LeakageError):
            train_model(h.graph(), manifest, fold, h.store,
                        TrainConfig(epochs=1, seed=0), tmp_path / "run")

    def test_augmented_copies_follow_their_source(self, tmp_path, desk_fbank, desk_model_config):
        from crossemo.features import FeatureStore

        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        copies = tuple(
            replace(r, id=f"{r.id}__volume__v0", augmented=True, source_id=r.id)
            for r in h.manifest.records
        )
        manifest = CorpusManifest(h.manifest.name, h.manifest.records + copies)
        fold = Fold(h.ids[:-4], h.ids[-4:])
        result = train_model(h.graph(), manifest, fold, FeatureStore(manifest, desk_fbank),
                             TrainConfig(epochs=1, batch_size=8, seed=0), tmp_path / "run")
        # copies of the fit side join it in id order; those of validation and
        # test utterances never train
        fit = tuple(u for u in result.fit_ids if u in fold.train_ids)
        assert sorted(fit + result.val_ids) == sorted(fold.train_ids)
        assert result.fit_ids == fit + tuple(sorted(f"{u}__volume__v0" for u in fit))

    def test_history_schema_and_determinism(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        cfg = TrainConfig(epochs=3, learning_rate=0.003, batch_size=8, seed=9)
        fold = Fold(h.ids, ())
        train_model(h.graph(seed=1), h.manifest, fold, h.store, cfg, tmp_path / "run1")
        train_model(h.graph(seed=1), h.manifest, fold, h.store, cfg, tmp_path / "run2")
        h1 = (tmp_path / "run1" / "history.jsonl").read_bytes()
        h2 = (tmp_path / "run2" / "history.jsonl").read_bytes()
        assert h1 == h2
        records = [json.loads(line) for line in h1.decode().splitlines()]
        assert len(records) == 3
        assert all(
            set(r) == {"epoch", "train_loss", "val_ua", "val_wa", "lr"} for r in records
        )

    def test_checkpoints_bit_identical_across_runs(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        cfg = TrainConfig(epochs=2, learning_rate=0.003, batch_size=8, seed=4)
        fold = Fold(h.ids, ())
        train_model(h.graph(seed=2), h.manifest, fold, h.store, cfg, tmp_path / "a")
        train_model(h.graph(seed=2), h.manifest, fold, h.store, cfg, tmp_path / "b")
        assert (tmp_path / "a" / "checkpoint_last.bin").read_bytes() == (
            tmp_path / "b" / "checkpoint_last.bin"
        ).read_bytes()

    def test_resume_continues_epoch_count(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        fold = Fold(h.ids, ())
        cfg5 = TrainConfig(epochs=5, learning_rate=0.003, batch_size=8, seed=3)
        cfg2 = TrainConfig(epochs=2, learning_rate=0.003, batch_size=8, seed=3)
        run = tmp_path / "resume"
        train_model(h.graph(seed=3), h.manifest, fold, h.store, cfg2, run)
        result = train_model(
            h.graph(seed=3), h.manifest, fold, h.store, cfg5, run, resume=True
        )
        epochs = [r["epoch"] for r in result.history]
        assert epochs == [1, 2, 3, 4, 5]
        # resumed run equals a straight 5-epoch run bit for bit
        straight = tmp_path / "straight"
        train_model(h.graph(seed=3), h.manifest, fold, h.store, cfg5, straight)
        assert (run / "history.jsonl").read_bytes() == (straight / "history.jsonl").read_bytes()
        assert (run / "checkpoint_last.bin").read_bytes() == (
            straight / "checkpoint_last.bin"
        ).read_bytes()

    def test_resume_after_crash_at_any_write(self, tmp_path, desk_fbank, desk_model_config,
                                             monkeypatch):
        """A crash at any file commit of a 2-epoch run, then a resume to 3
        epochs, gives the same files as a straight 3-epoch run."""
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config, n_per_class=2)
        fold = Fold(h.ids, ())
        cfg2 = TrainConfig(epochs=2, learning_rate=0.003, batch_size=8, seed=5)
        cfg3 = replace(cfg2, epochs=3)
        straight = tmp_path / "straight"
        train_model(h.graph(seed=5), h.manifest, fold, h.store, cfg3, straight)

        class Crash(Exception):
            pass

        real_replace = os.replace
        calls = []

        def replace_counting(src, dst, crash_at=None):
            calls.append(dst)
            if len(calls) == crash_at:
                raise Crash(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_counting)
        train_model(h.graph(seed=5), h.manifest, fold, h.store, cfg2, tmp_path / "count")
        n_writes = len(calls)
        assert n_writes >= 4  # at least checkpoint and history for each epoch
        for k in range(1, n_writes + 1):
            run = tmp_path / f"crash{k}"
            calls.clear()
            monkeypatch.setattr(os, "replace", partial(replace_counting, crash_at=k))
            with pytest.raises(Crash):
                train_model(h.graph(seed=5), h.manifest, fold, h.store, cfg2, run)
            monkeypatch.setattr(os, "replace", real_replace)
            result = train_model(
                h.graph(seed=5), h.manifest, fold, h.store, cfg3, run, resume=True
            )
            assert [r["epoch"] for r in result.history] == [1, 2, 3], k
            for name in ("history.jsonl", "checkpoint_last.bin", "checkpoint_best.bin"):
                assert (run / name).read_bytes() == (straight / name).read_bytes(), (k, name)
            assert sorted(p.name for p in run.iterdir()) == sorted(
                p.name for p in straight.iterdir()
            )
        assert sorted(p.name for p in straight.iterdir()) == [
            "checkpoint_best.bin", "checkpoint_last.bin", "history.jsonl"
        ]

    def test_diverged_loss_dumps_state(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        graph = h.graph()
        graph.params["classifier.w"].data[:] = 1e38  # force non-finite logits
        with pytest.raises(DivergedLoss), pytest.warns(RuntimeWarning):
            train_model(
                graph, h.manifest, Fold(h.ids, ()), h.store,
                TrainConfig(epochs=1, batch_size=8, seed=0), tmp_path / "run",
            )
        assert (tmp_path / "run" / "diverged_state.json").exists()

    def test_unlabeled_record_rejected(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        stripped = CorpusManifest(
            h.manifest.name,
            tuple(
                make_record(i, id=r.id, emotion=None, corpus=r.corpus)
                for i, r in enumerate(h.manifest.records)
            ),
        )
        with pytest.raises(ValidationFailure):
            train_model(h.graph(), stripped, Fold(h.ids, ()), h.store,
                        TrainConfig(epochs=1, seed=0), tmp_path / "run")

    def test_best_checkpoint_loadable(self, tmp_path, desk_fbank, desk_model_config):
        h = TrainHarness(tmp_path, desk_fbank, desk_model_config)
        cfg = TrainConfig(epochs=2, learning_rate=0.003, batch_size=8, seed=1)
        result = train_model(
            h.graph(), h.manifest, Fold(h.ids, ()), h.store, cfg, tmp_path / "run"
        )
        data = load_checkpoint(result.best_checkpoint)
        assert tuple(data.extra["classes"]) == result.classes
        graph = graph_from_checkpoint(data)
        out = graph.forward(h.store.batch(h.ids[:2]))
        assert out.shape == (2, 4)

    def test_config_invariants(self):
        for bad in ({"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0}):
            with pytest.raises(ValidationFailure):
                TrainConfig(**bad)


def test_config_fields_take_null_when_optional_and_an_int_for_a_float():
    assert from_fields(TrainConfig, {"learning_rate": 1}, "train").learning_rate == 1
    with pytest.raises(BadConfig, match="epochs"):
        from_fields(TrainConfig, {"epochs": None}, "train")
