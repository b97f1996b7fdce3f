import numpy as np
import pytest

from crossemo.errors import BadConfig, CheckpointMismatch, ShapeMismatch
from crossemo.nn import layers, ops
from crossemo.nn.checkpoint import (
    graph_from_checkpoint,
    load_checkpoint,
    load_into_graph,
    save_checkpoint,
)
from crossemo.nn.models import (
    BlstmAttConfig,
    CnnBlstmAttConfig,
    build_blstm_att,
    build_cnn_blstm_att,
    build_model,
)
from crossemo.nn.ops import softmax_cross_entropy
from crossemo.nn.tensor import Tensor

DESK_CNN = CnnBlstmAttConfig(
    conv_channels=(8, 16), pool_after=(1, 2), blstm_hidden=32,
    fc_sizes=(32, 16), attention_dim=16,
)
DESK_BLSTM = BlstmAttConfig(hidden=24, attention_dim=12)


def random_features(batch=2, frames=40, bands=23, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, frames, bands)).astype(np.float32)


class TestShapeContracts:
    def test_cnn_default_logits_shape(self):
        graph = build_cnn_blstm_att(CnnBlstmAttConfig(), seed=0)
        graph.set_mode("eval")
        out = graph.forward(random_features(frames=775))
        assert out.shape == (2, 4)

    def test_blstm_default_logits_shape(self):
        graph = build_blstm_att(BlstmAttConfig(), seed=0)
        graph.set_mode("eval")
        out = graph.forward(random_features(frames=775))
        assert out.shape == (2, 4)

    def test_wrong_band_count_rejected(self):
        graph = build_cnn_blstm_att(DESK_CNN, seed=0)
        with pytest.raises(ShapeMismatch):
            graph.forward(random_features(bands=24))

    def test_bad_configs(self):
        with pytest.raises(BadConfig):
            CnnBlstmAttConfig(fc_sizes=())
        with pytest.raises(BadConfig):
            CnnBlstmAttConfig(n_classes=1)
        with pytest.raises(BadConfig):
            CnnBlstmAttConfig(pool_after=(9,))
        with pytest.raises(BadConfig):
            # 23 bands cannot survive five halvings
            build_cnn_blstm_att(
                CnnBlstmAttConfig(conv_channels=(4,) * 5, pool_after=(1, 2, 3, 4, 5)),
                seed=0,
            )


class TestDeterminismAndModes:
    def test_eval_forward_bit_identical(self):
        graph = build_cnn_blstm_att(DESK_CNN, seed=1)
        graph.set_mode("eval")
        x = random_features()
        a = graph.forward(x).data
        b = graph.forward(x).data
        assert np.array_equal(a, b)

    def test_same_seed_same_parameters(self):
        a = build_cnn_blstm_att(DESK_CNN, seed=5)
        b = build_cnn_blstm_att(DESK_CNN, seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_mode_toggle_leaves_parameters_untouched(self):
        graph = build_cnn_blstm_att(DESK_CNN, seed=2)
        before = {k: p.data.copy() for k, p in graph.params.items()}
        graph.set_mode("eval")
        graph.forward(random_features())
        graph.set_mode("train")
        graph.forward(random_features(), dropout_rng=np.random.default_rng(0))
        for name, data in before.items():
            assert np.array_equal(graph.params[name].data, data)

    def test_train_mode_differs_only_via_dropout_and_bn(self):
        graph = build_cnn_blstm_att(DESK_CNN, seed=3)
        x = random_features(batch=4)
        graph.set_mode("eval")
        eval_out = graph.forward(x).data
        graph.set_mode("train")
        train_out = graph.forward(x, dropout_rng=np.random.default_rng(1)).data
        assert not np.array_equal(eval_out, train_out)


class TestGradientCoverage:
    @pytest.mark.parametrize(
        "builder,cfg",
        [
            (build_cnn_blstm_att, CnnBlstmAttConfig()),
            (build_cnn_blstm_att, DESK_CNN),
            (build_blstm_att, DESK_BLSTM),
        ],
        ids=["cnn-default", "cnn-desk", "blstm-desk"],
    )
    def test_every_parameter_gets_gradient(self, builder, cfg):
        graph = builder(cfg, seed=4)
        graph.set_mode("train")
        frames = 120 if isinstance(cfg, CnnBlstmAttConfig) and len(cfg.conv_channels) == 6 else 40
        x = random_features(batch=3, frames=frames, seed=4)
        loss = softmax_cross_entropy(
            graph.forward(x, dropout_rng=np.random.default_rng(0)), np.array([0, 1, 2])
        )
        loss.backward()
        dead = [k for k, p in graph.params.items() if p.grad is None or not np.any(p.grad)]
        assert dead == []


class TestParameterCounts:
    # regression pins for the shipped configurations
    def test_counts(self):
        assert build_cnn_blstm_att(CnnBlstmAttConfig(), 0).parameter_count() == 4_407_908
        assert build_blstm_att(BlstmAttConfig(), 0).parameter_count() == 8_626_436
        assert build_cnn_blstm_att(DESK_CNN, 0).parameter_count() == 33_236

    def test_count_printed(self, capsys):
        build_cnn_blstm_att(DESK_CNN, 0)
        assert "33,236 parameters" in capsys.readouterr().out


class TestBlstmProperties:
    def test_zero_weights_zero_output(self):
        params = {
            "l.fw.wx": Tensor(np.zeros((5, 12))),
            "l.fw.wh": Tensor(np.zeros((3, 12))),
            "l.fw.b": Tensor(np.zeros(12)),
            "l.bw.wx": Tensor(np.zeros((5, 12))),
            "l.bw.wh": Tensor(np.zeros((3, 12))),
            "l.bw.b": Tensor(np.zeros(12)),
        }
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 5)))
        out = layers.blstm_forward(params, "l", x, 3)
        assert np.all(out.data == 0.0)

    def test_time_reversal_swaps_direction_outputs(self):
        # with tied forward/backward weights, reversing the input reverses
        # the output and swaps its direction halves
        rng = np.random.default_rng(6)
        shared = {
            "wx": rng.normal(size=(4, 12)) * 0.4,
            "wh": rng.normal(size=(3, 12)) * 0.4,
            "b": rng.normal(size=12) * 0.1,
        }
        params = {}
        for d in ("fw", "bw"):
            for k, v in shared.items():
                params[f"l.{d}.{k}"] = Tensor(v.copy())
        x = rng.normal(size=(2, 5, 4))
        out = layers.blstm_forward(params, "l", Tensor(x), 3).data
        out_rev = layers.blstm_forward(params, "l", Tensor(x[:, ::-1, :].copy()), 3).data
        swapped = np.concatenate([out_rev[..., 3:], out_rev[..., :3]], axis=-1)
        assert np.allclose(out, swapped[:, ::-1, :], atol=1e-12)


class TestAttentionProperties:
    def setup_method(self):
        self.params = {}
        layers.add_attention(self.params, np.random.default_rng(7), "a", 4, 3, dtype=np.float64)

    def test_single_step_passthrough(self):
        x = np.random.default_rng(8).normal(size=(2, 1, 4))
        pooled, weights = layers.attention_forward(self.params, "a", Tensor(x))
        assert np.allclose(pooled.data, x[:, 0, :])
        assert np.allclose(weights, 1.0)

    def test_identical_steps_uniform_weights(self):
        step = np.random.default_rng(9).normal(size=(1, 1, 4))
        x = np.repeat(step, 5, axis=1)
        pooled, weights = layers.attention_forward(self.params, "a", Tensor(x))
        assert np.allclose(weights, 0.2)
        assert np.allclose(pooled.data, step[:, 0, :])

    def test_weights_are_distribution(self):
        x = np.random.default_rng(10).normal(size=(4, 7, 4))
        _, weights = layers.attention_forward(self.params, "a", Tensor(x))
        assert np.all(weights >= 0)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)


class TestCheckpoints:
    def test_round_trip_forward_bit_identical(self, tmp_path):
        graph = build_cnn_blstm_att(DESK_CNN, seed=11)
        # push batch-norm stats away from their init values
        graph.set_mode("train")
        graph.forward(random_features(batch=4, seed=1), dropout_rng=np.random.default_rng(2))
        graph.set_mode("eval")
        x = random_features(seed=3)
        before = graph.forward(x).data
        path = tmp_path / "ckpt.bin"
        save_checkpoint(graph, path, epoch=7, extra={"classes": ["a", "b", "c", "d"]})
        data = load_checkpoint(path)
        assert data.epoch == 7
        assert data.extra["classes"] == ["a", "b", "c", "d"]
        restored = graph_from_checkpoint(data)
        after = restored.forward(x).data
        assert np.array_equal(before, after)

    def test_digest_mismatch_rejected(self, tmp_path):
        graph = build_cnn_blstm_att(DESK_CNN, seed=12)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(graph, path, epoch=1)
        other = build_cnn_blstm_att(CnnBlstmAttConfig(), seed=0)
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path, expect_digest=other.digest)

    @pytest.mark.parametrize("part", ["params", "bn_stats"])
    def test_partial_checkpoint_rejected(self, tmp_path, part):
        graph = build_cnn_blstm_att(DESK_CNN, seed=13)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(graph, path, epoch=1)
        data = load_checkpoint(path)
        stored = getattr(data, part)
        del stored[sorted(stored)[0]]
        with pytest.raises(CheckpointMismatch):
            load_into_graph(build_cnn_blstm_att(DESK_CNN, seed=14), data)

    def test_build_model_dispatch(self):
        g = build_model("blstm-att", {"hidden": 8, "attention_dim": 4}, seed=0)
        assert g.arch == "blstm-att"
        with pytest.raises(BadConfig):
            build_model("transformer", {}, seed=0)
