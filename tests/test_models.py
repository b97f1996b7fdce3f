import dataclasses
import json
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from crossemo.cli import main
from crossemo.errors import ValidationFailure
from crossemo.ioutil import write_json
from crossemo.nn import layers, ops
from crossemo.nn.checkpoint import (
    FORMAT_VERSION,
    CheckpointHeader,
    graph_from_checkpoint,
    load_checkpoint,
    load_into_graph,
    save_checkpoint,
)
from crossemo.nn.models import (
    BlstmAttConfig,
    CnnBlstmAttConfig,
    architecture,
    build_blstm_att,
    build_cnn_blstm_att,
    build_model,
)
from crossemo.nn.ops import softmax_cross_entropy
from crossemo.nn.tensor import Tensor, _topo_order
from crossemo.synth import SynthCorpusSpec, generate_corpus

DESK_CNN = CnnBlstmAttConfig(
    conv_channels=(8, 16), pool_after=(1, 2), blstm_hidden=32,
    fc_sizes=(32, 16), attention_dim=16,
)
DESK_BLSTM = BlstmAttConfig(hidden=24, attention_dim=12)
BLSTM_GATE = ops.BLSTM_THREAD_MIN_HIDDEN


def random_features(batch=2, frames=40, bands=23, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, frames, bands)).astype(np.float32)


def graph_nodes(root: Tensor) -> list:
    """Every node reachable from `root` through its parents."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def numpy_blstm(x, params, hidden):
    """Stepwise BLSTM in plain numpy, in the autodiff graph's arithmetic
    order: the reference for `ops.blstm`'s forward."""
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    batch, n_steps, n_in = x.shape
    halves = []
    for d, order in (("fw", range(n_steps)), ("bw", range(n_steps - 1, -1, -1))):
        wx, wh, b = (params[f"l.{d}.{n}"] for n in ("wx", "wh", "b"))
        gx = (x.reshape(batch * n_steps, n_in) @ wx + b).reshape(batch, n_steps, 4 * hidden)
        h = np.zeros((batch, hidden), dtype=x.dtype)
        c = np.zeros_like(h)
        hs = np.empty((batch, n_steps, hidden), dtype=x.dtype)
        for t in order:
            z = gx[:, t] + h @ wh
            i, f, o = (sigmoid(z[:, q * hidden : (q + 1) * hidden]) for q in (0, 1, 3))
            g = np.tanh(z[:, 2 * hidden : 3 * hidden])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[:, t] = h
        halves.append(hs)
    return np.concatenate(halves, axis=-1)


def numpy_dense(x, w, b, g):
    """`ops.add(ops.matmul(x, w), b)` and its backward in plain numpy, in
    that graph's arithmetic order: the reference for `ops.dense`.
    Returns (out, dx, dw, db)."""
    return x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0)


def numpy_attention(seq, w, b, v, g):
    """Attention pooling as the generic-op graph computed it (matmul, add,
    tanh, matmul, softmax over time, broadcast multiply, sum over time) and
    that graph's backward, node by node: the reference for `ops.attention`.
    Returns (pooled, weights, dseq, dw, db, dv)."""
    batch, n_steps, feat = seq.shape
    flat = seq.reshape(batch * n_steps, feat)
    hidden = np.tanh(flat @ w + b)
    scores = (hidden @ v).reshape(batch, n_steps)
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    weights = e / e.sum(axis=1, keepdims=True)
    weights3 = weights.reshape(batch, n_steps, 1)
    pooled = (weights3 * seq).sum(axis=1)

    g_weighted = np.broadcast_to(np.expand_dims(g, 1), seq.shape).copy()  # sum backward
    g_weights = (g_weighted * seq).sum(axis=2, keepdims=True).reshape(batch, n_steps)
    dseq = g_weighted * weights3  # the multiply's second operand
    g_scores = weights * (g_weights - (g_weights * weights).sum(axis=1, keepdims=True))
    g_scores = g_scores.reshape(batch * n_steps, 1)
    g_hidden, dv = g_scores @ v.T, hidden.T @ g_scores
    g_pre = g_hidden * (1.0 - hidden * hidden)
    db, dw = g_pre.sum(axis=0), flat.T @ g_pre
    dseq += (g_pre @ w.T).reshape(seq.shape)  # the reshape feeding the scores
    return pooled, weights, dseq, dw, db, dv


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
        with pytest.raises(ValidationFailure, match=r"expected \[batch, time, 23\] features"):
            graph.forward(random_features(bands=24))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_input_too_short_for_the_pools_rejected(self, mode):
        graph = build_cnn_blstm_att(DESK_CNN, seed=0)  # two 2x2 pools need 4 frames
        graph.set_mode(mode)
        graph.forward(random_features(frames=4), dropout_rng=np.random.default_rng(0))
        with pytest.raises(ValidationFailure, match="pooling 2x2 on "):
            graph.forward(random_features(frames=3), dropout_rng=np.random.default_rng(0))

    def test_bad_configs(self):
        with pytest.raises(ValidationFailure,
                           match="need at least one conv layer and one fc layer"):
            CnnBlstmAttConfig(fc_sizes=())
        with pytest.raises(ValidationFailure, match="n_classes must be >= 2"):
            CnnBlstmAttConfig(n_classes=1)
        with pytest.raises(ValidationFailure, match=r"pool_after entries must index conv layers"):
            CnnBlstmAttConfig(pool_after=(9,))
        with pytest.raises(ValidationFailure,
                           match="pooling schedule collapses 23 bands to zero width"):
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

    @pytest.mark.parametrize("builder,cfg", [(build_cnn_blstm_att, DESK_CNN),
                                             (build_blstm_att, DESK_BLSTM)],
                             ids=["cnn-desk", "blstm-desk"])
    def test_eval_forward_builds_no_graph(self, builder, cfg):
        graph = builder(cfg, seed=6)
        graph.set_mode("eval")
        grads = {}
        for name, p in graph.params.items():
            p.grad = grads[name] = np.full(p.shape, 7.0, dtype=p.dtype)
        x = random_features(seed=6)
        logits = graph.forward(x)
        assert logits._parents == () and logits._backward is None
        # the same eval forward run on the parameters themselves records a graph
        built = architecture(graph.arch).forward(graph, x, None)
        assert built._parents and built._backward is not None
        assert np.array_equal(logits.data, built.data)
        for name, p in graph.params.items():
            assert p.grad is grads[name] and np.all(p.grad == 7.0), name

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

    def test_backward_keeps_only_leaf_grads(self):
        graph = build_cnn_blstm_att(DESK_CNN, seed=4)
        graph.set_mode("train")
        x = random_features(batch=3, seed=4)

        def loss_of():
            graph.zero_grad()
            logits = graph.forward(x, dropout_rng=np.random.default_rng(0))
            return softmax_cross_entropy(logits, np.array([0, 1, 2]))

        # reference: the same reverse topological walk, keeping every gradient
        loss = loss_of()
        loss.accumulate(np.ones_like(loss.data))
        for node in reversed(_topo_order(loss)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        kept = {k: p.grad.copy() for k, p in graph.params.items()}

        # a releasing backward leaves no graph to walk: collect the nodes first
        loss = loss_of()
        interior = [n for n in graph_nodes(loss) if n._backward is not None]
        loss.backward()
        assert interior
        for node in interior:
            assert node.grad is None and node._backward is None and node._parents == ()
        for name, p in graph.params.items():
            assert np.array_equal(p.grad, kept[name]), name

    def test_backward_frees_every_activation(self):
        graph = build_cnn_blstm_att(DESK_CNN, seed=4)
        graph.set_mode("train")
        logits = graph.forward(random_features(batch=3, seed=4),
                               dropout_rng=np.random.default_rng(0))
        loss = softmax_cross_entropy(logits, np.array([0, 1, 2]))
        alive = [weakref.ref(n.data) for n in graph_nodes(loss)
                 if n._backward is not None and n is not loss and n is not logits]
        assert alive
        loss.backward()  # `loss` and `logits` stay bound, as in a training step
        assert [r for r in alive if r() is not None] == []

    def test_training_forward_keeps_only_pooled_conv_outputs(self):
        # 10.7 MiB held here: pooling inside conv2d and one fc_block per FC
        # layer, which keeps only x-hat and its output. Separate dense,
        # batch-norm, ReLU and dropout ops held 13.3, and pooled layers that
        # kept their full-resolution outputs 17.6
        graph = build_cnn_blstm_att(CnnBlstmAttConfig(), seed=0)
        x = random_features(batch=8, frames=120)
        tracemalloc.start()
        try:
            logits = graph.forward(x, dropout_rng=np.random.default_rng(0))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert logits.shape == (8, 4)
        assert held < 12 * 2**20

    @pytest.mark.parametrize("builder,cfg,frames,expected", [
        (build_cnn_blstm_att, CnnBlstmAttConfig(), 120, 58),
        (build_cnn_blstm_att, DESK_CNN, 40, 36),
        (build_blstm_att, DESK_BLSTM, 40, 23),
    ], ids=["paper-default", "desk-scale", "blstm-att-2-layer"])
    def test_graph_nodes_per_training_forward(self, builder, cfg, frames, expected):
        # leaves included; every layer is one node
        graph = builder(cfg, seed=0)
        x = random_features(batch=2, frames=frames)
        logits = graph.forward(x, dropout_rng=np.random.default_rng(0))
        assert len(graph_nodes(softmax_cross_entropy(logits, np.array([0, 1])))) == expected


class TestParameterCounts:
    # regression pins for the shipped configurations
    def test_counts(self):
        assert build_cnn_blstm_att(CnnBlstmAttConfig(), 0).parameter_count() == 4_407_908
        assert build_blstm_att(BlstmAttConfig(), 0).parameter_count() == 8_626_436
        assert build_cnn_blstm_att(DESK_CNN, 0).parameter_count() == 33_236

    def test_count_printed(self, tmp_path, capsys):
        # the builder is silent; `crossemo train` reports the size of what it trains
        capsys.readouterr()
        build_cnn_blstm_att(DESK_CNN, 0)
        assert capsys.readouterr().out == ""
        spec = SynthCorpusSpec(name="tiny", n_speakers=2, utterances_per_class_per_speaker=2,
                               duration_range=(0.6, 0.7), seed=3)
        generate_corpus(spec, tmp_path / "corpus")
        prep = tmp_path / "prep"
        assert main(["prepare", "--manifest", str(tmp_path / "corpus" / "manifest.jsonl"),
                     "--strategy", "split-80-20", "--out", str(prep)]) == 0
        write_json(tmp_path / "train.json", {
            "profile": "desk-scale", "manifest": str(prep / "manifest.jsonl"),
            "fold_plan": str(prep / "folds.json"), "train": {"epochs": 1},
            "out_dir": str(tmp_path / "run"),
        })
        assert main(["train", "--config", str(tmp_path / "train.json")]) == 0
        assert "[crossemo] built cnn-blstm-att: 33,236 parameters" in capsys.readouterr().out


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


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_numpy_reference_bit_for_bit(self, dtype):
        # hidden 256 is at the threading gate; an eval forward keeps its
        # state in a two-step ring
        for hidden in (4, BLSTM_GATE):
            params = {}
            layers.add_blstm(params, np.random.default_rng(3), "l", 5, hidden, dtype=dtype)
            arrays = {k: p.data for k, p in params.items()}
            x = np.random.default_rng(4).normal(size=(3, 7, 5)).astype(dtype)
            want = numpy_blstm(x, arrays, hidden)
            for mode_params in (params, {k: Tensor(a) for k, a in arrays.items()}):
                out = layers.blstm_forward(mode_params, "l", Tensor(x), hidden)
                assert out.requires_grad == (mode_params is params)
                assert out.dtype == dtype
                assert np.array_equal(out.data, want), hidden

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_threaded_and_serial_schedules_bit_identical(self, dtype, monkeypatch):
        rng = np.random.default_rng(8)
        params = {}
        layers.add_blstm(params, rng, "l", 5, BLSTM_GATE, dtype=dtype)
        x = rng.normal(size=(2, 6, 5)).astype(dtype)
        gy = rng.normal(size=(2, 6, 2 * BLSTM_GATE)).astype(dtype)
        monkeypatch.setattr(ops, "_cores", lambda: 2)
        forward_threads = []
        lstm_forward = ops._lstm_forward

        def spy(*args):
            forward_threads.append(threading.current_thread())
            lstm_forward(*args)

        monkeypatch.setattr(ops, "_lstm_forward", spy)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads take turns as often as they can
        try:
            for gate in (BLSTM_GATE, BLSTM_GATE + 1):  # threaded, then serial
                monkeypatch.setattr(ops, "BLSTM_THREAD_MIN_HIDDEN", gate)
                for p in params.values():
                    p.zero_grad()
                xt = Tensor(x, requires_grad=True)
                out = layers.blstm_forward(params, "l", xt, BLSTM_GATE)
                out.backward(gy.copy())
                runs.append([out.data, xt.grad] + [p.grad for p in params.values()])
        finally:
            sys.setswitchinterval(interval)
        main = threading.main_thread()
        assert sorted(t is main for t in forward_threads[:2]) == [False, True]
        assert forward_threads[2:] == [main, main]
        for threaded, serial in zip(*runs):
            assert threaded.dtype == dtype and np.array_equal(threaded, serial)

    def test_error_in_worker_direction_raised_after_both_stop(self):
        stopped = []

        def run(k):
            if k == 1:
                raise ValidationFailure("direction 1")
            time.sleep(0.05)
            stopped.append(k)

        with pytest.raises(ValidationFailure, match="direction 1"):
            ops._run_pair(run, threaded=True)
        assert stopped == [0]

    def test_eval_forward_holds_no_per_step_history(self):
        params = {}
        layers.add_blstm(params, np.random.default_rng(9), "l", 23, 128)
        fw, bw = ([Tensor(params[f"l.{d}.{n}"].data) for n in ("wx", "wh", "b")]
                  for d in ("fw", "bw"))
        batch, n_steps, hidden = 48, 131, 128
        x = Tensor(random_features(batch=batch, frames=n_steps))
        tracemalloc.start()
        try:
            out = ops.blstm(x, fw, bw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gate_inputs = 2 * batch * n_steps * 4 * hidden * 4
        every_step = 2 * n_steps * 6 * batch * hidden * 4  # i, f, g, o, c, tanh(c)
        # beyond its output (6.1 MiB) and both directions' gate inputs (24.6),
        # the peak was 0.7 MiB with a two-step ring; keeping every step's
        # state (36.8 MiB) gave a 61.7-MiB peak
        assert peak - out.data.nbytes - gate_inputs < every_step / 8

    @pytest.mark.parametrize("builder,cfg", [(build_cnn_blstm_att, DESK_CNN),
                                             (build_blstm_att, DESK_BLSTM)],
                             ids=["cnn-desk", "blstm-desk"])
    def test_no_thread_at_desk_width(self, builder, cfg, monkeypatch):
        def refuse(*args):
            raise AssertionError("a desk-width layer used the worker thread")

        monkeypatch.setattr(ops._WORKER, "submit", refuse)
        before = threading.active_count()
        graph = builder(cfg, seed=7)
        x = random_features(batch=3, seed=7)
        graph.set_mode("eval")
        graph.forward(x)
        graph.set_mode("train")
        logits = graph.forward(x, dropout_rng=np.random.default_rng(0))
        softmax_cross_entropy(logits, np.array([0, 1, 2])).backward()
        assert threading.active_count() == before

    def test_import_starts_no_thread(self):
        code = ("import threading, crossemo, crossemo.augment, crossemo.cli, crossemo.nn.ops, "
                "crossemo.synth; "
                "print(threading.active_count())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_one_node_whatever_the_length(self):
        params = {}
        layers.add_blstm(params, np.random.default_rng(5), "l", 5, 4)
        counts = []
        for n_steps in (2, 40):
            x = Tensor(random_features(batch=2, frames=n_steps, bands=5), requires_grad=True)
            counts.append(len(graph_nodes(layers.blstm_forward(params, "l", x, 4))))
        assert counts[0] == counts[1]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one desk-scale training step (batch 16, 120 frames) in a fresh process that
# imports crossemo first, as the `crossemo` script does; saves the `wh` gradients
DESK_STEP = """
import sys
import crossemo
import numpy as np
from crossemo.nn.models import CnnBlstmAttConfig, build_cnn_blstm_att
from crossemo.nn.ops import softmax_cross_entropy
cfg = CnnBlstmAttConfig(conv_channels=(8, 16), pool_after=(1, 2), blstm_hidden=32,
                        fc_sizes=(32, 16), attention_dim=16)
graph = build_cnn_blstm_att(cfg, seed=7)
graph.set_mode("train")
x = np.random.default_rng(7).normal(size=(16, 120, 23)).astype(np.float32)
logits = graph.forward(x, dropout_rng=np.random.default_rng(0))
softmax_cross_entropy(logits, np.arange(16) % cfg.n_classes).backward()
np.savez(sys.argv[1], **{k: p.grad for k, p in graph.params.items() if k.endswith(".wh")})
"""


def run_fresh(args, **blas_env):
    """`python *args` with the BLAS variables of `blas_env` only."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**env, **blas_env, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestBlasThreads:
    def test_plain_run_computes_the_pinned_bits(self, tmp_path):
        run_fresh(["-c", DESK_STEP, str(tmp_path / "plain.npz")])
        run_fresh(["-c", DESK_STEP, str(tmp_path / "pinned.npz")],
                  **dict.fromkeys(BLAS_VARS, "1"))
        plain, pinned = np.load(tmp_path / "plain.npz"), np.load(tmp_path / "pinned.npz")
        assert sorted(plain.files) == ["blstm0.bw.wh", "blstm0.fw.wh"]
        for name in plain.files:
            assert np.array_equal(plain[name], pinned[name]), name

    def test_explicit_setting_kept(self):
        code = "import os, crossemo; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
        assert run_fresh(["-c", code], OPENBLAS_NUM_THREADS="2").split() == ["2", "1", "1"]


class TestFusedLayersExact:
    """`ops.dense` and `ops.attention` compute what the generic-op graphs
    they replace computed, bit for bit, forward and backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_matches_numpy_reference(self, dtype):
        rng = np.random.default_rng(12)
        params = {}
        layers.add_dense(params, rng, "d", 6, 5, dtype=dtype)
        params["d.b"].data[...] = rng.normal(size=5)
        x = Tensor(rng.normal(size=(9, 6)).astype(dtype), requires_grad=True)
        g = rng.normal(size=(9, 5)).astype(dtype)
        out = layers.dense(params, "d", x)
        out.backward(g)
        expected = numpy_dense(x.data, params["d.w"].data, params["d.b"].data, g)
        got = (out.data, x.grad, params["d.w"].grad, params["d.b"].grad)
        for name, a, b in zip(("out", "dx", "dw", "db"), got, expected):
            assert a.dtype == dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_matches_numpy_reference(self, dtype):
        rng = np.random.default_rng(13)
        params = {}
        layers.add_attention(params, rng, "a", 6, 4, dtype=dtype)
        params["a.b"].data[...] = rng.normal(size=4)
        seq = Tensor(rng.normal(size=(3, 11, 6)).astype(dtype), requires_grad=True)
        g = rng.normal(size=(3, 6)).astype(dtype)
        pooled, weights = layers.attention_forward(params, "a", seq)
        pooled.backward(g)
        expected = numpy_attention(seq.data, *(params[f"a.{n}"].data for n in "wbv"), g)
        got = (pooled.data, weights, seq.grad,
               *(params[f"a.{n}"].grad for n in "wbv"))
        names = ("pooled", "weights", "dseq", "dw", "db", "dv")
        for name, a, b in zip(names, got, expected):
            assert a.dtype == dtype and np.array_equal(a, b), name


def numpy_time_outer_conv_stack(x, params, cfg):
    """The conv and pool stack in plain numpy on x [batch, 1, time, bands],
    time the outer axis: per utterance and layer, "same"-padded im2col
    columns in the stored kernel order [in_ch, k_time, k_band] under one
    GEMM, then bias, ReLU and 2x2 max pooling."""
    for i in range(len(cfg.conv_channels)):
        w, b = params[f"conv{i}.w"].data, params[f"conv{i}.b"].data
        batch, _, n_steps, bands = x.shape
        out_ch, _, kt, kb = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), ((kt - 1) // 2, kt // 2), ((kb - 1) // 2, kb // 2)))
        out = np.empty((batch, out_ch, n_steps * bands), dtype=x.dtype)
        for n in range(batch):
            cols = np.stack([xp[n, :, i : i + n_steps, j : j + bands]
                             for i, j in np.ndindex(kt, kb)], axis=1)
            out[n] = w.reshape(out_ch, -1) @ cols.reshape(-1, n_steps * bands)
        x = np.maximum(out + b[:, None], 0).reshape(batch, out_ch, n_steps, bands)
        if (i + 1) in cfg.pool_after:
            oh, ow = n_steps // 2, bands // 2
            x = x[:, :, : 2 * oh, : 2 * ow].reshape(batch, out_ch, oh, 2, ow, 2).max(axis=(3, 5))
    return x


class TestConvStackExact:
    def test_paper_stack_matches_time_outer_reference(self, monkeypatch):
        """The paper-default model runs its conv stack with time as the
        contiguous axis; the sequence its BLSTM sees is, bit for bit, the
        one a time-outer im2col stack gives."""
        graph = build_cnn_blstm_att(CnnBlstmAttConfig(), seed=5)
        graph.set_mode("eval")
        seen = []
        blstm_forward = layers.blstm_forward

        def spy(params, prefix, seq, hidden):
            seen.append(seq.data.copy())
            return blstm_forward(params, prefix, seq, hidden)

        monkeypatch.setattr(layers, "blstm_forward", spy)
        feats = random_features(batch=2, frames=120, seed=6)
        graph.forward(feats)
        x = numpy_time_outer_conv_stack(feats[:, None], graph.params, graph.config)
        batch, ch, n_steps, bands = x.shape
        want = x.transpose(0, 2, 1, 3).reshape(batch, n_steps, ch * bands)
        assert want.shape == (2, 15, 256) and want.any()
        assert np.array_equal(seen[0], want)


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

    def test_save_and_load_copy_no_whole_file(self, tmp_path):
        # a paper-default checkpoint with Adam moments is three times its weights
        graph = build_cnn_blstm_att(CnnBlstmAttConfig(), seed=0)
        rng = np.random.default_rng(1)
        state = {f"{m}::{name}": rng.normal(size=p.shape).astype(np.float32)
                 for m in "mv" for name, p in graph.params.items()}
        path = tmp_path / "ckpt.bin"
        tracemalloc.start()
        try:
            save_checkpoint(graph, path, epoch=1, state=state)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            data = load_checkpoint(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3 * 4 * graph.parameter_count()
        assert save_peak < 0.5 * size
        assert load_peak < 1.25 * size
        assert all(np.array_equal(data.state[k], v) for k, v in state.items())
        tracemalloc.start()
        try:
            restored = graph_from_checkpoint(data)
            _, rebuild_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rebuild_peak < 0.01 * size  # no throwaway initialisation
        for name, p in graph.params.items():  # loaded in place, not copied again
            assert np.array_equal(restored.params[name].data, p.data)
            assert np.shares_memory(restored.params[name].data, data.params[name])

    @pytest.mark.parametrize("builder,cfg", [(build_cnn_blstm_att, DESK_CNN),
                                             (build_blstm_att, DESK_BLSTM)])
    def test_rebuild_draws_no_random_numbers(self, tmp_path, monkeypatch, builder, cfg):
        graph = builder(cfg, seed=16)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(graph, path, epoch=1)
        data = load_checkpoint(path)

        def no_draws(*args, **kwargs):
            raise AssertionError("random initialisation on the load path")

        monkeypatch.setattr(layers, "glorot_uniform", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        restored = graph_from_checkpoint(data)
        assert restored.params.keys() == graph.params.keys()
        for name, p in graph.params.items():
            assert np.array_equal(restored.params[name].data, p.data)
        for name, arr in graph.buffers.items():
            assert np.array_equal(restored.buffers[name], arr)
        del data.params["att.v"]
        with pytest.raises(ValidationFailure, match=r"checkpoint lacks parameter: \['att\.v'\]"):
            graph_from_checkpoint(data)

    def test_header_bytes_unchanged_with_long_history(self, tmp_path):
        graph = build_cnn_blstm_att(DESK_CNN, seed=17)
        history = [{"epoch": i, "train_loss": 1.0 / (i + 1), "val_uar": [0.25, i / 200]}
                   for i in range(200)]
        extra = {"classes": ["a", "b", "c", "d"], "run": {"history": history}}
        path = tmp_path / "ckpt.bin"
        save_checkpoint(graph, path, epoch=3, extra=extra)
        data = load_checkpoint(path)
        header = CheckpointHeader(**{f.name: getattr(data, f.name)
                                     for f in dataclasses.fields(CheckpointHeader)})
        assert header.extra == extra
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        want = json.dumps(dataclasses.asdict(header), sort_keys=True).encode("utf-8")
        assert raw[12 : 12 + header_len] == want

    def test_digest_mismatch_rejected(self, tmp_path):
        graph = build_cnn_blstm_att(DESK_CNN, seed=12)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(graph, path, epoch=1)
        other = build_cnn_blstm_att(CnnBlstmAttConfig(), seed=0)
        with pytest.raises(ValidationFailure, match=r"config digest \w+ != expected"):
            load_checkpoint(path, expect_digest=other.digest)

    @pytest.mark.parametrize("part", ["params", "bn_stats"])
    def test_partial_checkpoint_rejected(self, tmp_path, part):
        graph = build_cnn_blstm_att(DESK_CNN, seed=13)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(graph, path, epoch=1)
        data = load_checkpoint(path)
        stored = getattr(data, part)
        del stored[sorted(stored)[0]]
        kind = {"params": "parameter", "bn_stats": "buffer"}[part]
        with pytest.raises(ValidationFailure, match=f"checkpoint lacks {kind}: "):
            load_into_graph(build_cnn_blstm_att(DESK_CNN, seed=14), data)

    def test_truncated_checkpoint_rejected_at_every_length(self, tmp_path):
        graph = build_model(
            "blstm-att", {"blstm_layers": 1, "hidden": 4, "attention_dim": 2, "input_bands": 3},
            seed=0,
        )
        path, cut = tmp_path / "ckpt.bin", tmp_path / "cut.bin"
        save_checkpoint(graph, path, epoch=1, extra={"classes": ["a", "b", "c", "d"]})
        raw = path.read_bytes()
        assert len(raw) < 4096
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValidationFailure):
                load_checkpoint(cut)

    @pytest.mark.parametrize("header", [b"\xff\xfe", b'{"arch": "blstm-att"}', b"[1, 2]"],
                             ids=["not-utf8", "missing-keys", "not-an-object"])
    def test_undecodable_header_rejected(self, tmp_path, header):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"XEMO" + struct.pack("<II", FORMAT_VERSION, len(header)) + header)
        with pytest.raises(ValidationFailure, match="malformed checkpoint header"):
            load_checkpoint(path)

    def test_header_length_past_the_end_rejected_before_reading(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"XEMO" + struct.pack("<II", FORMAT_VERSION, 2**32 - 1) + b"{}")
        tracemalloc.start()
        try:
            with pytest.raises(ValidationFailure, match="byte header runs past the file's end"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("field,value", [("config", [1]), ("extra", 1), ("epoch", "1"),
                                             ("epoch", 1.5), ("epoch", True)])
    def test_mistyped_header_field_rejected(self, tmp_path, field, value):
        graph = build_model(
            "blstm-att", {"blstm_layers": 1, "hidden": 4, "attention_dim": 2, "input_bands": 3},
            seed=0,
        )
        path = tmp_path / "ckpt.bin"
        save_checkpoint(graph, path, epoch=1)
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12 : 12 + n])
        header[field] = value
        encoded = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + n :])
        with pytest.raises(ValidationFailure, match="malformed checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [1, [1], "classes"], ids=["int", "list", "str"])
    def test_save_rejects_non_dict_extra(self, tmp_path, extra):
        graph = build_model(
            "blstm-att", {"blstm_layers": 1, "hidden": 4, "attention_dim": 2, "input_bands": 3},
            seed=0,
        )
        path = tmp_path / "ckpt.bin"
        with pytest.raises(ValidationFailure, match="checkpoint extra must be a dict"):
            save_checkpoint(graph, path, epoch=1, extra=extra)
        assert not path.exists()

    def test_build_model_dispatch(self):
        g = build_model("blstm-att", {"hidden": 8, "attention_dim": 4}, seed=0)
        assert g.arch == "blstm-att"
        with pytest.raises(ValidationFailure, match="unknown architecture 'transformer'"):
            build_model("transformer", {}, seed=0)
