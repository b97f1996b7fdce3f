import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from crossemo.errors import ValidationFailure
from crossemo.nn import ops
from crossemo.nn.tensor import Tensor
from gradcheck import GRADIENT_SUITE, REL_TOL


class TestGradients:
    @pytest.mark.parametrize("op_name", sorted(GRADIENT_SUITE))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_agreement(self, op_name, seed):
        assert GRADIENT_SUITE[op_name](seed) < REL_TOL


class TestConv:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 4, 4)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = ops.conv2d(x, w, None)
        assert np.allclose(out.data, np.maximum(x.data, 0))

    def test_impulse_response(self):
        x = np.zeros((1, 1, 7, 7))
        x[0, 0, 3, 3] = 1.0
        out = ops.conv2d(Tensor(x), Tensor(np.ones((1, 1, 3, 3))), None)
        assert np.allclose(out.data[0, 0, 2:5, 2:5], 1.0)
        assert out.data.sum() == pytest.approx(9.0)

    def test_same_padding_output_shape(self):
        x = Tensor(np.zeros((2, 3, 775, 23)))
        w = Tensor(np.zeros((8, 3, 3, 3)))
        assert ops.conv2d(x, w, None).shape == (2, 8, 775, 23)

    def test_channel_mismatch(self):
        with pytest.raises(ValidationFailure,
                           match=r"conv2d of \(1, 2, 4, 4\) with kernel \(1, 3, 3, 3\)"):
            ops.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), None)


def time_outer(a):
    """[batch, ch, bands, time] <-> [batch, ch, time, bands]."""
    return a.swapaxes(2, 3)


def sliding_window_conv2d(x, w, b, relu=True):
    """Oracle: conv2d's forward on time-outer input x [B, C, time, bands]
    through sliding-window im2col columns [B, h*wd, C*kh*kw] against the
    flattened kernel, then a transpose back to channel-first and the ReLU."""
    batch, in_ch, h, wd = x.shape
    out_ch, _, kh, kw = w.shape
    pad_h, pad_w = kh - 1, kw - 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad_h // 2, pad_h - pad_h // 2),
                    (pad_w // 2, pad_w - pad_w // 2)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch, h * wd, in_ch * kh * kw)
    out = cols @ w.reshape(out_ch, -1).T
    if b is not None:
        out = out + b
    out = out.transpose(0, 2, 1).reshape(batch, out_ch, h, wd)
    return np.maximum(out, 0) if relu else out


class TestConvForward:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 4)], ids=["3x3", "2x4"])
    @pytest.mark.parametrize("seed", [1])
    def test_matches_sliding_window_reference(self, seed, kernel, bias, dtype, tol):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 9, 7)).astype(dtype)
        w = rng.normal(size=(4, 3) + kernel).astype(dtype)
        b = rng.normal(size=4).astype(dtype) if bias else None
        got = ops.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b)).data
        want = time_outer(sliding_window_conv2d(time_outer(x), w, b))
        assert got.dtype == dtype and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def scatter_conv2d_grads(x, w, b, g):
    """Oracle: conv2d's input, weight and bias gradients, all time-outer,
    with the input gradient scattered through `np.add.at` over flat im2col
    indices. `g`, the gradient of the ReLU's output, is masked by the
    pre-activation."""
    g = g * (sliding_window_conv2d(x, w, b, relu=False) > 0)
    batch, in_ch, h, wd = x.shape
    out_ch, _, kh, kw = w.shape
    pad_h, pad_w = kh - 1, kw - 1
    pt, pl = pad_h // 2, pad_w // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pad_h - pt), (pl, pad_w - pl)))
    hp, wp = xp.shape[2:]
    ch, ki, kj = np.meshgrid(np.arange(in_ch), np.arange(kh), np.arange(kw), indexing="ij")
    patch = (ch * hp * wp + ki * wp + kj).reshape(-1)
    oi, oj = np.meshgrid(np.arange(h), np.arange(wd), indexing="ij")
    idx = (oi * wp + oj).reshape(-1)[:, None] + patch[None, :]  # [h*wd, C*kh*kw]
    cols = xp.reshape(batch, -1)[:, idx]
    gf = g.reshape(batch, out_ch, h * wd).transpose(0, 2, 1)
    dxp = np.zeros((batch, in_ch * hp * wp))
    np.add.at(dxp, (slice(None), idx), gf @ w.reshape(out_ch, -1))
    dx = dxp.reshape(batch, in_ch, hp, wp)[:, :, pt : pt + h, pl : pl + wd]
    dw = np.einsum("bok,boc->ck", cols, gf).reshape(w.shape)
    return dx, dw, gf.sum(axis=(0, 1))


class TestConvGradients:
    @pytest.mark.parametrize("seed", [1])
    def test_matches_scatter_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 9, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        out = ops.conv2d(x, w, b)
        g = rng.normal(size=out.shape)
        out.backward(g)
        dx, dw, db = scatter_conv2d_grads(time_outer(x.data), w.data, b.data, time_outer(g))
        for got, want in zip((x.grad, w.grad, b.grad), (time_outer(dx), dw, db)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestConvPerUtterance:
    def test_batch_equals_utterances_one_at_a_time(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5, 11, 9)).astype(np.float32)
        w = rng.normal(size=(7, 5, 3, 3)).astype(np.float32)
        b = rng.normal(size=7).astype(np.float32)
        g = rng.normal(size=(3, 7, 11, 9)).astype(np.float32)

        def grads(n):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x[n], w, b))
            out = ops.conv2d(xt, wt, bt)
            out.backward(g[n])
            return out.data, xt.grad, wt.grad, bt.grad

        whole = grads(slice(None))
        parts = [grads(slice(n, n + 1)) for n in range(3)]
        assert np.array_equal(whole[0], np.concatenate([p[0] for p in parts]))
        assert np.array_equal(whole[1], np.concatenate([p[1] for p in parts]))
        for k in (2, 3):  # dw and db: the utterances' gradients added in order
            assert np.array_equal(whole[k], parts[0][k] + parts[1][k] + parts[2][k])

    def test_forward_keeps_no_columns(self):
        # one utterance's im2col columns alone are kt*kb times its input's size
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 32, 23, 64)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(32, 32, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(32, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = ops.conv2d(x, w, b)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.nbytes <= held < out.data.nbytes + x.data.nbytes // 8


class TestPooledConv:
    """`conv2d(..., pool=2)` against the separate ops it replaces in the
    models: a full-resolution conv, then `max_pool2d`."""

    @staticmethod
    def inputs(kind):
        rng = np.random.default_rng(3)
        if kind == "integer":  # small integers: exact sums, many tied windows
            x = rng.integers(-2, 3, size=(3, 2, 9, 11))
            w = rng.integers(-1, 2, size=(4, 2, 3, 3))
        else:
            x, w = rng.normal(size=(3, 2, 9, 11)), rng.normal(size=(4, 2, 3, 3))
        b = np.array([0.5, -100.0, 0.0, 1.5])  # channel 1: every window negative
        return x.astype(np.float32), w.astype(np.float32), b.astype(np.float32)

    @pytest.mark.parametrize("kind", ["integer", "normal"])
    def test_matches_conv_then_max_pool(self, kind):
        x, w, b = self.inputs(kind)
        full = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        windows = full[:, :, :8, :10].reshape(3, 4, 4, 2, 5, 2)
        top = windows.max(axis=(3, 5), keepdims=True)
        ties = ((windows == top).sum(axis=(3, 5)) > 1) & (top[:, :, :, 0, :, 0] > 0)
        assert ties.any() == (kind == "integer")
        assert not full[:, 1].any()

        g = np.random.default_rng(4).normal(size=(3, 4, 4, 5)).astype(np.float32)
        results = []
        for fused in (True, False):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            out = (ops.conv2d(xt, wt, bt, pool=2) if fused
                   else ops.max_pool2d(ops.conv2d(xt, wt, bt), 2))
            out.backward(g)
            results.append((out.data, xt.grad, wt.grad, bt.grad))
        (out, dx, dw, db), (ref_out, ref_dx, ref_dw, ref_db) = results
        assert np.array_equal(out, ref_out)
        assert np.array_equal(ops.conv2d(Tensor(x), Tensor(w), Tensor(b), pool=2).data, ref_out)
        assert np.array_equal(dx, ref_dx) and np.array_equal(dw, ref_dw)
        # the bias gradient sums the pooled cells in another order
        assert np.max(np.abs(db - ref_db)) <= 1e-5 * np.max(np.abs(ref_db))

    def test_too_small_for_one_window(self):
        with pytest.raises(ValidationFailure, match="pooling 2x2 on 1x4 input"):
            ops.conv2d(Tensor(np.zeros((1, 1, 1, 4))), Tensor(np.ones((1, 1, 3, 3))), pool=2)


class TestConvThreads:
    """`conv2d` from `ops.CONV_THREAD_MIN_WORK` up: both passes on two
    halves of the batch, one on the caller and one on the worker."""

    @staticmethod
    def spy(monkeypatch, calls, x):
        """Record (kind, thread, utterance) for each `_im2col` call and each
        utterance a backward puts on its gradient grid, and (kind, thread)
        for each `_col2im` call."""
        im2col, col2im, grid = ops._im2col, ops._col2im, ops._Conv.grid

        def spy_im2col(xn, *args):
            n = (xn.ctypes.data - x.ctypes.data) // xn.nbytes
            calls.append(("im2col", threading.current_thread(), n))
            return im2col(xn, *args)

        def spy_col2im(*args):
            calls.append(("col2im", threading.current_thread()))
            return col2im(*args)

        def spy_grid(conv, dtype):
            load = grid(conv, dtype)

            def spy_load(gn, win_n):  # gn: utterance n of the node's gradient
                n = (gn.ctypes.data - gn.base.ctypes.data) // gn.nbytes
                calls.append(("load", threading.current_thread(), n))
                return load(gn, win_n)
            return spy_load

        monkeypatch.setattr(ops, "_im2col", spy_im2col)
        monkeypatch.setattr(ops, "_col2im", spy_col2im)
        monkeypatch.setattr(ops._Conv, "grid", spy_grid)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", [1, 2])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("one_gemm", [True, False], ids=["col2im-one-gemm", "col2im-per-offset"])
    def test_threaded_and_serial_schedules_bit_identical(self, dtype, pool, batch, one_gemm,
                                                         monkeypatch):
        if not one_gemm:
            monkeypatch.setattr(ops, "_COL2IM_ONE_GEMM_CELLS", 0)
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 3, 7, 10)).astype(dtype)
        w = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        g = rng.normal(size=(batch, 4, 7 // pool, 10 // pool)).astype(dtype)
        work = w.size * 7 * 10
        monkeypatch.setattr(ops, "_cores", lambda: 2)
        calls = []
        self.spy(monkeypatch, calls, x)
        runs, schedules = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads take turns as often as they can
        try:
            for gate in (work, work + 1):  # threaded (from batch 2), then serial
                monkeypatch.setattr(ops, "CONV_THREAD_MIN_WORK", gate)
                xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
                out = ops.conv2d(xt, wt, bt, pool)
                forward = calls[:]
                calls.clear()
                out.backward(g.copy())
                schedules.append((forward, calls[:]))
                calls.clear()
                runs.append([out.data, xt.grad, wt.grad, bt.grad])
        finally:
            sys.setswitchinterval(interval)
        main = threading.main_thread()
        half = (batch + 1) // 2
        for threaded, (forward, backward) in zip((batch >= 2, False), schedules):
            # forward: utterances [0, half) in the caller, the rest on the worker
            assert sorted((n, t is main) for _, t, n in forward) == [
                (n, n < half or not threaded) for n in range(batch)]
            # backward: the same halves, each utterance's col2im on the thread
            # that loaded its gradient, and no columns (dw per kernel offset)
            assert sorted((n, t is main) for kind, t, n in
                          (c for c in backward if c[0] == "load")) == [
                (n, n < half or not threaded) for n in range(batch)]
            for thread in {c[1] for c in backward}:
                kinds = [c[0] for c in backward if c[1] is thread]
                assert kinds == ["load", "col2im"] * (len(kinds) // 2)
            assert not [c for c in backward if c[0] == "im2col"]
        for threaded, serial in zip(*runs):
            assert threaded.dtype == dtype and np.array_equal(threaded, serial)

    def test_threaded_backward_holds_no_column_workspace(self, monkeypatch):
        monkeypatch.setattr(ops, "_cores", lambda: 2)
        submitted = []
        submit = ops._WORKER.submit
        monkeypatch.setattr(ops._WORKER, "submit",
                            lambda *args: submitted.append(args) or submit(*args))
        rng = np.random.default_rng(5)
        batch, ch, bands, time, f32 = 8, 32, 23, 120, 4  # the paper's conv2, 120 frames
        x = Tensor(rng.normal(size=(batch, ch, bands, time)).astype(np.float32),
                   requires_grad=True)
        w = Tensor((rng.normal(size=(ch, ch, 3, 3)) * 0.1).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(ch, np.float32), requires_grad=True)
        out = ops.conv2d(x, w, b, pool=2)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(submitted) == 2  # the forward's second half, then the backward's
        grid = ch * bands * (time + 2) * f32  # one [out_ch, bands, Wp] gradient grid
        pad = ch * ((bands + 2) * (time + 2) + 2) * f32  # one flat padding
        per_thread = grid + pad + grid  # and col2im's one-offset buffer, a grid's size
        # slack 1 MiB: the upstream gradient's copy (0.64), the ReLU mask
        # (0.16), the offsets' weights and pool scratch. The peak was 5.9 MiB
        # against a bound of 6.1; one column workspace [in_ch, kt*kb, bands *
        # Wp] alone would add 3.08
        assert peak < x.data.nbytes + 2 * per_thread + batch * w.data.nbytes + 2**20


class TestRunPair:
    def test_worker_that_cannot_start(self, monkeypatch):
        # `submit` queues its item before it starts the thread, so a start
        # that fails leaves `run(1)` queued for whichever worker starts next
        pool = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(ops, "_WORKER", pool)
        main = threading.current_thread()
        first, second = [], []

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        try:
            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start", refuse)
                ops._run_pair(lambda k: first.append((k, threading.current_thread())), True)
            assert first == [(0, main), (1, main)]
            assert pool._work_queue.qsize() == 1  # the stale item
            ops._run_pair(lambda k: second.append((k, threading.current_thread())), True)
        finally:
            pool.shutdown(wait=True)
        assert first == [(0, main), (1, main)]  # the stale item ran and did nothing
        assert sorted((k, t is main) for k, t in second) == [(0, True), (1, False)]


class TestMaxPool:
    def test_ties_route_to_first_cell(self):
        x = Tensor(np.full((2, 3, 5, 7), 0.5), requires_grad=True)
        out = ops.max_pool2d(x, 2)
        assert out.shape == (2, 3, 2, 3)
        g = np.random.default_rng(0).normal(size=out.shape)
        out.backward(g)
        expected = np.zeros(x.shape)
        expected[:, :, 0:4:2, 0:6:2] = g  # each window's top-left cell
        assert np.array_equal(x.grad, expected)
        assert not x.grad[:, :, 4, :].any() and not x.grad[:, :, :, 6].any()


def numpy_fc_block(x, w, b, gamma, beta, mean, var, rate, mode, rng, g,
                   momentum=0.9, eps=1e-5):
    """Oracle: `ops.fc_block` as separate dense, batch-norm, ReLU and dropout
    ops computed it, forward and then backward node by node, on copies of
    the running statistics. Returns (out, dx, dw, db, dgamma, dbeta,
    running mean, running var)."""
    mean, var = mean.copy(), var.copy()
    dense = x @ w
    dense += b
    count = dense.shape[0]
    if mode == "train":
        mu, sigma2 = dense.mean(axis=0), dense.var(axis=0)
        mean[...] = momentum * mean + (1.0 - momentum) * mu
        var[...] = momentum * var + (1.0 - momentum) * sigma2
    else:
        mu, sigma2 = mean.astype(dense.dtype), var.astype(dense.dtype)
    inv = (1.0 / np.sqrt(sigma2 + eps)).astype(dense.dtype)
    xhat = (dense - mu) * inv
    bn = gamma * xhat + beta
    out = np.maximum(bn, 0)
    if mode == "train" and rate > 0.0:
        keep = (rng.random(out.shape) >= rate).astype(out.dtype) / (1.0 - rate)
        out = out * keep
        g = g * keep
    g = g * (bn > 0)
    dgamma, dbeta = (g * xhat).sum(axis=0), g.sum(axis=0)
    dxhat = g * gamma
    if mode == "train":
        s1 = dxhat.sum(axis=0)
        s2 = (dxhat * xhat).sum(axis=0)
        g = inv * (dxhat - s1 / count - xhat * s2 / count)
    else:
        g = dxhat * inv
    return out, g @ w.T, x.T @ g, g.sum(axis=0), dgamma, dbeta, mean, var


class TestFcBlockExact:
    @pytest.mark.parametrize("mode,rate", [("train", 0.0), ("train", 0.3), ("eval", 0.3)],
                             ids=["train", "train-dropout", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_numpy_reference(self, mode, rate, dtype):
        rng = np.random.default_rng(14)
        x, w, g = (rng.normal(size=shape).astype(dtype) for shape in ((12, 7), (7, 5), (12, 5)))
        b, gamma, beta = (rng.normal(size=5).astype(dtype) for _ in range(3))
        gamma += 1.0
        mean, var = rng.normal(size=5).astype(dtype), rng.uniform(0.5, 2.0, 5).astype(dtype)
        tensors = [Tensor(a, requires_grad=True) for a in (x, w, b, gamma, beta)]
        stats = [mean.copy(), var.copy()]
        out = ops.fc_block(*tensors, *stats, rate, mode, np.random.default_rng(5))
        out.backward(g)
        expected = numpy_fc_block(x, w, b, gamma, beta, mean, var, rate, mode,
                                  np.random.default_rng(5), g)
        got = (out.data, *(t.grad for t in tensors), *stats)
        names = ("out", "dx", "dw", "db", "dgamma", "dbeta", "running mean", "running var")
        assert 0 < np.count_nonzero(out.data) < out.size
        for name, a, want in zip(names, got, expected):
            assert a.dtype == dtype and np.array_equal(a, want), name

    def test_shape_mismatch(self):
        with pytest.raises(ValidationFailure, match=r"fc block of \(4, 3\) with weights \(2, 3\)"):
            ops.fc_block(np.zeros((4, 3)), np.zeros((2, 3)), np.zeros(3), np.ones(3),
                         np.zeros(3), np.zeros(3), np.ones(3), 0.0, "eval")


def identity_fc(x, gamma, beta, mean, var, rate, mode, rng=None):
    """`ops.fc_block` with w = I and b = 0: batch norm, ReLU and dropout of x."""
    n = x.shape[1]
    return ops.fc_block(Tensor(x), Tensor(np.eye(n)), Tensor(np.zeros(n)), Tensor(gamma),
                        Tensor(beta), mean, var, rate, mode, rng)


class TestBatchNorm:
    """The batch-norm stage of `ops.fc_block`."""

    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.0, size=(64, 5))
        # a shift of 10 keeps every normalized cell above the ReLU's kink
        out = identity_fc(x, np.ones(5), np.full(5, 10.0), np.zeros(5), np.ones(5), 0.0, "train")
        assert out.data.min() > 0.0
        assert np.allclose(out.data.mean(axis=0), 10.0, atol=1e-7)
        assert np.allclose(out.data.var(axis=0), 1.0, atol=1e-4)

    def test_eval_mode_is_affine_and_batch_independent(self):
        rng = np.random.default_rng(2)
        mean, var = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        gamma, beta = rng.normal(size=4) + 1.0, rng.normal(size=4)
        row = rng.normal(size=(1, 4))
        solo = identity_fc(row, gamma, beta, mean, var, 0.5, "eval").data
        batch = np.vstack([row, rng.normal(size=(7, 4))])
        joined = identity_fc(batch, gamma, beta, mean, var, 0.5, "eval").data
        assert np.allclose(solo[0], joined[0])
        affine = gamma * (batch - mean) / np.sqrt(var + 1e-5) + beta
        assert np.allclose(joined, np.maximum(affine, 0.0))

    def test_running_stats_update(self):
        mean, var = np.zeros(2), np.ones(2)
        x = np.array([[1.0, 10.0], [3.0, 14.0]])
        identity_fc(x, np.ones(2), np.zeros(2), mean, var, 0.0, "train")
        assert np.allclose(mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 12.0]))
        assert np.allclose(var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))

    def test_batch_too_small(self):
        with pytest.raises(ValidationFailure,
                           match="batch norm needs >= 2 values per feature, got 1"):
            identity_fc(np.zeros((1, 3)), np.ones(3), np.zeros(3), np.zeros(3), np.ones(3),
                        0.0, "train")


class TestDropout:
    """The dropout stage of `ops.fc_block`. Inputs whose x-hat is 0 make the
    ReLU's output relu(beta), so dropout's effect is all that is left."""

    BETA = np.array([1.0, 2.0, -1.0, 0.5])

    def test_rate_zero_identity(self):
        # constant columns: train mode's x-hat is 0; no rng, so nothing is drawn
        out = identity_fc(np.ones((4, 4)), np.ones(4), self.BETA, np.zeros(4), np.ones(4),
                          0.0, "train")
        assert np.array_equal(out.data, np.tile(np.maximum(self.BETA, 0.0), (4, 1)))

    def test_eval_identity(self):
        mean = np.array([0.3, -1.0, 2.0, 0.0])
        out = identity_fc(np.tile(mean, (4, 1)), np.ones(4), self.BETA, mean, np.ones(4),
                          0.5, "eval")
        assert np.array_equal(out.data, np.tile(np.maximum(self.BETA, 0.0), (4, 1)))

    def test_empirical_drop_fraction(self):
        out = identity_fc(np.ones((400, 250)), np.ones(250), np.ones(250), np.zeros(250),
                          np.ones(250), 0.2, "train", np.random.default_rng(3))
        dropped = float((out.data == 0.0).mean())
        assert abs(dropped - 0.2) < 0.01
        survivors = out.data[out.data != 0.0]
        assert np.allclose(survivors, 1.0 / 0.8)

    def test_bad_rate(self):
        for rate, mode in ((1.0, "train"), (-0.1, "train"), (1.0, "eval")):
            with pytest.raises(ValidationFailure, match=r"dropout rate must be in \[0, 1\)"):
                identity_fc(np.ones((4, 4)), np.ones(4), self.BETA, np.zeros(4), np.ones(4),
                            rate, mode, np.random.default_rng(0))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = ops.softmax_cross_entropy(logits, np.array([0, 1, 2]))
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-9)

    def test_confident_correct_low_loss(self):
        logits = np.full((2, 4), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = ops.softmax_cross_entropy(Tensor(logits), np.array([1, 2]))
        assert float(loss.data) < 1e-8

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        t = Tensor(z, requires_grad=True)
        ops.softmax_cross_entropy(t, labels).backward()
        e = np.exp(z - z.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        onehot = np.eye(3)[labels]
        assert np.allclose(t.grad, (soft - onehot) / 6, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationFailure, match=r"labels must lie in \[0, 3\)"):
            ops.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestPlumbing:
    def test_backward_needs_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValidationFailure,
                           match=r"backward\(\) without a gradient needs a scalar"):
            ops.reshape(t, (4,)).backward()

    def test_gradient_accumulation_on_reuse(self):
        # x @ x with x symmetric: under an identity upstream gradient each
        # use contributes x, so the two must add up to 2x
        x = Tensor(np.array([[2.0, -1.0], [-1.0, 3.0]]), requires_grad=True)
        ops.dense(x, x, Tensor(np.zeros(2))).backward(np.eye(2))
        assert np.array_equal(x.grad, 2 * x.data)

    def test_deep_graph_iterative_topo(self):
        # recursion-based traversal would hit the interpreter limit here
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ops.reshape(y, (1,))
        y.backward(np.ones(1))
        assert x.grad[0] == 1.0

    def test_fresh_gradient_handed_over(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        g = np.ones(3, dtype=np.float32)
        t.accumulate(g, fresh=True)
        assert t.grad is g
        t.accumulate(np.ones(3))
        assert np.array_equal(t.grad, np.full(3, 2.0, dtype=np.float32))

    def test_shared_gradient_copied(self):
        # without `fresh` the caller keeps its array; the tensor may not share it
        t = Tensor(np.zeros(3), requires_grad=True)
        g = np.ones(3)
        t.accumulate(g)
        assert not np.shares_memory(t.grad, g)
        g[0] = 5.0
        assert np.array_equal(t.grad, np.ones(3))

    def test_constant_nodes_keep_no_parents(self):
        x = Tensor(np.ones((2, 1, 4, 4)))
        w = Tensor(np.ones((2, 1, 3, 3)))
        out = ops.max_pool2d(ops.conv2d(x, w, Tensor(np.zeros(2))), 2)
        assert out._parents == () and out._backward is None

    def test_dense_shape_mismatch(self):
        with pytest.raises(ValidationFailure, match=r"dense of \(2, 3\) with weights \(2, 3\)"):
            ops.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_dense_bias_gradient_is_column_sum(self):
        x = Tensor(np.zeros((4, 3)), requires_grad=True)
        w = Tensor(np.eye(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        g = np.arange(12.0).reshape(4, 3)
        ops.dense(x, w, b).backward(g)
        assert np.array_equal(b.grad, g.sum(axis=0))
