"""Differentiable operations on Tensors.

Each op is one graph node with a hand-written backward pass: a whole layer
(`dense`, `fc_block`, `attention`, `blstm`, `conv2d`, `max_pool2d`,
`softmax_cross_entropy`) or a shape op (`reshape`, `transpose`). `fc_block`
is one FC layer of the CNN: dense, batch norm, ReLU and dropout. `conv2d`
takes [batch, ch, bands, time] with time the contiguous axis, so its
im2col and col2im move whole rows; it can max-pool its output, ends in its
ReLU and builds its columns one utterance at a time into a reused
workspace, saving none; its backward takes `dw` from each utterance's
padding one kernel offset at a time, with no columns. A pooling `conv2d`
keeps only the pooled output and a one-byte winner per window;
`max_pool2d` shares its pooling kernels and is the reference it is tested
against. Given a `stem`, `conv2d` runs that layer and its own as one node,
one utterance at a time in both passes, so the stem's output is never
held whole: the backward computes it again. `blstm` runs its step loops on
arrays the calling thread allocates: a forward that needs no gradient
keeps two steps of state, not the whole sequence. Two ops share one worker
thread with the caller (`_run_pair`) on arrays the caller allocates:
`blstm` at `BLSTM_THREAD_MIN_HIDDEN` and wider runs its two directions at
once, and `conv2d` from `CONV_THREAD_MIN_WORK` up runs both passes on two
halves of the batch. Everything here passes central finite-difference
checks at float64 with relative error below 1e-4 (see the gradient suite
in the tests). `fc_block`, whose batch norm and dropout switch with the
mode, takes the mode explicitly; there is no global training flag.
"""

from __future__ import annotations

import os
import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import ValidationFailure
from .tensor import Tensor, as_tensor


def dense(x, w, b) -> Tensor:
    """Fully connected layer: x [rows, in] @ w [in, out] + b [out]."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValidationFailure(f"dense of {x.shape} with weights {w.shape}")
    out_data = x.data @ w.data
    out_data += b.data
    parents = (x, w, b)
    req = any(p.requires_grad for p in parents)
    out = Tensor(out_data, req, parents=parents)
    if req:
        def _bw(g):
            if b.requires_grad:
                b.accumulate(g.sum(axis=0), fresh=True)
            if x.requires_grad:
                x.accumulate(g @ w.data.T, fresh=True)
            if w.requires_grad:
                w.accumulate(x.data.T @ g, fresh=True)
        out._backward = _bw
    return out


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), a.requires_grad, parents=(a,))
    if a.requires_grad:
        out._backward = lambda g: a.accumulate(g.reshape(a.shape))
    return out


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inverse = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes), a.requires_grad, parents=(a,))
    if a.requires_grad:
        out._backward = lambda g: a.accumulate(g.transpose(inverse))
    return out


# From this hidden size up, with two usable cores, the two directions of a
# `blstm` run at once, direction 1 on a worker thread. Medians with one BLAS
# thread on two cores, threaded against serial, eval forward of batch 16 by
# 131 steps from 23 inputs: hidden 32, 13.5 against 6.1 ms; hidden 128, 19.9
# against 22.7 (best runs equal); hidden 256, 46 against 72. At the paper's
# 8 by 96 steps, 256 -> 512: eval forward 83 against 134 ms, training
# forward plus backward 270 against 342. Narrower layers run both
# directions in the calling thread and never start the worker.
BLSTM_THREAD_MIN_HIDDEN = 256

# From this much work per utterance up (w.size * bands * time, the
# multiply-adds of its forward GEMM), with a batch of two or more and two
# usable cores, a `conv2d` runs on the caller and the worker thread at
# once. Medians with one BLAS thread on two cores, threaded against serial:
# the paper's six layers at batch 8, with the five above the gate (71 M to
# 164 M) threaded, took 121 against 198 ms for the training forward, 113
# against 189 for the eval forward and 228 against 456 for the backward.
# Below the gate the outcome turns on the shape: batch-16 eval forwards of
# the desk layers (0.2 M and 0.75 M) took 1.2-1.5 against 0.6-0.7 ms, and
# of 16 -> 16 channels at 11 x 59 (1.5 M) 1.4-1.6 against 1.1-1.3, while
# the paper's first layer (5.1 M, batch 8) took 3.7-4.2 against 7.6-8.6.
# Layers below the gate never start the worker.
CONV_THREAD_MIN_WORK = 16_000_000

# Up to this many cells in one utterance's column gradient [in_ch*kt*kb,
# bands * Wp], `conv2d`'s col2im takes all kernel offsets in one GEMM,
# above it one GEMM per offset, into a buffer a ninth of the size. Per
# utterance, float32, one BLAS thread: 8 -> 16 channels at 11 x 59 (48 K
# cells) took 63 against 76 us in one GEMM, 4 -> 8 at 23 x 118 (99 K) 66
# against 100. The paper's first layer has 161 K cells; its wider layers,
# 562 K to 5.1 M, go per offset.
_COL2IM_ONE_GEMM_CELLS = 2**18

# A forward's column workspace holds at most this many cells (and at least
# one band): a wider layer builds its columns and runs its GEMM a block of
# bands at a time, which gives the same bits. At paper shape `conv1`'s
# whole workspace [32, 9, 23 x 777] is 20.6 MB per thread. Asked for again
# on each call, it grew glibc's heap by 20-40 MB whenever the heap's free
# space happened to be split: 7 of 20 `train-paper` runs read 204-224 MB
# peak RSS, the rest 182-187. In blocks of 4 bands (3.6 MB), 28 of 28 runs
# read 182-187 MB, and that layer's forward took 47-61 against 56-72 ms
# at batch 8; the other layers' forwards did not move.
_COLUMN_BLOCK_CELLS = 2**20

# starts its one thread on the first threaded call and keeps it
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ops")

# slots of one step's state: gates i, f, o (sigmoid), g (tanh), cell, tanh(cell)
_I, _F, _O, _G, _C, _TC = range(6)


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_pair(run, threaded: bool) -> None:
    """`run(0)` in the calling thread and `run(1)` on the worker at the same
    time when `threaded`, else one after the other. Returns once both have
    stopped; an exception in either is raised only then, `run(0)`'s first.
    Callers: `blstm`, `conv2d`, `synth.generate_corpus`. The caller allocates
    what both write (glibc gives each thread a malloc arena whose freed memory
    the main thread does not reuse), except synthesis, whose renders add 0.2-1.7
    MB to median whole-run peak RSS (`BENCH_29.json`). If no thread can start,
    the caller runs both; the item `submit` queued anyway finds `run(1)` claimed."""
    claim = threading.Lock()  # `run(1)` runs once, on the side that takes it
    try:
        job = threaded and _WORKER.submit(lambda: claim.acquire(blocking=False) and run(1))
    except RuntimeError:  # "can't start new thread", raised after queueing
        job = None
    if not job:
        claim.acquire()
        run(0)
        run(1)
        return
    try:
        run(0)
    finally:
        futures.wait([job])
    job.result()


def _lstm_forward(x2, wx, wh, b, gx, steps, out, order, zeros) -> None:
    """One direction's forward into caller-allocated arrays: gate inputs gx
    [B, T, 4h], state `steps` [S, 6, B, h], step n in slot n % S, and
    hidden states `out` [B, T, h]. Each step runs the arithmetic of
    `o * tanh(f * c + i * g)` in its usual order, through `out=` ufuncs, so
    the only new arrays are the two [B, 4h] and [B, h] step buffers."""
    batch, n_steps, width = gx.shape
    np.matmul(x2, wx, out=gx.reshape(batch * n_steps, width))
    gx += b  # the bits of x2 @ wx + b
    z = np.empty((batch, width), dtype=gx.dtype)
    zq = z.reshape(batch, 4, -1).transpose(1, 0, 2)  # gates i, f, g, o: [4, B, h]
    h = zeros.copy()
    c_prev = zeros
    for n, t in enumerate(order):
        st = steps[n % len(steps)]
        np.matmul(h, wh, out=z)
        z += gx[:, t]
        sig = st[_I : _O + 1]  # 1 / (1 + exp(-z)) on i, f and o at once
        np.negative(zq[:2], out=sig[:2])
        np.negative(zq[3], out=sig[2])
        np.exp(sig, out=sig)
        np.add(1.0, sig, out=sig)
        np.divide(1.0, sig, out=sig)
        np.tanh(zq[2], out=st[_G])
        c, tc = st[_C], st[_TC]
        np.multiply(st[_F], c_prev, out=c)
        np.multiply(st[_I], st[_G], out=tc)
        c += tc
        np.tanh(c, out=tc)
        np.multiply(st[_O], tc, out=h)
        out[:, t] = h
        c_prev = c


def _lstm_backward(gy, wh_t, steps, dz, order, zeros) -> None:
    """One direction's BPTT over the state a training forward kept (slot n
    for step n): writes each step's gate gradient into the caller's dz
    [B, T, 4h] at its own time index."""
    dh_next = dc_next = zeros
    for n in reversed(range(len(order))):
        t = order[n]
        i, f, o, g, _, tc = steps[n]
        c_prev = steps[n - 1, _C] if n else zeros
        dh = gy[:, t] + dh_next
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz_t = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g * g),
            dh * tc * o * (1.0 - o),
        ], axis=1)
        dz[:, t] = dz_t
        dh_next = dz_t @ wh_t
        dc_next = dc * f


def blstm(x, forward, backward) -> Tensor:
    """Bidirectional LSTM over x [batch, time, feat] -> [batch, time, 2h]: per
    step the forward direction's hidden state, then the backward one's.

    `forward` and `backward` are (wx [feat, 4h], wh [h, 4h], b [4h]), gates
    fused as input, forget, cell, output. The calling thread allocates
    every array the step loops write: gate inputs [2, B, T, 4h], one state
    block [2, S, 6, B, h] of activated gates, cell and tanh(cell), and in
    the backward the gate gradients [2, B, T, 4h]. A training forward keeps
    every step (S = T). When no parent needs a gradient nothing reads the
    state afterwards, so S = 2: a ring that holds only the step and the one
    before it. The BPTT backward gets `dx`, `dwx` and `db` as
    whole-sequence GEMMs or sums and `dwh` as one GEMM, in the calling
    thread, direction 0 then 1 (the fused RNN of Appleyard et al.,
    arXiv:1604.01946); each is handed over as the parameter's own gradient
    when it is the first, not copied.

    The directions are independent, so from `BLSTM_THREAD_MIN_HIDDEN` up,
    with two usable cores, direction 1 runs on the persistent worker
    thread (`_run_pair`) while the caller runs direction 0, as Appleyard
    et al. do: a wide step is bound by streaming `wh` through its GEMM,
    which drops the GIL. The worker allocates nothing bigger than one
    step's scratch: in trials worker-allocated state raised peak RSS by
    12 %. Either schedule computes the same bits.
    """
    x = as_tensor(x)
    directions = [tuple(as_tensor(p) for p in d) for d in (forward, backward)]
    if x.data.ndim != 3 or any(wx.shape[0] != x.shape[2] for wx, _, _ in directions):
        raise ValidationFailure(f"blstm of {x.shape} with input weights "
                            f"{[wx.shape for wx, _, _ in directions]}")
    batch, n_steps, n_in = x.shape
    hidden = directions[0][1].shape[0]
    parents = (x,) + directions[0] + directions[1]
    req = any(p.requires_grad for p in parents)
    threaded = hidden >= BLSTM_THREAD_MIN_HIDDEN and _cores() >= 2
    x2 = x.data.reshape(batch * n_steps, n_in)
    out_data = np.empty((batch, n_steps, 2 * hidden), dtype=x.dtype)
    halves = [out_data[..., k * hidden : (k + 1) * hidden] for k in range(2)]
    orders = (range(n_steps), range(n_steps - 1, -1, -1))
    zeros = np.zeros((batch, hidden), dtype=x.dtype)
    gx = np.empty((2, batch, n_steps, 4 * hidden), dtype=x.dtype)
    state = np.empty((2, n_steps if req else 2, 6, batch, hidden), dtype=x.dtype)
    _run_pair(lambda k: _lstm_forward(
        x2, *(p.data for p in directions[k]), gx[k], state[k], halves[k], orders[k], zeros,
    ), threaded)

    out = Tensor(out_data, req, parents=parents)
    if req:
        def _bw(gy):
            dz = np.empty((2, batch, n_steps, 4 * hidden), dtype=x.dtype)
            # a GEMM against a transposed view runs at about half speed
            wh_ts = [np.ascontiguousarray(wh.data.T) for _, wh, _ in directions]
            _run_pair(lambda k: _lstm_backward(
                gy[..., k * hidden : (k + 1) * hidden], wh_ts[k], state[k], dz[k],
                orders[k], zeros,
            ), threaded)
            del wh_ts
            for k, (wx, wh, b) in enumerate(directions):
                # every step's gate gradient sits at its own time index, so
                # both directions meet x, wx and b in the same row order
                dz2 = dz[k].reshape(batch * n_steps, 4 * hidden)
                if x.requires_grad:
                    x.accumulate((dz2 @ wx.data.T).reshape(x.shape), fresh=True)
                if wx.requires_grad:
                    wx.accumulate(x2.T @ dz2, fresh=True)
                if wh.requires_grad:
                    # pair each step's gates with the hidden state before it
                    hs, dzk = halves[k], dz[k]
                    prev, later = (hs[:, :-1], dzk[:, 1:]) if k == 0 else (hs[:, 1:], dzk[:, :-1])
                    wh.accumulate(prev.reshape(-1, hidden).T @ later.reshape(-1, 4 * hidden),
                                  fresh=True)
                if b.requires_grad:
                    b.accumulate(dz2.sum(axis=0), fresh=True)
        out._backward = _bw
    return out


def attention(seq, w, b, v):
    """Additive attention pooling over time (Bahdanau et al., arXiv:1409.0473)
    on seq [batch, time, feat] with w [feat, att], b [att], v [att, 1].

    Scores e_t = v . tanh(h_t w + b), weights = softmax over time, pooled =
    sum_t weight_t * h_t. Returns (pooled Tensor [batch, feat], weights
    ndarray [batch, time]); the backward keeps only the tanh output and the
    weights.
    """
    seq, w, b, v = (as_tensor(t) for t in (seq, w, b, v))
    if seq.data.ndim != 3 or seq.shape[2] != w.shape[0]:
        raise ValidationFailure(f"attention over {seq.shape} with weights {w.shape}")
    batch, n_steps, feat = seq.shape
    flat = seq.data.reshape(batch * n_steps, feat)
    hidden = np.tanh(flat @ w.data + b.data)
    scores = (hidden @ v.data).reshape(batch, n_steps)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    pooled = (weights[:, :, None] * seq.data).sum(axis=1)

    parents = (seq, w, b, v)
    req = any(p.requires_grad for p in parents)
    out = Tensor(pooled, req, parents=parents)
    if req:
        def _bw(g):
            g3 = g[:, None, :]
            dweights = (g3 * seq.data).sum(axis=2)
            dscores = weights * (dweights - (dweights * weights).sum(axis=1, keepdims=True))
            dscores = dscores.reshape(batch * n_steps, 1)
            if v.requires_grad:
                v.accumulate(hidden.T @ dscores, fresh=True)
            dpre = (dscores @ v.data.T) * (1.0 - hidden * hidden)
            if b.requires_grad:
                b.accumulate(dpre.sum(axis=0), fresh=True)
            if w.requires_grad:
                w.accumulate(flat.T @ dpre, fresh=True)
            if seq.requires_grad:
                # pooling path, then scoring path: the order separate ops would add them in
                seq.accumulate(g3 * weights[:, :, None], fresh=True)
                seq.accumulate((dpre @ w.data.T).reshape(seq.shape))
        out._backward = _bw
    return out, weights


def fc_block(x, w, b, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
             rate: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """One FC layer of the CNN as one node: x [rows, in] @ w [in, out] + b,
    batch norm of each column over the rows (Ioffe & Szegedy,
    arXiv:1502.03167), ReLU, then inverted dropout at `rate` with the mask
    `rng.random(shape) >= rate`; a rate outside [0, 1) raises ValidationFailure.
    Train mode uses the batch's statistics and updates the running ones in
    place; eval mode applies those as a fixed affine map and drops nothing. Only x-hat and the output are kept: a kept
    positive cell stays positive, so the ReLU-and-dropout mask is `out > 0`
    times the dropout scale (as in `conv2d`). Each step computes what the
    separate dense, batch-norm, ReLU and dropout ops did, bit for bit."""
    x, w, b, gamma, beta = (as_tensor(t) for t in (x, w, b, gamma, beta))
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValidationFailure(f"fc block of {x.shape} with weights {w.shape}")
    if not 0.0 <= rate < 1.0:
        raise ValidationFailure(f"dropout rate must be in [0, 1), got {rate}")
    count = x.shape[0]
    train = mode == "train"
    if train and count < 2:
        raise ValidationFailure(f"batch norm needs >= 2 values per feature, got {count}")
    drop = train and rate > 0.0
    momentum, eps = 0.9, 1e-5  # the running statistics' decay; the variance floor
    xhat = x.data @ w.data  # the dense output, normalised in place below
    xhat += b.data
    if train:
        mean, var = xhat.mean(axis=0), xhat.var(axis=0)
        running_mean[...] = momentum * running_mean + (1.0 - momentum) * mean
        running_var[...] = momentum * running_var + (1.0 - momentum) * var
    else:
        mean, var = running_mean.astype(xhat.dtype), running_var.astype(xhat.dtype)
    inv = (1.0 / np.sqrt(var + eps)).astype(xhat.dtype)
    xhat -= mean
    xhat *= inv
    out_data = gamma.data * xhat
    out_data += beta.data
    np.maximum(out_data, 0, out=out_data)
    if drop:
        scale = xhat.dtype.type(1.0) / (1.0 - rate)
        out_data *= rng.random(out_data.shape) >= rate
        out_data *= scale

    parents = (x, w, b, gamma, beta)
    req = any(p.requires_grad for p in parents)
    out = Tensor(out_data, req, parents=parents)
    if req:
        def _bw(g):
            g *= out_data > 0  # in place: `g` is this node's own `.grad`
            if drop:
                g *= scale
            if gamma.requires_grad:
                gamma.accumulate((g * xhat).sum(axis=0), fresh=True)
            if beta.requires_grad:
                beta.accumulate(g.sum(axis=0), fresh=True)
            dxhat = g * gamma.data
            if train:
                s1 = dxhat.sum(axis=0)
                s2 = (dxhat * xhat).sum(axis=0)
                g = inv * (dxhat - s1 / count - xhat * s2 / count)
            else:
                g = dxhat * inv
            if b.requires_grad:
                b.accumulate(g.sum(axis=0), fresh=True)
            if x.requires_grad:
                x.accumulate(g @ w.data.T, fresh=True)
            if w.requires_grad:
                w.accumulate(x.data.T @ g, fresh=True)
        out._backward = _bw
    return out


def _same_padding(kernel: int) -> int:
    """Leading zeros of "same" padding; the trailing side takes the rest of
    kernel - 1, so the output keeps the input's size."""
    return (kernel - 1) // 2


class _FlatPad:
    """One utterance's zero-bordered channels [C, bands + kb - 1, Wp], each
    plane stored flat with kt - 1 trailing zeros, Wp = time + kt - 1, and a
    column workspace `cols` [C, width, block * Wp] of `width` kernel offsets
    over `block` bands, all of them by default.

    Kernel offset (time i, band j) is then the contiguous run of the
    `span` = bands * Wp cells from j * Wp + i: cell b * Wp + t of that run
    is padded cell (b + j, t + i), so each Wp-long row's first `time` cells
    are the offset's im2col row and the other kt - 1 are junk. `runs` holds
    them all as one view [kt, kb, C, span], in the stored kernel order;
    `pairs` matches offset k's run with workspace slot k % width. `blocks`
    holds the (start, end) cells of each block of bands within a run."""

    def __init__(self, ch, bands, time, kt, kb, dtype, width, block=None):
        self.wp = time + kt - 1
        self.span = bands * self.wp
        rows = bands + kb - 1
        self.flat = np.zeros((ch, rows * self.wp + kt - 1), dtype=dtype)
        pb, pt = _same_padding(kb), _same_padding(kt)
        planes = self.flat[:, : rows * self.wp].reshape(ch, rows, self.wp)
        self.interior = planes[:, pb : pb + bands, pt : pt + time]
        step = (block or bands) * self.wp
        self.cols = np.empty((ch, width, step), dtype=dtype)
        cell = self.flat.itemsize  # offset (i, j)'s run starts j * Wp + i cells in
        self.runs = np.lib.stride_tricks.as_strided(
            self.flat, (kt, kb, ch, self.span), (cell, self.wp * cell, self.flat.strides[0], cell))
        self.pairs = [(self.runs[i, j], self.cols[:, k % width])
                      for k, (i, j) in enumerate(np.ndindex(kt, kb))]
        self.blocks = [(lo, min(lo + step, self.span)) for lo in range(0, self.span, step)]


def _im2col(xn, pad: _FlatPad, block: int = 0) -> np.ndarray:
    """Utterance xn [C, bands, time]'s columns [C*kt*kb, cells] in the
    stored kernel order, for the cells of `pad.blocks[block]`, built in
    `pad` (of width kt*kb): one copy from all kernel offsets' shifted flat
    views (Chellapilla et al., 2006, with the views of Anderson et al.,
    arXiv:1709.03395). With xn None, the columns of what `pad`'s interior
    already holds. Every utterance's columns go into the same workspace, so
    the caller uses them before the next."""
    if xn is not None:
        pad.interior[...] = xn
    lo, hi = pad.blocks[block]
    cols = pad.cols[..., : hi - lo]
    np.copyto(cols.reshape(pad.runs.shape[2:3] + pad.runs.shape[:2] + (-1,)),
              pad.runs[..., lo:hi].transpose(2, 0, 1, 3))
    return cols.reshape(-1, hi - lo)


def _col2im(gp2: np.ndarray, w_off: np.ndarray, pad: _FlatPad) -> np.ndarray:
    """One utterance's input gradient [C, bands, time], the transpose of
    `_im2col`, from its output gradient gp2 [out_ch, bands * Wp] on the Wp
    grid. w_off [groups, out_ch, C*width] holds the slices of w for `pad`'s
    width of kernel offsets per group. Groups run last to first: one GEMM,
    w_off[q].T @ gp2, into `pad.cols`, then each offset's [C, span] is added
    into its run, last to first, so every padded cell sums in output order.
    Returns a view into `pad`, which the next call overwrites."""
    pad.flat.fill(0)
    width = pad.cols.shape[1]
    for q in reversed(range(len(w_off))):
        np.matmul(w_off[q].T, gp2, out=pad.cols.reshape(-1, pad.span))
        for run, col in reversed(pad.pairs[q * width : (q + 1) * width]):
            run += col
    return pad.interior


def _pool_cells(size: int, oh: int, ow: int) -> list:
    """The size*size strided cells of non-overlapping windows over the last
    two axes, in row-major order; trailing rows and columns that do not
    fill a window are left out."""
    return [np.s_[..., di : oh * size : size, dj : ow * size : size]
            for di in range(size) for dj in range(size)]


def _pool_max(src, cells, top) -> None:
    """Write each window's maximum over `cells` of `src` into `top`."""
    np.copyto(top, src[cells[0]])
    for cell in cells[1:]:
        np.maximum(top, src[cell], out=top)


def _pool_winners(src, cells, top, win, free, differ) -> None:
    """Write into `win` each window's first maximum in row-major order, the
    cell `argmax` picks: the count of leading cells that differ from the
    window's maximum `top`. `free` and `differ` are bool scratch the shape
    of `top`. (Boolean-mask assignment would be 7-8x slower.)"""
    np.not_equal(src[cells[0]], top, out=free)
    np.copyto(win, free)
    for cell in cells[1:-1]:
        np.not_equal(src[cell], top, out=differ)
        free &= differ
        win += free


def _pool_scatter(g, win, cells, dst, hit) -> None:
    """Route each window's gradient `g` to its winner's cell of `dst` and
    zero the window's other cells; `hit` is bool scratch the shape of `g`."""
    for k, cell in enumerate(cells):
        np.equal(win, k, out=hit)
        np.multiply(g, hit, out=dst[cell])


class _Conv:
    """One layer of a `conv2d` node, on utterances [in_ch, bands, time]: its
    kernel w, bias b (a Tensor or None) and pool, the steps both passes take
    per utterance, and the makers of one thread's scratch for them."""

    def __init__(self, shape, w, b, pool):
        self.w, self.b, self.pool = w, b, pool
        self.in_ch, self.bands, self.time = shape
        self.out_ch, _, self.kt, self.kb = w.shape
        self.oh, self.ow = self.bands // pool, self.time // pool
        if self.oh < 1 or self.ow < 1:
            raise ValidationFailure(f"pooling {pool}x{pool} on {self.bands}x{self.time} input")
        self.wp = self.time + self.kt - 1
        self.w2 = w.data.reshape(self.out_ch, -1)
        self.bias = None if b is None else b.data[:, None, None]
        self.cells = _pool_cells(pool, self.oh, self.ow)
        self.work = w.data.size * self.bands * self.time  # the forward GEMM's multiply-adds
        band = self.in_ch * self.kt * self.kb * self.wp  # one band's columns
        # col2im takes all kernel offsets in one GEMM while their product is
        # small, and always from one input channel, whose per-offset products
        # would go to gemv and sum in another order: the backward's padding
        # then holds the im2col columns that channel's `dw` is taken against
        whole = self.in_ch == 1 or band * self.bands <= _COL2IM_ONE_GEMM_CELLS
        self.dx_width = self.kt * self.kb if whole else 1
        self.dw_shape = (self.w2.shape if self.in_ch == 1  # one utterance's `grad_w`
                         else (self.kt, self.kb, self.out_ch, self.in_ch))
        self.block = min(self.bands, max(1, _COLUMN_BLOCK_CELLS // band))  # per forward GEMM

    def pad(self, dtype, width=None, block=None) -> _FlatPad:
        """A flat padding whose workspace holds `width` offsets over `block`
        bands, all of each by default."""
        return _FlatPad(self.in_ch, self.bands, self.time, self.kt, self.kb, dtype,
                        self.kt * self.kb if width is None else width, block)

    def rows(self, dtype) -> np.ndarray:
        """One utterance's GEMM output [out_ch, bands, Wp]."""
        return np.empty((self.out_ch, self.bands, self.wp), dtype=dtype)

    def flags(self) -> list:
        """`_pool_winners`' bool scratch."""
        return [np.empty((self.out_ch, self.oh, self.ow), dtype=bool) for _ in range(2)]

    def forward(self, xn, pad, rows, top, win=None, flags=()) -> None:
        """One utterance xn (None: `pad` holds it): w [out_ch, C*kt*kb] @ its
        columns into `rows`, a block of bands at a time, the pool into
        `top`, then bias and ReLU in place. With `win`, the bias goes in
        before the max and each window's winner into `win`."""
        out = rows.reshape(self.out_ch, -1)
        for q, (lo, hi) in enumerate(pad.blocks):
            np.matmul(self.w2, _im2col(xn if q == 0 else None, pad, q), out=out[:, lo:hi])
        if win is not None and self.bias is not None:
            rows += self.bias
        _pool_max(rows, self.cells, top)
        if win is not None:
            _pool_winners(rows, self.cells, top, win, *flags)
        elif self.bias is not None:
            top += self.bias
        np.maximum(top, 0, out=top)

    def grid(self, dtype):
        """One thread's gradient grid [out_ch, bands, Wp], its junk cells 0,
        and its loader: `load(gn, win_n)` puts one utterance's masked
        output gradient gn on it, routed to the winners `win_n` when the
        layer pools, and returns it as [out_ch, bands * Wp]."""
        gp = np.zeros((self.out_ch, self.bands, self.wp), dtype=dtype)
        hit = np.empty((self.out_ch, self.oh, self.ow), dtype=bool) if self.pool > 1 else None

        def load(gn, win_n):
            if win_n is None:
                gp[..., : self.time] = gn
            else:
                _pool_scatter(gn, win_n, self.cells, gp, hit)
            return gp.reshape(self.out_ch, -1)
        return load

    def offsets(self) -> np.ndarray:
        """w's slices for `_col2im` on a padding of `dx_width` offsets."""
        width = self.dx_width
        w_off = self.w.data.reshape(self.out_ch, self.in_ch, -1, width).transpose(2, 0, 1, 3)
        return np.ascontiguousarray(w_off).reshape(-1, self.out_ch, self.in_ch * width)

    def grad_w(self, gp, pad, out) -> None:
        """One utterance's `dw` into `out` from its grid gp [out_ch, bands *
        Wp] and `pad`, which holds its input: one product per kernel offset
        over the padding's runs, or against one channel's im2col columns."""
        if self.in_ch == 1:
            np.matmul(gp, _im2col(None, pad).T, out=out)
        else:
            np.matmul(gp, pad.runs.swapaxes(2, 3), out=out)

    def w_grad(self, parts) -> np.ndarray:
        """w's gradient: the utterances' `grad_w` [B, ...] summed in order."""
        total = _sum_in_order(parts)
        return np.ascontiguousarray(total if self.in_ch == 1 else total.transpose(2, 3, 0, 1)
                                    ).reshape(self.w.shape)


def _sum_in_order(parts: np.ndarray) -> np.ndarray:
    """parts[0] + parts[1] + ..., from zero, in that order."""
    total = np.zeros(parts.shape[1:], dtype=parts.dtype)
    for part in parts:
        np.add(total, part, out=total)
    return total


def conv2d(x, w, b=None, pool: int = 1, stem=None) -> Tensor:
    """Cross-correlation with zero "same" padding, then bias, an optional
    pool*pool max pool and ReLU; with `stem`, two such layers as one node.

    x: [batch, in_ch, bands, time], time the contiguous axis; w: [out_ch,
    in_ch, k_time, k_band]; b: [out_ch]; the output is [batch, out_ch,
    bands // pool, time // pool]. Forward: per utterance, one GEMM, w
    [out_ch, C*kt*kb] @ its im2col columns, or one per block of bands when
    the columns pass `_COLUMN_BLOCK_CELLS`; the first `time` cells of each
    Wp-long output row are the conv (see `_FlatPad`). Each output sums the
    same terms in the same order as a time-outer im2col would. Bias and
    ReLU then run in place, so no pre-activation copy exists. The backward
    masks `g` by `out > 0`, which is `pre > 0` (the trick of in-place
    activated batch norm, Rota Bulò et al., arXiv:1712.02616).

    With `pool` > 1 the max pool reads the GEMM's buffer, so no
    full-resolution output exists. ReLU and the max commute, so the ReLU
    runs on the pooled output. When the node needs a gradient, the bias is
    added before the max and each window's first maximum is kept as a
    `uint8` winner; otherwise the bias is added to the pooled output,
    which is exact because rounding is monotone: max(a) + b == max(a + b).
    The backward routes the masked `g` to the winners (`_pool_scatter`).

    The columns are not saved. Per utterance the backward puts the input
    back into its flat padding and lays `g` out on the Wp grid with zero
    junk cells. `dw` is one matmul over the padding's runs, one product per
    kernel offset with no columns (`_Conv.grad_w`); a one-channel input,
    whose per-offset products would go to gemv and sum in another order,
    takes it against its im2col columns instead. `dx` is col2im (`_col2im`)
    one kernel offset at a time: that offset's [in_ch, out_ch] slice of w
    times the grid, added into the flat padding, offsets last to first. So
    nothing holds the whole batch's columns, nor one utterance's column
    gradient, kt*kb times the input's size; only a gradient of at most
    `_COL2IM_ONE_GEMM_CELLS` cells is formed whole, in one GEMM. Each
    utterance's `dw` is kept, and they are summed in utterance order after
    the loop (`_sum_in_order`).

    `stem` = (w0, b0, pool0) is a layer before this one, run in the same
    node: x is then the stem's input, and the stem's output, the widest
    activation of a CNN whose first layer keeps full resolution, is never
    held whole (Chen et al., arXiv:1604.06174: recompute what is cheap).
    Per utterance the forward writes the stem's output straight into this
    layer's flat padding and runs this layer from it; the node keeps only
    x, the output and this layer's winners. The backward, per utterance
    again, computes the stem's output once more into that padding (with its
    winners when it pools), and after this layer's `dw` and `dx` masks that
    `dx` by the stem's ReLU and pool and takes the stem's `dw` and `db` the
    same way. That gives the bits the two layers as two nodes give (tested
    at the models' shapes).

    From `CONV_THREAD_MIN_WORK` up (the work of both layers, with a stem),
    with a batch of two or more and two usable cores, the op runs on the
    caller and the worker thread (`_run_pair`); its GEMMs and copies drop
    the GIL. Both passes split the batch: the caller takes the first half
    (rounded up), the worker the rest, each thread with its own paddings
    and grids, which the caller allocates. Both schedules run the same code
    on the same arrays, so they compute the same bits.
    """
    x = as_tensor(x)
    shape = x.shape[1:]
    convs = []  # the stem's layer, then this one's
    for wk, bk, pk in ([] if stem is None else [stem]) + [(w, b, pool)]:
        wk = as_tensor(wk)
        if x.data.ndim != 4 or wk.data.ndim != 4 or shape[0] != wk.shape[1]:
            raise ValidationFailure(f"conv2d of {x.shape[:1] + shape} with kernel {wk.shape}")
        convs.append(_Conv(shape, wk, bk, pk))
        shape = (wk.shape[0], convs[-1].oh, convs[-1].ow)
    conv = convs[-1]
    b = conv.b
    batch = x.shape[0]
    dtype = np.result_type(x.data, *(c.w.data for c in convs))
    parents = (x,) + tuple(p for c in convs for p in (c.w, c.b) if p is not None)
    req = any(p.requires_grad for p in parents)
    threaded = (batch >= 2 and sum(c.work for c in convs) >= CONV_THREAD_MIN_WORK
                and _cores() >= 2)
    bounds = (0, (batch + 1) // 2, batch)  # the caller's utterances, then the worker's
    out_data = np.empty((batch,) + shape, dtype=dtype)
    win = None
    if req and pool > 1:
        win = np.empty(out_data.shape, dtype=np.min_scalar_type(len(conv.cells) - 1))

    def forward_space():  # one thread's paddings and GEMM outputs, and pool scratch
        flags = conv.flags() if win is not None else ()
        return ([c.pad(dtype, block=c.block) for c in convs], [c.rows(dtype) for c in convs],
                flags)

    spaces = [forward_space()]
    spaces.append(forward_space() if threaded else spaces[0])

    def forward(k):
        pads, rows, flags = spaces[k]
        for n in range(bounds[k], bounds[k + 1]):
            xn = x.data[n]
            if stem is not None:  # into this layer's padding; xn None reads it there
                convs[0].forward(xn, pads[0], rows[0], pads[1].interior)
                xn = None
            conv.forward(xn, pads[-1], rows[-1], out_data[n], None if win is None else win[n],
                         flags)

    _run_pair(forward, threaded)

    out = Tensor(out_data, req, parents=parents)
    if req:
        def _bw(g):
            g *= out_data > 0  # in place: `g` is this node's own `.grad`
            if b is not None and b.requires_grad:
                b.accumulate(g.sum(axis=(0, 2, 3)), fresh=True)
            _conv_backward(convs, x, g, win, bounds, threaded)

        out._backward = _bw
    return out


def _conv_backward(convs: list, x: Tensor, g, win, bounds, threaded) -> None:
    """The rest of `conv2d`'s backward from its masked output gradient g,
    one loop over utterances split by batch as the forward is (see
    `conv2d`). Each utterance's `dw` and `db` go into the caller's [B, ...]
    arrays, and their sums in utterance order to the parameters."""
    stem = convs[0] if len(convs) == 2 else None
    conv = convs[-1]
    batch, dtype = len(g), g.dtype
    dws = [np.empty((batch,) + c.dw_shape, dtype=dtype) for c in convs]
    db0 = np.empty((batch, stem.out_ch), dtype=dtype) if stem is not None else None
    dx = np.empty(x.shape, dtype=x.dtype) if x.requires_grad else None
    w_off = conv.offsets()
    x_off = stem.offsets() if stem is not None else w_off
    inner = (conv.in_ch, conv.bands, conv.time)

    def space():  # one thread's scratch: this layer's, its dx padding, then the stem's
        pad = conv.pad(dtype, conv.dx_width)
        if stem is None:
            return pad, conv.grid(dtype), pad
        pooled = stem.pool > 1
        return (pad, conv.grid(dtype), stem.pad(dtype, stem.dx_width) if dx is not None else None,
                stem.pad(dtype), stem.rows(dtype), stem.grid(dtype),
                np.empty(inner, dtype=np.uint8) if pooled else None, stem.flags() if pooled else (),
                np.empty(inner, dtype=bool), np.empty(inner, dtype=dtype))

    spaces = [space()]
    spaces.append(space() if threaded else spaces[0])

    def backward(k):
        pad, load, pad_x, *stem_space = spaces[k]
        if stem is not None:
            pad0, rows0, load0, win0, flags0, live, d0 = stem_space
        for n in range(bounds[k], bounds[k + 1]):
            pad.flat.fill(0)  # col2im left the last utterance's gradient in it
            if stem is None:
                pad.interior[...] = x.data[n]
            else:
                stem.forward(x.data[n], pad0, rows0, pad.interior, win0, flags0)
            gp = load(g[n], None if win is None else win[n])
            conv.grad_w(gp, pad, dws[-1][n])
            if stem is not None:
                np.greater(pad.interior, 0, out=live)
                np.multiply(_col2im(gp, w_off, pad), live, out=d0)
                np.sum(d0, axis=(1, 2), out=db0[n])
                gp = load0(d0, win0)
                stem.grad_w(gp, pad0, dws[0][n])
            if dx is not None:
                dx[n] = _col2im(gp, x_off, pad_x)

    _run_pair(backward, threaded)
    for c, parts in zip(convs, dws):
        if c.w.requires_grad:
            c.w.accumulate(c.w_grad(parts), fresh=True)
    if stem is not None and stem.b is not None and stem.b.requires_grad:
        stem.b.accumulate(_sum_in_order(db0), fresh=True)
    if dx is not None:
        x.accumulate(dx, fresh=True)


def max_pool2d(x, size: int = 2) -> Tensor:
    """Non-overlapping max pooling over the size*size strided slices; trailing
    rows/columns that do not fill a window are dropped. Each window's gradient
    goes to its first maximum in row-major order, the cell `argmax` picks.
    The models pool inside `conv2d`; this op, built from the same kernels,
    is the reference that path is tested against."""
    x = as_tensor(x)
    h, w = x.shape[2:]
    oh, ow = h // size, w // size
    if oh < 1 or ow < 1:
        raise ValidationFailure(f"pooling {size}x{size} on {h}x{w} input")
    cells = _pool_cells(size, oh, ow)
    out_data = np.empty(x.shape[:2] + (oh, ow), dtype=x.dtype)
    _pool_max(x.data, cells, out_data)
    out = Tensor(out_data, x.requires_grad, parents=(x,))
    if x.requires_grad:
        win = np.empty(out_data.shape, dtype=np.min_scalar_type(len(cells) - 1))
        free, differ = (np.empty(out_data.shape, dtype=bool) for _ in range(2))
        _pool_winners(x.data, cells, out_data, win, free, differ)

        def _bw(g):
            dx = np.zeros_like(x.data)
            _pool_scatter(g, win, cells, dx, free)
            x.accumulate(dx, fresh=True)
        out._backward = _bw
    return out


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    batch, n_classes = logits.shape
    if labels.shape != (batch,):
        raise ValidationFailure(f"labels {labels.shape} for logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValidationFailure(f"labels must lie in [0, {n_classes})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -logp[np.arange(batch), labels].mean()
    out = Tensor(np.asarray(loss, dtype=logits.dtype), logits.requires_grad, parents=(logits,))
    if logits.requires_grad:
        def _bw(g):
            grad = np.exp(logp)
            grad[np.arange(batch), labels] -= 1.0
            logits.accumulate(g * grad / batch)
        out._backward = _bw
    return out
