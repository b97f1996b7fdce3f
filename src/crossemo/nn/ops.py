"""Differentiable operations on Tensors.

Each op is one graph node with a hand-written backward pass: a whole layer
(`dense`, `fc_block`, `attention`, `blstm`, `conv2d`, `max_pool2d`,
`softmax_cross_entropy`) or a shape op (`reshape`, `transpose`). `fc_block`
is one FC layer of the CNN: dense, batch norm, ReLU and dropout. `conv2d`
takes [batch, ch, bands, time] with time the
contiguous axis, so its im2col and col2im move whole rows; it can max-pool
its output, ends in its ReLU and builds its columns one utterance at a
time into a reused workspace, saving none; its backward builds them again.
A pooling `conv2d` keeps only the pooled output and a one-byte winner per
window; `max_pool2d` shares its pooling kernels and is the reference it
is tested against. `blstm` runs its step loops on arrays the calling thread
allocates: a forward that needs no gradient keeps two steps of state, not
the whole sequence. Two ops share one worker thread with the caller
(`_run_pair`) on arrays the caller allocates: `blstm` at
`BLSTM_THREAD_MIN_HIDDEN` and wider runs its two directions at once, and
`conv2d` from `CONV_THREAD_MIN_WORK` up runs its forward on two halves of
the batch and its backward's `dw` and `dx` at once. Everything here
passes central finite-difference checks at float64 with relative error
below 1e-4 (see the gradient suite in the tests). `fc_block`, whose batch
norm and dropout switch with the mode, takes the mode explicitly; there is
no global training flag.
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
    column workspace `cols` [C, width, span] of `width` kernel offsets.

    Kernel offset (time i, band j) is then the contiguous run of the
    `span` = bands * Wp cells from j * Wp + i: cell b * Wp + t of that run
    is padded cell (b + j, t + i), so each Wp-long row's first `time` cells
    are the offset's im2col row and the other kt - 1 are junk. `pairs`
    matches offset k's run with column block k % width."""

    def __init__(self, ch, bands, time, kt, kb, dtype, width):
        self.wp = time + kt - 1
        self.span = bands * self.wp
        rows = bands + kb - 1
        self.flat = np.zeros((ch, rows * self.wp + kt - 1), dtype=dtype)
        pb, pt = _same_padding(kb), _same_padding(kt)
        planes = self.flat[:, : rows * self.wp].reshape(ch, rows, self.wp)
        self.interior = planes[:, pb : pb + bands, pt : pt + time]
        self.cols = np.empty((ch, width, self.span), dtype=dtype)
        # offsets in the stored kernel order [k_time, k_band]
        self.pairs = [(self.flat[:, j * self.wp + i : j * self.wp + i + self.span],
                       self.cols[:, k % width]) for k, (i, j) in enumerate(np.ndindex(kt, kb))]


def _im2col(xn: np.ndarray, pad: _FlatPad) -> np.ndarray:
    """Utterance xn [C, bands, time]'s columns [C*kt*kb, bands * Wp] in the
    stored kernel order, built in `pad` (of width kt*kb): one contiguous
    [C, span] copy per kernel offset (Chellapilla et al., 2006, with the
    shifted flat views of Anderson et al., arXiv:1709.03395). Every
    utterance's columns go into the same workspace, so the caller uses them
    before the next."""
    pad.interior[...] = xn
    for run, col in pad.pairs:
        np.copyto(col, run)
    return pad.cols.reshape(-1, pad.span)


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


def conv2d(x, w, b=None, pool: int = 1) -> Tensor:
    """Cross-correlation with zero "same" padding, then bias, an optional
    pool*pool max pool and ReLU.

    x: [batch, in_ch, bands, time], time the contiguous axis; w: [out_ch,
    in_ch, k_time, k_band]; b: [out_ch]; the output is [batch, out_ch,
    bands // pool, time // pool]. Forward: per utterance, one GEMM, w
    [out_ch, C*kt*kb] @ its im2col columns; the first `time` cells of each
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

    The columns are not saved. The backward gets `dw` by building them
    again, per utterance, against `g` laid out on the Wp grid with zero
    junk cells, and adds each utterance's `g @ cols.T` in utterance order.
    `dx` is col2im (`_col2im`) one kernel offset at a time: that offset's
    [in_ch, out_ch] slice of w times the utterance's grid, added into its
    flat padding, offsets last to first. So nothing holds the whole
    batch's columns, nor one utterance's column gradient: each is kt*kb
    times the input's size. Only a gradient of at most
    `_COL2IM_ONE_GEMM_CELLS` cells is formed whole, in one GEMM.

    From `CONV_THREAD_MIN_WORK` up, with a batch of two or more and two
    usable cores, the op runs on the caller and the worker thread
    (`_run_pair`); its GEMMs and copies drop the GIL. The forward splits
    the batch: the caller takes the first half (rounded up), the worker the
    rest. The backward splits by role: the caller gets `dw`, the worker
    `dx`, each from its own gradient grid; only `dw` needs a column
    workspace, so one exists. The caller allocates every workspace, one
    array each. In `train-paper` runs, where the role split read 215-228 MB
    peak RSS, a backward with a column workspace per thread read 238, and
    a forward with both threads' workspaces in one block 254-270. Both
    schedules run the same code on the same arrays, so they compute the
    same bits.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ValidationFailure(f"conv2d of {x.shape} with kernel {w.shape}")
    batch, in_ch, bands, time = x.shape
    out_ch, _, kt, kb = w.shape
    oh, ow = bands // pool, time // pool
    if oh < 1 or ow < 1:
        raise ValidationFailure(f"pooling {pool}x{pool} on {bands}x{time} input")
    wp = time + kt - 1
    w2 = w.data.reshape(out_ch, -1)
    dtype = np.result_type(x.data, w.data)
    parents = (x, w) if b is None else (x, w, b)
    req = any(p.requires_grad for p in parents)
    threaded = (batch >= 2 and w.data.size * bands * time >= CONV_THREAD_MIN_WORK
                and _cores() >= 2)
    bounds = (0, (batch + 1) // 2, batch)  # the caller's utterances, then the worker's
    out_data = np.empty((batch, out_ch, oh, ow), dtype=dtype)
    bias = None if b is None else b.data[:, None, None]
    cells = _pool_cells(pool, oh, ow)
    winners = req and pool > 1
    if winners:
        win = np.empty(out_data.shape, dtype=np.min_scalar_type(len(cells) - 1))

    def columns(width=kt * kb):  # one thread's flat padding and column workspace
        return _FlatPad(in_ch, bands, time, kt, kb, x.dtype, width)

    def forward_space():
        flags = [np.empty(out_data.shape[1:], dtype=bool) for _ in range(2 * winners)]
        return columns(), np.empty((out_ch, bands, wp), dtype=dtype), flags

    spaces = [forward_space()]
    spaces.append(forward_space() if threaded else spaces[0])

    def forward(k):
        pad, rows, flags = spaces[k]
        for n in range(bounds[k], bounds[k + 1]):
            np.matmul(w2, _im2col(x.data[n], pad), out=rows.reshape(out_ch, -1))
            if winners and bias is not None:
                rows += bias
            _pool_max(rows, cells, out_data[n])
            if winners:
                _pool_winners(rows, cells, out_data[n], win[n], *flags)
        part = out_data[bounds[k] : bounds[k + 1]]
        if bias is not None and not winners:
            part += bias
        np.maximum(part, 0, out=part)

    _run_pair(forward, threaded)

    out = Tensor(out_data, req, parents=parents)
    if req:
        def _bw(g):
            g *= out_data > 0  # in place: `g` is this node's own `.grad`
            if b is not None and b.requires_grad:
                b.accumulate(g.sum(axis=(0, 2, 3)), fresh=True)

            def grid():  # one thread's gradient grid and its loader
                gp = np.zeros((out_ch, bands, wp), dtype=g.dtype)  # junk cells stay 0
                hit = np.empty(g.shape[1:], dtype=bool) if winners else None

                def load(n):  # utterance n's gradient onto the Wp grid
                    if winners:
                        _pool_scatter(g[n], win[n], cells, gp, hit)
                    else:
                        gp[..., :time] = g[n]
                    return gp.reshape(out_ch, -1)
                return load

            roles = []
            if w.requires_grad:
                load_w, pad_w = grid(), columns()
                dw = np.zeros(w2.shape, dtype=np.result_type(g, x.data))

                def grad_w():
                    for n in range(batch):
                        np.add(dw, load_w(n) @ _im2col(x.data[n], pad_w).T, out=dw)
                roles.append(grad_w)
            if x.requires_grad:
                # one GEMM for all offsets while their product is small: nine
                # small GEMMs cost more in calls than in work, and a one-channel
                # input's would go to gemv, which sums in another order
                width = kt * kb if in_ch * kt * kb * bands * wp <= _COL2IM_ONE_GEMM_CELLS else 1
                load_x, pad_x = grid(), columns(width)
                w_off = np.ascontiguousarray(w.data.reshape(out_ch, in_ch, -1, width)
                                             .transpose(2, 0, 1, 3))
                w_off = w_off.reshape(-1, out_ch, in_ch * width)
                dx = np.empty(x.shape, dtype=x.dtype)

                def grad_x():
                    for n in range(batch):
                        dx[n] = _col2im(load_x(n), w_off, pad_x)
                roles.append(grad_x)
            if len(roles) == 2:
                _run_pair(lambda k: roles[k](), threaded)
            elif roles:
                roles[0]()
            if w.requires_grad:
                w.accumulate(dw.reshape(w.shape), fresh=True)
            if x.requires_grad:
                x.accumulate(dx, fresh=True)

        out._backward = _bw
    return out


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
