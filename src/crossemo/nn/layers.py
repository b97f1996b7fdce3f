"""Parameterized layers: dense, BLSTM and additive attention, each one op node.
The models call `ops.conv2d` and `ops.fc_block` directly; `add_conv` and
`add_dense` with `add_batchnorm` make their parameters.

Parameters, and the running statistics ("buffers") an FC layer's batch norm
keeps next to them, live in flat dicts keyed by dotted names so checkpoints
can serialize them without knowing the architecture. Init: Glorot uniform
for weight matrices and kernels, zero biases, +1 on the LSTM forget gate. With
no rng, each weight is a zero placeholder that owns no memory, for a graph
whose parameters a checkpoint then supplies.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationFailure
from . import ops
from .tensor import Tensor, glorot_uniform


def _weight(rng, fan_in: int, fan_out: int, shape, dtype) -> Tensor:
    data = (np.broadcast_to(np.zeros((), dtype), shape) if rng is None
            else glorot_uniform(rng, fan_in, fan_out, shape, dtype))
    return Tensor(data, requires_grad=True)


def add_dense(params: dict, rng, prefix: str, n_in: int, n_out: int, dtype=np.float32):
    params[f"{prefix}.w"] = _weight(rng, n_in, n_out, (n_in, n_out), dtype)
    params[f"{prefix}.b"] = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)


def dense(params: dict, prefix: str, x: Tensor) -> Tensor:
    return ops.dense(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def add_conv(params: dict, rng, prefix: str, in_ch: int, out_ch: int, kernel: int, dtype=np.float32):
    fan_in = in_ch * kernel * kernel
    fan_out = out_ch * kernel * kernel
    params[f"{prefix}.w"] = _weight(rng, fan_in, fan_out, (out_ch, in_ch, kernel, kernel), dtype)
    params[f"{prefix}.b"] = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True)


def add_batchnorm(params: dict, buffers: dict, prefix: str, n_features: int, dtype=np.float32):
    params[f"{prefix}.gamma"] = Tensor(np.ones(n_features, dtype=dtype), requires_grad=True)
    params[f"{prefix}.beta"] = Tensor(np.zeros(n_features, dtype=dtype), requires_grad=True)
    buffers[f"{prefix}.mean"] = np.zeros(n_features, dtype=dtype)
    buffers[f"{prefix}.var"] = np.ones(n_features, dtype=dtype)


def add_lstm(params: dict, rng, prefix: str, n_in: int, hidden: int, dtype=np.float32):
    # gate order along the fused axis: input, forget, cell, output
    params[f"{prefix}.wx"] = _weight(rng, n_in, 4 * hidden, (n_in, 4 * hidden), dtype)
    params[f"{prefix}.wh"] = _weight(rng, hidden, 4 * hidden, (hidden, 4 * hidden), dtype)
    bias = np.zeros(4 * hidden, dtype=dtype)
    bias[hidden : 2 * hidden] = 1.0  # forget-gate bias
    params[f"{prefix}.b"] = Tensor(bias, requires_grad=True)


def add_blstm(params: dict, rng, prefix: str, n_in: int, hidden: int, dtype=np.float32):
    add_lstm(params, rng, f"{prefix}.fw", n_in, hidden, dtype)
    add_lstm(params, rng, f"{prefix}.bw", n_in, hidden, dtype)


def blstm_forward(params: dict, prefix: str, x: Tensor, hidden: int) -> Tensor:
    """Bidirectional LSTM as one `ops.blstm` node: [batch, time, feat] ->
    [batch, time, 2*hidden], per step the forward and then the backward
    hidden state, full sequence returned (no reduction)."""
    fw, bw = (tuple(params[f"{prefix}.{d}.{n}"] for n in ("wx", "wh", "b"))
              for d in ("fw", "bw"))
    if fw[1].shape[0] != hidden:
        raise ValidationFailure(
            f"{prefix}: recurrent weights {fw[1].shape} for hidden size {hidden}")
    return ops.blstm(x, forward=fw, backward=bw)


def add_attention(params: dict, rng, prefix: str, n_in: int, att_dim: int, dtype=np.float32):
    params[f"{prefix}.w"] = _weight(rng, n_in, att_dim, (n_in, att_dim), dtype)
    params[f"{prefix}.b"] = Tensor(np.zeros(att_dim, dtype=dtype), requires_grad=True)
    params[f"{prefix}.v"] = _weight(rng, att_dim, 1, (att_dim, 1), dtype)


def attention_forward(params: dict, prefix: str, seq: Tensor):
    """Additive attention pooling over time as one `ops.attention` node.
    Returns (pooled [batch, feat], weights ndarray [batch, time])."""
    return ops.attention(seq, *(params[f"{prefix}.{n}"] for n in ("w", "b", "v")))
