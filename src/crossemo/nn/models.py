"""The two classifier architectures.

cnn-blstm-att: a stack of convolutions over the (time, band) grid, one
bidirectional LSTM, a time-distributed stack of fully connected layers with
batch norm, ReLU and dropout (one `ops.fc_block` node each), additive
attention pooling over time, and a linear classifier.

blstm-att: two bidirectional LSTM layers straight on the feature sequence,
attention pooling, linear classifier.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ..errors import ValidationFailure, from_fields
from ..ioutil import config_digest
from . import layers, ops
from .tensor import Tensor

ARCH_CNN = "cnn-blstm-att"
ARCH_BLSTM = "blstm-att"

# the paper's CNN: 3x3 convolutions, and dropout at 0.2 after each FC layer
CONV_KERNEL = 3
FC_DROPOUT = 0.2


@dataclass(frozen=True)
class CnnBlstmAttConfig:
    conv_channels: tuple[int, ...] = (32, 32, 64, 64, 128, 128)
    pool_after: tuple[int, ...] = (2, 4, 6)  # 1-indexed conv layers followed by 2x2 max-pool
    blstm_hidden: int = 512
    fc_sizes: tuple[int, ...] = (512, 512, 256, 128)
    attention_dim: int = 128
    n_classes: int = 4
    input_bands: int = 23

    def __post_init__(self):
        if not self.conv_channels or not self.fc_sizes:
            raise ValidationFailure("need at least one conv layer and one fc layer")
        if self.n_classes < 2:
            raise ValidationFailure("n_classes must be >= 2")
        if any(p < 1 or p > len(self.conv_channels) for p in self.pool_after):
            raise ValidationFailure("pool_after entries must index conv layers (1-based)")
        if self.blstm_hidden < 1 or self.attention_dim < 1 or self.input_bands < 1:
            raise ValidationFailure("sizes must be positive")


@dataclass(frozen=True)
class BlstmAttConfig:
    blstm_layers: int = 2
    hidden: int = 512
    attention_dim: int = 128
    n_classes: int = 4
    input_bands: int = 23

    def __post_init__(self):
        if self.blstm_layers < 1 or self.hidden < 1:
            raise ValidationFailure("need at least one BLSTM layer with positive width")
        if self.n_classes < 2:
            raise ValidationFailure("n_classes must be >= 2")


class ModelGraph:
    """Named parameters and buffers plus a forward topology and a train/eval mode.

    Mode switches the batch norm and dropout inside `ops.fc_block`, and an
    eval-mode forward builds no autodiff graph; parameter values are
    untouched. A graph belongs to one training run at a time; eval-mode
    inference on frozen parameters is safe to share.
    """

    def __init__(self, arch: str, config, params: dict, buffers: dict):
        self.arch = arch
        self.config = config
        self.params = params
        self.buffers = buffers
        self.mode = "train"

    def set_mode(self, mode: str) -> None:
        if mode not in ("train", "eval"):
            raise ValidationFailure(f"mode must be train or eval, got {mode!r}")
        self.mode = mode

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    @property
    def digest(self) -> str:
        return config_digest({"arch": self.arch, "config": asdict(self.config)})

    def forward(self, feats: np.ndarray, dropout_rng=None) -> Tensor:
        graph = self
        if self.mode == "eval":  # constant parameter views: no op records a backward
            graph = copy.copy(self)
            graph.params = {name: Tensor(p.data) for name, p in self.params.items()}
        return architecture(self.arch).forward(graph, feats, dropout_rng)


def _check_input(feats: np.ndarray, input_bands: int) -> np.ndarray:
    feats = np.asarray(feats, dtype=np.float32)
    if feats.ndim != 3 or feats.shape[2] != input_bands:
        raise ValidationFailure(
            f"expected [batch, time, {input_bands}] features, got {feats.shape}"
        )
    return feats


def _cnn_forward(graph: ModelGraph, feats: np.ndarray, dropout_rng) -> Tensor:
    """feats [batch, time, bands] -> logits. The conv stack runs on
    [batch, ch, bands, time], time the contiguous axis (see `ops.conv2d`):
    the features are transposed once on the way in, and the stack's output
    once on the way out, to the [batch, time, ch*bands] sequence the BLSTM
    reads. The layers in `pool_after` pool 2x2 inside their `conv2d`, so
    their full-resolution outputs are never kept. With two or more conv
    layers, the first is the second's `stem`: both run as one node, one
    utterance at a time, so the first layer's output, the stack's widest
    (conv0's [B, 32, 23, 775] in the paper's), is never held whole. Each
    FC layer is one `ops.fc_block` over the [batch*time, width] rows."""
    cfg = graph.config
    feats = _check_input(feats, cfg.input_bands)
    batch, n_steps, bands = feats.shape
    x = Tensor(feats.transpose(0, 2, 1).reshape(batch, 1, bands, n_steps))
    convs = [(graph.params[f"conv{i}.w"], graph.params[f"conv{i}.b"],
              2 if (i + 1) in cfg.pool_after else 1) for i in range(len(cfg.conv_channels))]
    stem = convs.pop(0) if len(convs) >= 2 else None
    for conv in convs:
        x = ops.conv2d(x, *conv, stem=stem)
        stem = None
    _, ch, b_out, t_out = x.shape  # conv2d rejects a pool that leaves no cell
    seq = ops.reshape(ops.transpose(x, (0, 3, 1, 2)), (batch, t_out, ch * b_out))
    seq = layers.blstm_forward(graph.params, "blstm0", seq, cfg.blstm_hidden)

    flat = ops.reshape(seq, (batch * t_out, 2 * cfg.blstm_hidden))
    for j in range(len(cfg.fc_sizes)):
        flat = ops.fc_block(
            flat, *(graph.params[f"fc{j}.{n}"] for n in ("w", "b", "bn.gamma", "bn.beta")),
            graph.buffers[f"fc{j}.bn.mean"], graph.buffers[f"fc{j}.bn.var"],
            FC_DROPOUT, graph.mode, dropout_rng)
    seq = ops.reshape(flat, (batch, t_out, cfg.fc_sizes[-1]))

    pooled, _ = layers.attention_forward(graph.params, "att", seq)
    return layers.dense(graph.params, "classifier", pooled)


def _blstm_forward(graph: ModelGraph, feats: np.ndarray, dropout_rng) -> Tensor:
    cfg = graph.config
    feats = _check_input(feats, cfg.input_bands)
    seq = Tensor(feats)
    for i in range(cfg.blstm_layers):
        seq = layers.blstm_forward(graph.params, f"blstm{i}", seq, cfg.hidden)
    pooled, _ = layers.attention_forward(graph.params, "att", seq)
    return layers.dense(graph.params, "classifier", pooled)


def _init_rng(seed: int | None):
    """The weights' random stream; none for a seed of None, which builds
    placeholders a checkpoint then replaces (see `layers`)."""
    return None if seed is None else np.random.default_rng(seed)


def build_cnn_blstm_att(cfg: CnnBlstmAttConfig, seed: int | None) -> ModelGraph:
    rng = _init_rng(seed)
    params: dict = {}
    buffers: dict = {}
    in_ch = 1
    bands = cfg.input_bands
    for i, out_ch in enumerate(cfg.conv_channels):
        layers.add_conv(params, rng, f"conv{i}", in_ch, out_ch, CONV_KERNEL)
        if (i + 1) in cfg.pool_after:
            bands //= 2
        in_ch = out_ch
    if bands < 1:
        raise ValidationFailure(
            f"pooling schedule collapses {cfg.input_bands} bands to zero width"
        )
    layers.add_blstm(params, rng, "blstm0", in_ch * bands, cfg.blstm_hidden)
    fc_in = 2 * cfg.blstm_hidden
    for j, width in enumerate(cfg.fc_sizes):
        layers.add_dense(params, rng, f"fc{j}", fc_in, width)
        layers.add_batchnorm(params, buffers, f"fc{j}.bn", width)
        fc_in = width
    layers.add_attention(params, rng, "att", fc_in, cfg.attention_dim)
    layers.add_dense(params, rng, "classifier", fc_in, cfg.n_classes)
    return ModelGraph(ARCH_CNN, cfg, params, buffers)


def build_blstm_att(cfg: BlstmAttConfig, seed: int | None) -> ModelGraph:
    rng = _init_rng(seed)
    params: dict = {}
    n_in = cfg.input_bands
    for i in range(cfg.blstm_layers):
        layers.add_blstm(params, rng, f"blstm{i}", n_in, cfg.hidden)
        n_in = 2 * cfg.hidden
    layers.add_attention(params, rng, "att", n_in, cfg.attention_dim)
    layers.add_dense(params, rng, "classifier", n_in, cfg.n_classes)
    return ModelGraph(ARCH_BLSTM, cfg, params, {})


@dataclass(frozen=True)
class Architecture:
    config: type
    build: Callable
    forward: Callable  # (graph, feats, dropout_rng) -> logits


ARCHITECTURES = {
    ARCH_CNN: Architecture(CnnBlstmAttConfig, build_cnn_blstm_att, _cnn_forward),
    ARCH_BLSTM: Architecture(BlstmAttConfig, build_blstm_att, _blstm_forward),
}


def architecture(arch: str) -> Architecture:
    if arch not in ARCHITECTURES:
        raise ValidationFailure(f"unknown architecture {arch!r}; valid: {', '.join(ARCHITECTURES)}")
    return ARCHITECTURES[arch]


def config_from_dict(arch: str, cfg: dict):
    return from_fields(architecture(arch).config, cfg, f"{arch} model")


def build_model(arch: str, cfg, seed: int | None) -> ModelGraph:
    if isinstance(cfg, dict):
        cfg = config_from_dict(arch, cfg)
    return architecture(arch).build(cfg, seed)
