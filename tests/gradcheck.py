"""Central finite-difference gradient checking shared by the op tests and
the acceptance gradient suite. All checks run in float64."""

from unittest import mock

import numpy as np

from crossemo.nn import layers, ops
from crossemo.nn.tensor import Tensor

REL_TOL = 1e-4


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_op(build_inputs, forward, seed: int) -> float:
    """Generic check: `build_inputs(rng)` returns a dict of float64 arrays;
    `forward(tensors)` returns an output Tensor. The scalar objective is a
    fixed random projection of the output. Returns the worst relative error
    over all inputs."""
    rng = np.random.default_rng(seed)
    arrays = build_inputs(rng)
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    out = forward(tensors)
    projection = rng.normal(size=out.shape)
    out.backward(projection)

    worst = 0.0
    for name, arr in arrays.items():
        def objective():
            fixed = {k: Tensor(v) for k, v in arrays.items()}
            return float((forward(fixed).data * projection).sum())

        worst = max(worst, max_rel_err(tensors[name].grad, numeric_grad(objective, arr)))
    return worst


def conv2d_case(tensors):
    return ops.conv2d(tensors["x"], tensors["w"], tensors["b"])


def conv2d_inputs(rng, batch=2, kernel=(3, 3), size=(5, 4), in_ch=2):
    return {
        "x": rng.normal(size=(batch, in_ch) + size),
        "w": rng.normal(size=(3, in_ch) + kernel),
        "b": rng.normal(size=3),
    }


def conv2d_mostly_off_inputs(rng, size=(5, 4)):
    """A bias of -1 on small weights: the ReLU switches most cells off."""
    arrays = conv2d_inputs(rng, size=size)
    arrays["w"] *= 0.25
    arrays["b"] = np.full(3, -1.0)
    return arrays


def conv2d_no_bias_case(tensors):
    return ops.conv2d(tensors["x"], tensors["w"], None)


def conv2d_no_bias_inputs(rng, size=(5, 4)):
    return {"x": rng.normal(size=(2, 2) + size), "w": rng.normal(size=(3, 2, 3, 3))}


def conv2d_pool_case(tensors):
    return ops.conv2d(tensors["x"], tensors["w"], tensors.get("b"), pool=2)


# odd bands and time: the pool drops the trailing row and column
POOL_SIZE = (5, 7)


def check_conv2d_per_offset(seed: int) -> float:
    """The conv2d checks, one channel unpooled and two pooled, with the
    one-GEMM limit lowered below the cases' size: the pooled case's col2im
    runs one kernel offset per GEMM, the path of the paper's wider layers;
    a one-channel input's still takes all offsets in one GEMM."""
    with mock.patch.object(ops, "_COL2IM_ONE_GEMM_CELLS", 0):
        return max(check_op(lambda rng: conv2d_inputs(rng, in_ch=1), conv2d_case, seed),
                   check_op(lambda rng: conv2d_inputs(rng, size=POOL_SIZE), conv2d_pool_case, seed))


def check_conv2d_threaded(seed: int) -> float:
    """The conv2d checks, unpooled, pooled and with a stem that pools, with
    the worker thread: the gate is lowered below the cases' work, and two
    cores are assumed."""
    with mock.patch.object(ops, "CONV_THREAD_MIN_WORK", 1), \
            mock.patch.object(ops, "_cores", lambda: 2):
        return max(check_op(conv2d_inputs, conv2d_case, seed),
                   check_op(lambda rng: conv2d_inputs(rng, size=POOL_SIZE), conv2d_pool_case, seed),
                   check_op(conv2d_stem_inputs, conv2d_stem_case_factory(2, 2), seed))


def conv2d_stem_case_factory(pool0, pool):
    """Two conv layers as one `conv2d` node: the stem (w0, b0, pool0),
    then (w, b, pool)."""
    def case(tensors):
        return ops.conv2d(tensors["x"], tensors["w"], tensors["b"], pool,
                          stem=(tensors["w0"], tensors["b0"], pool0))

    return case


def conv2d_stem_inputs(rng):
    """2 -> 3 -> 4 channels on 7 x 10: with both layers pooling, 3 x 5,
    then 1 x 2, and each pool drops a trailing row or column."""
    return {
        "x": rng.normal(size=(2, 2, 7, 10)),
        "w0": rng.normal(size=(3, 2, 3, 3)),
        "b0": rng.normal(size=3),
        "w": rng.normal(size=(4, 3, 3, 3)),
        "b": rng.normal(size=4),
    }


def dense_case(tensors):
    return ops.dense(tensors["x"], tensors["w"], tensors["b"])


def dense_inputs(rng):
    return {"x": rng.normal(size=(4, 5)), "w": rng.normal(size=(5, 3)), "b": rng.normal(size=3)}


def blstm_case(tensors):
    params = {k: tensors[k] for k in tensors if k != "x"}
    return layers.blstm_forward(params, "l", tensors["x"], 3)


def blstm_inputs(rng, n_steps=3):
    arrays = {"x": rng.normal(size=(2, n_steps, 4))}
    for direction in ("fw", "bw"):
        arrays[f"l.{direction}.wx"] = rng.normal(size=(4, 12)) * 0.5
        arrays[f"l.{direction}.wh"] = rng.normal(size=(3, 12)) * 0.5
        arrays[f"l.{direction}.b"] = rng.normal(size=12) * 0.1
    return arrays


def check_blstm_threaded(seed: int) -> float:
    """The blstm check with direction 1 on the worker thread: the gate is
    lowered below the case's width, and two cores are assumed."""
    with mock.patch.object(ops, "BLSTM_THREAD_MIN_HIDDEN", 1), \
            mock.patch.object(ops, "_cores", lambda: 2):
        return check_op(blstm_inputs, blstm_case, seed)


def attention_case(tensors):
    params = {k: tensors[k] for k in tensors if k != "x"}
    pooled, _ = layers.attention_forward(params, "a", tensors["x"])
    return pooled


def attention_inputs(rng):
    return {
        "x": rng.normal(size=(2, 3, 4)),
        "a.w": rng.normal(size=(4, 3)),
        "a.b": rng.normal(size=3),
        "a.v": rng.normal(size=(3, 1)),
    }


def fc_block_inputs(rng, bias=True):
    """Without `bias`, b is a constant zero: train mode's batch mean cancels
    it, so its true gradient is 0 and a finite difference reads only noise."""
    arrays = {
        "x": rng.normal(size=(6, 5)),
        "w": rng.normal(size=(5, 4)),
        "gamma": rng.normal(size=4) + 1.5,
        "beta": rng.normal(size=4),
    }
    if bias:
        arrays["b"] = rng.normal(size=4)
    return arrays


def fc_block_case_factory(mode, rate=0.0, rng_seed=0):
    """`ops.fc_block` on fresh running statistics (eval mode applies them)
    and, for dropout, a fresh rng from `rng_seed`, so every call draws the
    same mask."""
    def case(tensors):
        b = tensors.get("b", np.zeros(4))
        return ops.fc_block(tensors["x"], tensors["w"], b, tensors["gamma"], tensors["beta"],
                            np.linspace(-0.5, 0.5, 4), np.linspace(0.5, 2.0, 4),
                            rate, mode, np.random.default_rng(rng_seed))

    return case


def softmax_ce_case_factory(labels):
    def case(tensors):
        return ops.softmax_cross_entropy(tensors["logits"], labels)

    return case


def check_softmax_ce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    t = Tensor(logits, requires_grad=True)
    loss = ops.softmax_cross_entropy(t, labels)
    loss.backward()

    def objective():
        return float(ops.softmax_cross_entropy(Tensor(logits), labels).data)

    return max_rel_err(t.grad, numeric_grad(objective, logits))


def check_fc_block_dropout(seed: int) -> float:
    """`fc_block`'s gradients with dropout against its gradients without,
    under the upstream gradient times the realized mask: the output over
    the dropout-free output (same inputs, same rng stream)."""
    rng = np.random.default_rng(seed)
    arrays = fc_block_inputs(rng)
    projection = rng.normal(size=(6, 4))
    runs = []
    for rate in (0.3, 0.0):
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        out = fc_block_case_factory("train", rate, seed + 1)(tensors)
        runs.append((tensors, out))
    (dropped, out), (plain, ref) = runs
    mask = out.data / np.where(ref.data == 0.0, 1.0, ref.data)
    out.backward(projection)
    ref.backward(projection * mask)
    return max(max_rel_err(dropped[k].grad, plain[k].grad) for k in arrays)


def check_maxpool(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 6, 5))
    t = Tensor(x, requires_grad=True)
    out = ops.max_pool2d(t, 2)
    projection = rng.normal(size=out.shape)
    out.backward(projection)

    def objective():
        return float((ops.max_pool2d(Tensor(x), 2).data * projection).sum())

    return max_rel_err(t.grad, numeric_grad(objective, x))


GRADIENT_SUITE = {
    "conv2d": lambda seed: check_op(conv2d_inputs, conv2d_case, seed),
    "conv2d_no_bias": lambda seed: check_op(conv2d_no_bias_inputs, conv2d_no_bias_case, seed),
    "conv2d_batch3": lambda seed: check_op(
        lambda rng: conv2d_inputs(rng, batch=3), conv2d_case, seed
    ),
    "conv2d_mostly_off": lambda seed: check_op(conv2d_mostly_off_inputs, conv2d_case, seed),
    "conv2d_2x3": lambda seed: check_op(  # k_time != k_band, one of them even
        lambda rng: conv2d_inputs(rng, kernel=(2, 3)), conv2d_case, seed
    ),
    "conv2d_per_offset": check_conv2d_per_offset,
    "conv2d_threaded": check_conv2d_threaded,
    "conv2d_pool": lambda seed: check_op(
        lambda rng: conv2d_inputs(rng, size=POOL_SIZE), conv2d_pool_case, seed
    ),
    "conv2d_pool_no_bias": lambda seed: check_op(
        lambda rng: conv2d_no_bias_inputs(rng, size=POOL_SIZE), conv2d_pool_case, seed
    ),
    "conv2d_pool_2x3": lambda seed: check_op(
        lambda rng: conv2d_inputs(rng, kernel=(2, 3), size=POOL_SIZE), conv2d_pool_case, seed
    ),
    "conv2d_pool_mostly_off": lambda seed: check_op(
        lambda rng: conv2d_mostly_off_inputs(rng, size=POOL_SIZE), conv2d_pool_case, seed
    ),
    # the stem's pool, then the layer's: the paper's, the desk profile's, none
    "conv2d_stem_1_2": lambda seed: check_op(
        conv2d_stem_inputs, conv2d_stem_case_factory(1, 2), seed
    ),
    "conv2d_stem_2_2": lambda seed: check_op(
        conv2d_stem_inputs, conv2d_stem_case_factory(2, 2), seed
    ),
    "conv2d_stem_1_1": lambda seed: check_op(
        conv2d_stem_inputs, conv2d_stem_case_factory(1, 1), seed
    ),
    "dense": lambda seed: check_op(dense_inputs, dense_case, seed),
    "blstm": lambda seed: check_op(blstm_inputs, blstm_case, seed),
    "blstm_one_step": lambda seed: check_op(
        lambda rng: blstm_inputs(rng, n_steps=1), blstm_case, seed
    ),
    "blstm_threaded": check_blstm_threaded,
    "attention": lambda seed: check_op(attention_inputs, attention_case, seed),
    # fc_block by the stage its mode switches: batch norm in train mode
    # (no dropout) and in eval mode, then dropout
    "batchnorm": lambda seed: check_op(
        lambda rng: fc_block_inputs(rng, bias=False), fc_block_case_factory("train"), seed
    ),
    "batchnorm_eval": lambda seed: check_op(
        fc_block_inputs, fc_block_case_factory("eval", rate=0.3), seed
    ),
    "dropout": check_fc_block_dropout,
    "softmax_ce": check_softmax_ce,
    "maxpool": check_maxpool,
}
