"""Reverse-mode autodiff over dense numpy arrays.

Each op in `ops` is a whole layer or a shape op and builds one Tensor node
holding the forward value; it hands each parent a gradient already in that
parent's shape, so nothing here broadcasts. Parents and a backward closure
are recorded only when the node needs a gradient, so a forward on constants
builds no graph and each activation dies with its last use.
`Tensor.backward()` topologically sorts the graph (iteratively, so graphs of
any depth are fine) and accumulates gradients into `.grad`. Only leaves keep
theirs: each interior node drops its gradient, closure and parents once its
closure has run, so an activation dies with the last closure that reads it,
and the graph is gone when backward returns.
Gradients keep the dtype of the forward data, so checks can run in float64
while training runs in float32.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationFailure


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=()):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents) if requires_grad else ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def accumulate(self, g, fresh: bool = False):
        """Add `g` into `.grad`. `fresh=True` hands over an array the op has
        just allocated and keeps no other reference to: it is stored uncopied."""
        if self.grad is None:
            self.grad = np.asarray(g, self.dtype) if fresh else np.array(g, self.dtype)
        else:
            self.grad += g

    def backward(self, grad=None):
        if grad is None:
            if self.size != 1:
                raise ValidationFailure("backward() without a gradient needs a scalar")
            grad = np.ones_like(self.data)
        order = _topo_order(self)
        self.accumulate(grad)
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # nothing reads an interior gradient
            node._backward, node._parents = None, ()  # its saved arrays go with it

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={self.requires_grad})"


def _topo_order(root: Tensor):
    """Iterative postorder DFS; recursion would overflow on deep graphs."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape, dtype=np.float32):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)
