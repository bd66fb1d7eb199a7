"""Minimal reverse-mode automatic differentiation on numpy arrays.

A ``Node`` wraps a float64 array together with the closure that maps an
upstream adjoint to the adjoints of its parents. The recorded graph of
closures is the tape; ``backprop`` replays it in reverse topological
order. Only the primitives the models actually use are provided, each
one verified against central finite differences in the test suite.

Gradients flow only into nodes with ``requires_grad`` (parameters);
constants are recorded but skipped during the reverse sweep.

``log``, ``exp``, ``nsum``, ``gather_last`` and ``reshape`` pass plain
arrays through as plain NumPy results, and an ndarray on the left of an
operator defers to the Node on its right. So a formula written with these
primitives and operators runs on arrays (evaluation) or on Nodes
(training) through one code path.
"""

from __future__ import annotations

import numpy as np


class Node:
    __slots__ = ("value", "grad", "parents", "backward_fn", "requires_grad")

    # make `ndarray <op> Node` defer to the reflected Node operator instead
    # of broadcasting element-wise into an object array
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward_fn=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.value.shape

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"


def param(value) -> Node:
    """A trainable leaf; gradients accumulate here."""
    return Node(np.array(value, dtype=np.float64), requires_grad=True)


def constant(value) -> Node:
    return Node(value)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint over the axes numpy broadcast into existence."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- primitives ---------------------------------------------------------

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = a.value + b.value

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Node(out, (a, b), bwd)


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = a.value * b.value

    def bwd(g):
        return (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        )

    return Node(out, (a, b), bwd)


def div(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = a.value / b.value

    def bwd(g):
        return (
            _unbroadcast(g / b.value, a.value.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        )

    return Node(out, (a, b), bwd)


def power(a, p: float) -> Node:
    a = as_node(a)
    if isinstance(p, Node):
        raise TypeError("only scalar exponents are supported")
    out = a.value ** p

    def bwd(g):
        return (g * p * a.value ** (p - 1.0),)

    return Node(out, (a,), bwd)


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    out = a.value @ b.value

    def bwd(g):
        ga = g @ np.swapaxes(b.value, -1, -2)
        gb = np.swapaxes(a.value, -1, -2) @ g
        return _unbroadcast(ga, a.value.shape), _unbroadcast(gb, b.value.shape)

    return Node(out, (a, b), bwd)


def log(a):
    if not isinstance(a, Node):
        return np.log(a)
    out = np.log(a.value)

    def bwd(g):
        return (g / a.value,)

    return Node(out, (a,), bwd)


def exp(a):
    if not isinstance(a, Node):
        return np.exp(a)
    out = np.exp(a.value)

    def bwd(g):
        return (g * out,)

    return Node(out, (a,), bwd)


def tanh(a) -> Node:
    a = as_node(a)
    out = np.tanh(a.value)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return Node(out, (a,), bwd)


def nsum(a, axis=None, keepdims=False):
    if not isinstance(a, Node):
        return np.sum(a, axis=axis, keepdims=keepdims)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return Node(out, (a,), bwd)


def nmean(a, axis=None, keepdims=False) -> Node:
    a = as_node(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    return mul(nsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def log_softmax(a, axis=-1) -> Node:
    """Numerically stable log softmax; the max shift is treated as a
    constant, which leaves the gradient exact."""
    a = as_node(a)
    m = a.value.max(axis=axis, keepdims=True)
    shifted = a.value - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True)) + m
    out = a.value - lse

    def bwd(g):
        p = np.exp(out)
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return Node(out, (a,), bwd)


def take(a, idx) -> Node:
    """Row lookup a[idx] along the first axis (embedding gather)."""
    a = as_node(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = a.value[idx]

    def bwd(g):
        ga = np.zeros_like(a.value)
        np.add.at(ga, idx, g)
        return (ga,)

    return Node(out, (a,), bwd)


def gather_last(a, idx):
    """Pick one entry per row along the last axis: out[...] = a[..., idx[...]]."""
    value = a.value if isinstance(a, Node) else np.asarray(a)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != value.shape[:-1]:
        raise ValueError(
            f"index shape {idx.shape} must match leading shape {value.shape[:-1]}"
        )
    out = np.take_along_axis(value, idx[..., None], axis=-1)[..., 0]
    if not isinstance(a, Node):
        return out

    def bwd(g):
        ga = np.zeros_like(a.value)
        np.add.at(ga, tuple(np.indices(idx.shape)) + (idx,), g)
        return (ga,)

    return Node(out, (a,), bwd)


def reshape(a, shape):
    if not isinstance(a, Node):
        return np.reshape(a, shape)
    out = a.value.reshape(shape)

    def bwd(g):
        return (g.reshape(a.value.shape),)

    return Node(out, (a,), bwd)


# -- reverse sweep ------------------------------------------------------

def _topo_order(root: Node) -> list:
    """Iterative postorder over the recorded graph."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))
    return order


def backprop(loss: Node, params: list[Node]) -> list[np.ndarray]:
    """Run the reverse sweep from a scalar loss; returns one gradient per
    parameter, zeros where the loss does not depend on the parameter."""
    if loss.value.ndim != 0:
        raise ValueError(f"backprop expects a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.backward_fn is None or node.grad is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(node.grad)):
            if not parent.requires_grad or pg is None:
                continue
            parent.grad = pg if parent.grad is None else parent.grad + pg
    return [
        p.grad if p.grad is not None else np.zeros_like(p.value) for p in params
    ]
