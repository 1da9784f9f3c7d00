"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough tape-based machinery for the feed-forward extractor and the
pairwise sequence scorer: elementwise arithmetic with broadcasting, matrix
products, segment sums, log-sum-exp, smooth nonlinearities, row gathering and
concatenation.  Everything is float64 and single-threaded; graphs are built
per minibatch or validation pass and freed afterwards.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A node in the computation graph.  A leaf needs a gradient unless built
    with ``requires_grad=False``; an op's output needs one if an input does."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if parents:
            requires_grad = any([p.requires_grad for p in parents])
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward if requires_grad else None


def as_tensor(value) -> Tensor:
    """``value`` itself if it is a Tensor, else a constant holding it."""
    return value if isinstance(value, Tensor) else Tensor(value, requires_grad=False)


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(grad, dtype=np.float64)
    else:
        t.grad = t.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return Tensor(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data**2), b.data.shape))

    return Tensor(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return Tensor(out_data, (a, b), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data**2))

    return Tensor(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # Stable two-sided formulation.
    e = np.exp(-np.abs(a.data))
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return Tensor(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g * 0.5 / out_data)

    return Tensor(out_data, (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g * 2.0 * a.data)

    return Tensor(a.data**2, (a,), backward)


def logsumexp(a) -> Tensor:
    """log(sum(exp(a))) along the last axis, computed with a max shift."""
    a = as_tensor(a)
    shift = a.data.max(axis=-1, keepdims=True)
    shifted = np.exp(a.data - shift)
    total = shifted.sum(axis=-1, keepdims=True)
    out_data = np.log(total[..., 0]) + shift[..., 0]

    def backward(g):
        _accumulate(a, np.reshape(g, total.shape) * shifted / total)

    return Tensor(out_data, (a,), backward)


def segment_sum(a, sizes) -> Tensor:
    """Sums of the consecutive runs of ``a``'s rows with the given positive
    ``sizes``, which together cover ``a``."""
    a = as_tensor(a)
    sizes = np.asarray(sizes, dtype=np.intp)
    out_data = np.add.reduceat(a.data, np.cumsum(sizes) - sizes, axis=0)

    def backward(g):
        _accumulate(a, np.repeat(g, sizes, axis=0))

    return Tensor(out_data, (a,), backward)


def gather_rows(a, indices) -> Tensor:
    """Select rows of ``a`` by an integer index array (any shape)."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    out_data = a.data[idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accumulate(a, ga)

    return Tensor(out_data, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            _accumulate(t, g[tuple(sl)])

    return Tensor(out_data, tuple(tensors), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor(out_data, (a,), backward)


def backward(root: Tensor) -> None:
    """Accumulate gradients of ``root`` (a scalar) into every graph node that
    requires one."""
    if root.data.size != 1:
        raise ValueError("backward() expects a scalar root")
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend([(parent, False) for parent in node._parents if parent.requires_grad])
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
