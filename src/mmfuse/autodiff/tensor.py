"""Dense float64 tensors recording a reverse-mode differentiation tape."""

from __future__ import annotations

import contextlib

import numpy as np


class AutodiffError(Exception):
    pass


class ShapeMismatch(AutodiffError):
    """Raised when operands do not conform to a primitive's shape contract."""

    def __init__(self, primitive, detail):
        self.primitive = primitive
        super().__init__(f"{primitive}: {detail}")


class Tensor:
    """A dense n-dimensional float64 value, optionally tracked on a tape.

    Results of primitive applications keep references to their parents and a
    backprop closure; calling :func:`backward` on a scalar walks that tape
    and drops each closure once it has run.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backprop", "_done")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backprop = None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


_grad_enabled = True  # False inside ``no_grad``


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: op results never require grad.

    Forward arithmetic is unchanged, so values are bitwise those computed with
    a tape; the previous setting is restored on exit, also on an exception.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def from_op(data, parents, backprop):
    """Build an op result; the tape edge is only kept when a parent needs grads."""
    out = Tensor(data, requires_grad=_grad_enabled and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


def accumulate_grad(tensor, grad):
    """Add ``grad`` into ``tensor.grad``; the first gradient is stored without a copy.

    Sharing is safe: no backprop writes into a gradient array once it has
    been handed on, and accumulation is out of place, so a stored array (a
    view, a broadcast or one handed to two parents) is never written through.
    """
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = np.asarray(grad, dtype=np.float64)
    else:
        tensor.grad = tensor.grad + grad


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order  # parents before consumers


def backward(loss):
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be scalar. A tape may only be walked once; running backward
    again without a fresh forward raises. Each op node drops its backprop
    closure, and the arrays that closure saved, and its own gradient as soon
    as the closure has run: only the leaves keep a ``grad``.
    """
    if loss.size != 1:
        raise ShapeMismatch("backward", f"loss must be scalar, got shape {loss.shape}")
    if loss._done:
        raise AutodiffError("backward already ran on this graph; rerun the forward first")
    order = _toposort(loss)
    for node in order:
        node.grad = None
        node._done = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backprop is not None:
            if node.grad is not None:
                node._backprop(node.grad)
            node._backprop = node.grad = None
    for node in order:
        if node.requires_grad and node.grad is None and not node._parents:
            node.grad = np.zeros_like(node.data)
