"""Bias-corrected ADAM over one flat parameter vector."""

from __future__ import annotations

import numpy as np

from .tensor import AutodiffError, ShapeMismatch


class NonFiniteGradient(AutodiffError):
    """A gradient holds NaN or inf; ``name`` is the first such parameter."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"non-finite gradient of {name!r}")


class AdamState:
    """Learning rate, step counter and the flat buffers of one parameter set.

    Making the state binds ``params`` (name -> Tensor): their values are
    copied once into the contiguous float64 vector ``values``, in dict order,
    and each parameter's ``.data`` becomes a view into it. ``spans`` maps each
    name to its (start, stop) in that vector; the moments ``m`` and ``v`` and
    the gathered gradient share the layout. Loading weights in place keeps the
    views; a parameter whose ``.data`` is replaced is no longer updated.
    """

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, params, lr=1e-4):
        self.lr = lr
        self.t = 0
        self.params = params
        stops = np.cumsum([p.data.size for p in params.values()]).tolist()
        self.spans = dict(zip(params, zip([0] + stops[:-1], stops)))
        size = stops[-1] if stops else 0
        self.values, self.m, self.v = np.empty(size), np.zeros(size), np.zeros(size)
        self._grad, self._work = np.empty(size), np.empty(size)
        self._grad_views = {}
        for name, p in params.items():
            lo, hi = self.spans[name]
            self.values[lo:hi] = p.data.reshape(-1)
            p.data = self.values[lo:hi].reshape(p.data.shape)
            self._grad_views[name] = self._grad[lo:hi].reshape(p.data.shape)


def adam_step(grads, state):
    """One ADAM update, in place on the parameters ``state`` binds.

    ``grads`` maps names to arrays; parameters without an entry (or with a
    None entry) are treated as having zero gradient and left untouched, with
    their moments. The reached gradients are gathered into one flat buffer
    and checked once: a NaN or inf raises NonFiniteGradient, naming the first
    such parameter in layout order, before anything is updated. The update
    then runs once over each maximal run of reached parameters.
    """
    runs = []  # [start, stop) of consecutive reached parameters
    for name, p in state.params.items():
        g = grads.get(name)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeMismatch("adam_step", f"{name}: grad {g.shape} != param {p.data.shape}")
        np.copyto(state._grad_views[name], g)
        lo, hi = state.spans[name]
        if runs and runs[-1][1] == lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    for lo, hi in runs:
        finite = np.isfinite(state._grad[lo:hi])
        if not finite.all():
            bad = lo + int(np.argmin(finite))  # the first NaN or inf in layout order
            raise NonFiniteGradient(next(n for n, (a, z) in state.spans.items() if a <= bad < z))

    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for lo, hi in runs:
        g, m, v = state._grad[lo:hi], state.m[lo:hi], state.v[lo:hi]
        work = state._work[lo:hi]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=work)
        v *= b2
        np.multiply(1.0 - b2, g, out=work)
        v += np.multiply(work, g, out=work)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in place, g as scratch
        np.divide(v, bc2, out=work)
        np.sqrt(work, out=work)
        work += state.epsilon
        np.divide(m, bc1, out=g)
        np.multiply(state.lr, g, out=g)
        g /= work
        state.values[lo:hi] -= g
