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
    """Hyperparameters, step counter and the flat buffers of one parameter set.

    The first :func:`adam_step` binds its parameters: their values are copied
    once into the contiguous float64 vector ``values``, in the order of the
    ``params`` dict, and each parameter's ``.data`` becomes a view into it.
    ``spans`` maps each name to its (start, stop) in that vector; the moments
    ``m`` and ``v`` and the gathered gradient share the layout.
    """

    def __init__(self, lr=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.spans = {}
        self.values = self.m = self.v = np.zeros(0)
        self._views = []  # each parameter's .data as bound, in layout order

    def _bound_to(self, params):
        return list(params) == list(self.spans) and all(
            p.data is view for p, view in zip(params.values(), self._views)
        )

    def _bind(self, params):
        """Lay ``params`` out in fresh flat buffers; moments carry over by name."""
        stops = np.cumsum([p.data.size for p in params.values()]).tolist()
        spans = dict(zip(params, zip([0] + stops[:-1], stops)))
        size = stops[-1] if stops else 0
        values, m, v, grad = np.empty(size), np.zeros(size), np.zeros(size), np.empty(size)
        self._grad_views = {}
        for name, p in params.items():
            lo, hi = spans[name]
            values[lo:hi] = p.data.reshape(-1)
            old = self.spans.get(name)
            if old is not None and old[1] - old[0] == hi - lo:
                m[lo:hi] = self.m[old[0] : old[1]]
                v[lo:hi] = self.v[old[0] : old[1]]
            p.data = values[lo:hi].reshape(p.data.shape)
            self._grad_views[name] = grad[lo:hi].reshape(p.data.shape)
        self.spans, self.values, self.m, self.v = spans, values, m, v
        self._grad, self._work = grad, np.empty(size)
        self._views = [p.data for p in params.values()]


def adam_step(params, grads, state):
    """One ADAM update, in place on ``params`` (name -> Tensor).

    ``grads`` maps names to arrays; parameters without an entry (or with a
    None entry) are treated as having zero gradient and left untouched, with
    their moments. The reached gradients are gathered into one flat buffer
    and checked once: a NaN or inf raises NonFiniteGradient, naming the first
    such parameter in ``params`` order, before anything is updated. The update
    then runs once over each maximal run of reached parameters.
    """
    if not state._bound_to(params):
        state._bind(params)
    runs = []  # [start, stop) of consecutive reached parameters
    for name, p in params.items():
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
    return params, state
