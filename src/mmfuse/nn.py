"""Small layer library on top of the autodiff primitives.

Layers own their parameters (name -> Tensor) and, for batch norm, the running
statistics. Initialization is fully seeded; a layer built twice from the same
seed is bitwise identical.
"""

from __future__ import annotations

import numpy as np

from .autodiff import BatchNormState, CheckpointError, Tensor, ops


def glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Layer:
    """Base: parameters and running statistics collected from named children.

    A layer with sub-layers lists them in ``_children``; their names become
    dotted prefixes. Leaf layers override ``parameters``/``state_arrays``.
    """

    def _children(self):
        return {}

    def parameters(self):
        return {
            f"{prefix}.{name}": tensor
            for prefix, child in self._children().items()
            for name, tensor in child.parameters().items()
        }

    def state_arrays(self):
        return {
            f"{prefix}.{name}": value
            for prefix, child in self._children().items()
            for name, value in child.state_arrays().items()
        }

    def state_dict(self):
        """Copies of every parameter and running statistic, by dotted name."""
        arrays = {name: tensor.data.copy() for name, tensor in self.parameters().items()}
        arrays.update((name, value.copy()) for name, value in self.state_arrays().items())
        return arrays

    def load_state_dict(self, arrays):
        """Copy ``arrays`` in place into the parameters and running statistics.

        Strict: the names must be exactly those of ``state_dict()`` and every
        shape must match. Otherwise CheckpointError names the first missing,
        unexpected or mis-shaped key, and nothing is copied.
        """
        targets = {name: tensor.data for name, tensor in self.parameters().items()}
        targets.update(self.state_arrays())
        missing = sorted(targets.keys() - arrays.keys())
        if missing:
            raise CheckpointError(f"missing key {missing[0]!r} ({len(missing)} missing)")
        unexpected = sorted(arrays.keys() - targets.keys())
        if unexpected:
            raise CheckpointError(
                f"unexpected key {unexpected[0]!r} ({len(unexpected)} unexpected)"
            )
        for name in sorted(targets):
            shape = np.shape(arrays[name])
            if shape != targets[name].shape:
                raise CheckpointError(
                    f"key {name!r} has shape {shape}, the model expects {targets[name].shape}"
                )
        for name, target in targets.items():
            np.copyto(target, arrays[name])


class Dense(Layer):
    def __init__(self, in_dim, out_dim, rng, zero_init=False):
        if zero_init:
            w = np.zeros((in_dim, out_dim))
        else:
            w = glorot(rng, in_dim, out_dim, (in_dim, out_dim))
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x):
        return ops.add(ops.matmul(x, self.weight), self.bias)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


class Conv2d(Layer):
    def __init__(self, in_ch, out_ch, rng, kernel=3, stride=1):
        self.stride = stride
        fan_in = kernel * kernel * in_ch
        fan_out = kernel * kernel * out_ch
        self.weight = Tensor(
            glorot(rng, fan_in, fan_out, (kernel, kernel, in_ch, out_ch)), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)

    def __call__(self, x):
        return ops.conv2d(x, self.weight, self.bias, stride=self.stride)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


class BatchNorm(Layer):
    def __init__(self, channels, momentum=0.9, eps=1e-5):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.state = BatchNormState(channels, momentum=momentum, eps=eps)

    def __call__(self, x, training):
        return ops.batch_norm(x, self.gamma, self.beta, self.state, training)

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def state_arrays(self):
        return {"running_mean": self.state.running_mean, "running_var": self.state.running_var}


class LSTM(Layer):
    """Single-layer LSTM with per-gate weight matrices and zero initial state."""

    GATES = ("i", "f", "g", "o")

    def __init__(self, input_dim, hidden_dim, rng):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self._p = {}
        for gate in self.GATES:
            self._p[f"W_{gate}"] = Tensor(
                glorot(rng, input_dim, hidden_dim, (input_dim, hidden_dim)), requires_grad=True
            )
            self._p[f"U_{gate}"] = Tensor(
                glorot(rng, hidden_dim, hidden_dim, (hidden_dim, hidden_dim)), requires_grad=True
            )
            self._p[f"b_{gate}"] = Tensor(np.zeros(hidden_dim), requires_grad=True)

    def step(self, x_t, h, c):
        p = self._p

        def gate(name, act):
            pre = ops.add(
                ops.add(ops.matmul(x_t, p[f"W_{name}"]), ops.matmul(h, p[f"U_{name}"])),
                p[f"b_{name}"],
            )
            return act(pre)

        i = gate("i", ops.sigmoid)
        f = gate("f", ops.sigmoid)
        g = gate("g", ops.tanh)
        o = gate("o", ops.sigmoid)
        c_new = ops.add(ops.mul(f, c), ops.mul(i, g))
        h_new = ops.mul(o, ops.tanh(c_new))
        return h_new, c_new

    def __call__(self, embedded, lengths):
        """Run over a right-padded batch.

        ``embedded`` is a list of (N, input_dim) Tensors, one per time step;
        ``lengths`` gives each example's true length. Returns the hidden state
        at each example's final step (zero vector for empty sequences).
        """
        n = embedded[0].shape[0] if embedded else len(lengths)
        h = Tensor(np.zeros((n, self.hidden_dim)))
        c = Tensor(np.zeros((n, self.hidden_dim)))
        lengths = np.asarray(lengths)
        for t, x_t in enumerate(embedded):
            h_new, c_new = self.step(x_t, h, c)
            active = Tensor((lengths > t).astype(np.float64)[:, None])
            inactive = Tensor(1.0 - active.data)
            h = ops.add(ops.mul(active, h_new), ops.mul(inactive, h))
            c = ops.add(ops.mul(active, c_new), ops.mul(inactive, c))
        return h

    def parameters(self):
        return dict(self._p)
