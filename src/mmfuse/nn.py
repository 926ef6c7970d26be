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
    def __init__(self, in_dim, out_dim, rng):
        self.weight = Tensor(glorot(rng, in_dim, out_dim, (in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x):
        return ops.add(ops.matmul(x, self.weight), self.bias)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


class BatchNorm(Layer):
    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.state = BatchNormState(channels)

    def __call__(self, x, training):
        return ops.batch_norm(x, self.gamma, self.beta, self.state, training)

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def state_arrays(self):
        return {"running_mean": self.state.running_mean, "running_var": self.state.running_var}


class ConvBlock(Layer):
    """conv3x3 -> batch norm -> relu, run as one ``ops.conv_bn_relu`` node.

    Its parameters are ``conv.weight`` and the ``bn`` sub-layer's. The conv has
    no bias: batch norm would cancel it. A call may pass ``const``, (N, Cc)
    spatially constant channels that follow x's: ``in_ch`` then counts both.
    """

    def __init__(self, in_ch, out_ch, rng, stride=1):
        self.stride = stride
        weight = glorot(rng, 9 * in_ch, 9 * out_ch, (3, 3, in_ch, out_ch))
        self.weight = Tensor(weight, requires_grad=True)
        self.bn = BatchNorm(out_ch)

    def __call__(self, x, training, const=None):
        bn = self.bn
        return ops.conv_bn_relu(
            x, self.weight, bn.gamma, bn.beta, bn.state, training, self.stride, const
        )

    def _children(self):
        return {"bn": self.bn}

    def parameters(self):
        return {"conv.weight": self.weight, **super().parameters()}


class LSTM(Layer):
    """Single-layer LSTM with packed gate parameters and zero initial state.

    ``W`` (E, 4H), ``U`` (H, 4H) and ``b`` (4H,) hold the gates as H-wide
    column blocks in the order i, f, g, o. The Glorot blocks are drawn one
    gate at a time, W before U, and then concatenated.
    """

    GATES = ("i", "f", "g", "o")

    def __init__(self, input_dim, hidden_dim, rng):
        blocks = [
            (
                glorot(rng, input_dim, hidden_dim, (input_dim, hidden_dim)),
                glorot(rng, hidden_dim, hidden_dim, (hidden_dim, hidden_dim)),
            )
            for _ in self.GATES
        ]
        self.W = Tensor(np.concatenate([w for w, _ in blocks], axis=1), requires_grad=True)
        self.U = Tensor(np.concatenate([u for _, u in blocks], axis=1), requires_grad=True)
        self.b = Tensor(np.zeros(4 * hidden_dim), requires_grad=True)

    def __call__(self, x, lengths):
        """Hidden state at each example's last step of the (N, T, E) input ``x``."""
        return ops.lstm_sequence(x, self.W, self.U, self.b, lengths)

    def parameters(self):
        return {"W": self.W, "U": self.U, "b": self.b}
