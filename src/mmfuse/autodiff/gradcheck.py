"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeMismatch, backward


def check_gradients(fn, inputs, eps=1e-5):
    """Return the worst relative error between analytic and numeric gradients.

    ``fn`` maps the given Tensors to a scalar Tensor and must be deterministic
    (seed any internal randomness). Only inputs with ``requires_grad`` are
    checked. The error at each coordinate is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = fn(*inputs)
    if out.size != 1:
        raise ShapeMismatch("check_gradients", f"fn must return a scalar, got {out.shape}")
    backward(out)
    analytic = [
        (t, t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for t in inputs
        if t.requires_grad
    ]

    worst = 0.0
    for tensor, grad in analytic:
        flat = tensor.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn(*inputs).data)
            flat[i] = orig - eps
            lo = float(fn(*inputs).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = grad.reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return float(worst)
