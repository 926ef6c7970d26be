"""Differentiable primitives over :class:`~mmfuse.autodiff.tensor.Tensor`.

The primitive set is exactly what the fusion models need: dense algebra,
pointwise nonlinearities, 2-D convolution, per-example dynamic 1x1
convolution, batch normalization, dropout, embedding lookup, a whole-sequence
LSTM, softmax and weighted cross-entropy. Every op returns a new Tensor
carrying a backprop closure; shapes are validated up front with diagnostics
naming the primitive.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ShapeMismatch,
    Tensor,
    accumulate_grad,
    as_tensor,
    from_op,
)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise algebra


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch("add", f"cannot broadcast {a.shape} with {b.shape}")

    def backprop(grad):
        accumulate_grad(a, _unbroadcast(grad, a.shape))
        accumulate_grad(b, _unbroadcast(grad, b.shape))

    return from_op(data, (a, b), backprop)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatch("mul", f"cannot broadcast {a.shape} with {b.shape}")

    def backprop(grad):
        accumulate_grad(a, _unbroadcast(grad * b.data, a.shape))
        accumulate_grad(b, _unbroadcast(grad * a.data, b.shape))

    return from_op(data, (a, b), backprop)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul", f"incompatible shapes {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backprop(grad):
        accumulate_grad(a, grad @ b.data.T)
        accumulate_grad(b, a.data.T @ grad)

    return from_op(data, (a, b), backprop)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu(x):
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def backprop(grad):
        accumulate_grad(x, grad * (x.data > 0.0))

    return from_op(data, (x,), backprop)


def sigmoid(x):
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-x.data))

    def backprop(grad):
        accumulate_grad(x, grad * data * (1.0 - data))

    return from_op(data, (x,), backprop)


def tanh(x):
    x = as_tensor(x)
    data = np.tanh(x.data)

    def backprop(grad):
        accumulate_grad(x, grad * (1.0 - data * data))

    return from_op(data, (x,), backprop)


# ---------------------------------------------------------------------------
# reductions and reshaping


def sum_(x, axis=None):
    x = as_tensor(x)
    data = x.data.sum(axis=axis)

    def backprop(grad):
        if axis is None:
            accumulate_grad(x, np.broadcast_to(grad, x.shape))
        else:
            accumulate_grad(x, np.broadcast_to(np.expand_dims(grad, axis), x.shape))

    return from_op(data, (x,), backprop)


def reshape(x, shape):
    x = as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeMismatch("reshape", f"cannot reshape {x.shape} to {shape}")

    def backprop(grad):
        accumulate_grad(x, grad.reshape(x.shape))

    return from_op(data, (x,), backprop)


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeMismatch("concat", "needs at least one input")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatch(
            "concat", f"shapes {[t.shape for t in tensors]} do not align on axis {axis}"
        )
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backprop(grad):
        for t, piece in zip(tensors, np.split(grad, splits, axis=axis)):
            accumulate_grad(t, piece)

    return from_op(data, tuple(tensors), backprop)


def tile_spatial(x, height, width):
    """Broadcast per-example vectors (N, C) to a spatial map (N, H, W, C)."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeMismatch("tile_spatial", f"expected (N, C) input, got {x.shape}")
    n, c = x.shape
    data = np.broadcast_to(x.data[:, None, None, :], (n, height, width, c)).copy()

    def backprop(grad):
        accumulate_grad(x, grad.sum(axis=(1, 2)))

    return from_op(data, (x,), backprop)


# ---------------------------------------------------------------------------
# convolution


def _same_pad(extent, stride, kernel):
    out = -(-extent // stride)  # ceil
    total = max((out - 1) * stride + kernel - extent, 0)
    return out, total // 2, total - total // 2


def _tap_window(extent, out, stride, pad, offset):
    """Output slice and input slice of one kernel offset along one axis.

    Output index i reads input index ``i * stride + offset - pad``; the window
    keeps the outputs whose input index lies inside ``[0, extent)``, so no
    product touches padding. Returns None when no output reads the image.
    """
    lo = max(0, -(-(pad - offset) // stride))
    hi = min(out, (extent - 1 + pad - offset) // stride + 1)
    if hi <= lo:
        return None
    first = lo * stride + offset - pad
    return slice(lo, hi), slice(first, first + (hi - lo - 1) * stride + 1, stride)


def conv2d(x, weight, bias=None, stride=1):
    """Same-padded 2-D convolution; x is (N, H, W, Cin), weight (kh, kw, Cin, Cout).

    Each kernel tap (u, v) is one GEMM over the output window whose input
    pixels lie inside the image: the zero padding is implicit and never
    multiplied. Backward re-slices each tap's patch from ``x`` and computes
    the input gradient only when ``x`` requires one.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeMismatch("conv2d", f"expected 4-d input/weight, got {x.shape}/{weight.shape}")
    n, h, w, cin = x.shape
    kh, kw, wcin, cout = weight.shape
    if wcin != cin:
        raise ShapeMismatch("conv2d", f"input channels {cin} != kernel channels {wcin}")
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (cout,):
            raise ShapeMismatch("conv2d", f"bias shape {bias.shape} != ({cout},)")

    out_h, pad_t, _ = _same_pad(h, stride, kh)
    out_w, pad_l, _ = _same_pad(w, stride, kw)
    rows = [_tap_window(h, out_h, stride, pad_t, u) for u in range(kh)]
    cols = [_tap_window(w, out_w, stride, pad_l, v) for v in range(kw)]
    taps = [
        (u, v, np.s_[:, r[0], c[0], :], np.s_[:, r[1], c[1], :])
        for u, r in enumerate(rows)
        if r is not None
        for v, c in enumerate(cols)
        if c is not None
    ]

    data = np.zeros((n, out_h, out_w, cout))
    for u, v, out_sl, in_sl in taps:
        patch = x.data[in_sl]
        window = data[out_sl]
        window += (patch.reshape(-1, cin) @ weight.data[u, v]).reshape(window.shape)
    if bias is not None:
        data += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backprop(grad):
        dx = np.zeros_like(x.data) if x.requires_grad else None
        dw = np.zeros_like(weight.data)
        for u, v, out_sl, in_sl in taps:
            patch = x.data[in_sl]
            g2 = grad[out_sl].reshape(-1, cout)
            dw[u, v] = patch.reshape(-1, cin).T @ g2
            if dx is not None:
                dx[in_sl] += (g2 @ weight.data[u, v].T).reshape(patch.shape)
        accumulate_grad(x, dx)  # a no-op when x needs no gradient
        accumulate_grad(weight, dw)
        if bias is not None:
            accumulate_grad(bias, grad.sum(axis=(0, 1, 2)))

    return from_op(data, parents, backprop)


def dynamic_conv1x1(feature_map, kernels):
    """Per-example 1x1 convolution with per-example kernel banks.

    ``feature_map`` is (N, H, W, C) and ``kernels`` is (N, K, C); output
    channel k at (h, w) is the dot product of kernel k with the local feature
    vector. Gradients flow to both the map and the kernels.
    """
    feature_map, kernels = as_tensor(feature_map), as_tensor(kernels)
    if feature_map.ndim != 4 or kernels.ndim != 3:
        raise ShapeMismatch(
            "dynamic_conv1x1",
            f"expected map (N,H,W,C) and kernels (N,K,C), got {feature_map.shape}/{kernels.shape}",
        )
    if feature_map.shape[0] != kernels.shape[0] or feature_map.shape[3] != kernels.shape[2]:
        raise ShapeMismatch(
            "dynamic_conv1x1",
            f"map {feature_map.shape} and kernels {kernels.shape} disagree on batch or channels",
        )
    data = np.einsum("nhwc,nkc->nhwk", feature_map.data, kernels.data)

    def backprop(grad):
        accumulate_grad(feature_map, np.einsum("nhwk,nkc->nhwc", grad, kernels.data))
        accumulate_grad(kernels, np.einsum("nhwk,nhwc->nkc", grad, feature_map.data))

    return from_op(data, (feature_map, kernels), backprop)


def avg_pool_spatial(x):
    """Global spatial average: (N, H, W, C) -> (N, C)."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeMismatch("avg_pool_spatial", f"expected 4-d input, got {x.shape}")
    n, h, w, c = x.shape
    data = x.data.mean(axis=(1, 2))

    def backprop(grad):
        accumulate_grad(x, np.broadcast_to(grad[:, None, None, :], x.shape) / (h * w))

    return from_op(data, (x,), backprop)


# ---------------------------------------------------------------------------
# batch normalization


class BatchNormState:
    """Running statistics for one batch-norm layer (not learned by gradient)."""

    momentum = 0.9
    eps = 1e-5

    def __init__(self, channels):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


def batch_norm(x, gamma, beta, state, training):
    """Normalize over all axes but the last; running stats updated in training."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    channels = x.shape[-1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeMismatch(
            "batch_norm", f"gamma/beta must be ({channels},), got {gamma.shape}/{beta.shape}"
        )
    axes = tuple(range(x.ndim - 1))
    count = int(np.prod([x.shape[a] for a in axes])) if axes else 1

    if training:
        mean = x.data.mean(axis=axes)
        centered = x.data - mean
        var = (centered * centered).sum(axis=axes) / count  # np.var's own arithmetic
        if count > 1:  # one value per channel has no spread; it would pull running_var to 0
            m = state.momentum
            state.running_mean = m * state.running_mean + (1.0 - m) * mean
            state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        centered = x.data - state.running_mean
        var = state.running_var

    inv_std = 1.0 / np.sqrt(var + state.eps)
    # in place: one fresh array fewer per pass, and the same values as out of place
    x_hat = np.multiply(centered, inv_std, out=centered)
    data = gamma.data * x_hat
    data += beta.data

    def backprop(grad):
        gx_sum = (grad * x_hat).sum(axis=axes)
        g_sum = grad.sum(axis=axes)
        accumulate_grad(gamma, gx_sum)
        accumulate_grad(beta, g_sum)
        if not training:
            accumulate_grad(x, grad * gamma.data * inv_std)
        elif count == 1:  # degenerate batch: normalization is constant in x
            accumulate_grad(x, np.zeros_like(grad))
        else:  # sum / count is np.mean's own arithmetic
            g_mean, gx_mean = g_sum / count, gx_sum / count
            dx = grad - g_mean
            dx -= x_hat * gx_mean
            dx *= gamma.data * inv_std
            accumulate_grad(x, dx)

    return from_op(data, (x, gamma, beta), backprop)


# ---------------------------------------------------------------------------
# dropout, embedding, losses


def dropout(x, rate, training, rng=None):
    """Inverted dropout; identity in eval mode or at rate 0."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatch("dropout", f"rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ShapeMismatch("dropout", "training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backprop(grad):
        accumulate_grad(x, grad * mask)

    return from_op(x.data * mask, (x,), backprop)


def embedding(weight, ids):
    """Row lookup: weight (V, E), integer ids of any shape -> ids.shape + (E,)."""
    weight = as_tensor(weight)
    ids = np.asarray(ids, dtype=np.int64)
    if weight.ndim != 2:
        raise ShapeMismatch("embedding", f"weight must be 2-d, got {weight.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ShapeMismatch(
            "embedding", f"index out of range for vocabulary of {weight.shape[0]}"
        )
    data = weight.data[ids]

    def backprop(grad):
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids.reshape(-1), grad.reshape(-1, weight.shape[1]))
        accumulate_grad(weight, dw)

    return from_op(data, (weight,), backprop)


def lstm_sequence(x, W, U, b, lengths):
    """Single-layer LSTM over a right-padded batch, as one tape node.

    ``x`` is (N, T, E); ``W`` (E, 4H), ``U`` (H, 4H) and ``b`` (4H,) hold the
    gates as H-wide column blocks in the order i, f, g, o. Example n reads its
    first ``lengths[n]`` steps and then keeps its state. Returns the (N, H)
    hidden state after each example's last step (zeros for an empty one).
    ``X @ W`` is one GEMM over all N*T rows; each step adds ``h @ U``, then
    ``b``. Backward is hand-written BPTT with one GEMM per weight gradient.
    """
    x, W, U, b = as_tensor(x), as_tensor(W), as_tensor(U), as_tensor(b)
    lengths = np.asarray(lengths, dtype=np.int64)
    if x.ndim != 3 or U.ndim != 2:
        raise ShapeMismatch("lstm_sequence", f"need x (N,T,E), U (H,4H), got {x.shape}/{U.shape}")
    (n, steps, e), hd = x.shape, U.shape[0]
    if W.shape != (e, 4 * hd) or U.shape != (hd, 4 * hd) or b.shape != (4 * hd,):
        raise ShapeMismatch(
            "lstm_sequence", f"W/U/b {W.shape}/{U.shape}/{b.shape} do not fit E={e}, H={hd}"
        )
    if lengths.shape != (n,) or (lengths < 0).any() or (lengths > steps).any():
        raise ShapeMismatch("lstm_sequence", f"lengths must be {n} values in [0, {steps}]")

    x2d = x.data.reshape(n * steps, e)
    xw = (x2d @ W.data).reshape(n, steps, 4 * hd)
    active = (lengths[None, :] > np.arange(steps)[:, None])[:, :, None]  # (T, N, 1)
    hs = np.zeros((steps + 1, n, hd))  # hs[t] is the state entering step t
    cs = np.zeros((steps + 1, n, hd))
    acts = np.empty((steps, n, 4 * hd))  # sigmoid of i, f, o and tanh of g
    tanh_c = np.empty((steps, n, hd))
    i_, f_, g_, o_ = (np.s_[:, k * hd : (k + 1) * hd] for k in range(4))
    for t in range(steps):
        pre = (xw[:, t] + hs[t] @ U.data) + b.data
        with np.errstate(over="ignore"):
            a = 1.0 / (1.0 + np.exp(-pre))
        a[g_] = np.tanh(pre[g_])
        c_new = a[f_] * cs[t] + a[i_] * a[g_]
        tanh_c[t] = np.tanh(c_new)
        h_new = a[o_] * tanh_c[t]
        hs[t + 1] = np.where(active[t], h_new, hs[t])
        cs[t + 1] = np.where(active[t], c_new, cs[t])
        acts[t] = a

    def backprop(grad):
        dpre = np.zeros((steps, n, 4 * hd))
        dh, dc = grad, np.zeros((n, hd))
        for t in reversed(range(steps)):
            a, on, d = acts[t], active[t], dpre[t]
            dh_new = np.where(on, dh, 0.0)
            dc_new = np.where(on, dc, 0.0) + dh_new * a[o_] * (1.0 - tanh_c[t] * tanh_c[t])
            d[i_] = dc_new * a[g_]
            d[f_] = dc_new * cs[t]
            d[o_] = dh_new * tanh_c[t]
            d *= a * (1.0 - a)
            d[g_] = dc_new * a[i_] * (1.0 - a[g_] * a[g_])
            dh = np.where(on, 0.0, dh) + d @ U.data.T
            dc = np.where(on, dc_new * a[f_], dc)
        accumulate_grad(U, hs[:-1].reshape(-1, hd).T @ dpre.reshape(-1, 4 * hd))
        accumulate_grad(b, dpre.sum(axis=(0, 1)))
        dxw = dpre.transpose(1, 0, 2).reshape(n * steps, 4 * hd)
        accumulate_grad(W, x2d.T @ dxw)
        accumulate_grad(x, (dxw @ W.data.T).reshape(x.shape))

    return from_op(hs[steps], (x, W, U, b), backprop)


def softmax(x, axis=-1):
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backprop(grad):
        inner = (grad * data).sum(axis=axis, keepdims=True)
        accumulate_grad(x, data * (grad - inner))

    return from_op(data, (x,), backprop)


def softmax_cross_entropy(logits, labels, class_weights=None):
    """Mean of per-sample weighted cross-entropy over softmax probabilities.

    ``labels`` are integer class ids; ``class_weights`` (one float per class,
    default all ones) scale each sample's loss by the weight of its true class.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeMismatch("softmax_cross_entropy", f"logits must be (N, C), got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatch(
            "softmax_cross_entropy", f"labels shape {labels.shape} != ({n},)"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ShapeMismatch("softmax_cross_entropy", f"label out of range for {c} classes")
    if class_weights is None:
        weights = np.ones(c)
    else:
        weights = np.asarray(class_weights, dtype=np.float64)
        if weights.shape != (c,):
            raise ShapeMismatch(
                "softmax_cross_entropy", f"class_weights shape {weights.shape} != ({c},)"
            )

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    sample_w = weights[labels]
    data = -(sample_w * log_probs[np.arange(n), labels]).sum() / n

    def backprop(grad):
        probs = np.exp(log_probs)
        dlogits = probs.copy()
        dlogits[np.arange(n), labels] -= 1.0
        dlogits *= (sample_w / n)[:, None]
        accumulate_grad(logits, float(grad) * dlogits)

    return from_op(data, (logits,), backprop)
