"""Differentiable primitives over :class:`~mmfuse.autodiff.tensor.Tensor`.

The primitive set is exactly what the fusion models need: dense algebra,
pointwise nonlinearities, 2-D convolution, per-example dynamic 1x1
convolution, batch normalization, a fused conv -> batch norm -> relu block,
dropout, embedding lookup, a whole-sequence LSTM, softmax and weighted
cross-entropy. Every op returns a new Tensor carrying a backprop closure;
shapes are validated up front with diagnostics naming the primitive.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeMismatch, accumulate_grad, as_tensor, from_op


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


def _conv_setup(primitive, x, weight, stride, const_channels=0):
    """Validate a same-padded conv's operands; return its output shape and taps.

    The weight's input channels are x's followed by ``const_channels`` more.
    Each tap is (u, v, output slice, input slice), one per kernel offset whose
    output window reads the image (see :func:`_tap_window`).
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeMismatch(primitive, f"expected 4-d input/weight, got {x.shape}/{weight.shape}")
    n, h, w, cin = x.shape
    kh, kw, wcin, cout = weight.shape
    if wcin != cin + const_channels:
        raise ShapeMismatch(
            primitive, f"input channels {cin} + {const_channels} != kernel channels {wcin}"
        )

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
    return (n, out_h, out_w, cout), taps


def _tap_cover(taps, kernel, out_shape):
    """(out_h * out_w, kh * kw) 0/1 matrix: pixel p lies in tap (u, v)'s output window."""
    _, out_h, out_w, _ = out_shape
    cover = np.zeros((out_h, out_w) + kernel)
    for u, v, out_sl, _ in taps:
        cover[out_sl[1], out_sl[2], u, v] = 1.0
    return cover.reshape(out_h * out_w, -1)


def _const_term(const, weight, taps, out_shape):
    """(N, out_h, out_w, Cout) output of the constant channels.

    The channels of ``const`` are constant over the image, so tap (u, v) adds
    the one (N, Cout) row block ``const @ weight[u, v, Cin:]`` to its whole
    window; every pixel is the sum of its covering taps' blocks.
    """
    n, out_h, out_w, cout = out_shape
    cin = weight.shape[2] - const.shape[1]
    tap_rows = (const @ weight[:, :, cin:]).reshape(-1, n * cout)
    per_pixel = _tap_cover(taps, weight.shape[:2], out_shape) @ tap_rows
    return per_pixel.reshape(out_h, out_w, n, cout).transpose(2, 0, 1, 3).copy()


# Bytes of float64 input, output and one tap product that one block of
# examples of the stride-1 conv forward may span, and of one block's padded
# input in a strided conv's patch copy. Half of a 2 MB per-core L2: a block
# stays cached through all nine taps, with room left for the weights and the
# patch copies.
BLOCK_BYTES = 1 << 20


def example_blocks(n, size):
    """Slices of ``size`` consecutive examples out of ``n``, in order.

    A one-example tail joins the block before it, so no block holds a lone
    example unless the batch does: on OpenBLAS a one-row product goes through
    gemv and can round differently from the same row of a multi-row GEMM.
    The rows of a multi-row GEMM with a multiple of 8 columns, as every conv
    of the shipped configurations has, and an inner dimension up to 384, did
    not depend on how many rows shared the call; with other column counts, or
    inner dimensions of 448 and more, they can differ in the last bit.
    """
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _padding(x_shape, kernel, stride):
    """Zero-padded input shape of a same conv, and the slice of it that holds x."""
    n, h, w, cin = x_shape
    _, top, bottom = _same_pad(h, stride, kernel[0])
    _, left, right = _same_pad(w, stride, kernel[1])
    return (n, h + top + bottom, w + left + right, cin), np.s_[:, top : top + h, left : left + w]


def _patches(x, kernel, out_shape, stride):
    """(N * out_h * out_w, kh * kw * Cin) patch matrix of a strided same conv.

    Row (n, i, j) is the window of the zero-padded x that output pixel (i, j)
    reads, in (u, v, c) order: the order of ``weight[:, :, :Cin]`` flattened.
    Each block of examples is zero-padded into a buffer of at most
    ``BLOCK_BYTES`` and its windows, a read-only strided view of that buffer,
    are copied once; no padded copy of the whole batch sits beside the
    patches.
    """
    n, out_h, out_w, _ = out_shape
    kh, kw = kernel
    cin = x.shape[3]
    padded_shape, inner = _padding(x.shape, kernel, stride)
    patches = np.empty((n, out_h, out_w, kh, kw, cin))
    step = max(1, BLOCK_BYTES // max(8 * math.prod(padded_shape[1:]), 1))
    for start in range(0, n, step):
        padded = np.zeros((min(step, n - start),) + padded_shape[1:])
        padded[inner] = x[start : start + step]
        sn, sh, sw, sc = padded.strides
        patches[start : start + step] = np.lib.stride_tricks.as_strided(
            padded,
            (len(padded), out_h, out_w, kh, kw, cin),
            (sn, sh * stride, sw * stride, sh, sw, sc),
            writeable=False,
        )
    return patches.reshape(n * out_h * out_w, kh * kw * cin)


def _patches_adjoint(dpatches, x_shape, kernel, out_shape, stride):
    """Adjoint of :func:`_patches`: each entry goes back to the input pixel it copied.

    One strided add per kernel offset into a zero-padded buffer, whose
    padding is then cropped away.
    """
    n, out_h, out_w, _ = out_shape
    kh, kw = kernel
    padded_shape, inner = _padding(x_shape, kernel, stride)
    padded = np.zeros(padded_shape)
    windows = dpatches.reshape(n, out_h, out_w, kh, kw, x_shape[3])
    rows, cols = (out_h - 1) * stride + 1, (out_w - 1) * stride + 1
    for u in range(kh):
        for v in range(kw):
            padded[:, u : u + rows : stride, v : v + cols : stride] += windows[:, :, :, u, v]
    return padded[inner]


def _conv_forward(
    x, weight, taps, out_shape, stride, const=None, shift=None, relu=False, patches=None
):
    """The same conv's output: ``shift`` (Cout,) is added to every pixel, ``relu`` clamps at 0.

    A strided conv is one GEMM of its patch matrix P (:func:`_patches`) with
    ``weight[:, :, :Cin]`` over the whole batch, to which the ``const`` term,
    the shift and the ReLU are then applied. ``patches`` is P, built from
    ``x`` when not given; the ops build it once and hand the same matrix to
    :func:`_conv_backward`.

    A stride-1 conv runs per-tap GEMMs over the valid output windows, one
    block of examples at a time. A block holds at least two examples and as
    many as fit their input, output and one tap product into
    ``BLOCK_BYTES``. Each output value is the same dot products added in the
    same tap order as over the whole batch, and so the same bits where the
    GEMM rows are (see :func:`example_blocks`). Every pixel starts from the
    ``const`` term and the shift, and each block is clamped after its taps,
    while it is still cached.
    """
    n, out_h, out_w, cout = out_shape
    _, h, w, cin = x.shape
    kh, kw = weight.shape[:2]
    if stride > 1:
        w_in = weight[:, :, :cin].reshape(kh * kw * cin, cout)
        if patches is None:
            patches = _patches(x, (kh, kw), out_shape, stride)
        data = (patches @ w_in).reshape(out_shape)
        if const is not None:
            data += _const_term(const, weight, taps, out_shape)
        if shift is not None:
            data += shift
        if relu:
            np.maximum(data, 0.0, out=data)
        return data
    data = np.zeros(out_shape) if const is None else _const_term(const, weight, taps, out_shape)
    example_bytes = 8 * (h * w * cin + 2 * out_h * out_w * cout)
    for block in example_blocks(n, max(2, BLOCK_BYTES // max(example_bytes, 1))):
        x_block, data_block = x[block], data[block]
        if shift is not None:
            data_block += shift
        for u, v, out_sl, in_sl in taps:
            window = data_block[out_sl]
            rows = window.size // cout  # explicit: a 0-channel map has no -1 to infer
            window += (x_block[in_sl].reshape(rows, cin) @ weight[u, v, :cin]).reshape(window.shape)
        if relu:
            np.maximum(data_block, 0.0, out=data_block)
    return data


def _conv_backward(grad, x, weight, taps, stride, need_dx, const=None, patches=None):
    """Gradients (dx or None, dweight, dconst or None) of :func:`_conv_forward`.

    A strided conv takes the forward's patch matrix P as ``patches`` (built
    from ``x`` when not given): ``dW = P.T @ dY``, and dx is the adjoint of
    the patch copy applied to ``dY @ W.T``. A stride-1 conv re-slices each
    tap's patch from ``x``. The constant channels' gradients go through the
    (N, Cout) sums of the output gradient over each tap's window.
    """
    n, out_h, out_w, cout = grad.shape
    cin = x.shape[3]
    kh, kw = weight.shape[:2]
    dw = np.zeros_like(weight)
    if stride > 1:
        g2 = grad.reshape(n * out_h * out_w, cout)
        if patches is None:
            patches = _patches(x, (kh, kw), grad.shape, stride)
        dw[:, :, :cin] = (patches.T @ g2).reshape(kh, kw, cin, cout)
        dx = None
        if need_dx:
            dpatches = g2 @ weight[:, :, :cin].reshape(kh * kw * cin, cout).T
            dx = _patches_adjoint(dpatches, x.shape, (kh, kw), grad.shape, stride)
    else:
        dx = np.zeros_like(x) if need_dx else None
        for u, v, out_sl, in_sl in taps:
            patch = x[in_sl]
            g2 = grad[out_sl].reshape(-1, cout)
            dw[u, v, :cin] = patch.reshape(len(g2), cin).T @ g2
            if dx is not None:
                dx[in_sl] += (g2 @ weight[u, v, :cin].T).reshape(patch.shape)
    if const is None:
        return dx, dw, None
    pixels = grad.transpose(1, 2, 0, 3).reshape(out_h * out_w, n * cout)
    sums = (_tap_cover(taps, (kh, kw), grad.shape).T @ pixels).reshape(kh, kw, n, cout)
    dw[:, :, cin:] = const.T @ sums
    w_const = weight[:, :, cin:].transpose(0, 1, 3, 2).reshape(kh * kw * cout, -1)
    dconst = sums.transpose(2, 0, 1, 3).reshape(n, -1) @ w_const
    return dx, dw, dconst


def conv2d(x, weight, stride=1):
    """Same-padded 2-D convolution; x is (N, H, W, Cin), weight (kh, kw, Cin, Cout).

    The stride picks one algorithm, with no setting to override it. A strided
    conv (the backbone's stride 2) copies its input once into a patch matrix
    of ``kh * kw / stride**2`` copies of it, 2.25 for a 3x3 kernel at stride
    2, and runs one GEMM over the whole batch; its backward reuses that
    matrix, which the backprop closure holds until it has run (under
    ``no_grad`` no closure is kept, so nothing holds it). At stride 1 (the
    4x4 fusion maps) a patch matrix would hold nine copies, about a third of
    them padding, so each kernel tap (u, v) is one GEMM over the output
    window whose input pixels lie inside the image: the zero padding is
    never stored or multiplied, and backward re-slices each tap's patch from
    ``x``. Both skip
    the input gradient when ``x`` needs none (the backbone's images).
    """
    x, weight = as_tensor(x), as_tensor(weight)
    out_shape, taps = _conv_setup("conv2d", x, weight, stride)
    patches = _patches(x.data, weight.shape[:2], out_shape, stride) if stride > 1 else None
    data = _conv_forward(x.data, weight.data, taps, out_shape, stride, patches=patches)

    def backprop(grad):
        dx, dw, _ = _conv_backward(
            grad, x.data, weight.data, taps, stride, x.requires_grad, patches=patches
        )
        accumulate_grad(x, dx)  # a no-op when x needs no gradient
        accumulate_grad(weight, dw)

    return from_op(data, (x, weight), backprop)


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


def _check_affine(primitive, gamma, beta, channels):
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeMismatch(
            primitive, f"gamma/beta must be ({channels},), got {gamma.shape}/{beta.shape}"
        )


def _channel_sum(a, b=None):
    """Sum of ``a``, or of ``a * b``, over every axis but the last, with no temporary.

    ``einsum`` over a C-contiguous (rows, C) view adds the rows in order, as
    ``a.sum(axis=axes)`` and ``(a * b).sum(axis=axes)`` do there, and so gives
    their bits. With one channel, or another layout, NumPy's own sum keeps
    the bits: it runs pairwise along a contiguous reduction axis.
    """
    axes = tuple(range(a.ndim - 1))
    contiguous = a.flags.c_contiguous and (b is None or b.flags.c_contiguous)
    if a.shape[-1] == 1 or not contiguous:
        return a.sum(axis=axes) if b is None else (a * b).sum(axis=axes)
    shape = (math.prod(a.shape[:-1]), a.shape[-1])  # explicit: 0 channels have no -1
    if b is None:
        return np.einsum("ij->j", a.reshape(shape))
    return np.einsum("ij,ij->j", a.reshape(shape), b.reshape(shape))


def _normalize(x, state, training, out=None):
    """Normalize ``x`` over all axes but the last; returns (x_hat, inv_std, count).

    Training uses the batch statistics and updates the running ones; eval uses
    the running statistics. ``out=x`` normalizes in place, with the same values.
    """
    axes = tuple(range(x.ndim - 1))
    count = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    if training:
        mean = _channel_sum(x) / count  # np.mean's own arithmetic
        centered = np.subtract(x, mean, out=out)
        var = _channel_sum(centered, centered) / count  # np.var's own arithmetic
        if count > 1:  # one value per channel has no spread; it would pull running_var to 0
            m = state.momentum
            state.running_mean = m * state.running_mean + (1.0 - m) * mean
            state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        centered = np.subtract(x, state.running_mean, out=out)
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    # in place: one fresh array fewer per pass, and the same values as out of place
    x_hat = np.multiply(centered, inv_std, out=centered)
    return x_hat, inv_std, count


def _normalize_backward(grad, x_hat, gamma, inv_std, training, count, out=None):
    """Gradients (dgamma, dbeta, dx) of ``gamma * x_hat + beta`` from :func:`_normalize`.

    Training overwrites ``x_hat``, and ``out=grad`` computes dx in grad's
    buffer, with the same values as out of place: pass only arrays that the
    caller owns and reads no more.
    """
    gx_sum = _channel_sum(grad, x_hat)
    g_sum = _channel_sum(grad)
    if not training:
        dx = grad * gamma * inv_std
    elif count == 1:  # degenerate batch: normalization is constant in x
        dx = np.zeros_like(grad)
    else:  # sum / count is np.mean's own arithmetic
        dx = np.subtract(grad, g_sum / count, out=out)
        dx -= np.multiply(x_hat, gx_sum / count, out=x_hat)
        dx *= gamma * inv_std
    return gx_sum, g_sum, dx


def batch_norm(x, gamma, beta, state, training):
    """Normalize over all axes but the last; running stats updated in training."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    _check_affine("batch_norm", gamma, beta, x.shape[-1])
    x_hat, inv_std, count = _normalize(x.data, state, training)
    data = gamma.data * x_hat
    data += beta.data

    def backprop(grad):
        dgamma, dbeta, dx = _normalize_backward(grad, x_hat, gamma.data, inv_std, training, count)
        accumulate_grad(gamma, dgamma)
        accumulate_grad(beta, dbeta)
        accumulate_grad(x, dx)

    return from_op(data, (x, gamma, beta), backprop)


def conv_bn_relu(x, weight, gamma, beta, state, training, stride=1, const=None):
    """``relu(batch_norm(conv2d(x, weight, stride), ...))`` as one tape node.

    ``const`` is an optional (N, Cc) input of spatially constant channels that
    follow x's: the weight is (kh, kw, Cin + Cc, Cout), and the result equals
    the conv over x concatenated with ``const`` tiled at every pixel, without
    building that map. The conv has no bias: train-mode batch norm subtracts
    the batch mean, which cancels it, and ``beta`` plays its role.

    The conv is :func:`conv2d`'s: the stride picks the patch-matrix GEMM
    (strided), whose matrix the backward reuses, or the per-tap GEMMs
    (stride 1). In training, batch norm runs in the conv's output buffer and
    the ReLU in place; backward masks the output gradient, runs the
    batch-norm backward in that mask's buffer and hands its result straight
    to the conv backward. Without ``const`` every training value and
    gradient is bitwise the three-op chain's.

    In eval, batch norm is an affine map per channel, ``s * conv + t`` with
    ``s = gamma / sqrt(running_var + eps)`` and ``t = beta - running_mean * s``,
    so it is folded into the conv: it convolves with ``weight * s`` (the
    ``const`` rows included), adds ``t`` and clamps at 0, at stride 1 per
    example block while the block is cached. Values equal the chain's up to
    rounding, not bitwise. Backward differentiates the folded form: the conv
    backward with ``weight * s`` gives dx, dconst and ``dWs``; then
    ``dW = dWs * s``, ``dbeta = sum(dy)`` and
    ``dgamma = inv_std * (sum(dWs * W) - running_mean * dbeta)``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    parents = (x, weight, gamma, beta)
    const_channels = 0
    if const is not None:
        const = as_tensor(const)
        if const.ndim != 2 or const.shape[0] != x.shape[0]:
            raise ShapeMismatch("conv_bn_relu", f"const must be ({x.shape[0]}, C), got {const.shape}")
        const_channels = const.shape[1]
        parents += (const,)
    out_shape, taps = _conv_setup("conv_bn_relu", x, weight, stride, const_channels)
    _check_affine("conv_bn_relu", gamma, beta, out_shape[3])
    const_data = None if const is None else const.data
    patches = _patches(x.data, weight.shape[:2], out_shape, stride) if stride > 1 else None

    if training:
        data = _conv_forward(
            x.data, weight.data, taps, out_shape, stride, const_data, patches=patches
        )
        x_hat, inv_std, count = _normalize(data, state, True, out=data)
        out = gamma.data * x_hat
        out += beta.data
        np.maximum(out, 0.0, out=out)
        conv_weight = weight.data
    else:
        mean = state.running_mean
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        scale = gamma.data * inv_std
        conv_weight = weight.data * scale
        shift = beta.data - mean * scale
        out = _conv_forward(
            x.data, conv_weight, taps, out_shape, stride, const_data, shift,
            relu=True, patches=patches,
        )

    def backprop(grad):
        dy = grad * (out > 0.0)
        if training:  # dy and x_hat are this closure's own: the backward runs in them
            dgamma, dbeta, dy = _normalize_backward(
                dy, x_hat, gamma.data, inv_std, True, count, out=dy
            )
        dx, dw, dconst = _conv_backward(
            dy, x.data, conv_weight, taps, stride, x.requires_grad, const_data, patches
        )
        if not training:  # dw is the gradient of the folded weight * scale
            dbeta = _channel_sum(dy)
            dgamma = inv_std * (_channel_sum(dw, weight.data) - mean * dbeta)
            dw *= scale
        accumulate_grad(gamma, dgamma)
        accumulate_grad(beta, dbeta)
        accumulate_grad(x, dx)  # a no-op when x needs no gradient
        accumulate_grad(weight, dw)
        if const is not None:
            accumulate_grad(const, dconst)

    return from_op(out, parents, backprop)


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
        # one bin per (id, column), summing its rows in order as np.add.at would
        bins = (ids.reshape(-1, 1) * weight.shape[1] + np.arange(weight.shape[1])).reshape(-1)
        dw = np.bincount(bins, weights=grad.reshape(-1), minlength=weight.data.size)
        accumulate_grad(weight, dw.reshape(weight.shape))

    return from_op(data, (weight,), backprop)


def lstm_sequence(x, W, U, b, lengths):
    """Single-layer LSTM over a right-padded batch, as one tape node.

    ``x`` is (N, T, E); ``W`` (E, 4H), ``U`` (H, 4H) and ``b`` (4H,) hold the
    gates as H-wide column blocks in the order i, f, g, o. Example n reads its
    first ``lengths[n]`` steps. Returns the (N, H) hidden state after each
    example's last step (zeros for an empty one).

    The batch is ranked once by length, longest first, so the examples still
    reading step t are the first ``k_t`` of that ranking: the gate arithmetic
    runs in place on the ``[:k_t]`` prefix of ranked, time-major buffers, and
    the walk stops after the longest example. ``X @ W`` is one GEMM over all
    N*T rows; each step adds ``h @ U``, then ``b``. Every GEMM runs over all
    rows in input order, as the masked recurrence over all rows ran them, so
    values stay bitwise. On OpenBLAS a one-row product goes through gemv and
    can round differently from the same row of a multi-row GEMM, and a GEMM
    over the ``[:k_t]`` prefix would be one row once one example is left, so
    the GEMMs keep all rows. Backward is hand-written BPTT over the same
    prefixes, with one GEMM per weight gradient.
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

    order = np.argsort(-lengths, kind="stable")
    run = int(lengths.max(initial=0))  # the last step any example reads
    # input rows of the examples reading step t, longest first
    reading = [order[:k] for k in (lengths > np.arange(run)[:, None]).sum(axis=1).tolist()]
    x2d = x.data.reshape(n * steps, e)
    xw = (x2d @ W.data).reshape(n, steps, 4 * hd)
    hs = np.zeros((steps + 1, n, hd))  # hs[t, rows] is the state entering step t, input order
    cs = np.zeros((run + 1, n, hd))  # ranked rows from here on
    acts = np.empty((run, n, 4 * hd))  # sigmoid of i, f, o and tanh of g
    tanh_c = np.empty((run, n, hd))
    hu, scratch = np.empty((n, 4 * hd)), np.empty((n, hd))
    i_, f_, g_, o_ = (np.s_[:, k * hd : (k + 1) * hd] for k in range(4))
    with np.errstate(over="ignore"):
        for t, rows in enumerate(reading):
            k = len(rows)
            a, c, tc, tmp = acts[t, :k], cs[t + 1, :k], tanh_c[t, :k], scratch[:k]
            np.matmul(hs[t], U.data, out=hu)
            np.add(xw[:, t], hu, out=hu)
            np.take(hu, rows, axis=0, out=a, mode="clip")
            a += b.data
            np.tanh(a[g_], out=tmp)
            np.negative(a, out=a)
            np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
            a[g_] = tmp
            np.multiply(a[f_], cs[t, :k], out=c)
            c += np.multiply(a[i_], a[g_], out=tmp)
            np.tanh(c, out=tc)
            hs[t + 1, rows] = np.multiply(a[o_], tc, out=tmp)
    out = hs[lengths, np.arange(n)]

    def backprop(grad):
        dpre = np.zeros((steps, n, 4 * hd))  # input order, like hs
        dh, dc = grad[order], np.zeros((n, hd))  # ranked
        # gate-major (4, k, H) copies of step t's gates and their gradients:
        # contiguous blocks run faster than the column blocks of acts
        a_buf, d_buf = np.empty(4 * n * hd), np.empty(4 * n * hd)
        dhu, u_buf, v_buf = np.empty((n, hd)), np.empty((n, hd)), np.empty((n, hd))
        for t in reversed(range(run)):
            rows = reading[t]
            k = len(rows)
            a, d = a_buf[: 4 * k * hd].reshape(4, k, hd), d_buf[: 4 * k * hd].reshape(4, k, hd)
            tc, dh_k, dc_k, u, v = tanh_c[t, :k], dh[:k], dc[:k], u_buf[:k], v_buf[:k]
            a[...] = acts[t, :k].reshape(k, 4, hd).transpose(1, 0, 2)
            np.multiply(tc, tc, out=u)
            np.subtract(1.0, u, out=u)
            u *= np.multiply(dh_k, a[3], out=v)
            dc_k += u  # the gradient of step t's cell state
            # d is sigmoid' (tanh' for g) first, then times each gate's gradient
            np.subtract(1.0, a, out=d)
            d *= a
            np.multiply(a[2], a[2], out=d[2])
            np.subtract(1.0, d[2], out=d[2])
            d[0] *= np.multiply(dc_k, a[2], out=u)
            d[1] *= np.multiply(dc_k, cs[t, :k], out=u)
            d[2] *= np.multiply(dc_k, a[0], out=u)
            d[3] *= np.multiply(dh_k, tc, out=u)
            dpre[t].reshape(n, 4, hd)[rows] = d.transpose(1, 0, 2)
            np.matmul(dpre[t], U.data.T, out=dhu)
            np.take(dhu, rows, axis=0, out=dh_k, mode="clip")
            dc_k *= a[1]
        accumulate_grad(U, hs[:steps].reshape(-1, hd).T @ dpre.reshape(-1, 4 * hd))
        accumulate_grad(b, dpre.sum(axis=(0, 1)))
        dxw = dpre.transpose(1, 0, 2).reshape(n * steps, 4 * hd)
        accumulate_grad(W, x2d.T @ dxw)
        accumulate_grad(x, (dxw @ W.data.T).reshape(x.shape))

    return from_op(out, (x, W, U, b), backprop)


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
