"""``ops.conv2d`` and the strided conv's patch-matrix path against direct sums.

Both references run over an explicitly zero-padded input, one output pixel
at a time.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmfuse.autodiff import Tensor, backward, ops

KERNELS = st.sampled_from([1, 2, 3, 5])  # even kernels pad one more at the bottom/right


def same_padding(extent, stride, kernel):
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    return out, total // 2, total - total // 2


def direct_conv(x, w, stride, grad):
    """Forward and the x, w gradients of ``sum(conv(x) * grad)``, one window at a time."""
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    out_h, top, bottom = same_padding(h, stride, kh)
    out_w, left, right = same_padding(wd, stride, kw)
    xp = np.zeros((n, h + top + bottom, wd + left + right, cin))
    xp[:, top : top + h, left : left + wd] = x
    y = np.zeros((n, out_h, out_w, cout))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(out_h):
        for j in range(out_w):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            window = xp[:, rows, cols]
            y[:, i, j] = np.einsum("nuvc,uvco->no", window, w)
            dw += np.einsum("nuvc,no->uvco", window, grad[:, i, j])
            dxp[:, rows, cols] += np.einsum("no,uvco->nuvc", grad[:, i, j], w)
    return y, dxp[:, top : top + h, left : left + wd], dw


def run_conv(x_data, w_data, stride, grad, x_requires_grad=True):
    x = Tensor(x_data, requires_grad=x_requires_grad)
    w = Tensor(w_data, requires_grad=True)
    y = ops.conv2d(x, w, stride=stride)
    backward(ops.sum_(ops.mul(y, Tensor(grad))))
    return y.data, x.grad, w.grad


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    cin=st.integers(1, 5),
    cout=st.integers(1, 5),
    kh=KERNELS,
    kw=KERNELS,
    stride=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_direct_sum(n, h, w, cin, cout, kh, kw, stride, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, h, w, cin))
    weight = rng.standard_normal((kh, kw, cin, cout))
    out_shape = (n, -(-h // stride), -(-w // stride), cout)
    grad = rng.standard_normal(out_shape)

    got = run_conv(x, weight, stride, grad)
    want = direct_conv(x, weight, stride, grad)
    assert got[0].shape == out_shape
    for name, g, r in zip(("y", "dx", "dw"), got, want):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=name)

    _, dx, dw = run_conv(x, weight, stride, grad, x_requires_grad=False)
    assert dx is None
    assert np.array_equal(dw, got[2])


def reference_conv(x, w, const, stride, grad):
    """Output and (dx, dW, dconst) of ``sum(conv(x ++ tiled const) * grad)``, pixel by pixel.

    The constant channels are tiled at every pixel and zero-padded like x's.
    """
    n, h, wd, cin = x.shape
    kh, kw, channels, cout = w.shape
    full = np.concatenate(
        [x, np.broadcast_to(const[:, None, None, :], (n, h, wd, const.shape[1]))], axis=3
    )
    out_h, top, bottom = same_padding(h, stride, kh)
    out_w, left, right = same_padding(wd, stride, kw)
    xp = np.zeros((n, h + top + bottom, wd + left + right, channels))
    xp[:, top : top + h, left : left + wd] = full
    w2 = w.reshape(kh * kw * channels, cout)
    y = np.zeros((n, out_h, out_w, cout))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w2)
    for i in range(out_h):
        for j in range(out_w):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            window = xp[:, rows, cols].reshape(n, -1)
            y[:, i, j] = window @ w2
            dw += window.T @ grad[:, i, j]
            dxp[:, rows, cols] += (grad[:, i, j] @ w2.T).reshape(n, kh, kw, channels)
    dfull = dxp[:, top : top + h, left : left + wd]
    return y, dfull[..., :cin], dw.reshape(w.shape), dfull[..., cin:].sum(axis=(1, 2))


def patch_conv(x, w, const, stride, grad):
    """Output and (dx, dW, dconst) of ``ops``' conv forward and backward."""
    out_shape, taps = ops._conv_setup("conv", x, w, stride, const.shape[1])
    c = const if const.shape[1] else None
    y = ops._conv_forward(x, w, taps, out_shape, stride, c)
    dx, dw, dconst = ops._conv_backward(grad, x, w, taps, stride, True, c)
    return y, dx, dw, dconst


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    cin=st.integers(0, 4),
    cc=st.sampled_from([0, 2]),
    cout=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, h=1, w=1, cin=3, cc=0, cout=2, seed=0)  # a 1x1 image
@example(n=2, h=6, w=7, cin=0, cc=2, cout=3, seed=1)  # a 0-channel map and constant channels
def test_stride2_matches_the_pixel_loop(n, h, w, cin, cc, cout, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, h, w, cin))
    weight = rng.standard_normal((3, 3, cin + cc, cout))
    const = rng.standard_normal((n, cc))
    grad = rng.standard_normal((n, -(-h // 2), -(-w // 2), cout))
    got = patch_conv(x, weight, const, 2, grad)
    want = reference_conv(x, weight, const, 2, grad)
    for name, g, r in zip(("y", "dx", "dW", "dconst"), got, want):
        if cc == 0 and name == "dconst":
            assert g is None
            continue
        assert g.shape == r.shape, name
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    cin=st.integers(1, 4),
    kernel=st.sampled_from([(3, 3), (1, 2), (5, 3)]),
    stride=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_patch_adjoint_identity(n, h, w, cin, kernel, stride, seed):
    """<P(x), G> = <x, P^T(G)>: the input gradient is the patch copy's adjoint."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, h, w, cin))
    out_shape = (n, -(-h // stride), -(-w // stride), 1)
    patches = ops._patches(x, kernel, out_shape, stride)
    g = rng.standard_normal(patches.shape)
    back = ops._patches_adjoint(g, x.shape, kernel, out_shape, stride)
    assert back.shape == x.shape
    lhs, rhs = np.vdot(patches, g), np.vdot(x, back)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(patches * g).sum())
