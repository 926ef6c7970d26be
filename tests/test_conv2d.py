"""``ops.conv2d`` against a direct sum over an explicitly zero-padded input."""

import numpy as np
from hypothesis import given, settings
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
