"""``ops.conv_bn_relu`` against the three-op chain it fuses."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmfuse.autodiff import BatchNormState, Tensor, backward, no_grad, ops


def bn_state(rng, channels, training):
    state = BatchNormState(channels)
    if not training:  # eval mode reads the running statistics
        state.running_mean = rng.standard_normal(channels)
        state.running_var = rng.uniform(0.5, 2.0, channels)
    return state


def run(fused, arrays, state, training, stride, x_requires_grad=True, const=None):
    """Output, then gradients of x, W, gamma, beta and const of ``sum(block * probe)``."""
    x_data, w_data, g_data, be_data, probe = arrays
    x = Tensor(x_data, requires_grad=x_requires_grad)
    w, gamma, beta = (Tensor(a, requires_grad=True) for a in (w_data, g_data, be_data))
    c = None if const is None else Tensor(const, requires_grad=True)
    if fused:
        y = ops.conv_bn_relu(x, w, gamma, beta, state, training, stride, const=c)
    else:
        x_in = x if c is None else ops.concat([x, ops.tile_spatial(c, *x.shape[1:3])], axis=3)
        y = ops.relu(ops.batch_norm(ops.conv2d(x_in, w, stride), gamma, beta, state, training))
    backward(ops.sum_(ops.mul(y, Tensor(probe))))
    return [y.data, x.grad, w.grad, gamma.grad, beta.grad, None if c is None else c.grad]


def draw(rng, n, h, w, cin, cout, stride):
    out_h, out_w = -(-h // stride), -(-w // stride)
    return [
        rng.standard_normal((n, h, w, cin)),
        rng.standard_normal((3, 3, cin, cout)),
        rng.standard_normal(cout),
        rng.standard_normal(cout),
        rng.standard_normal((n, out_h, out_w, cout)),
    ]


NAMES = ("y", "dx", "dW", "dgamma", "dbeta")


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    cin=st.integers(1, 4),
    cout=st.integers(1, 4),
    stride=st.sampled_from([1, 2]),
    training=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, h=1, w=1, cin=2, cout=3, stride=1, training=True, seed=0)  # count == 1
@example(n=1, h=2, w=2, cin=2, cout=3, stride=2, training=True, seed=1)  # 1x1 output, stride 2
@example(n=2, h=3, w=3, cin=0, cout=2, stride=1, training=True, seed=2)  # a 0-channel map
def test_bitwise_equal_to_the_chain(n, h, w, cin, cout, stride, training, seed):
    rng = np.random.default_rng(seed)
    arrays = draw(rng, n, h, w, cin, cout, stride)
    chain_state = bn_state(np.random.default_rng(seed), cout, training)
    fused_state = bn_state(np.random.default_rng(seed), cout, training)
    want = run(False, arrays, chain_state, training, stride)
    got = run(True, arrays, fused_state, training, stride)
    for name, g, r in zip(NAMES, got, want):
        if training:
            assert np.array_equal(g, r), name
        else:  # eval folds batch norm into the conv: equal up to rounding
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12, err_msg=name)
    assert np.array_equal(fused_state.running_mean, chain_state.running_mean)
    assert np.array_equal(fused_state.running_var, chain_state.running_var)


@pytest.mark.parametrize("x_requires_grad", [True, False])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("stride,side", [(1, 4), (2, 5), (1, 1)])
def test_const_matches_tiled_concat(x_requires_grad, training, stride, side, rng):
    """Constant channels equal concat + tile_spatial up to rounding; x's gradient is optional."""
    n, cin, cc, cout = 3, 4, 6, 5
    x_data, w_data, *rest = draw(rng, n, side, side, cin + cc, cout, stride)
    arrays = [x_data[..., :cin].copy(), w_data, *rest]
    const = rng.standard_normal((n, cc))
    seed = int(rng.integers(2**32))
    chain_state = bn_state(np.random.default_rng(seed), cout, training)
    fused_state = bn_state(np.random.default_rng(seed), cout, training)
    want = run(False, arrays, chain_state, training, stride, x_requires_grad, const)
    got = run(True, arrays, fused_state, training, stride, x_requires_grad, const)
    for name, g, r in zip(NAMES + ("dconst",), got, want):
        if r is None:
            assert g is None, name
        else:
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=name)
    assert (got[1] is None) == (not x_requires_grad)
    for g, r in ((fused_state.running_mean, chain_state.running_mean),
                 (fused_state.running_var, chain_state.running_var)):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "with_const,stride",
    [(False, 1), (True, 1), (False, 2), (True, 2)],
    ids=["False", "True", "False-stride2", "True-stride2"],
)
def test_eval_with_and_without_a_tape_is_bitwise_equal(with_const, stride, rng):
    n, side, cin, cc, cout = 5, 6, 3, 2 if with_const else 0, 4
    x = Tensor(rng.standard_normal((n, side, side, cin)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, cin + cc, cout)), requires_grad=True)
    gamma, beta = (Tensor(rng.standard_normal(cout), requires_grad=True) for _ in range(2))
    const = Tensor(rng.standard_normal((n, cc)), requires_grad=True) if cc else None
    state = bn_state(rng, cout, training=False)
    taped = ops.conv_bn_relu(x, w, gamma, beta, state, False, stride, const=const)
    with no_grad():
        free = ops.conv_bn_relu(x, w, gamma, beta, state, False, stride, const=const)
    assert taped.requires_grad and not free.requires_grad
    assert np.array_equal(taped.data, free.data)


# the conv_bn_relu layers of a 32-px SCM like perfbench's train-wide:
# (side, input channels, const channels, output channels, stride)
WIDE_LAYERS = [(32, 3, 0, 16, 2), (16, 16, 0, 32, 2), (8, 32, 0, 64, 2), (4, 64, 64, 64, 1)]


@pytest.mark.parametrize("side,cin,cc,cout,stride", WIDE_LAYERS)
def test_eval_fold_matches_the_chain_at_wide_shapes(side, cin, cc, cout, stride, rng):
    """128 examples: several example blocks of the conv forward, and the fusion block's const."""
    n = 128
    x_data, w_data, *rest = draw(rng, n, side, side, cin + cc, cout, stride)
    arrays = [x_data[..., :cin].copy(), w_data, *rest]
    const = rng.standard_normal((n, cc)) if cc else None
    seed = int(rng.integers(2**32))
    chain_state = bn_state(np.random.default_rng(seed), cout, training=False)
    fused_state = bn_state(np.random.default_rng(seed), cout, training=False)
    want = run(False, arrays, chain_state, False, stride, const=const)
    got = run(True, arrays, fused_state, False, stride, const=const)
    for name, g, r in zip(NAMES + ("dconst",), got, want):
        if r is None:
            assert g is None, name
        else:
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12, err_msg=name)
