"""What a training step keeps alive: strided patch matrices and backprop closures.

A strided conv builds its patch matrix P once, in the forward, and its
backward closure reuses it. ``backward`` drops each op node's closure, and
with it P and the other saved arrays, once the closure has run.
"""

import weakref

import numpy as np
import pytest

from conftest import build_model as build
from mmfuse.autodiff import AutodiffError, BatchNormState, Tensor, backward, no_grad, ops
from mmfuse.autodiff.tensor import _toposort
from mmfuse.training import ModelData


def strided_stack(rng, layers=2, n=4, side=8, widths=(3, 4, 6, 5)):
    """A scalar loss over ``layers`` stride-2 ``conv_bn_relu`` blocks."""
    h = Tensor(rng.standard_normal((n, side, side, widths[0])))
    for cin, cout in zip(widths[:layers], widths[1 : layers + 1]):
        w = Tensor(rng.standard_normal((3, 3, cin, cout)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, cout), requires_grad=True)
        b = Tensor(rng.standard_normal(cout), requires_grad=True)
        h = ops.conv_bn_relu(h, w, g, b, BatchNormState(cout), True, stride=2)
    probe = Tensor(rng.standard_normal(h.shape))
    return ops.sum_(ops.mul(h, probe))


@pytest.fixture
def patch_calls(monkeypatch):
    """Weak references to every patch matrix ``ops._patches`` builds, in call order."""
    real, made = ops._patches, []

    def recording(*args):
        patches = real(*args)
        made.append(weakref.ref(patches))
        return patches

    monkeypatch.setattr(ops, "_patches", recording)
    return made


def test_one_patch_matrix_per_strided_layer(patch_calls, rng):
    loss = strided_stack(rng, layers=3)
    assert len(patch_calls) == 3
    backward(loss)
    assert len(patch_calls) == 3  # the backward builds none


def test_one_patch_matrix_per_strided_layer_of_a_model_step(patch_calls):
    model = build("SCM")
    rng = np.random.default_rng(0)
    batch = ModelData.from_id_lists(
        images=rng.random((4, 8, 8, 3)),
        tweet_ids=[[1, 2], [3], [4, 5, 6], [7]],
        imgtext_ids=[[2], [], [8, 9], [1]],
        labels=np.arange(4) % 2,
    )
    logits = model.forward(
        batch.images, batch.tweet, batch.imgtext, training=True, rng=np.random.default_rng(1)
    )
    loss = ops.softmax_cross_entropy(logits, batch.labels)
    layers = len(model.spec.backbone_channels)
    assert len(patch_calls) == layers
    backward(loss)
    assert len(patch_calls) == layers
    assert all(ref() is None for ref in patch_calls)


def test_kept_patch_matrix_gives_the_rebuilt_dw_bitwise(monkeypatch, rng):
    """Each strided conv backward's dW equals the dW of a P rebuilt from x."""
    real, checked = ops._conv_backward, []

    def compare(grad, x, weight, taps, stride, need_dx, const=None, patches=None):
        got = real(grad, x, weight, taps, stride, need_dx, const, patches)
        rebuilt = real(grad, x, weight, taps, stride, need_dx, const)
        assert patches is not None
        for a, b in zip(got, rebuilt):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        checked.append(stride)
        return got

    monkeypatch.setattr(ops, "_conv_backward", compare)
    loss = strided_stack(rng, layers=2)
    backward(loss)
    x = Tensor(rng.standard_normal((3, 7, 5, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 2, 4)), requires_grad=True)
    probe = Tensor(rng.standard_normal((3, 4, 3, 4)))
    backward(ops.sum_(ops.mul(ops.conv2d(x, w, stride=2), probe)))
    assert checked == [2, 2, 2]


def test_patch_matrix_dies_once_backward_passes_its_node(monkeypatch, patch_calls, rng):
    """When the first layer's backward starts, the second layer's P is already gone."""
    real, alive = ops._conv_backward, []

    def watching(*args, **kwargs):
        alive.append([ref() is not None for ref in patch_calls])
        return real(*args, **kwargs)

    monkeypatch.setattr(ops, "_conv_backward", watching)
    loss = strided_stack(rng, layers=2)
    assert all(ref() is not None for ref in patch_calls)  # held by the tape until backward
    backward(loss)
    # the last layer runs first, with both matrices alive; then the first, with its own only
    assert alive == [[True, True], [True, False]]
    assert all(ref() is None for ref in patch_calls)


@pytest.mark.parametrize("training", [False, True])
def test_no_patch_matrix_outlives_a_no_grad_call(patch_calls, training, rng):
    x = Tensor(rng.standard_normal((4, 8, 8, 3)))
    w = Tensor(rng.standard_normal((3, 3, 3, 5)), requires_grad=True)
    g, b = Tensor(np.ones(5), requires_grad=True), Tensor(np.zeros(5), requires_grad=True)
    with no_grad():
        out = ops.conv_bn_relu(x, w, g, b, BatchNormState(5), training, stride=2)
        conv = ops.conv2d(x, w, stride=2)
    assert out._backprop is None and conv._backprop is None
    assert len(patch_calls) == 2
    assert all(ref() is None for ref in patch_calls)


def reference_backward(loss):
    """The walk without freeing: every closure runs once, in the same order."""
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)


@pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM"])
def test_backward_frees_every_closure_and_keeps_leaf_gradients(variant):
    rng = np.random.default_rng(3)
    images = rng.random((6, 8, 8, 3))
    tweet, imgtext = [[1, 2, 3], [4], [5, 6], [], [7, 8], [9]], [[2], [3, 4], [], [5], [6], [7, 8]]
    labels = np.arange(6) % 2

    def step(walk):
        model = build(variant)
        batch = ModelData.from_id_lists(
            images=images, tweet_ids=tweet, imgtext_ids=imgtext, labels=labels
        )
        logits = model.forward(
            batch.images, batch.tweet, batch.imgtext, training=True, rng=np.random.default_rng(4)
        )
        loss = ops.softmax_cross_entropy(logits, batch.labels)
        walk(loss)
        return loss, model.parameters()

    loss, params = step(backward)
    _, reference = step(reference_backward)
    nodes = _toposort(loss)
    assert any(node._parents for node in nodes)
    for node in nodes:
        if node._parents:
            assert node._backprop is None and node.grad is None
    for name, p in params.items():
        assert p.grad is not None, name
        assert p.grad.tobytes() == reference[name].grad.tobytes(), name
    with pytest.raises(AutodiffError):
        backward(loss)

