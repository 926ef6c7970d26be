"""The packed LSTM primitive against the per-gate recurrence it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfuse import cli, synth
from mmfuse.autodiff import ShapeMismatch, Tensor, backward, ops
from mmfuse.autodiff.tensor import _toposort


def _gate_block(m, k, hd):
    """Column block k of the (rows, 4*hd) tensor ``m``: an exact, differentiable copy."""
    rows = m.shape[0]
    return ops.embedding(ops.reshape(m, (rows * 4, hd)), np.arange(rows) * 4 + k)


def reference_lstm(x, W, U, b, lengths, per_gate_products=False):
    """The per-gate LSTM, built from existing primitives on the packed parameters.

    Gate k at step t is sigmoid (tanh for g) of ``(x_t W_k + h U_k) + b_k``; an
    example past its length keeps its state through a 0/1 mask. With
    ``per_gate_products`` each product is one step and one gate, as the
    per-gate LSTM computed it. Otherwise the products are column blocks of
    ``X W`` over all steps and of ``h U``, the GEMMs ``lstm_sequence`` runs,
    so BLAS blocking cannot make the two differ.
    """
    n, steps, e = x.shape
    hd = U.shape[0]
    x2d = ops.reshape(x, (n * steps, e))
    b_k = [_gate_block(ops.reshape(b, (1, 4 * hd)), k, hd) for k in range(4)]
    W_k = [_gate_block(W, k, hd) for k in range(4)]
    U_k = [_gate_block(U, k, hd) for k in range(4)]
    xw = ops.matmul(x2d, W)
    h = Tensor(np.zeros((n, hd)))
    c = Tensor(np.zeros((n, hd)))
    for t in range(steps):
        rows = np.arange(n) * steps + t
        if per_gate_products:
            x_t = ops.embedding(x2d, rows)
            pre = [ops.add(ops.add(ops.matmul(x_t, W_k[k]), ops.matmul(h, U_k[k])), b_k[k])
                   for k in range(4)]
        else:
            xw_t, hu = ops.embedding(xw, rows), ops.matmul(h, U)
            pre = [ops.add(ops.add(_gate_block(xw_t, k, hd), _gate_block(hu, k, hd)), b_k[k])
                   for k in range(4)]
        i, f, g, o = ops.sigmoid(pre[0]), ops.sigmoid(pre[1]), ops.tanh(pre[2]), ops.sigmoid(pre[3])
        c_new = ops.add(ops.mul(f, c), ops.mul(i, g))
        h_new = ops.mul(o, ops.tanh(c_new))
        active = Tensor((np.asarray(lengths) > t).astype(np.float64)[:, None])
        inactive = Tensor(1.0 - active.data)
        h = ops.add(ops.mul(active, h_new), ops.mul(inactive, h))
        c = ops.add(ops.mul(active, c_new), ops.mul(inactive, c))
    return h


def _grads(fn, arrays, probe):
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*inputs)
    backward(ops.sum_(ops.mul(ops.tanh(out), probe)))
    return out.data, [t.grad for t in inputs]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    steps=st.integers(1, 6),
    e=st.integers(1, 6),
    hd=st.integers(1, 6),
    data=st.data(),
)
def test_matches_per_gate_reference(n, steps, e, hd, data):
    lengths = np.array(data.draw(st.lists(st.integers(0, steps), min_size=n, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arrays = [
        rng.standard_normal((n, steps, e)),
        rng.standard_normal((e, 4 * hd)),
        rng.standard_normal((hd, 4 * hd)),
        rng.standard_normal(4 * hd),
    ]
    probe = Tensor(rng.standard_normal((n, hd)))

    out, grads = _grads(lambda *a: ops.lstm_sequence(*a, lengths), arrays, probe)
    ref_out, ref_grads = _grads(lambda *a: reference_lstm(*a, lengths), arrays, probe)
    assert np.array_equal(out, ref_out)
    for name, g, ref in zip(("x", "W", "U", "b"), grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12, err_msg=name)


def test_no_steps_gives_zeros_and_zero_gradients(rng):
    x = Tensor(np.zeros((2, 0, 3)), requires_grad=True)
    W = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    out = ops.lstm_sequence(x, W, Tensor(np.zeros((2, 8))), Tensor(np.zeros(8)), [0, 0])
    assert np.array_equal(out.data, np.zeros((2, 2)))
    backward(ops.sum_(out))
    assert np.array_equal(W.grad, np.zeros((3, 8)))


@pytest.mark.parametrize(
    "shapes, lengths",
    [
        (((2, 3, 4), (4, 8), (2, 8), (8,)), [1, 4]),  # a length past T
        (((2, 3, 4), (4, 8), (2, 8), (8,)), [1]),  # one length for two examples
        (((2, 3, 4), (4, 6), (2, 8), (8,)), [1, 2]),  # W not (E, 4H)
        (((2, 3), (3, 8), (2, 8), (8,)), [1, 2]),  # x not (N, T, E)
    ],
)
def test_rejects_bad_shapes(shapes, lengths):
    with pytest.raises(ShapeMismatch, match="lstm_sequence"):
        ops.lstm_sequence(*(np.zeros(s) for s in shapes), lengths)


# ---------------------------------------------------------------------------
# the desk configuration: 16-px images, backbone 8,16, hidden 32, embedding 16, and the
# table's model.fc_plan: 32,16,2, or 2 for the LSTM


DESK = {
    "model.image_side": "16",
    "model.backbone_channels": "8,16",
    "model.hidden_dim": "32",
    "model.embedding_dim": "16",
    "model.fusion_channels": "16",
    "model.seed": "3",
}


@pytest.fixture(scope="module")
def desk_batch():
    """32 examples with 5-9-token tweet texts and 0-1-token image texts."""
    spec = synth.SynthSpec(n_train=32, n_val=0, n_test=0, min_tokens=5, max_tokens=9, seed=4)
    vocab = synth.build_vocabulary()
    return synth.to_model_data(synth.generate(spec)["train"], vocab), len(vocab)


def _first_step_logits(variant, batch, vocab_size, per_gate=False):
    model = cli.build_model({**DESK, "model.variant": variant}, vocab_size)
    if per_gate:
        encoder = model.text_encoder
        packed = encoder.lstm
        encoder.lstm = lambda x, lengths: reference_lstm(
            x, packed.W, packed.U, packed.b, lengths, per_gate_products=True
        )
    return model.forward(
        batch.images, batch.tweet, batch.imgtext,
        training=True, rng=np.random.default_rng(1),
    )


@pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM", "LSTM"])
def test_first_step_logits_match_per_gate_lstm(variant, desk_batch):
    """With the same seed the packed LSTM gives the per-gate LSTM's logits bit for bit."""
    batch, vocab_size = desk_batch
    packed = _first_step_logits(variant, batch, vocab_size)
    per_gate = _first_step_logits(variant, batch, vocab_size, per_gate=True)
    assert np.array_equal(packed.data, per_gate.data)


def test_training_step_tape_stays_small(desk_batch):
    """Each text pass adds a handful of nodes, not several per token."""
    batch, vocab_size = desk_batch
    model = cli.build_model({**DESK, "model.variant": "TKM"}, vocab_size)
    logits = model.forward(
        batch.images, batch.tweet, batch.imgtext,
        training=True, rng=np.random.default_rng(1),
    )
    loss = ops.softmax_cross_entropy(logits, batch.labels)
    assert len(_toposort(loss)) < 100
