"""The primitive set of ``mmfuse.autodiff.ops``: checked, used, and sharing gradients safely."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model as build
from mmfuse import gradcheck_suite
from mmfuse.autodiff import Tensor, backward, check_gradients, ops
from mmfuse.training import ModelData, TrainConfig, score_dataset, train

# Primitives no training step or scoring reaches, each kept for a named caller.
KEEP = {
    "sigmoid": "perfbench's tracer wraps it by name; the reference LSTM test builds gates from it",
    "tanh": "the gradcheck probe calls it; so do perfbench's tracer and the reference LSTM test",
    "mul": "the gradcheck probe calls it; so do perfbench's tracer and the reference LSTM test",
    "sum_": "the gradcheck probe reduces to a scalar with it",
    "conv2d": "perfbench's tracer wraps it by name",
    "tile_spatial": "perfbench's tracer wraps it by name",
}

PUBLIC = sorted(
    name
    for name, fn in vars(ops).items()
    if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_")
)


VARIANTS = ["FCM", "SCM", "TKM", "LSTM"]
MASKS = ["TT", "IT", "I", "TT,IT", "TT,I", "IT,I", "TT,IT,I"]
# Every variant x mask x share_text_encoder that builds; a TKM needs a text.
# The all-inputs, shared-encoder model of each variant is named by the variant.
BUILDABLE = [pytest.param("LSTM", "TT", True, id="LSTM")] + [
    pytest.param(
        variant, mask, share,
        id="-".join([variant] + [mask] * (mask != MASKS[-1]) + ["unshared"] * (not share)),
    )
    for variant in VARIANTS[:3]
    for mask in MASKS
    for share in (True, False)
    if not (variant == "TKM" and mask == "I")
]


def data(n, seed=0):
    rng = np.random.default_rng(seed)
    texts = [list(rng.integers(1, 20, rng.integers(0, 5))) for _ in range(2 * n)]
    return ModelData.from_id_lists(
        images=rng.random((n, 8, 8, 3)),
        tweet_ids=texts[:n],
        imgtext_ids=texts[n:],
        labels=np.arange(n) % 2,
    )


def calls_into(monkeypatch, run):
    """The public primitives ``run()`` calls, through the ``ops`` module attribute."""
    called = set()
    for name in PUBLIC:
        def counted(*args, _fn=getattr(ops, name), _name=name, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ops, name, counted)
    run()
    monkeypatch.undo()
    return called


def test_every_primitive_is_gradient_checked(monkeypatch):
    def run_cases():
        for _, fn, inputs in gradcheck_suite.primitive_checks():
            fn(*inputs)

    assert set(PUBLIC) - calls_into(monkeypatch, run_cases) == set()


def test_every_primitive_is_reached_by_training_or_kept(monkeypatch):
    def train_and_score():
        for variant in VARIANTS:
            model = build(variant)
            train(model, data(8), data(6, seed=1), TrainConfig(batch_size=8, epochs=1))
            score_dataset(model, data(4, seed=2))

    reached = calls_into(monkeypatch, train_and_score)
    assert set(PUBLIC) - reached - set(KEEP) == set()
    assert set(KEEP) <= set(PUBLIC)


@pytest.mark.parametrize("variant, mask, share", BUILDABLE)
def test_every_parameter_gets_a_gradient(variant, mask, share):
    """One training step gives every parameter a gradient above rounding.

    A bias in front of a train-mode batch norm fails this: the batch mean
    cancels it, and its gradient is rounding error (under 1e-15 here). So
    does a module that the mask cuts off from the loss. Each input channel of
    a conv or fc weight is checked on its own, so weight rows that read an
    input standing in with zeros fail it too.
    """
    model, batch = build(variant, mask, share_text_encoder=share), data(8)
    logits = model.forward(
        batch.images, batch.tweet, batch.imgtext, training=True,
        rng=np.random.default_rng(0),
    )
    backward(ops.softmax_cross_entropy(logits, batch.labels))
    largest = {}
    for name, p in model.parameters().items():
        grad = np.zeros(p.shape) if p.grad is None else np.abs(p.grad)
        largest[name] = float(grad.max())
        if name.endswith("weight"):  # (in, out) fc or (kh, kw, in, out) conv
            per_input = np.moveaxis(grad, -2, 0).reshape(grad.shape[-2], -1).max(axis=1)
            largest.update((f"{name}[input {i}]", float(g)) for i, g in enumerate(per_input))
    assert {name: g for name, g in largest.items() if g <= 1e-10} == {}


@st.composite
def broadcast_pair(draw):
    """Two shapes that broadcast: size-1 axes, fewer leading axes, 0-d operands."""
    full = draw(st.lists(st.integers(1, 3), max_size=3))
    shapes = []
    for _ in range(2):
        lead = draw(st.integers(0, len(full)))
        shapes.append(tuple(1 if draw(st.booleans()) else d for d in full[lead:]))
    return shapes


@given(shapes=broadcast_pair(), seed=st.integers(0, 2**16), op=st.sampled_from(["add", "mul"]))
@settings(max_examples=80, deadline=None)
def test_broadcast_gradients(shapes, seed, op):
    rng = np.random.default_rng(seed)
    a, b = (Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes)
    out_shape = np.broadcast_shapes(*shapes)
    weights = Tensor(rng.standard_normal(out_shape))
    fn = getattr(ops, op)

    def probe(x, y):
        return ops.sum_(ops.mul(ops.tanh(fn(x, y)), weights))

    assert check_gradients(probe, [a, b], eps=gradcheck_suite.EPS) <= gradcheck_suite.TOLERANCE


@pytest.mark.parametrize("variant", VARIANTS)
def test_first_gradients_are_stored_uncopied_and_never_written(variant, monkeypatch):
    """Freeze each handed gradient; training must neither copy nor write into one."""
    real = ops.accumulate_grad

    def run(accumulate):
        monkeypatch.setattr(ops, "accumulate_grad", accumulate)
        model = build(variant)
        _, history = train(model, data(8), data(6, seed=1), TrainConfig(batch_size=4, epochs=2))
        monkeypatch.undo()
        return model.state_dict(), history

    handed = []

    def frozen(tensor, grad):
        first = tensor.requires_grad and tensor.grad is None
        grad = np.asarray(grad, dtype=np.float64)
        grad.flags.writeable = False
        real(tensor, grad)
        if first:
            handed.append(tensor.grad is grad)

    def copying(tensor, grad):
        real(tensor, np.array(grad, dtype=np.float64, copy=True))

    frozen_state, frozen_history = run(frozen)
    copied_state, copied_history = run(copying)
    assert handed and all(handed)
    assert frozen_history.steps == copied_history.steps
    assert frozen_history.evals == copied_history.evals
    for name, value in frozen_state.items():
        assert np.array_equal(value, copied_state[name]), name
