"""ADAM over one flat vector against the per-array update it replaced."""

import numpy as np
import pytest

from mmfuse import cli
from mmfuse.autodiff import AdamState, NonFiniteGradient, Tensor, adam_step
from test_lstm_sequence import DESK


def reference_step(arrays, moments, grads, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One ADAM step array by array, with the arithmetic of the per-array update."""
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, g in grads.items():
        if g is None:
            continue
        m, v = moments.setdefault(name, (np.zeros_like(g), np.zeros_like(g)))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        arrays[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM", "LSTM"])
def test_flat_adam_is_bitwise_the_per_array_update(variant):
    model = cli.build_model({**DESK, "model.variant": variant}, 40)
    params = model.parameters()
    reference = {name: p.data.copy() for name, p in params.items()}
    moments = {}
    state = AdamState(params, lr=1e-2)
    rng = np.random.default_rng(0)
    unreached = set(list(params)[1::3])  # interior gaps: several runs in step 3
    for t in range(1, 6):
        grads = {name: rng.standard_normal(p.shape) for name, p in params.items()}
        if t == 3:
            grads.update(dict.fromkeys(unreached))
            before = {
                name: tuple(a.copy() for a in (params[name].data, *moments[name]))
                for name in unreached
            }
        adam_step(grads, state)
        reference_step(reference, moments, grads, t, lr=1e-2)
        for name, p in params.items():
            lo, hi = state.spans[name]
            assert same_bits(p.data, reference[name]), (t, name)
            assert same_bits(state.m[lo:hi], moments[name][0].reshape(-1)), (t, name)
            assert same_bits(state.v[lo:hi], moments[name][1].reshape(-1)), (t, name)
        if t == 3:
            for name, (value, m, v) in before.items():
                lo, hi = state.spans[name]
                assert same_bits(params[name].data, value), name
                assert same_bits(state.m[lo:hi], m.reshape(-1)), name
                assert same_bits(state.v[lo:hi], v.reshape(-1)), name
    assert state.t == 5


def test_parameters_are_views_into_one_vector_and_stay_so():
    model = cli.build_model({**DESK, "model.variant": "TKM"}, 40)
    initial = model.state_dict()
    params = model.parameters()
    state = AdamState(params)
    adam_step({}, state)
    assert state.values.size == sum(p.size for p in params.values())
    for name, p in params.items():
        lo, hi = state.spans[name]
        assert np.shares_memory(p.data, state.values[lo:hi]), name
        assert same_bits(p.data, initial[name]), name  # the values were copied in
    model.load_state_dict(initial)
    assert all(np.shares_memory(p.data, state.values) for p in params.values())


def test_nonfinite_gradient_names_the_first_parameter_and_updates_nothing():
    params = {name: Tensor(np.ones(3), requires_grad=True) for name in ("x", "y", "z")}
    state = AdamState(params)
    grads = {name: np.ones(3) for name in params}
    grads["z"] = np.array([1.0, np.nan, 1.0])
    grads["y"] = np.array([1.0, 1.0, np.inf])
    with pytest.raises(NonFiniteGradient, match="non-finite gradient of 'y'") as err:
        adam_step(grads, state)
    assert err.value.name == "y"
    assert state.t == 0
    assert all(np.array_equal(p.data, np.ones(3)) for p in params.values())
    assert not state.m.any() and not state.v.any()
