import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import checkpoint_bytes, checkpoint_parts

from mmfuse.autodiff import (
    AdamState,
    AutodiffError,
    BatchNormState,
    CheckpointError,
    ShapeMismatch,
    Tensor,
    adam_step,
    backward,
    check_gradients,
    file_sha256,
    load_arrays,
    ops,
    save_arrays,
)


class TestForward:
    def test_relu_values(self):
        out = ops.relu(Tensor(np.array([-1.0, 0.0, 2.5])))
        assert np.array_equal(out.data, [0.0, 0.0, 2.5])

    def test_matmul_identity(self, rng):
        x = rng.standard_normal((3, 5))
        out = ops.matmul(Tensor(np.eye(3)), Tensor(x))
        assert np.allclose(out.data, x)

    def test_dynamic_conv_hand_case(self):
        fmap = Tensor(np.array([1.0, 2.0]).reshape(1, 1, 1, 2))
        kernels = Tensor(np.array([[[1.0, 1.0], [0.0, 3.0]]]))
        out = ops.dynamic_conv1x1(fmap, kernels)
        assert out.shape == (1, 1, 1, 2)
        assert np.allclose(out.data.ravel(), [3.0, 6.0])

    def test_softmax_rows_sum_to_one(self, rng):
        out = ops.softmax(Tensor(rng.standard_normal((6, 4))), axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data > 0).all()

    def test_softmax_shift_invariant(self, rng):
        x = rng.standard_normal((3, 4))
        a = ops.softmax(Tensor(x), axis=1).data
        b = ops.softmax(Tensor(x + 100.0), axis=1).data
        assert np.allclose(a, b, atol=1e-12)

    def test_weighted_ce_reduces_to_unweighted(self, rng):
        logits = rng.standard_normal((8, 2))
        labels = rng.integers(0, 2, 8)
        plain = ops.softmax_cross_entropy(Tensor(logits), labels).item()
        weighted = ops.softmax_cross_entropy(Tensor(logits), labels, [1.0, 1.0]).item()
        assert plain == pytest.approx(weighted, abs=1e-12)

    def test_zero_logits_loss_is_ln2(self):
        loss = ops.softmax_cross_entropy(Tensor(np.zeros((4, 2))), np.array([0, 1, 0, 1]))
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_conv2d_same_padding_output_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 7, 7, 3)))
        w = Tensor(rng.standard_normal((3, 3, 3, 5)))
        out = ops.conv2d(x, w, stride=2)
        assert out.shape == (2, 4, 4, 5)

    def test_tile_spatial_repeats_vector(self, rng):
        v = rng.standard_normal((2, 5))
        out = ops.tile_spatial(Tensor(v), 3, 4)
        assert out.shape == (2, 3, 4, 5)
        assert np.array_equal(out.data[:, 1, 2, :], v)

    def test_avg_pool_matches_mean(self, rng):
        x = rng.standard_normal((2, 4, 4, 6))
        out = ops.avg_pool_spatial(Tensor(x))
        assert np.allclose(out.data, x.mean(axis=(1, 2)), atol=1e-12)

    def test_embedding_gathers_rows(self, rng):
        weight = rng.standard_normal((9, 4))
        ids = np.array([[0, 8], [3, 3]])
        out = ops.embedding(Tensor(weight), ids)
        assert np.array_equal(out.data, weight[ids])

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeMismatch):
            ops.matmul(Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4))))


@settings(max_examples=60, deadline=None)
@given(
    vocab=st.integers(1, 5),
    width=st.integers(1, 4),
    ids=st.lists(st.integers(0, 4), max_size=24),
    rows=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_embedding_backward_is_add_at_bitwise(vocab, width, ids, rows, seed):
    """Repeated ids sum their gradient rows in order, bit for bit as ``np.add.at`` does."""
    ids = np.array([i % vocab for i in ids[: len(ids) // rows * rows]], dtype=np.int64)
    ids = ids.reshape(rows, -1)
    rng = np.random.default_rng(seed)
    shape = ids.shape + (width,)
    grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)  # rounding shows
    weight = Tensor(rng.standard_normal((vocab, width)), requires_grad=True)
    backward(ops.sum_(ops.mul(ops.embedding(weight, ids), Tensor(grad))))
    expected = np.zeros((vocab, width))
    np.add.at(expected, ids.reshape(-1), grad.reshape(-1, width))
    assert weight.grad.tobytes() == expected.tobytes()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        backward(ops.sum_(x))
        assert np.array_equal(x.grad, np.ones(4))

    def test_constant_path_gives_zero_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ops.sum_(ops.mul(x, Tensor(np.zeros(2))))
        backward(loss)
        assert np.array_equal(x.grad, np.zeros(2))

    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(AutodiffError):
            backward(ops.relu(x))

    def test_backward_twice_rejected(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        loss = ops.sum_(ops.mul(x, x))
        backward(loss)
        with pytest.raises(AutodiffError):
            backward(loss)

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = ops.sum_(ops.add(ops.mul(x, x), x))  # x^2 + x
        backward(loss)
        assert x.grad[0] == pytest.approx(7.0, abs=1e-12)

    def test_weighted_ce_gradient_matches_fd(self, rng):
        labels = np.array([0, 1, 1, 0])
        weights = [1.6, 0.4]

        def fn(logits):
            return ops.softmax_cross_entropy(logits, labels, weights)

        x = Tensor(rng.standard_normal((4, 2)) * 0.5, requires_grad=True)
        assert check_gradients(fn, [x]) <= 1e-6

    def test_broadcast_add_unbroadcasts_grad(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4,)), requires_grad=True)
        backward(ops.sum_(ops.add(a, b)))
        assert a.grad.shape == (3, 4)
        assert np.array_equal(b.grad, np.full(4, 3.0))


class TestBatchNormAndDropout:
    def test_batch_norm_train_normalizes(self, rng):
        x = Tensor(rng.standard_normal((64, 5)) * 3.0 + 2.0)
        state = BatchNormState(5)
        out = ops.batch_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), state, training=True)
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-3)

    def test_batch_norm_single_example_keeps_running_stats(self, rng):
        state = BatchNormState(3)
        state.running_mean = np.array([0.5, -1.0, 2.0])
        state.running_var = np.array([1.5, 0.25, 4.0])
        x = Tensor(rng.standard_normal((1, 3)))
        ops.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state, training=True)
        assert np.array_equal(state.running_mean, [0.5, -1.0, 2.0])
        assert np.array_equal(state.running_var, [1.5, 0.25, 4.0])

    def test_batch_norm_eval_is_deterministic(self, rng):
        x = rng.standard_normal((4, 5))
        state = BatchNormState(5)
        state.running_mean = np.linspace(-1, 1, 5)
        state.running_var = np.linspace(0.5, 2.0, 5)
        gamma, beta = Tensor(np.ones(5)), Tensor(np.zeros(5))
        a = ops.batch_norm(Tensor(x), gamma, beta, state, training=False).data
        b = ops.batch_norm(Tensor(x), gamma, beta, state, training=False).data
        assert np.array_equal(a, b)

    def test_batch_norm_eval_uses_running_stats(self):
        state = BatchNormState(1)
        state.running_mean = np.array([2.0])
        state.running_var = np.array([4.0])
        out = ops.batch_norm(
            Tensor(np.array([[4.0]])), Tensor(np.ones(1)), Tensor(np.zeros(1)), state, False
        )
        assert out.data[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_dropout_eval_is_identity(self, rng):
        x = rng.standard_normal((5, 5))
        out = ops.dropout(Tensor(x), 0.5, training=False)
        assert np.array_equal(out.data, x)

    def test_dropout_train_scales_survivors(self, rng):
        x = np.ones((200, 200))
        out = ops.dropout(Tensor(x), 0.25, training=True, rng=np.random.default_rng(3)).data
        values = np.unique(out)
        assert len(values) == 2
        assert values[0] == 0.0
        assert values[1] == pytest.approx(1.0 / 0.75, abs=1e-12)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_rate_zero_keeps_everything(self, rng):
        x = rng.standard_normal((4, 4))
        out = ops.dropout(Tensor(x), 0.0, training=True, rng=np.random.default_rng(0))
        assert np.array_equal(out.data, x)


class TestCheckGradients:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = check_gradients(lambda t: ops.sum_(ops.mul(t, t)), [x])
        assert err <= 1e-8

    def test_constant_function_error_zero(self):
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        err = check_gradients(lambda t: ops.sum_(ops.mul(t, Tensor(np.zeros(2)))), [x])
        assert err == 0.0


class TestAdam:
    def test_defaults(self):
        state = AdamState({})
        assert state.lr == pytest.approx(1e-4)
        assert state.beta1 == pytest.approx(0.9)
        assert state.beta2 == pytest.approx(0.999)

    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = p.data.copy()
        adam_step({"p": np.zeros(2)}, AdamState({"p": p}))
        assert np.array_equal(p.data, before)

    def test_single_step_magnitude(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState({"p": p}, lr=1e-4)
        adam_step({"p": np.array([0.5])}, state)
        assert abs(p.data[0]) == pytest.approx(1e-4, rel=1e-6)
        assert state.t == 1

    def test_steps_are_deterministic(self, rng):
        grads = [rng.standard_normal(3) for _ in range(5)]

        def run():
            p = Tensor(np.zeros(3), requires_grad=True)
            state = AdamState({"p": p}, lr=1e-2)
            for g in grads:
                adam_step({"p": g}, state)
            return p.data.copy()

        assert np.array_equal(run(), run())


def entries(*shapes):
    """Header entries for arrays named a, b, ... of ``shapes``, packed back to back."""
    out, offset = [], 0
    for name, shape in zip("abcdefgh", shapes):
        out.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * int(np.prod(shape))
    return out


def floats(*values):
    return np.array(values, dtype="<f8").tobytes()


# Each case of the text layout's malformed-record test, keyed by its MFUSE1
# body, becomes the same fault in the binary layout: an edit of the header
# entries and payload of a saved {"w": [1.0, 2.0]}, and a phrase of the error.
MOVED_RECORD_CASES = {
    # non-integer ndim: the shape is not a list
    b"w x 2\n1.0 2.0\n": (lambda h, p: ([{**h[0], "shape": "2"}], p), "bad shape '2'"),
    # non-integer dim
    b"w 1 abc\n1.0\n": (lambda h, p: ([{**h[0], "shape": ["abc"]}], p), "bad shape ['abc']"),
    # no ndim: the entry has no shape
    b"w\n1.0\n": (lambda h, p: ([{"name": "w", "offset": 0}], p), "not a list of"),
    # negative dim
    b"w 1 -2\n\n": (lambda h, p: ([{**h[0], "shape": [-2]}], b""), "bad shape [-2]"),
    # dim count differs from ndim: the shape lists more values than the payload holds
    b"w 2 2\n1.0 2.0\n": (
        lambda h, p: ([{**h[0], "shape": [2, 2]}], p), "payload holds 16 bytes, the header lists 32"
    ),
    # non-numeric value: a header number that is text
    b"w 1 2\n1.0 oops\n": (lambda h, p: ([{**h[0], "offset": "0"}], p), "at offset '0'"),
    # value count mismatch
    b"w 1 3\n1.0 2.0\n": (
        lambda h, p: ([{**h[0], "shape": [3]}], p), "payload holds 16 bytes, the header lists 24"
    ),
    # non-finite value
    b"w 1 2\n1.0 nan\n": (lambda h, p: (h, floats(1.0, np.nan)), "non-finite value in 'w'"),
    # duplicate name
    b"w 1 1\n1.0\nw 1 1\n2.0\n": (
        lambda h, p: ([{"name": "w", "shape": [1], "offset": o} for o in (0, 8)], p),
        "duplicate array 'w'",
    ),
    # header without values
    b"w 1 2\n": (lambda h, p: (h, b""), "payload holds 0 bytes, the header lists 16"),
    # not text: a header that is not UTF-8
    b"w 1 2\n\xff\xfe\n": (
        lambda h, p: (json.dumps(h).encode().replace(b"w", b"w\xff\xfe"), p), "not UTF-8"
    ),
}


# Damaged files, each built from the bytes of a saved {"a": (2,), "b": (2, 1)},
# and a phrase of the error.
DAMAGED_FILES = {
    "short": (lambda d: d[:46], "46 bytes is too short"),
    "digest_mismatch": (lambda d: d[:-33] + bytes([d[-33] ^ 1]) + d[-32:], "digest mismatch"),
    "header_past_end": (
        lambda d: checkpoint_bytes(*checkpoint_parts(d), size=len(d)), "runs past the end"
    ),
    "header_not_json": (lambda d: checkpoint_bytes(b"[{", checkpoint_parts(d)[1]), "not JSON"),
    "header_not_list": (
        lambda d: checkpoint_bytes({"a": [2]}, checkpoint_parts(d)[1]), "not a list of"
    ),
    "entry_not_object": (
        lambda d: checkpoint_bytes([["a", [2], 0]], checkpoint_parts(d)[1]), "not a list of"
    ),
    "entry_with_extra_field": (
        lambda d: checkpoint_bytes(
            [{**e, "dtype": "<f8"} for e in entries((2,), (2, 1))], checkpoint_parts(d)[1]
        ),
        "not a list of",
    ),
    "empty_name": (
        lambda d: checkpoint_bytes([{**entries((4,))[0], "name": ""}], checkpoint_parts(d)[1]),
        "invalid array name ''",
    ),
    "name_with_space": (
        lambda d: checkpoint_bytes([{**entries((4,))[0], "name": "a b"}], checkpoint_parts(d)[1]),
        "invalid array name 'a b'",
    ),
    "bool_dim": (
        lambda d: checkpoint_bytes([{**entries((4,))[0], "shape": [True]}], floats(1.0)),
        "bad shape [True]",
    ),
    "float_dim": (
        lambda d: checkpoint_bytes([{**entries((4,))[0], "shape": [4.0]}], checkpoint_parts(d)[1]),
        "bad shape [4.0]",
    ),
    "dim_too_large_for_numpy": (
        lambda d: checkpoint_bytes([{**entries((4,))[0], "shape": [0, 2**70]}], b""),
        "bad shape [0, 1180591620717411303424]",
    ),
    "unsorted_names": (
        lambda d: checkpoint_bytes(
            [{**e, "name": n} for e, n in zip(entries((2,), (2, 1)), "ba")],
            checkpoint_parts(d)[1],
        ),
        "'a' is out of sorted order",
    ),
    "offset_gap": (
        lambda d: checkpoint_bytes(
            [entries((2,))[0], {**entries((2,), (2, 1))[1], "offset": 24}],
            checkpoint_parts(d)[1] + floats(0.0),
        ),
        "'b' at offset 24, expected 16",
    ),
    "offset_overlap": (
        lambda d: checkpoint_bytes(
            [entries((2,))[0], {**entries((2,), (2, 1))[1], "offset": 8}],
            checkpoint_parts(d)[1],
        ),
        "'b' at offset 8, expected 16",
    ),
    "trailing_payload": (
        lambda d: checkpoint_bytes(*checkpoint_parts(d[:-32] + floats(0.0) + d[-32:])),
        "payload holds 40 bytes, the header lists 32",
    ),
    "nan_value": (
        lambda d: checkpoint_bytes(checkpoint_parts(d)[0], floats(1.0, 2.0, np.nan, 4.0)),
        "non-finite value in 'b'",
    ),
    "inf_value": (
        lambda d: checkpoint_bytes(checkpoint_parts(d)[0], floats(1.0, -np.inf, 3.0, 4.0)),
        "non-finite value in 'a'",
    ),
    "text_checkpoint": (
        lambda d: b"MFUSE1\na 1 2\n1.0 2.0\nb 2 2 1\n3.0 4.0\n",
        "a text checkpoint from an earlier version of mmfuse; retrain the model",
    ),
}


def assert_rejected(path, phrase):
    with pytest.raises(CheckpointError) as caught:
        load_arrays(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: ") and "\n" not in message, message
    assert phrase in message, message


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, rng):
        arrays = {
            "a.weight": rng.standard_normal((3, 4)),
            "b.bias": rng.standard_normal(7) * 1e-17,
            "scalar": np.array(3.5),
        }
        path = tmp_path / "ck.mfuse"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert sorted(loaded) == sorted(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])

    def test_round_trip_keeps_every_bit(self, tmp_path):
        big = np.finfo(np.float64).max
        tiny = np.finfo(np.float64).smallest_subnormal
        arrays = {
            "edge": np.array([[-0.0, 0.0, tiny], [-tiny, 3 * tiny, big], [-big, 1e-310, -1e-320]]),
            "scalar": np.array(-0.0),
            "empty": np.zeros((0, 3)),
        }
        save_arrays(tmp_path / "ck", arrays)
        loaded = load_arrays(tmp_path / "ck")
        assert sorted(loaded) == sorted(arrays)
        for name, value in arrays.items():
            assert loaded[name].dtype == np.float64
            assert loaded[name].shape == value.shape
            assert loaded[name].tobytes() == value.tobytes(), name

    def test_layout(self, tmp_path):
        save_arrays(tmp_path / "ck", {"b": np.array([[3.0], [4.0]]), "a": np.array([1.0, 2.0])})
        data = (tmp_path / "ck").read_bytes()
        header, payload = checkpoint_parts(data)
        assert header == entries((2,), (2, 1))
        assert payload == floats(1.0, 2.0, 3.0, 4.0)
        assert data == checkpoint_bytes(header, payload)

    def test_save_is_bitwise_stable(self, tmp_path, rng):
        arrays = {"w": rng.standard_normal((5, 5))}
        save_arrays(tmp_path / "a", arrays)
        save_arrays(tmp_path / "b", arrays)
        assert file_sha256(tmp_path / "a") == file_sha256(tmp_path / "b")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        save_arrays(path, {"w": np.array([1.0, 2.0])})
        path.write_bytes(checkpoint_bytes(*checkpoint_parts(path.read_bytes()), magic=b"NOTAMAG"))
        assert_rejected(path, "missing MFUSE2 magic")

    @pytest.mark.parametrize("body", list(MOVED_RECORD_CASES))
    def test_malformed_record_rejected(self, tmp_path, body):
        edit, phrase = MOVED_RECORD_CASES[body]
        path = tmp_path / "bad"
        save_arrays(path, {"w": np.array([1.0, 2.0])})
        path.write_bytes(checkpoint_bytes(*edit(*checkpoint_parts(path.read_bytes()))))
        assert_rejected(path, phrase)

    @pytest.mark.parametrize("case", sorted(DAMAGED_FILES))
    def test_damaged_file_rejected(self, tmp_path, case):
        edit, phrase = DAMAGED_FILES[case]
        path = tmp_path / "bad"
        save_arrays(path, {"a": np.array([1.0, 2.0]), "b": np.array([[3.0], [4.0]])})
        path.write_bytes(edit(path.read_bytes()))
        assert_rejected(path, phrase)

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_arrays(tmp_path)
