import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfuse.autodiff import (
    AdamState,
    AutodiffError,
    BatchNormState,
    CheckpointError,
    MAGIC,
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
        state = AdamState()
        assert state.lr == pytest.approx(1e-4)
        assert state.beta1 == pytest.approx(0.9)
        assert state.beta2 == pytest.approx(0.999)

    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = p.data.copy()
        adam_step({"p": p}, {"p": np.zeros(2)}, AdamState())
        assert np.array_equal(p.data, before)

    def test_single_step_magnitude(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState(lr=1e-4)
        adam_step({"p": p}, {"p": np.array([0.5])}, state)
        assert abs(p.data[0]) == pytest.approx(1e-4, rel=1e-6)
        assert state.t == 1

    def test_steps_are_deterministic(self, rng):
        grads = [rng.standard_normal(3) for _ in range(5)]

        def run():
            p = Tensor(np.zeros(3), requires_grad=True)
            state = AdamState(lr=1e-2)
            for g in grads:
                adam_step({"p": p}, {"p": g}, state)
            return p.data.copy()

        assert np.array_equal(run(), run())


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

    def test_save_is_bitwise_stable(self, tmp_path, rng):
        arrays = {"w": rng.standard_normal((5, 5))}
        save_arrays(tmp_path / "a", arrays)
        save_arrays(tmp_path / "b", arrays)
        assert file_sha256(tmp_path / "a") == file_sha256(tmp_path / "b")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("NOTAMAGIC\n")
        with pytest.raises(CheckpointError):
            load_arrays(path)

    @pytest.mark.parametrize(
        "body",
        [
            b"w x 2\n1.0 2.0\n",  # non-integer ndim
            b"w 1 abc\n1.0\n",  # non-integer dim
            b"w\n1.0\n",  # no ndim
            b"w 1 -2\n\n",  # negative dim
            b"w 2 2\n1.0 2.0\n",  # dim count differs from ndim
            b"w 1 2\n1.0 oops\n",  # non-numeric value
            b"w 1 3\n1.0 2.0\n",  # value count mismatch
            b"w 1 2\n1.0 nan\n",  # non-finite value
            b"w 1 1\n1.0\nw 1 1\n2.0\n",  # duplicate name
            b"w 1 2\n",  # header without values
            b"w 1 2\n\xff\xfe\n",  # not text
        ],
    )
    def test_malformed_record_rejected(self, tmp_path, body):
        path = tmp_path / "bad"
        path.write_bytes(MAGIC.encode() + b"\n" + body)
        with pytest.raises(CheckpointError):
            load_arrays(path)

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_arrays(tmp_path)
