"""``no_grad``: tape-free forwards, and scoring that runs inside one."""

import numpy as np
import pytest

from conftest import build_model as build
from mmfuse.autodiff import Tensor, backward, no_grad, ops
from mmfuse import training
from mmfuse.training import HATE, ModelData, score_dataset

VARIANTS = ["FCM", "SCM", "TKM", "LSTM"]


def data(n=10, seed=0):
    rng = np.random.default_rng(seed)
    texts = [list(rng.integers(1, 20, rng.integers(0, 5))) for _ in range(2 * n)]
    return ModelData.from_id_lists(
        images=rng.random((n, 8, 8, 3)),
        tweet_ids=texts[:n],
        imgtext_ids=texts[n:],
        labels=np.arange(n) % 2,
    )


def taped_scores(model, split, batch_size=4):
    """``score_dataset`` without ``no_grad``: every batch builds its tape."""
    scores = []
    for start in range(0, len(split), batch_size):
        batch = split.subset(np.arange(start, min(start + batch_size, len(split))))
        logits = model.forward(batch.images, batch.tweet, batch.imgtext, training=False)
        assert logits.requires_grad
        scores.extend(ops.softmax(logits, axis=1).data[:, HATE])
    return scores


def records_tape():
    return ops.mul(Tensor(np.ones(3), requires_grad=True), 2.0).requires_grad


def test_ops_inside_record_no_tape(rng):
    x = Tensor(rng.standard_normal((2, 4, 4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 3, 2)), requires_grad=True)
    with no_grad():
        outs = [
            ops.conv2d(x, w, stride=1),
            ops.relu(ops.add(x, x)),
            ops.matmul(ops.reshape(x, (32, 3)), w.data[0, 0]),
        ]
    for out in outs:
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backprop is None
    assert np.array_equal(outs[0].data, ops.conv2d(x, w, stride=1).data)


def test_flag_restored_after_nesting():
    with no_grad():
        with no_grad():
            assert not records_tape()
        assert not records_tape()
    assert records_tape()


def test_flag_restored_after_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert records_tape()


@pytest.mark.parametrize("variant", VARIANTS)
def test_scores_bitwise_equal_to_taped_scoring(variant, monkeypatch):
    model, split = build(variant), data()
    monkeypatch.setattr(training, "SCORE_BATCH", 4)
    got = [s.score for s in score_dataset(model, split)]
    assert got == taped_scores(model, split)


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_step_after_scoring_reaches_every_parameter(variant):
    model, split = build(variant), data()
    score_dataset(model, split)
    logits = model.forward(
        split.images, split.tweet, split.imgtext, training=True,
        rng=np.random.default_rng(1),
    )
    backward(ops.softmax_cross_entropy(logits, split.labels))
    missing = [name for name, p in model.parameters().items() if p.grad is None]
    assert missing == []
