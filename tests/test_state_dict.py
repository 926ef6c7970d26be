"""One state dict for every model: round trips, strict loading, gradients, pinned names and weights."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model
from mmfuse.autodiff import CheckpointError, backward, load_arrays, ops, save_arrays
from mmfuse.encoders import pad_ids

TWEETS = pad_ids([[1, 2], [3], [4, 5, 6]])
IMGTEXTS = pad_ids([[7], [8, 9], []])


def forward(model, images, training=False):
    return model.forward(images, TWEETS, IMGTEXTS, training=training, rng=np.random.default_rng(1))


@pytest.fixture
def images(rng):
    return rng.random((3, 8, 8, 3))


@pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM", "LSTM"])
def test_round_trip_restores_logits(variant, images, tmp_path):
    model = build_model(variant, seed=1)
    forward(model, images, training=True)  # moves the batch-norm running statistics
    before = forward(model, images).data
    save_arrays(tmp_path / "ck", model.state_dict())
    other = build_model(variant, seed=2)
    other.load_state_dict(load_arrays(tmp_path / "ck"))
    assert np.array_equal(forward(other, images).data, before)


@given(
    variant=st.sampled_from(["FCM", "SCM", "TKM", "LSTM"]),
    hidden_dim=st.integers(1, 8),
    channels=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    fusion_channels=st.integers(1, 6),
    share=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_checkpoint_round_trip_is_bitwise(
    tmp_path_factory, variant, hidden_dim, channels, fusion_channels, share, seed
):
    shapes = dict(
        hidden_dim=hidden_dim, backbone_channels=channels, fusion_channels=fusion_channels,
        share_text_encoder=share,
    )
    model = build_model(variant, seed=seed, **shapes)
    images = np.random.default_rng(seed).random((3, 8, 8, 3))
    forward(model, images, training=True)  # moves the batch-norm running statistics
    arrays = model.state_dict()
    path = tmp_path_factory.mktemp("round_trip") / "checkpoint.mfuse"
    save_arrays(path, arrays)
    other = build_model(variant, seed=seed + 1, **shapes)
    other.load_state_dict(load_arrays(path))
    restored = other.state_dict()
    assert sorted(restored) == sorted(arrays)
    for name, value in arrays.items():
        assert restored[name].shape == value.shape, name
        assert restored[name].tobytes() == value.tobytes(), name


def test_state_dict_holds_copies():
    model = build_model("TKM")
    before = model.state_dict()
    for value in model.state_dict().values():
        value += 1.0
    for name, value in model.state_dict().items():
        assert np.array_equal(value, before[name]), name


def test_state_dict_covers_running_statistics():
    names = build_model("SCM").state_dict()
    assert "backbone.stage0.bn.running_mean" in names
    assert "head.conv.bn0.running_var" in names


class TestStrictLoad:
    def test_missing_key(self):
        arrays = build_model("FCM").state_dict()
        del arrays["head.fc.out.bias"]
        with pytest.raises(CheckpointError, match="missing key 'head.fc.out.bias'"):
            build_model("FCM").load_state_dict(arrays)

    def test_unexpected_key(self):
        arrays = build_model("FCM").state_dict()
        arrays["text.head.weight"] = np.zeros((6, 2))
        with pytest.raises(CheckpointError, match="unexpected key 'text.head.weight'"):
            build_model("FCM").load_state_dict(arrays)

    def test_wrong_variant(self):
        with pytest.raises(CheckpointError, match="missing key"):
            build_model("TKM").load_state_dict(build_model("FCM").state_dict())

    def test_wrong_shape(self):
        with pytest.raises(CheckpointError, match="shape"):
            build_model("SCM").load_state_dict(build_model("SCM", hidden_dim=7).state_dict())

    def test_failed_load_copies_nothing(self):
        model = build_model("TKM", seed=1)
        before = model.state_dict()
        arrays = build_model("TKM", seed=2).state_dict()
        last = sorted(arrays)[-1]
        arrays[last] = np.zeros(arrays[last].size + 1)
        with pytest.raises(CheckpointError, match=last):
            model.load_state_dict(arrays)
        for name, value in model.state_dict().items():
            assert np.array_equal(value, before[name]), name


@pytest.mark.parametrize(
    "variant, share",
    [(v, s) for v in ("FCM", "SCM", "TKM") for s in (True, False)] + [("LSTM", True)],
)
def test_every_parameter_gets_a_gradient(variant, share, images):
    model = build_model(variant, share_text_encoder=share)
    loss = ops.softmax_cross_entropy(forward(model, images, training=True), np.array([0, 1, 1]))
    backward(loss)
    missing = [name for name, p in model.parameters().items() if p.grad is None]
    assert missing == []


def test_lstm_baseline_initial_weights_are_pinned():
    """The baseline's linear head is drawn after the encoder, from the same rng.

    The digest pins the draw order (embedding table, LSTM gates, then head),
    so the text-only baseline keeps its starting weights for a given seed.
    The packed LSTM arrays are hashed one gate's column block at a time, in
    the order the per-gate matrices were drawn, so the digest is the one the
    per-gate LSTM gave.
    """
    hidden = 5
    model = build_model("LSTM", vocab_size=11, embedding_dim=4, hidden_dim=hidden, seed=7)
    arrays = model.state_dict()
    assert sorted(arrays) == [
        "head.fc.out.bias", "head.fc.out.weight",
        "text.embed", "text.lstm.U", "text.lstm.W", "text.lstm.b",
    ]
    blocks = [
        arrays[f"text.lstm.{kind}"][..., k * hidden : (k + 1) * hidden]
        for k in range(4)
        for kind in "WUb"
    ]
    pieces = [arrays["text.embed"], *blocks, arrays["head.fc.out.weight"], arrays["head.fc.out.bias"]]
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in pieces)).hexdigest()
    assert digest == "e440cad9fe3ec142c4aeec9635010bb7355a1cd35a7fcbdd4d2572126ab7c262"


# Names and shapes of the state dicts ``build_model`` makes. Saved checkpoints load
# strictly by them, so a layer refactor must leave them as they are.
ENCODER_KEYS = {
    "backbone.stage0.bn.beta": (4,),
    "backbone.stage0.bn.gamma": (4,),
    "backbone.stage0.bn.running_mean": (4,),
    "backbone.stage0.bn.running_var": (4,),
    "backbone.stage0.conv.weight": (3, 3, 3, 4),
    "backbone.stage1.bn.beta": (8,),
    "backbone.stage1.bn.gamma": (8,),
    "backbone.stage1.bn.running_mean": (8,),
    "backbone.stage1.bn.running_var": (8,),
    "backbone.stage1.conv.weight": (3, 3, 4, 8),
    "text.embed": (20, 5),
    "text.lstm.U": (6, 24),
    "text.lstm.W": (5, 24),
    "text.lstm.b": (24,),
}
IMGTEXT_KEYS = {
    "imgtext.embed": (20, 5),
    "imgtext.lstm.U": (6, 24),
    "imgtext.lstm.W": (5, 24),
    "imgtext.lstm.b": (24,),
}
HEAD_KEYS = {
    "FCM": {
        "head.fc.bn0.beta": (10,),
        "head.fc.bn0.gamma": (10,),
        "head.fc.bn0.running_mean": (10,),
        "head.fc.bn0.running_var": (10,),
        "head.fc.fc0.weight": (20, 10),
        "head.fc.out.bias": (2,),
        "head.fc.out.weight": (10, 2),
    },
    "SCM": {
        "head.conv.bn0.beta": (5,),
        "head.conv.bn0.gamma": (5,),
        "head.conv.bn0.running_mean": (5,),
        "head.conv.bn0.running_var": (5,),
        "head.conv.bn1.beta": (5,),
        "head.conv.bn1.gamma": (5,),
        "head.conv.bn1.running_mean": (5,),
        "head.conv.bn1.running_var": (5,),
        "head.conv.conv0.weight": (3, 3, 20, 5),
        "head.conv.conv1.weight": (3, 3, 5, 5),
        "head.fc.bn0.beta": (10,),
        "head.fc.bn0.gamma": (10,),
        "head.fc.bn0.running_mean": (10,),
        "head.fc.bn0.running_var": (10,),
        "head.fc.fc0.weight": (5, 10),
        "head.fc.out.bias": (2,),
        "head.fc.out.weight": (10, 2),
    },
    "TKM": {
        "head.conv.bn0.beta": (5,),
        "head.conv.bn0.gamma": (5,),
        "head.conv.bn0.running_mean": (5,),
        "head.conv.bn0.running_var": (5,),
        "head.conv.bn1.beta": (5,),
        "head.conv.bn1.gamma": (5,),
        "head.conv.bn1.running_mean": (5,),
        "head.conv.bn1.running_var": (5,),
        "head.conv.conv0.weight": (3, 3, 17, 5),
        "head.conv.conv1.weight": (3, 3, 5, 5),
        "head.fc.bn0.beta": (10,),
        "head.fc.bn0.gamma": (10,),
        "head.fc.bn0.running_mean": (10,),
        "head.fc.bn0.running_var": (10,),
        "head.fc.fc0.weight": (5, 10),
        "head.fc.out.bias": (2,),
        "head.fc.out.weight": (10, 2),
        "head.kernels.bn.beta": (5,),
        "head.kernels.bn.gamma": (5,),
        "head.kernels.bn.running_mean": (5,),
        "head.kernels.bn.running_var": (5,),
        "head.kernels.imgtext.bias": (16,),
        "head.kernels.imgtext.weight": (6, 16),
        "head.kernels.tweet.bias": (24,),
        "head.kernels.tweet.weight": (6, 24),
    },
}


@pytest.mark.parametrize("share_text_encoder", [True, False])
@pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM"])
def test_state_dict_keys_are_pinned(variant, share_text_encoder):
    expected = {**ENCODER_KEYS, **HEAD_KEYS[variant]}
    if not share_text_encoder:
        expected.update(IMGTEXT_KEYS)
    state = build_model(variant, share_text_encoder=share_text_encoder).state_dict()
    assert sorted((name, value.shape) for name, value in state.items()) == sorted(expected.items())
