"""The conv forward's example blocks: outputs bitwise those of one whole-batch block."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmfuse import synth
from mmfuse.autodiff import BatchNormState, ops
from mmfuse.cli import build_model


@pytest.mark.parametrize(
    "n,size,want",
    [
        (0, 2, []),
        (1, 2, [(0, 1)]),
        (2, 2, [(0, 2)]),
        (5, 2, [(0, 2), (2, 5)]),
        (7, 3, [(0, 3), (3, 7)]),
        (8, 3, [(0, 3), (3, 6), (6, 8)]),
        (3, 128, [(0, 3)]),
    ],
)
def test_a_one_example_tail_joins_the_block_before_it(n, size, want):
    assert [(s.start, s.stop) for s in ops.example_blocks(n, size)] == want


def forward(op, arrays, stride, const, training, block_bytes):
    x, w, gamma, beta = arrays
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "BLOCK_BYTES", block_bytes)
        if op == "conv2d":
            return ops.conv2d(x, w, stride).data
        state = BatchNormState(w.shape[3])
        return ops.conv_bn_relu(x, w, gamma, beta, state, training, stride, const=const).data


@settings(max_examples=120, deadline=None)
@given(
    op=st.sampled_from(["conv2d", "conv_bn_relu", "conv_bn_relu_const"]),
    n=st.integers(1, 4).map(lambda k: 2 * k + 1),  # odd: 3..9
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    cin=st.integers(1, 4),
    cout=st.integers(1, 5),
    stride=st.sampled_from([1, 2]),
    training=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(op="conv_bn_relu_const", n=3, h=1, w=1, cin=2, cout=3, stride=1, training=False, seed=0)
@example(op="conv2d", n=5, h=2, w=2, cin=3, cout=4, stride=2, training=True, seed=1)  # 1x1 out
def test_two_example_blocks_are_bitwise_one_block(op, n, h, w, cin, cout, stride, training, seed):
    rng = np.random.default_rng(seed)
    cc = 3 if op == "conv_bn_relu_const" else 0
    const = rng.standard_normal((n, cc)) if cc else None
    arrays = [
        rng.standard_normal((n, h, w, cin)),
        rng.standard_normal((3, 3, cin + cc, cout)),
        rng.standard_normal(cout),
        rng.standard_normal(cout),
    ]
    op = op.removesuffix("_const")
    blocked = forward(op, arrays, stride, const, training, block_bytes=1)  # 2 examples a block
    whole = forward(op, arrays, stride, const, training, block_bytes=1 << 40)
    assert np.array_equal(blocked, whole)


# model.* keys of the desk config and of a 32-px config like perfbench's train-wide
CONFIGS = {
    "desk-TKM": {"model.variant": "TKM", "model.image_side": "16",
                 "model.backbone_channels": "8,16", "model.fusion_channels": "16"},
    "wide-SCM": {"model.variant": "SCM", "model.image_side": "32",
                 "model.backbone_channels": "16,32,64", "model.fusion_channels": "64"},
    "desk-FCM": {"model.variant": "FCM", "model.image_side": "16",
                 "model.backbone_channels": "8,16"},
}
SHARED = {"model.hidden_dim": "32", "model.embedding_dim": "16", "model.fc_plan": "32,16,2"}


@pytest.mark.parametrize("n", [37, 128])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_model_logits_are_bitwise_one_block(name, n, monkeypatch):
    """The blocks at the default budget leave every logit of the shipped layer shapes alone.

    On this OpenBLAS the rows of a multi-row GEMM can depend on the call's
    row count for some shapes (16 or more input channels with 1-3 output
    channels past a multiple of 8, or calls on both sides of its small-matrix
    kernel's size limit), so this checks the model's own layers.
    """
    cfg = {**SHARED, **CONFIGS[name], "model.seed": "3"}
    spec = synth.SynthSpec(mode="crossmodal_xor", n_train=n, n_val=0, n_test=0, seed=5,
                           image_side=int(cfg["model.image_side"]), min_tokens=1, max_tokens=9)
    vocab = synth.build_vocabulary()
    data = synth.to_model_data(synth.generate(spec)["train"], vocab)
    logits = []
    for block_bytes in (ops.BLOCK_BYTES, 1 << 40):
        monkeypatch.setattr(ops, "BLOCK_BYTES", block_bytes)
        model = build_model(cfg, len(vocab))
        for training in (False, True):
            out = model.forward(data.images, data.tweet, data.imgtext, training=training,
                                rng=np.random.default_rng(0))
            logits.append(out.data)
    assert np.array_equal(logits[0], logits[2])
    assert np.array_equal(logits[1], logits[3])
