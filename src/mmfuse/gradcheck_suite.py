"""The gradient-check suite run by the CLI verb and the acceptance tests.

Each entry pairs a named forward function with seeded inputs; the scalarizing
probe (a fixed random linear functional through tanh) keeps gradients well
conditioned so finite differences are meaningful. Pointwise-kink inputs
(relu) are sampled away from zero.
"""

from __future__ import annotations

import numpy as np

from .autodiff import BatchNormState, Tensor, check_gradients, ops
from .fusion import FusionHead, InputMask, ModelSpec

TOLERANCE = 1e-4
EPS = 1e-5


def _probe(rng, logits_like):
    weights = Tensor(rng.standard_normal(logits_like))

    def scalarize(t):
        return ops.sum_(ops.mul(ops.tanh(t), weights))

    return scalarize


def _eval_state(channels):
    """Running statistics away from the initial ones, for eval-mode checks."""
    state = BatchNormState(channels)
    state.running_mean = np.linspace(-0.5, 0.5, channels)
    state.running_var = np.linspace(0.5, 1.5, channels)
    return state


def _away_from_zero(rng, shape, margin=0.05):
    values = rng.uniform(margin, 1.0, shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return values * signs


def primitive_checks(seed=0):
    """Yield (name, fn, inputs) triples covering every differentiable primitive."""
    rng = np.random.default_rng(seed)

    def t(shape, kink=False):
        data = _away_from_zero(rng, shape) if kink else rng.standard_normal(shape)
        return Tensor(data, requires_grad=True)

    checks = []

    def case(name, fn, *inputs):
        checks.append((name, fn, list(inputs)))

    s = _probe(rng, (3, 4))
    case("add_broadcast", lambda a, b: s(ops.add(a, b)), t((3, 4)), t((4,)))
    case("mul", lambda a, b: s(ops.mul(a, b)), t((3, 4)), t((3, 4)))
    sm = _probe(rng, (3, 5))
    case("matmul", lambda a, b: sm(ops.matmul(a, b)), t((3, 4)), t((4, 5)))
    case("relu", lambda a: s(ops.relu(a)), t((3, 4), kink=True))
    case("sigmoid", lambda a: s(ops.sigmoid(a)), t((3, 4)))
    case("tanh", lambda a: s(ops.tanh(a)), t((3, 4)))
    case("sum", lambda a: ops.sum_(a), t((3, 4)))
    case("reshape", lambda a: s(ops.reshape(a, (3, 4))), t((4, 3)))
    sc = _probe(rng, (2, 7))
    case("concat", lambda a, b: sc(ops.concat([a, b], axis=1)), t((2, 3)), t((2, 4)))
    st = _probe(rng, (2, 2, 2, 3))
    case("tile_spatial", lambda a: st(ops.tile_spatial(a, 2, 2)), t((2, 3)))
    s_conv = _probe(rng, (2, 3, 3, 4))
    case(
        "conv2d",
        lambda x, w: s_conv(ops.conv2d(x, w, stride=2)),
        t((2, 5, 5, 3)),
        t((3, 3, 3, 4)),
    )
    s_dyn = _probe(rng, (2, 3, 3, 4))
    case(
        "dynamic_conv1x1",
        lambda v, k: s_dyn(ops.dynamic_conv1x1(v, k)),
        t((2, 3, 3, 5)),
        t((2, 4, 5)),
    )
    s_pool = _probe(rng, (2, 5))
    case("avg_pool_spatial", lambda x: s_pool(ops.avg_pool_spatial(x)), t((2, 3, 3, 5)))

    s_bn = _probe(rng, (4, 3, 3, 5))
    case(
        "batch_norm_train",
        lambda x, g, b: s_bn(ops.batch_norm(x, g, b, BatchNormState(5), training=True)),
        t((4, 3, 3, 5)),
        t((5,)),
        t((5,)),
    )

    case(
        "batch_norm_eval",
        lambda x, g, b: s_bn(ops.batch_norm(x, g, b, _eval_state(5), training=False)),
        t((4, 3, 3, 5)),
        t((5,)),
        t((5,)),
    )

    case(
        "dropout_train",
        lambda x: s(ops.dropout(x, 0.4, training=True, rng=np.random.default_rng(11))),
        t((3, 4)),
    )
    ids = rng.integers(0, 7, (3, 2))
    s_emb = _probe(rng, (3, 2, 4))
    case("embedding", lambda w: s_emb(ops.embedding(w, ids)), t((7, 4)))
    s2 = _probe(rng, (4, 3))
    case("softmax", lambda x: s2(ops.softmax(x, axis=1)), t((4, 3)))
    labels = rng.integers(0, 2, 6)
    case(
        "softmax_cross_entropy_weighted",
        lambda x: ops.softmax_cross_entropy(x, labels, [1.7, 0.3]),
        t((6, 2)),
    )
    lengths = np.array([2, 0, 4])  # mixed, with an empty and a full-length sequence
    s_lstm = _probe(rng, (3, 2))
    case(
        "lstm_sequence",
        lambda x, w, u, b: s_lstm(ops.lstm_sequence(x, w, u, b, lengths)),
        t((3, 4, 3)),
        t((3, 8)),
        t((2, 8)),
        t((8,)),
    )
    s_conv1 = _probe(rng, (2, 4, 4, 3))  # the fusion blocks' shape: 4x4 map, 3x3 kernel
    case(
        "conv2d_stride1",
        lambda x, w: s_conv1(ops.conv2d(x, w, stride=1)),
        t((2, 4, 4, 5)),
        t((3, 3, 5, 3)),
    )
    images = Tensor(rng.standard_normal((2, 5, 5, 3)))  # like the backbone's input: no gradient
    case(
        "conv2d_const_input",
        lambda x, w: s_conv(ops.conv2d(x, w, stride=2)),
        images,
        t((3, 3, 3, 4)),
    )
    s_block = _probe(rng, (2, 4, 4, 3))  # a fusion block: 4x4 map plus constant text channels
    case(
        "conv_bn_relu_const_train",
        lambda x, w, g, be, c: s_block(
            ops.conv_bn_relu(x, w, g, be, BatchNormState(3), True, stride=1, const=c)
        ),
        t((2, 4, 4, 3)),
        t((3, 3, 7, 3)),
        t((3,)),
        t((3,)),
        t((2, 4)),
    )
    case(
        "conv_bn_relu_stride2_eval",
        lambda x, w, g, be: s_conv(ops.conv_bn_relu(x, w, g, be, _eval_state(4), False, stride=2)),
        t((2, 5, 5, 3)),
        t((3, 3, 3, 4)),
        t((4,)),
        t((4,)),
    )
    case(
        "conv_bn_relu_const_eval",
        lambda x, w, g, be, c: s_block(
            ops.conv_bn_relu(x, w, g, be, _eval_state(3), False, stride=1, const=c)
        ),
        t((2, 4, 4, 3)),
        t((3, 3, 7, 3)),
        t((3,)),
        t((3,)),
        t((2, 4)),
    )
    case(
        "conv_bn_relu_stride2_train",
        lambda x, w, g, be: s_conv(ops.conv_bn_relu(x, w, g, be, BatchNormState(4), True, stride=2)),
        t((2, 5, 5, 3)),
        t((3, 3, 3, 4)),
        t((4,)),
        t((4,)),
    )
    return checks


def model_checks(seed=0, hidden_dim=32):
    """Full fusion forwards at the desk configuration (4x4x64 map, K=4+2)."""
    rng = np.random.default_rng(seed)
    checks = []
    for variant in ("FCM", "SCM", "TKM"):
        spec = ModelSpec(
            variant=variant,
            image_side=8,
            backbone_channels=(64,),  # one stride-2 stage: a 4x4x64 map
            embedding_dim=16,
            hidden_dim=hidden_dim,
            tweet_kernels=4,
            imgtext_kernels=2,
            fc_plan=(32, 16, 2),
            fusion_channels=16,
            dropout_rate=0.3,
            share_text_encoder=True,
            seed=seed,
            mask=InputMask(),
        )
        head = FusionHead(spec, np.random.default_rng([seed, ("FCM", "SCM", "TKM").index(variant)]))
        if variant == "FCM":
            v_input = Tensor(rng.standard_normal((3, 64)), requires_grad=True)
        else:
            v_input = Tensor(rng.standard_normal((3, 4, 4, 64)), requires_grad=True)
        t_tweet = Tensor(rng.standard_normal((3, hidden_dim)), requires_grad=True)
        t_imgtext = Tensor(rng.standard_normal((3, hidden_dim)), requires_grad=True)
        probe = _probe(rng, (3, 2))

        def fn(v, tt, it, _head=head, _probe=probe):
            logits = _head(v, tt, it, training=True, rng=np.random.default_rng(5))
            return _probe(logits)

        checks.append((f"model_{variant.lower()}", fn, [v_input, t_tweet, t_imgtext]))
    return checks


def run_suite(seed=0):
    """Run all checks; returns a list of (name, max_rel_error, passed)."""
    results = []
    for name, fn, inputs in primitive_checks(seed) + model_checks(seed):
        err = check_gradients(fn, inputs, eps=EPS)
        results.append((name, err, err <= TOLERANCE))
    return results
