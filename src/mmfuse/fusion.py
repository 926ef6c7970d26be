"""The three multimodal fusion heads and the models built around them.

FCM concatenates the pooled visual vector with both text encodings and runs a
fully connected stack. SCM tiles the text encodings at every spatial location
of the visual feature map before further convolution. TKM generates 1x1
convolution kernels from each text encoding, convolves them with the visual
map, then proceeds like SCM. The tiling is folded into the first fusion conv,
which takes the text encodings as spatially constant input channels
(``ops.conv_bn_relu``'s ``const``).

One :class:`ModelSpec` holds a model's shape. Its :class:`InputMask` decides
which modules exist: a model draws no weights for an input it does not read,
and its head fuses only the inputs it has. The text-only LSTM baseline is an
FCM over tweet text whose head is one linear layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatch, Tensor, ops
from .encoders import STRIDE, TextEncoder, VisionBackbone
from .nn import BatchNorm, ConvBlock, Dense, Layer, glorot

VARIANTS = ("FCM", "SCM", "TKM")


@dataclass(frozen=True)
class InputMask:
    """Which of the three inputs a model sees: tweet text, image text, image."""

    tweet_text: bool = True
    image_text: bool = True
    image: bool = True

    def __post_init__(self):
        if not (self.tweet_text or self.image_text or self.image):
            raise ValueError("at least one input must be available")

    def label(self):
        parts = [
            name
            for flag, name in [(self.tweet_text, "TT"), (self.image_text, "IT"), (self.image, "I")]
            if flag
        ]
        return ",".join(parts)

    @classmethod
    def parse(cls, text):
        parts = {p.strip().upper() for p in text.split(",") if p.strip()}
        unknown = parts - {"TT", "IT", "I"}
        if unknown:
            raise ValueError(f"unknown input names {sorted(unknown)}; use TT, IT, I")
        return cls(tweet_text="TT" in parts, image_text="IT" in parts, image="I" in parts)


FUSION_BLOCKS = 2  # the conv blocks of an SCM or TKM head


def _sum(parts):
    """(total extent, key of the largest part) of (extent, key) parts."""
    return sum(e for e, _ in parts), max(parts, key=lambda p: p[0], default=(0, None))[1]


def check_weight_size(key, shape):
    """Raise a ValueError naming ``key`` when a float64 ``shape`` passes ``sys.maxsize`` bytes."""
    size = 8 * math.prod(shape)
    if size > sys.maxsize:
        raise ValueError(
            f"{key} makes a {shape} weight array of {size} bytes, "
            f"more than one array can hold ({sys.maxsize})"
        )


@dataclass(frozen=True)
class ModelSpec:
    """A model's shape: the ``model.*`` keys without their prefix, and the input mask.

    The config table gives every field its default; the spec repeats none.
    The visual map's depth and side follow from the backbone.
    """

    variant: str
    image_side: int
    backbone_channels: tuple
    embedding_dim: int
    hidden_dim: int
    tweet_kernels: int  # K_t; reference value 10
    imgtext_kernels: int  # K_it; reference value 5
    fc_plan: tuple
    fusion_channels: int
    dropout_rate: float
    share_text_encoder: bool
    seed: int
    mask: InputMask

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("image_side", "embedding_dim", "hidden_dim", "fusion_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("backbone_channels", "fc_plan"):
            widths = getattr(self, name)
            if not widths or min(widths) < 1:
                raise ValueError(f"{name} must be one or more widths >= 1, got {widths}")
        if self.fc_plan[-1] != 2:
            raise ValueError("fc_plan must end in the 2-class layer")
        if self.variant == "TKM" and min(self.texts.values(), default=1) < 1:
            raise ValueError("TKM needs at least one kernel per text input")
        if self.variant == "TKM" and not (self.mask.tweet_text or self.mask.image_text):
            # the kernels come from the texts: without one the model scores every example alike
            raise ValueError(
                f"model.variant=TKM makes its kernels from TT or IT, not {self.mask.label()}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        dims = max(self._weight_dims(), key=lambda d: math.prod(e for e, _ in d))
        check_weight_size(max(dims, key=lambda d: d[0])[1], tuple(e for e, _ in dims))

    @classmethod
    def reference(cls, variant="TKM"):
        """The paper's scale: an 8x8x2048 visual map, 150-unit LSTMs, 10 + 5 kernels."""
        return cls(
            variant=variant,
            image_side=256,
            backbone_channels=(128, 256, 512, 1024, 2048),
            embedding_dim=100,
            hidden_dim=150,
            tweet_kernels=10,
            imgtext_kernels=5,
            fc_plan=(1024, 512, 2),
            fusion_channels=2048,
            dropout_rate=0.5,
            share_text_encoder=True,
            seed=0,
            mask=InputMask(),
        )

    def _weight_dims(self):
        """Every weight array the model draws, as (extent, key) pairs, one per dimension.

        ``key`` is the ``model.*`` key that sets the extent, or the key of the
        largest part of a sum of widths; a kernel side has none. The embedding
        table is left out: its rows are the vocabulary, which the spec does
        not hold.
        """
        side, hidden = (3, None), (self.hidden_dim, "model.hidden_dim")
        visual = (self.visual_dim, "model.backbone_channels")
        texts = [hidden] * len(self.texts)
        arrays = []
        if self.mask.image:
            widths = [(3, None)] + [(c, "model.backbone_channels") for c in self.backbone_channels]
            arrays += [(side, side, a, b) for a, b in zip(widths, widths[1:])]
        if self.texts:  # the LSTM's W and U
            gates = (4 * self.hidden_dim, "model.hidden_dim")
            arrays += [((self.embedding_dim, "model.embedding_dim"), gates), (hidden, gates)]
        if self.variant == "FCM":
            fc_in = _sum([visual] * self.mask.image + texts)
        else:
            maps = [visual] if self.mask.image else []
            if self.variant == "TKM" and self.mask.image:
                counts = [(c, f"model.{name}_kernels") for name, c in self.texts.items()]
                for count in counts:  # a generator's (hidden_dim, count * visual_dim) weight
                    wide = max(count, visual, key=lambda p: p[0])[1]
                    arrays.append((hidden, (count[0] * self.visual_dim, wide)))
                maps = [_sum(counts)]
            fusion = (self.fusion_channels, "model.fusion_channels")
            arrays += [(side, side, _sum(maps + texts), fusion), (side, side, fusion, fusion)]
            fc_in = fusion
        widths = [fc_in] + [(w, "model.fc_plan") for w in self.fc_plan]
        return arrays + list(zip(widths, widths[1:]))

    @property
    def visual_dim(self):
        """Channels of the visual map and length of its pooled vector."""
        return self.backbone_channels[-1]

    @property
    def map_side(self):
        side = self.image_side
        for _ in self.backbone_channels:
            side = -(-side // STRIDE)  # same-padded stride reduction
        return side

    @property
    def texts(self):
        """The TKM kernel count of each text the mask keeps: ``tweet`` K_t, ``imgtext`` K_it."""
        counts = {"tweet": self.tweet_kernels, "imgtext": self.imgtext_kernels}
        kept = {"tweet": self.mask.tweet_text, "imgtext": self.mask.image_text}
        return {name: count for name, count in counts.items() if kept[name]}

    @property
    def concat_dim(self):
        """FCM concatenation length: the visual vector and the text vectors the mask keeps."""
        return self.visual_dim * self.mask.image + self.hidden_dim * len(self.texts)

    @property
    def kernel_count(self):
        return sum(self.texts.values())


class _FcStack(Layer):
    """fc -> BN -> relu pairs, ending in a plain linear classification layer.

    A hidden fc layer is a weight only, ``fc{i}.weight``: the batch norm after
    it would cancel a bias.
    """

    def __init__(self, in_dim, plan, rng):
        self.blocks = []
        for out_dim in plan[:-1]:
            weight = Tensor(glorot(rng, in_dim, out_dim, (in_dim, out_dim)), requires_grad=True)
            self.blocks.append((weight, BatchNorm(out_dim)))
            in_dim = out_dim
        self.final = Dense(in_dim, plan[-1], rng)

    def __call__(self, x, training):
        for weight, bn in self.blocks:
            x = ops.relu(bn(ops.matmul(x, weight), training))
        return self.final(x)

    def _children(self):
        children = {f"bn{i}": bn for i, (_, bn) in enumerate(self.blocks)}
        children["out"] = self.final
        return children

    def parameters(self):
        weights = {f"fc{i}.weight": weight for i, (weight, _) in enumerate(self.blocks)}
        return {**weights, **super().parameters()}


class _ConvStack(Layer):
    """conv3x3 -> BN -> relu fusion blocks standing in for Inception-E blocks.

    ``in_ch`` counts the map's channels and the first block's ``const`` ones.
    """

    def __init__(self, in_ch, out_ch, rng):
        self.blocks = []
        for _ in range(FUSION_BLOCKS):
            self.blocks.append(ConvBlock(in_ch, out_ch, rng))
            in_ch = out_ch

    def __call__(self, x, training, const):
        for block in self.blocks:
            x = block(x, training, const)
            const = None  # the text channels enter the first block only
        return x

    def _children(self):
        return {f"bn{i}": block.bn for i, block in enumerate(self.blocks)}

    def parameters(self):
        weights = {f"conv{i}.weight": block.weight for i, block in enumerate(self.blocks)}
        return {**weights, **super().parameters()}


class FusionHead(Layer):
    """The FCM, SCM or TKM fusion head over the pre-encoded inputs its mask keeps.

    A TKM draws one kernel generator per kept text, and only when the mask
    keeps the image they are applied to; ``kernels.bn`` exists with them.
    """

    def __init__(self, spec, rng):
        self.spec = spec
        self.kernel_gens = {}
        if spec.variant == "FCM":
            self.fc = _FcStack(spec.concat_dim, spec.fc_plan, rng)
            return
        map_depth = spec.visual_dim if spec.mask.image else 0  # without I the texts fuse alone
        if spec.variant == "TKM" and spec.mask.image:  # kernels need a map to apply them to
            for name, count in spec.texts.items():
                self.kernel_gens[name] = Dense(spec.hidden_dim, count * spec.visual_dim, rng)
            self.kernel_bn = BatchNorm(spec.kernel_count)
            map_depth = spec.kernel_count
        fused_depth = map_depth + spec.hidden_dim * len(spec.texts)
        self.conv = _ConvStack(fused_depth, spec.fusion_channels, rng)
        self.fc = _FcStack(spec.fusion_channels, spec.fc_plan, rng)

    def make_textual_kernels(self, t_text, which):
        """Affine-map a text encoding to a bank of 1x1 kernels (N, K, D_v).

        One independent affine map per kernel; implemented as a single dense
        layer whose output is split, which is parameter-for-parameter the same
        as K separate layers.
        """
        flat = self.kernel_gens[which](t_text)
        return ops.reshape(flat, (flat.shape[0], self.spec.texts[which], self.spec.visual_dim))

    def __call__(self, v_input, t_tweet, t_imgtext, training=False, rng=None):
        """2-class logits from ``v_input`` and the (N, hidden_dim) text encodings.

        ``v_input`` is the pooled (N, visual_dim) vector for FCM and the
        (N, map_side, map_side, visual_dim) map for SCM and TKM. An input the
        mask does not keep is None.
        """
        spec, mask = self.spec, self.spec.mask
        fcm = spec.variant == "FCM"
        visual = (spec.visual_dim,) if fcm else (spec.map_side, spec.map_side, spec.visual_dim)
        for name, t, expected, kept in [
            ("v_pool" if fcm else "v_map", v_input, visual, mask.image),
            ("t_tweet", t_tweet, (spec.hidden_dim,), mask.tweet_text),
            ("t_imgtext", t_imgtext, (spec.hidden_dim,), mask.image_text),
        ]:
            if (None if t is None else t.shape[1:]) != (expected if kept else None):
                want = f"(N, {', '.join(map(str, expected))})" if kept else "None"
                got = None if t is None else t.shape
                raise ShapeMismatch(
                    spec.variant.lower() + "_forward",
                    f"{name} must be {want} under mask {mask.label()}, got {got}",
                )
        texts = {"tweet": t_tweet, "imgtext": t_imgtext}
        texts = {name: t for name, t in texts.items() if t is not None}
        if fcm:
            present = [t for t in (v_input, *texts.values()) if t is not None]
            return self.fc(ops.concat(present, axis=1), training)
        if v_input is None:  # a 0-channel map: the texts alone enter the first fusion conv
            n = next(iter(texts.values())).shape[0]
            x = Tensor(np.zeros((n, spec.map_side, spec.map_side, 0)))
        elif self.kernel_gens:
            kernels = [self.make_textual_kernels(t, name) for name, t in texts.items()]
            x = self.kernel_bn(ops.dynamic_conv1x1(v_input, ops.concat(kernels, axis=1)), training)
        else:
            x = v_input
        # the text encodings enter the first fusion conv at every pixel
        const = ops.concat(list(texts.values()), axis=1) if texts else None
        x = self.conv(x, training, const=const)
        x = ops.dropout(x, spec.dropout_rate, training, rng)
        return self.fc(ops.avg_pool_spatial(x), training)

    def _children(self):
        children = {}
        if self.spec.variant != "FCM":
            children["conv"] = self.conv
            children.update((f"kernels.{name}", gen) for name, gen in self.kernel_gens.items())
            if self.kernel_gens:
                children["kernels.bn"] = self.kernel_bn
        children["fc"] = self.fc
        return children


class MultimodalModel(Layer):
    """Backbone, text encoders and fusion head over raw batch inputs.

    ``spec.mask`` is the one place the model's inputs are chosen, and the
    model builds only what the mask reaches: the backbone with ``I``, the
    tweet encoder with ``TT``, and an image-text encoder with ``IT``. The same
    LSTM encodes both texts unless ``share_text_encoder`` is off. Training and
    scoring both read the mask; an input outside it is never read. Weights are
    drawn from ``spec.seed``: backbone, encoders, then head.
    """

    def __init__(self, vocab_size, spec):
        rng = np.random.default_rng(spec.seed)
        self.spec = spec
        self.mask = mask = spec.mask
        self.backbone = None
        if mask.image:
            self.backbone = VisionBackbone(spec.image_side, spec.backbone_channels, rng)
        share = spec.share_text_encoder
        encoder = lambda: TextEncoder(vocab_size, spec.embedding_dim, spec.hidden_dim, rng)
        self.text_encoder = encoder() if mask.tweet_text or (share and mask.image_text) else None
        self.imgtext_encoder = None
        if mask.image_text:
            self.imgtext_encoder = self.text_encoder if share else encoder()
        self.head = FusionHead(spec, rng)

    def forward(self, images, tweet, imgtext, training=False, rng=None):
        """2-class logits for a batch.

        ``images`` is an (N, S, S, 3) array or Tensor; ``tweet`` and
        ``imgtext`` are :func:`~mmfuse.encoders.pad_ids` pairs. Inputs outside
        ``self.mask`` are not read.
        """
        mask = self.mask
        t_tweet = self.text_encoder.encode(tweet) if mask.tweet_text else None
        t_imgtext = self.imgtext_encoder.encode(imgtext) if mask.image_text else None
        v_input = None
        if mask.image:
            v_pool, v_map = self.backbone(images, training)
            v_input = v_pool if self.spec.variant == "FCM" else v_map
        return self.head(v_input, t_tweet, t_imgtext, training=training, rng=rng)

    def _children(self):
        children = {"backbone": self.backbone, "text": self.text_encoder, "head": self.head}
        if not self.spec.share_text_encoder:
            children["imgtext"] = self.imgtext_encoder
        return {name: child for name, child in children.items() if child is not None}
