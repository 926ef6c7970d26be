"""The three multimodal fusion heads and the models built around them.

FCM concatenates the pooled visual vector with both text encodings and runs a
fully connected stack. SCM tiles the text encodings at every spatial location
of the visual feature map before further convolution. TKM generates 1x1
convolution kernels from each text encoding, convolves them with the visual
map, then proceeds like SCM. The tiling is folded into the first fusion conv,
which takes the text encodings as spatially constant input channels
(``ops.conv_bn_relu``'s ``const``).

The config's :class:`InputMask` decides which modules exist: a model draws
no weights for an input it does not read, and its head fuses only the inputs
it has. The text-only LSTM baseline is an FCM over tweet text whose head is
one linear layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatch, Tensor, ops
from .encoders import TextEncoder, TextEncoderConfig, VisionBackbone, VisionBackboneConfig
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


@dataclass
class FusionModelConfig:
    variant: str = "TKM"
    visual_dim: int = 64  # pooled-vector / feature-map channel count
    map_side: int = 4
    hidden_dim: int = 150
    tweet_kernels: int = 4  # K_t; reference value 10
    imgtext_kernels: int = 2  # K_it; reference value 5
    fc_plan: tuple = (128, 64, 2)
    fusion_block_count: int = 2
    fusion_channels: int = 64
    dropout_rate: float = 0.5
    mask: InputMask = InputMask()

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("visual_dim", "map_side", "hidden_dim", "fusion_channels", "fusion_block_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.fc_plan or min(self.fc_plan) < 1:
            raise ValueError(f"fc_plan must be one or more widths >= 1, got {self.fc_plan}")
        if self.fc_plan[-1] != 2:
            raise ValueError("fc_plan must end in the 2-class layer")
        if self.variant == "TKM" and (self.tweet_kernels < 1 or self.imgtext_kernels < 1):
            raise ValueError("TKM needs at least one kernel per text input")
        if self.variant == "TKM" and not (self.mask.tweet_text or self.mask.image_text):
            # the kernels come from the texts: without one the model scores every example alike
            raise ValueError(
                f"model.variant=TKM makes its kernels from TT or IT, not {self.mask.label()}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @classmethod
    def reference(cls, variant="TKM"):
        return cls(
            variant=variant,
            visual_dim=2048,
            map_side=8,
            hidden_dim=150,
            tweet_kernels=10,
            imgtext_kernels=5,
            fc_plan=(1024, 512, 2),
            fusion_channels=2048,
        )

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

    def __init__(self, in_ch, out_ch, count, rng):
        self.blocks = []
        for _ in range(count):
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

    def __init__(self, config, rng):
        self.config = cfg = config
        self.kernel_gens = {}
        if cfg.variant == "FCM":
            self.fc = _FcStack(cfg.concat_dim, cfg.fc_plan, rng)
            return
        map_depth = cfg.visual_dim  # the visual map, or its zero stand-in without an image
        if cfg.variant == "TKM" and cfg.mask.image:  # kernels need a map to apply them to
            for name, count in cfg.texts.items():
                self.kernel_gens[name] = Dense(cfg.hidden_dim, count * cfg.visual_dim, rng)
            self.kernel_bn = BatchNorm(cfg.kernel_count)
            map_depth = cfg.kernel_count
        fused_depth = map_depth + cfg.hidden_dim * len(cfg.texts)
        self.conv = _ConvStack(fused_depth, cfg.fusion_channels, cfg.fusion_block_count, rng)
        self.fc = _FcStack(cfg.fusion_channels, cfg.fc_plan, rng)

    def make_textual_kernels(self, t_text, which):
        """Affine-map a text encoding to a bank of 1x1 kernels (N, K, D_v).

        One independent affine map per kernel; implemented as a single dense
        layer whose output is split, which is parameter-for-parameter the same
        as K separate layers.
        """
        flat = self.kernel_gens[which](t_text)
        return ops.reshape(flat, (flat.shape[0], self.config.texts[which], self.config.visual_dim))

    def __call__(self, v_input, t_tweet, t_imgtext, training=False, rng=None):
        """2-class logits from ``v_input`` and the (N, hidden_dim) text encodings.

        ``v_input`` is the pooled (N, visual_dim) vector for FCM and the
        (N, map_side, map_side, visual_dim) map for SCM and TKM. An input the
        mask does not keep is None.
        """
        cfg, mask = self.config, self.config.mask
        fcm = cfg.variant == "FCM"
        visual = (cfg.visual_dim,) if fcm else (cfg.map_side, cfg.map_side, cfg.visual_dim)
        for name, t, expected, kept in [
            ("v_pool" if fcm else "v_map", v_input, visual, mask.image),
            ("t_tweet", t_tweet, (cfg.hidden_dim,), mask.tweet_text),
            ("t_imgtext", t_imgtext, (cfg.hidden_dim,), mask.image_text),
        ]:
            if (None if t is None else t.shape[1:]) != (expected if kept else None):
                want = f"(N, {', '.join(map(str, expected))})" if kept else "None"
                got = None if t is None else t.shape
                raise ShapeMismatch(
                    cfg.variant.lower() + "_forward",
                    f"{name} must be {want} under mask {mask.label()}, got {got}",
                )
        texts = {"tweet": t_tweet, "imgtext": t_imgtext}
        texts = {name: t for name, t in texts.items() if t is not None}
        if fcm:
            present = [t for t in (v_input, *texts.values()) if t is not None]
            return self.fc(ops.concat(present, axis=1), training)
        if v_input is None:  # conv_bn_relu takes no 0-channel map: the texts fuse over zeros
            n = next(iter(texts.values())).shape[0]
            x = Tensor(np.zeros((n, cfg.map_side, cfg.map_side, cfg.visual_dim)))
        elif self.kernel_gens:
            kernels = [self.make_textual_kernels(t, name) for name, t in texts.items()]
            x = self.kernel_bn(ops.dynamic_conv1x1(v_input, ops.concat(kernels, axis=1)), training)
        else:
            x = v_input
        # the text encodings enter the first fusion conv at every pixel
        const = ops.concat(list(texts.values()), axis=1) if texts else None
        x = self.conv(x, training, const=const)
        x = ops.dropout(x, cfg.dropout_rate, training, rng)
        return self.fc(ops.avg_pool_spatial(x), training)

    def _children(self):
        children = {}
        if self.config.variant != "FCM":
            children["conv"] = self.conv
            children.update((f"kernels.{name}", gen) for name, gen in self.kernel_gens.items())
            if self.kernel_gens:
                children["kernels.bn"] = self.kernel_bn
        children["fc"] = self.fc
        return children


class MultimodalModel(Layer):
    """Backbone, text encoders and fusion head over raw batch inputs.

    The config's ``mask`` is the one place the model's inputs are chosen, and
    the model builds only what the mask reaches: the backbone with ``I``, the
    tweet encoder with ``TT``, and an image-text encoder with ``IT``. The same
    LSTM encodes both texts unless ``share_text_encoder`` is off. Training and
    scoring both read the mask; an input outside it is never read.
    """

    def __init__(
        self,
        vocab_size,
        fusion_config,
        backbone_config=None,
        text_config=None,
        seed=0,
        share_text_encoder=True,
    ):
        rng = np.random.default_rng(seed)
        self.config = fusion_config
        self.mask = mask = fusion_config.mask
        self.text_config = text_config or TextEncoderConfig(hidden_dim=fusion_config.hidden_dim)
        if self.text_config.hidden_dim != fusion_config.hidden_dim:
            raise ValueError("text encoder hidden_dim must match fusion hidden_dim")
        self.backbone_config = backbone_config or VisionBackboneConfig()
        if self.backbone_config.map_channels != fusion_config.visual_dim:
            raise ValueError("backbone map_channels must match fusion visual_dim")
        if self.backbone_config.map_side != fusion_config.map_side:
            raise ValueError("backbone map_side must match fusion map_side")
        self.backbone = VisionBackbone(self.backbone_config, rng) if mask.image else None
        share = self.share_text_encoder = share_text_encoder
        encoder = lambda: TextEncoder(vocab_size, self.text_config, rng)
        self.text_encoder = encoder() if mask.tweet_text or (share and mask.image_text) else None
        self.imgtext_encoder = None
        if mask.image_text:
            self.imgtext_encoder = self.text_encoder if share else encoder()
        self.head = FusionHead(fusion_config, rng)

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
            v_input = v_pool if self.config.variant == "FCM" else v_map
        return self.head(v_input, t_tweet, t_imgtext, training=training, rng=rng)

    def _children(self):
        children = {"backbone": self.backbone, "text": self.text_encoder, "head": self.head}
        if not self.share_text_encoder:
            children["imgtext"] = self.imgtext_encoder
        return {name: child for name, child in children.items() if child is not None}
