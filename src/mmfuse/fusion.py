"""The three multimodal fusion heads and the full three-input models.

FCM concatenates the pooled visual vector with both text encodings and runs a
fully connected stack. SCM tiles the text encodings at every spatial location
of the visual feature map before further convolution. TKM generates 1x1
convolution kernels from each text encoding, convolves them with the visual
map, then proceeds like SCM. The tiling is folded into the first fusion conv,
which takes the text encodings as spatially constant input channels
(``ops.conv_bn_relu``'s ``const``). Unavailable modalities are replaced by
zeros.
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
    def concat_dim(self):
        """FCM concatenation length: visual vector plus the two text vectors."""
        return self.visual_dim + 2 * self.hidden_dim

    @property
    def kernel_count(self):
        return self.tweet_kernels + self.imgtext_kernels


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
    """The FCM, SCM or TKM fusion head over pre-encoded inputs."""

    def __init__(self, config, rng):
        self.config = config
        cfg = config
        if cfg.variant == "FCM":
            self.fc = _FcStack(cfg.concat_dim, cfg.fc_plan, rng)
        else:
            if cfg.variant == "TKM":
                self.tweet_kernel_gen = Dense(cfg.hidden_dim, cfg.tweet_kernels * cfg.visual_dim, rng)
                self.imgtext_kernel_gen = Dense(
                    cfg.hidden_dim, cfg.imgtext_kernels * cfg.visual_dim, rng
                )
                self.kernel_bn = BatchNorm(cfg.kernel_count)
                fused_depth = cfg.kernel_count + 2 * cfg.hidden_dim
            else:
                fused_depth = cfg.visual_dim + 2 * cfg.hidden_dim
            self.conv = _ConvStack(fused_depth, cfg.fusion_channels, cfg.fusion_block_count, rng)
            self.fc = _FcStack(cfg.fusion_channels, cfg.fc_plan, rng)

    def make_textual_kernels(self, t_text, which):
        """Affine-map a text encoding to a bank of 1x1 kernels (N, K, D_v).

        One independent affine map per kernel; implemented as a single dense
        layer whose output is split, which is parameter-for-parameter the same
        as K separate layers.
        """
        gen = self.tweet_kernel_gen if which == "tweet" else self.imgtext_kernel_gen
        count = self.config.tweet_kernels if which == "tweet" else self.config.imgtext_kernels
        flat = gen(t_text)
        return ops.reshape(flat, (t_text.shape[0], count, self.config.visual_dim))

    def __call__(self, v_input, t_tweet, t_imgtext, training=False, rng=None):
        """2-class logits from ``v_input`` and both (N, hidden_dim) text encodings.

        ``v_input`` is the pooled (N, visual_dim) vector for FCM and the
        (N, map_side, map_side, visual_dim) map for SCM and TKM.
        """
        cfg = self.config
        fcm = cfg.variant == "FCM"
        visual = (cfg.visual_dim,) if fcm else (cfg.map_side, cfg.map_side, cfg.visual_dim)
        for name, t, expected in [
            ("v_pool" if fcm else "v_map", v_input, visual),
            ("t_tweet", t_tweet, (cfg.hidden_dim,)),
            ("t_imgtext", t_imgtext, (cfg.hidden_dim,)),
        ]:
            if t.shape[1:] != expected:
                raise ShapeMismatch(
                    cfg.variant.lower() + "_forward",
                    f"{name} must be (N, {', '.join(map(str, expected))}), got {t.shape}",
                )
        if fcm:
            return self.fc(ops.concat([v_input, t_tweet, t_imgtext], axis=1), training)
        x = v_input
        if cfg.variant == "TKM":
            kernels = ops.concat(
                [self.make_textual_kernels(t_tweet, "tweet"), self.make_textual_kernels(t_imgtext, "imgtext")],
                axis=1,
            )
            x = self.kernel_bn(ops.dynamic_conv1x1(x, kernels), training)
        # both text encodings enter the first fusion conv at every pixel
        x = self.conv(x, training, const=ops.concat([t_tweet, t_imgtext], axis=1))
        x = ops.dropout(x, cfg.dropout_rate, training, rng)
        return self.fc(ops.avg_pool_spatial(x), training)

    def _children(self):
        children = {}
        if self.config.variant != "FCM":
            children["conv"] = self.conv
            if self.config.variant == "TKM":
                children["kernels.tweet"] = self.tweet_kernel_gen
                children["kernels.imgtext"] = self.imgtext_kernel_gen
                children["kernels.bn"] = self.kernel_bn
        children["fc"] = self.fc
        return children


class MultimodalModel(Layer):
    """Backbone + shared text encoder + fusion head over raw batch inputs.

    The same LSTM encodes tweet text and image text unless
    ``share_text_encoder`` is off. ``mask`` is the one place the model's
    inputs are chosen: training and scoring both read it. Masked modalities
    are replaced by zero tensors before fusion, so eval-mode logits cannot
    depend on their content.
    """

    def __init__(
        self,
        vocab_size,
        fusion_config,
        backbone_config=None,
        text_config=None,
        seed=0,
        share_text_encoder=True,
        mask=InputMask(),
    ):
        rng = np.random.default_rng(seed)
        self.config = fusion_config
        self.mask = mask
        self.text_config = text_config or TextEncoderConfig(hidden_dim=fusion_config.hidden_dim)
        if self.text_config.hidden_dim != fusion_config.hidden_dim:
            raise ValueError("text encoder hidden_dim must match fusion hidden_dim")
        self.backbone_config = backbone_config or VisionBackboneConfig()
        if self.backbone_config.map_channels != fusion_config.visual_dim:
            raise ValueError("backbone map_channels must match fusion visual_dim")
        if self.backbone_config.map_side != fusion_config.map_side:
            raise ValueError("backbone map_side must match fusion map_side")
        self.backbone = VisionBackbone(self.backbone_config, rng)
        self.text_encoder = TextEncoder(vocab_size, self.text_config, rng)
        self.imgtext_encoder = (
            self.text_encoder
            if share_text_encoder
            else TextEncoder(vocab_size, self.text_config, rng)
        )
        self.share_text_encoder = share_text_encoder
        self.head = FusionHead(fusion_config, rng)

    def forward(self, images, tweet, imgtext, training=False, rng=None):
        """2-class logits for a batch.

        ``images`` is an (N, S, S, 3) array or Tensor; ``tweet`` and
        ``imgtext`` are :func:`~mmfuse.encoders.pad_ids` pairs. Inputs outside
        ``self.mask`` skip their encoder entirely.
        """
        mask = self.mask
        n = len(tweet[1])
        cfg = self.config
        zeros_text = lambda: Tensor(np.zeros((n, cfg.hidden_dim)))
        t_tweet = self.text_encoder.encode(tweet) if mask.tweet_text else zeros_text()
        t_imgtext = self.imgtext_encoder.encode(imgtext) if mask.image_text else zeros_text()
        if mask.image:
            v_pool, v_map = self.backbone(images, training)
            v_input = v_pool if cfg.variant == "FCM" else v_map
        elif cfg.variant == "FCM":
            v_input = Tensor(np.zeros((n, cfg.visual_dim)))
        else:
            v_input = Tensor(np.zeros((n, cfg.map_side, cfg.map_side, cfg.visual_dim)))
        return self.head(v_input, t_tweet, t_imgtext, training=training, rng=rng)

    def _children(self):
        children = {"backbone": self.backbone, "text": self.text_encoder, "head": self.head}
        if not self.share_text_encoder:
            children["imgtext"] = self.imgtext_encoder
        return children
