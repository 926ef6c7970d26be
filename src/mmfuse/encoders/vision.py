"""The small convolutional backbone.

The backbone plays the role of a large pretrained feature extractor at desk
scale: a stack of stride-2 conv/batch-norm/relu stages whose last feature map
provides both a spatial map and its spatial average as a pooled vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..autodiff import ops
from ..nn import ConvBlock, Layer


@dataclass
class VisionBackboneConfig:
    input_side: int = 56
    channels: tuple = (16, 32, 48, 64)
    stride: int = 2

    def __post_init__(self):
        if self.input_side < 1:
            raise ValueError("need input_side >= 1")
        if not self.channels or min(self.channels) < 1:
            raise ValueError(f"channels must be one or more widths >= 1, got {self.channels}")

    @property
    def map_channels(self):
        return self.channels[-1]

    @property
    def map_side(self):
        side = self.input_side
        for _ in self.channels:
            side = -(-side // self.stride)  # same-padded stride reduction
        return side


class VisionBackbone(Layer):
    """Stride-2 conv stages producing a spatial feature map and pooled vector."""

    def __init__(self, config, rng):
        self.config = config
        self.stages = []
        in_ch = 3
        for out_ch in config.channels:
            self.stages.append(ConvBlock(in_ch, out_ch, rng, stride=config.stride))
            in_ch = out_ch

    def feature_map(self, x, training):
        """(N, S, S, 3) -> (N, map_side, map_side, map_channels)."""
        if x.shape[1] != self.config.input_side or x.shape[2] != self.config.input_side:
            raise ValueError(
                f"backbone expects {self.config.input_side}-pixel inputs, got {x.shape}"
            )
        for stage in self.stages:
            x = stage(x, training)
        return x

    def __call__(self, x, training):
        """Return (pooled (N, D), map (N, side, side, D)); pooled == map mean."""
        fmap = self.feature_map(x, training)
        return ops.avg_pool_spatial(fmap), fmap

    def _children(self):
        return {f"stage{i}": stage for i, stage in enumerate(self.stages)}
