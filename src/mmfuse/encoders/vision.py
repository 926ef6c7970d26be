"""The small convolutional backbone.

The backbone plays the role of a large pretrained feature extractor at desk
scale: a stack of stride-2 conv/batch-norm/relu stages whose last feature map
provides both a spatial map and its spatial average as a pooled vector.
"""

from __future__ import annotations

from ..autodiff import ops
from ..nn import ConvBlock, Layer

STRIDE = 2  # every stage halves the side, rounding up


class VisionBackbone(Layer):
    """Stride-2 conv stages producing a spatial feature map and pooled vector."""

    def __init__(self, image_side, channels, rng):
        self.image_side = image_side
        self.stages = []
        in_ch = 3
        for out_ch in channels:
            self.stages.append(ConvBlock(in_ch, out_ch, rng, stride=STRIDE))
            in_ch = out_ch

    def feature_map(self, x, training):
        """(N, S, S, 3) -> (N, map_side, map_side, channels[-1])."""
        if x.shape[1] != self.image_side or x.shape[2] != self.image_side:
            raise ValueError(f"backbone expects {self.image_side}-pixel inputs, got {x.shape}")
        for stage in self.stages:
            x = stage(x, training)
        return x

    def __call__(self, x, training):
        """Return (pooled (N, D), map (N, side, side, D)); pooled == map mean."""
        fmap = self.feature_map(x, training)
        return ops.avg_pool_spatial(fmap), fmap

    def _children(self):
        return {f"stage{i}": stage for i, stage in enumerate(self.stages)}
