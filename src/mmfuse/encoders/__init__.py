"""Unimodal treatment: tweet/image-text encoding and the vision backbone."""

from .text import (
    HASHTAG,
    NUMBER,
    PAD,
    UNK,
    URL,
    USER,
    TextEncoder,
    TextEncoderConfig,
    Vocabulary,
    encode_texts,
    pad_ids,
    preprocess_tweet_text,
)
from .vision import VisionBackbone, VisionBackboneConfig

__all__ = [
    "HASHTAG",
    "NUMBER",
    "PAD",
    "UNK",
    "URL",
    "USER",
    "TextEncoder",
    "TextEncoderConfig",
    "Vocabulary",
    "encode_texts",
    "pad_ids",
    "preprocess_tweet_text",
    "VisionBackbone",
    "VisionBackboneConfig",
]
