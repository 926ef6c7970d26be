"""Unimodal treatment: tweet/image-text encoding and the vision backbone."""

from .text import (
    HASHTAG,
    NUMBER,
    PAD,
    UNK,
    URL,
    USER,
    TextEncoder,
    Vocabulary,
    encode_texts,
    pad_ids,
    preprocess_tweet_text,
)
from .vision import STRIDE, VisionBackbone

__all__ = [
    "HASHTAG",
    "NUMBER",
    "PAD",
    "UNK",
    "URL",
    "USER",
    "TextEncoder",
    "Vocabulary",
    "encode_texts",
    "pad_ids",
    "preprocess_tweet_text",
    "STRIDE",
    "VisionBackbone",
]
