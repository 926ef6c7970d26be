"""Controlled synthetic multimodal corpora with plantable cross-modal signals.

Each example carries two independent latent bits: a text bit (rendered as a
signal token among distractors in the tweet) and an image bit (rendered as a
bright square patch over noise). The labeling mode decides how the bits
combine; the label-noise rate and the multimodal fraction let degradation
effects be measured directly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import default
from .dataset import TweetRecord, WorkerAnnotation
from .encoders import PAD, Vocabulary
from .training import ModelData

MODES = ("unimodal_text", "unimodal_image", "crossmodal_and", "crossmodal_xor")

SIGNAL_TOKEN = "zork"
DISTRACTOR_TOKENS = tuple(f"filler{i}" for i in range(12))

# A SynthSplit's texts are indices into TOKENS; index 0 pads.
TOKENS = (PAD, SIGNAL_TOKEN, *DISTRACTOR_TOKENS)
_PAD, _SIGNAL, _FIRST_DISTRACTOR = 0, 1, 2

# label of a row that follows the mode, from its text and image bits
_RULES = {
    "unimodal_text": lambda t, v: t,
    "unimodal_image": lambda t, v: v,
    "crossmodal_and": np.logical_and,
    "crossmodal_xor": np.logical_xor,
}


@dataclass
class SynthSpec:
    """The ``synth.*`` keys, with their defaults from :data:`config.KEYS`, and the text lengths."""

    mode: str = default("synth.mode")
    n_train: int = default("synth.n_train")
    n_val: int = default("synth.n_val")
    n_test: int = default("synth.n_test")
    noise_rate: float = default("synth.noise_rate")  # label-flip probability
    multimodal_fraction: float = default("synth.multimodal_fraction")  # rest use label = text bit
    image_side: int = default("synth.image_side")
    min_tokens: int = 5
    max_tokens: int = 9
    seed: int = default("synth.seed")

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.noise_rate < 0.5:
            raise ValueError("noise_rate must be in [0, 0.5)")
        if not 0.0 < self.multimodal_fraction <= 1.0:
            raise ValueError("multimodal_fraction must be in (0, 1]")
        if self.image_side < 4:
            raise ValueError("image_side must be at least 4")
        if min(self.n_train, self.n_val, self.n_test) < 0:
            raise ValueError("split sizes must be >= 0")
        largest = max(self.n_train, self.n_val, self.n_test)
        image_bytes = largest * self.image_side**2 * 3 * 8  # one float64 (N, S, S, 3) array
        if image_bytes > sys.maxsize:
            raise ValueError(
                f"a split of {largest} images of side {self.image_side} needs {image_bytes} "
                f"bytes, more than one array can hold ({sys.maxsize})"
            )
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValueError("need 1 <= min_tokens <= max_tokens")


@dataclass
class SynthSplit:
    """One split of N examples, held as arrays; row ``i`` of each is example ``i``.

    ``images`` is one C-contiguous float64 (N, S, S, 3) array in [0, 1].
    ``tweet`` and ``imgtext`` are (indices, lengths) pairs: indices into
    ``TOKENS`` as an (N, max_tokens) int64 array, 0 (``<pad>``) past each
    text's length, and the (N,) lengths.
    """

    images: np.ndarray
    tweet: tuple
    imgtext: tuple
    labels: np.ndarray  # (N,) int64, 1 = hate
    text_bits: np.ndarray  # (N,) bool
    image_bits: np.ndarray  # (N,) bool

    def __len__(self):
        return len(self.labels)


def _draw_bits(rng, n, spec):
    """Draw (text_bits, image_bits, labels) for ``n`` rows, labels 50/50 balanced.

    A row is unimodal_text with probability 1 - ``multimodal_fraction`` and
    follows ``spec.mode`` otherwise. Each row draws one cell: uniformly from
    the four (t, v) cells, or, for a crossmodal_and row, from six slots where
    slots 0, 1, 2 are (0,0), (0,1), (1,0) and slots 3-5 are (1,1), so that
    label 1 forces (1,1) and label 0 is uniform over the other three cells.
    Cell 3 of the four is (1,1) too, so one mapping serves both.
    """
    follows_mode = rng.random(n) < spec.multimodal_fraction
    slots = np.where(follows_mode, 6, 4) if spec.mode == "crossmodal_and" else 4
    cells = rng.integers(0, slots, n)
    text_bits = cells >= 2
    image_bits = (cells == 1) | (cells >= 3)
    labels = np.where(follows_mode, _RULES[spec.mode](text_bits, image_bits), text_bits)
    return text_bits, image_bits, labels


def _draw_texts(rng, bits, spec):
    """(indices, lengths) of one text per row; a row whose bit is set holds the signal once."""
    n = len(bits)
    lengths = rng.integers(spec.min_tokens, spec.max_tokens + 1, n)
    tokens = rng.integers(_FIRST_DISTRACTOR, len(TOKENS), (n, spec.max_tokens))
    signal_at = rng.integers(0, lengths)
    rows = np.flatnonzero(bits)
    tokens[rows, signal_at[rows]] = _SIGNAL
    tokens[np.arange(spec.max_tokens) >= lengths[:, None]] = _PAD
    return tokens, lengths


def _generate_split(rng, n, spec):
    """Draw one split; every random quantity is drawn once for all ``n`` rows."""
    side = spec.image_side
    images = np.empty((n, side, side, 3))
    rng.standard_normal(out=images)
    images *= 0.1
    np.clip(images, 0.0, 1.0, out=images)
    text_bits, image_bits, labels = _draw_bits(rng, n, spec)
    labels = (labels ^ (rng.random(n) < spec.noise_rate)).astype(np.int64)
    # a bright square patch marks the image bit
    patch = max(1, side // 4)
    corners = rng.integers(0, side - patch + 1, (n, 2))
    rows = np.flatnonzero(image_bits)
    span = np.arange(patch)
    ys = corners[rows, 0, None] + span
    xs = corners[rows, 1, None] + span
    images[rows[:, None, None], ys[:, :, None], xs[:, None, :]] = 1.0
    tweet = _draw_texts(rng, text_bits, spec)
    imgtext = _draw_texts(rng, rng.integers(0, 2, n).astype(bool), spec)
    return SynthSplit(images, tweet, imgtext, labels, text_bits, image_bits)


def generate(spec):
    """Deterministically build the {'train', 'val', 'test'} SynthSplits.

    Each split draws from its own child of ``SeedSequence(seed)``, so a split
    does not depend on the sizes of the others; its rows do depend on its own
    size. Not ``default_rng([seed, i])``: ``[seed, 0]`` is the stream of
    ``default_rng(seed)``, so a model seeded with the same number would draw
    its initial weights from the train split's pixel noise.
    """
    sizes = {"train": spec.n_train, "val": spec.n_val, "test": spec.n_test}
    streams = np.random.SeedSequence(spec.seed).spawn(len(sizes))
    return {
        split: _generate_split(np.random.default_rng(stream), n, spec)
        for (split, n), stream in zip(sizes.items(), streams)
    }


def build_vocabulary():
    return Vocabulary(TOKENS[_SIGNAL:])


def to_model_data(split, vocab):
    """Pack a SynthSplit into a batchable split; its image array is used as it is."""
    lookup = np.array([vocab.lookup(token) for token in TOKENS])

    def ids(text):  # as pad_ids gives them: padded with 0 to the longest text
        tokens, lengths = text
        return lookup[tokens[:, : lengths.max(initial=0)]], lengths

    return ModelData(split.images, ids(split.tweet), ids(split.imgtext), split.labels)


def _joined(text):
    """Each text of an (indices, lengths) pair as its tokens joined by spaces."""
    tokens, lengths = text
    words = np.array(TOKENS, dtype=object)[tokens].tolist()
    return [" ".join(row[:length]) for row, length in zip(words, lengths.tolist())]


def to_records(split, split_name, image_dir=None):
    """Convert a SynthSplit to the corpus record format.

    When ``image_dir`` is given, the split's image array is saved there with
    one ``np.save``, as ``<split_name>.npy``, and record ``i`` refers to its
    row as ``<split_name>.npy#i``; annotations are three consistent slow
    votes so the aggregation pipeline reproduces the generated labels.
    """
    image_file = None
    if image_dir is not None and len(split):
        image_file = f"{split_name}.npy"
        np.save(Path(image_dir) / image_file, split.images)
    # frozen, so every record of a label can share the same three votes
    votes = {
        label: [WorkerAnnotation(f"synth-{w}", category, 10.0) for w in range(3)]
        for label, category in ((0, "NotHate"), (1, "OtherHate"))
    }
    records = []
    texts = zip(_joined(split.tweet), _joined(split.imgtext), split.labels.tolist())
    for i, (tweet_text, image_text, label) in enumerate(texts):
        records.append(
            TweetRecord(
                id=f"{split_name}-{i:06d}",
                tweet_text=tweet_text,
                is_retweet=False,
                image_ref=f"{image_file}#{i}" if image_file else None,
                image_text=image_text,
                image_text_probability=0.0,
                annotations=list(votes[label]),
            )
        )
    return records
