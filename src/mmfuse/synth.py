"""Controlled synthetic multimodal corpora with plantable cross-modal signals.

Each example carries two independent latent bits: a text bit (rendered as a
signal token among distractors in the tweet) and an image bit (rendered as a
bright square patch over noise). The labeling mode decides how the bits
combine; the label-noise rate and the multimodal fraction let degradation
effects be measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import TweetRecord, WorkerAnnotation

MODES = ("unimodal_text", "unimodal_image", "crossmodal_and", "crossmodal_xor")

SIGNAL_TOKEN = "zork"
DISTRACTOR_TOKENS = tuple(f"filler{i}" for i in range(12))


@dataclass
class SynthSpec:
    mode: str = "crossmodal_xor"
    n_train: int = 8000
    n_val: int = 1000
    n_test: int = 2000
    noise_rate: float = 0.0  # label-flip probability
    multimodal_fraction: float = 1.0  # rest of the examples use label = text bit
    image_side: int = 16
    min_tokens: int = 5
    max_tokens: int = 9
    seed: int = 0

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
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValueError("need 1 <= min_tokens <= max_tokens")


@dataclass
class SynthExample:
    tweet_tokens: list
    imgtext_tokens: list
    label: int
    text_bit: int
    image_bit: int


@dataclass
class SynthSplit:
    """One split: ``images[i]`` is the image of ``examples[i]``.

    The images are one C-contiguous float64 (N, S, S, 3) array in [0, 1],
    rendered in place; no example holds an image of its own.
    """

    images: np.ndarray
    examples: list  # SynthExample, one per image row

    def __len__(self):
        return len(self.examples)


def _sample_bits(rng, mode):
    """Draw (text_bit, image_bit, label) with 50/50 label balance.

    xor is balanced for independent fair bits. For the and rule the cells are
    reweighted: label 1 forces (1,1); label 0 draws uniformly from the other
    three cells.
    """
    if mode == "crossmodal_and":
        if rng.random() < 0.5:
            return 1, 1, 1
        t, v = [(0, 0), (0, 1), (1, 0)][int(rng.integers(0, 3))]
        return t, v, 0
    t = int(rng.integers(0, 2))
    v = int(rng.integers(0, 2))
    label = {
        "unimodal_text": t,
        "unimodal_image": v,
        "crossmodal_xor": t ^ v,
    }[mode]
    return t, v, label


def _render_text(rng, bit, spec):
    count = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
    tokens = [DISTRACTOR_TOKENS[int(i)] for i in rng.integers(0, len(DISTRACTOR_TOKENS), count)]
    if bit:
        tokens[int(rng.integers(0, count))] = SIGNAL_TOKEN
    return tokens


def _render_image(rng, bit, image):
    """Draw one (S, S, 3) image into ``image``, a row of its split's array."""
    side = image.shape[0]
    np.clip(rng.normal(0.0, 0.1, image.shape), 0.0, 1.0, out=image)
    if bit:
        patch = max(1, side // 4)
        y = int(rng.integers(0, side - patch + 1))
        x = int(rng.integers(0, side - patch + 1))
        image[y : y + patch, x : x + patch, :] = 1.0


def _generate_split(rng, n, spec):
    images = np.empty((n, spec.image_side, spec.image_side, 3))
    examples = []
    for image in images:
        mode = spec.mode
        if spec.multimodal_fraction < 1.0 and rng.random() >= spec.multimodal_fraction:
            mode = "unimodal_text"
        t, v, label = _sample_bits(rng, mode)
        if rng.random() < spec.noise_rate:
            label = 1 - label
        _render_image(rng, v, image)
        examples.append(
            SynthExample(
                tweet_tokens=_render_text(rng, t, spec),
                imgtext_tokens=_render_text(rng, int(rng.integers(0, 2)), spec),
                label=label,
                text_bit=t,
                image_bit=v,
            )
        )
    return SynthSplit(images, examples)


def generate(spec):
    """Deterministically build the {'train', 'val', 'test'} SynthSplits."""
    sizes = {"train": spec.n_train, "val": spec.n_val, "test": spec.n_test}
    out = {}
    for i, (split, n) in enumerate(sizes.items()):
        rng = np.random.default_rng([spec.seed, i])
        out[split] = _generate_split(rng, n, spec)
    return out


def build_vocabulary():
    from .encoders import Vocabulary

    vocab = Vocabulary()
    vocab.add(SIGNAL_TOKEN)
    for token in DISTRACTOR_TOKENS:
        vocab.add(token)
    return vocab


def to_model_data(split, vocab):
    """Pack a SynthSplit into a batchable split; its image array is used as it is."""
    from .training import ModelData

    examples = split.examples
    return ModelData.from_id_lists(
        images=split.images,
        tweet_ids=[vocab.encode(ex.tweet_tokens) for ex in examples],
        imgtext_ids=[vocab.encode(ex.imgtext_tokens) for ex in examples],
        labels=np.array([ex.label for ex in examples], dtype=np.int64),
    )


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
        for label, category in ((False, "NotHate"), (True, "OtherHate"))
    }
    records = []
    for i, ex in enumerate(split.examples):
        records.append(
            TweetRecord(
                id=f"{split_name}-{i:06d}",
                tweet_text=" ".join(ex.tweet_tokens),
                is_retweet=False,
                image_ref=f"{image_file}#{i}" if image_file else None,
                image_text=" ".join(ex.imgtext_tokens),
                image_text_probability=0.0,
                annotations=list(votes[bool(ex.label)]),
            )
        )
    return records
