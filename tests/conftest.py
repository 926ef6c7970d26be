"""Shared brute-force oracles and small helpers for the test suite."""

import hashlib
import itertools
import json

import numpy as np
import pytest


def oracle_auc(scores, labels):
    """Pair-counting AUC: wins + half-ties over all (pos, neg) pairs."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            wins += 1.0
        elif p == n:
            wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_f1(scores, labels, threshold):
    tp = sum(1 for s, y in zip(scores, labels) if y and s >= threshold)
    fp = sum(1 for s, y in zip(scores, labels) if not y and s >= threshold)
    fn = sum(1 for s, y in zip(scores, labels) if y and s < threshold)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def oracle_max_f1(scores, labels):
    """Exhaustive sweep over every candidate threshold."""
    candidates = set(scores) | {float("inf")}
    return max(oracle_f1(scores, labels, t) for t in candidates)


def oracle_balanced_accuracy(scores, labels, threshold=0.5):
    predicted = [s >= threshold for s in scores]
    tpr = sum(1 for p, y in zip(predicted, labels) if p and y) / sum(labels)
    tnr = sum(1 for p, y in zip(predicted, labels) if not p and not y) / (
        len(labels) - sum(labels)
    )
    return 0.5 * (tpr + tnr)


def make_scored(scores, labels):
    """The record array ``score_dataset`` returns, with ids "0".."N-1"."""
    return np.rec.fromarrays(
        [np.arange(len(scores)).astype(str), np.asarray(scores, dtype=np.float64),
         np.asarray(labels, dtype=bool)],
        names="id,score,hate",
    )


def random_instance(rng, n=None):
    """A random scored set guaranteed to contain both classes."""
    n = n or int(rng.integers(4, 101))
    scores = rng.random(n)
    labels = rng.integers(0, 2, n).astype(bool)
    labels[0], labels[1] = True, False
    return scores, labels


def checkpoint_parts(data):
    """(header entries, payload bytes) of checkpoint bytes that ``save_arrays`` wrote."""
    size = int.from_bytes(data[7:15], "little")
    return json.loads(data[15 : 15 + size]), data[15 + size : -32]


def checkpoint_bytes(header, payload, magic=b"MFUSE2\n", size=None):
    """Checkpoint bytes for ``header`` (entries, or raw bytes) and ``payload``, with a valid digest.

    ``size`` overrides the header length written after the magic.
    """
    if not isinstance(header, bytes):
        header = json.dumps(header, separators=(",", ":")).encode()
    size = len(header) if size is None else size
    body = magic + size.to_bytes(8, "little") + header + payload
    return body + hashlib.sha256(body).digest()


# The tests' small model: 8-px images, a 2x2x8 map, 3+2 kernels, hidden 6.
SMALL_MODEL = dict(
    image_side=8, backbone_channels=(4, 8), embedding_dim=5, hidden_dim=6, tweet_kernels=3,
    imgtext_kernels=2, fc_plan=(10, 2), fusion_channels=5, dropout_rate=0.2, seed=0,
)


def build_model(variant, mask=None, vocab_size=20, **keys):
    """The model ``train`` builds for ``model.variant=variant`` and ``train.mask=mask``.

    ``keys`` override ``SMALL_MODEL`` and set other ``model.`` keys by their
    short name; a tuple is written comma-separated. ``LSTM`` is the text-only
    baseline, which reads tweet text alone through a linear head: it takes
    the table's ``model.fc_plan``.
    """
    from mmfuse import cli

    values = {**SMALL_MODEL, "variant": variant, **keys}
    if variant == "LSTM":
        del values["fc_plan"]
    cfg = {
        f"model.{name}": ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
        for name, v in values.items()
    }
    if mask is not None:
        cfg["train.mask"] = mask
    return cli.build_model(cfg, vocab_size)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
