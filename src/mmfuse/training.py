"""Training loop: weighted softmax cross-entropy, ADAM, seeded batching.

Class imbalance is compensated with inverse-frequency weights normalized to
mean 1 under the empirical distribution, so the loss scale stays comparable
across weight modes. Model selection keeps the checkpoint with the best
validation AUC. Everything is deterministic given the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamState, AutodiffError, NonFiniteGradient, adam_step, backward, no_grad, ops
from .config import default
from .encoders import pad_ids
from .evaluation import MetricError, auc_roc

HATE = 1  # class index of the hate label; index 0 is not-hate


class NonFiniteScore(AutodiffError):
    """A model scored an example NaN or infinite, as overflowing weights do."""


class _Diverged(Exception):
    """Training met a non-finite value; the message is ``TrainHistory.diverged``."""


def class_weights(label_counts):
    """Inverse-frequency weights: w_c = N / (C * count_c); mean weight is 1."""
    counts = np.asarray(label_counts, dtype=np.float64)
    if (counts <= 0).any():
        raise ValueError(f"every class needs a positive count, got {counts}")
    return counts.sum() / (len(counts) * counts)


@dataclass
class TrainConfig:
    """The ``train.*`` keys training reads and their defaults; ``learning_rate`` is ``train.lr``."""

    learning_rate: float = default("train.lr")
    batch_size: int = default("train.batch_size")
    epochs: int = default("train.epochs")
    seed: int = default("train.seed")
    class_weight_mode: str = default("train.class_weight_mode")  # or "uniform"
    eval_every: int = default("train.eval_every")  # steps; 0 = end of each epoch

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:  # also refuses nan
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.class_weight_mode not in ("balanced", "uniform"):
            raise ValueError("class_weight_mode must be 'balanced' or 'uniform'")


@dataclass
class TrainHistory:
    steps: list = field(default_factory=list)  # (step, loss)
    evals: list = field(default_factory=list)  # (step, val_auc)
    best_step: int = -1
    best_val_auc: float = float("nan")
    diverged: str = ""  # why training stopped early, if it did: the non-finite value

    def write_csv(self, path):
        evals = dict(self.evals)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "val_auc"])
            for step, loss in self.steps:
                auc = evals.get(step)
                writer.writerow([step, repr(loss), "" if auc is None else repr(auc)])


@dataclass
class ModelData:
    """A split ready for batching: aligned images, token ids, labels and example ids."""

    images: np.ndarray  # (N, S, S, 3); may be a zero-size array when unused
    tweet: tuple  # (ids (N, T) int64, lengths (N,)), padded once by pad_ids
    imgtext: tuple  # the image texts, likewise
    labels: np.ndarray  # int, 1 = hate
    ids: np.ndarray = None  # str; given as any sequence, or the row numbers "0".."N-1"

    def __post_init__(self):
        self.ids = np.asarray(range(len(self.labels)) if self.ids is None else self.ids, dtype=str)

    @classmethod
    def from_id_lists(cls, images, tweet_ids, imgtext_ids, labels, ids=None):
        """Pad the two lists of token-id lists into a split."""
        return cls(images, pad_ids(tweet_ids), pad_ids(imgtext_ids), labels, ids)

    def __len__(self):
        return len(self.labels)

    def subset(self, indices):
        """The examples at ``indices``; each text is trimmed to the batch's longest.

        ``indices`` is an index array or a slice; a slice takes views, so no
        image is copied.
        """

        def take(text):
            ids, lengths = text
            lengths = lengths[indices]
            return ids[indices, : lengths.max(initial=0)], lengths

        return ModelData(
            images=self.images[indices] if self.images.size else self.images,
            tweet=take(self.tweet),
            imgtext=take(self.imgtext),
            labels=self.labels[indices],
            ids=self.ids[indices],
        )


# Examples per scoring forward. At the desk config a forward pays about 2 ms
# of fixed per-call cost, which a larger batch spreads over more examples, and
# the conv forward's example blocks keep a larger batch from spilling L2.
# 256 raised the peak RSS of a 32-px SCM benchmark run by about 10 %.
SCORE_BATCH = 128


def score_dataset(model, data):
    """Eval-mode hate scores for every example; deterministic and tape-free.

    Scores ``SCORE_BATCH`` examples per forward, each batch a slice of
    ``data`` that copies no image. A one-example tail joins the batch before
    it (see :func:`ops.example_blocks`), so no forward holds a lone example
    unless the split does. Raises NonFiniteScore when a score is NaN or
    infinite. Returns the scored split :mod:`evaluation` reads: a record array
    whose row i holds example i's ``id`` (str), ``score`` (float64) and ``hate``.
    """
    scores = np.empty(len(data))
    for rows in ops.example_blocks(len(data), SCORE_BATCH):
        batch = data.subset(rows)
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):  # checked after the loop
            logits = model.forward(batch.images, batch.tweet, batch.imgtext, training=False)
            scores[rows] = ops.softmax(logits, axis=1).data[:, HATE]
    finite = np.isfinite(scores)
    if not finite.all():
        ident = str(data.ids[np.argmin(finite)])  # an np.str_'s repr names its type
        raise NonFiniteScore(f"non-finite score for example {ident!r}")
    return np.rec.fromarrays([data.ids, scores, data.labels.astype(bool)], names="id,score,hate")


def train(model, train_data, val_data, config):
    """Run the training loop; returns (best_arrays, history).

    The model is left holding the best-validation-AUC parameters, or the
    final ones when validation gives no AUC. Every non-finite value raises to
    one handler, which returns the last finite checkpoint with
    ``history.diverged`` naming the cause: the loss, a gradient (the first
    parameter's, before ADAM applies it), a running statistic (the first one;
    they are checked before each validation and before returning) or a
    validation score. A step drops its batch, logits and loss right after
    ``backward``, so no node of its tape is alive during ADAM, validation or
    the next step's forward.
    """
    if len(train_data) == 0:
        raise ValueError("train split is empty")
    rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng([config.seed, 1])

    if config.class_weight_mode == "balanced":
        counts = np.array(
            [(train_data.labels == 0).sum(), (train_data.labels == 1).sum()], dtype=np.float64
        )
        weights = class_weights(counts)
    else:
        weights = np.ones(2)

    params = model.parameters()
    adam = AdamState(params, lr=config.learning_rate)
    history = TrainHistory()
    best = model.state_dict()
    step = 0

    def evaluate_now():
        """Record the validation AUC and keep the best state; raise _Diverged if non-finite."""
        nonlocal best
        for name, value in model.state_arrays().items():
            if not np.isfinite(value).all():
                raise _Diverged(f"non-finite running statistic {name!r}")
        if len(val_data) == 0 or (history.evals and history.evals[-1][0] == step):
            return
        try:
            auc = auc_roc(score_dataset(model, val_data))
        except NonFiniteScore:
            raise _Diverged("non-finite validation score") from None
        except MetricError:
            return
        history.evals.append((step, auc))
        if history.best_step < 0 or auc > history.best_val_auc:
            history.best_step, history.best_val_auc = step, auc
            best = model.state_dict()

    try:
        for _ in range(config.epochs):
            order = rng.permutation(len(train_data))
            for start in range(0, len(order), config.batch_size):
                batch = train_data.subset(order[start : start + config.batch_size])
                # an overflow shows up in the loss or the running statistics, both checked
                with np.errstate(over="ignore", invalid="ignore"):
                    logits = model.forward(
                        batch.images, batch.tweet, batch.imgtext, training=True, rng=dropout_rng
                    )
                    loss = ops.softmax_cross_entropy(logits, batch.labels, weights)
                loss_value = loss.item()
                if not np.isfinite(loss_value):
                    raise _Diverged("non-finite loss")
                step += 1
                history.steps.append((step, loss_value))
                for p in params.values():  # a parameter this step does not reach gets no update
                    p.grad = None
                backward(loss)
                del batch, logits, loss  # the step's tape dies here, before ADAM
                adam_step({name: p.grad for name, p in params.items() if p.grad is not None}, adam)
                if config.eval_every and step % config.eval_every == 0:
                    evaluate_now()
            if not config.eval_every:
                evaluate_now()
        evaluate_now()
    except (_Diverged, NonFiniteGradient) as err:
        history.diverged = str(err)
    else:
        if history.best_step < 0:  # no usable validation signal: keep the final parameters
            best = model.state_dict()
    model.load_state_dict(best)
    return best, history
