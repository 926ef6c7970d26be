"""Corpus construction: filtering, text-image gating, vote aggregation, splits.

Corpora are line-delimited JSON, one tweet record per line. All functions are
pure over immutable records; only split building consumes a seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from operator import is_

import numpy as np

from .config import default
from .encoders import preprocess_tweet_text

HATE_CATEGORIES = ("Racist", "Sexist", "Homophobic", "ReligionAttack", "OtherHate")
CATEGORIES = ("NotHate",) + HATE_CATEGORIES

# json.dumps(obj, sort_keys=True) builds an encoder per call; this one is shared.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True)
class WorkerAnnotation:
    worker_id: str
    category: str
    duration_seconds: float

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.duration_seconds < 0:
            raise ValueError("duration_seconds must be non-negative")


@dataclass
class TweetRecord:
    id: str
    tweet_text: str
    is_retweet: bool = False
    image_ref: str | None = None
    image_text: str = ""
    image_text_probability: float | None = None
    annotations: list = field(default_factory=list)

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id must be non-empty")
        p = self.image_text_probability
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"image_text_probability {p} outside [0, 1]")

    def to_json(self, recent=None):
        """The record's corpus line: ``json.dumps`` of its fields with sorted keys.

        ``recent``, a dict that lives for one export, maps each category to
        the last vote list whose first vote has it. A record whose votes are
        the very objects of that list reuses the list's JSON, encoded when
        the second such record comes; any other record is encoded whole, as
        without ``recent``, and becomes the category's last list.
        """
        fields = {
            "id": self.id,
            "tweet_text": self.tweet_text,
            "is_retweet": self.is_retweet,
            "image_ref": self.image_ref,
            "image_text": self.image_text,
            "image_text_probability": self.image_text_probability,
        }
        votes = self.annotations
        if recent is not None and votes:
            last = recent.get(votes[0].category)
            # by identity: == would merge 0.0 with -0.0, which write different bytes
            if (
                last is not None
                and last[0][0] is votes[0]
                and len(last[0]) == len(votes)
                and all(map(is_, last[0], votes))
            ):
                if last[1] is None:
                    last[1] = _JSON_ENCODER.encode(_vote_objects(votes))
                # "annotations" sorts before every other key; sort_keys still sorts
                # a field that holds a JSON object
                return '{"annotations": ' + last[1] + ", " + _JSON_ENCODER.encode(fields)[1:]
            recent[votes[0].category] = [votes, None]
        fields["annotations"] = _vote_objects(votes)
        return _JSON_ENCODER.encode(fields)

    @classmethod
    def from_json(cls, text, recent=None):
        """The record the JSON line ``text`` holds.

        ``recent``, a dict that lives for one import, maps each category to
        the last vote list read whose first vote has it, as written and as
        built. A record whose list is written alike shares those
        WorkerAnnotations; any other record builds its own.
        """
        obj = json.loads(text)
        return cls(
            id=obj["id"],
            tweet_text=obj["tweet_text"],
            is_retweet=bool(obj.get("is_retweet", False)),
            image_ref=obj.get("image_ref"),
            image_text=obj.get("image_text", ""),
            image_text_probability=obj.get("image_text_probability"),
            annotations=_read_votes(obj.get("annotations", []), {} if recent is None else recent),
        )


def _vote_objects(votes):
    return [
        {"worker_id": a.worker_id, "category": a.category, "duration_seconds": a.duration_seconds}
        for a in votes
    ]


def _read_votes(written, recent):
    """The WorkerAnnotations of the JSON list ``written``, shared through ``recent`` when exact.

    Lists written alike build equal votes, but ``==`` also merges 1, 1.0 and
    true, and 0.0 with -0.0, which write different bytes. So a list is shared
    only when its worker ids are strings and its durations are not zero.
    """
    try:
        last = recent.get(written[0]["category"])
    except (LookupError, TypeError):  # no first vote, or one whose faults the build reports
        last = None
    if (
        last is not None
        and written == last[0]
        and all(type(a.worker_id) is str and a.duration_seconds for a in last[1])
    ):
        return list(last[1])
    votes = [
        WorkerAnnotation(a["worker_id"], a["category"], float(a["duration_seconds"]))
        for a in written
    ]
    if votes:
        recent[votes[0].category] = (written, votes)
    return votes


@dataclass
class LabeledExample:
    id: str
    tweet_text: str
    hate: bool
    category: str
    vote_counts: dict
    binary_tie: bool = False
    split: str | None = None


@dataclass
class FilterRuleSet:
    """The filtering ``dataset.*`` keys, with their defaults from :data:`config.KEYS`."""

    min_word_count: int = default("dataset.min_word_count")
    banned_terms: tuple = default("dataset.banned_terms")
    keywords: tuple = default("dataset.keywords")
    text_probability_threshold: float = default("dataset.text_probability_threshold")

    def __post_init__(self):
        if self.min_word_count < 1:
            raise ValueError("min_word_count must be >= 1")
        if not 0.0 <= self.text_probability_threshold <= 1.0:
            raise ValueError("text_probability_threshold must be in [0, 1]")


class FilterReason(Enum):
    KEEP = "keep"
    RETWEET = "retweet"
    TOO_SHORT = "too_short"
    BANNED_TERM = "banned_term"
    NO_IMAGE = "no_image"


# ---------------------------------------------------------------------------
# I/O


class CorpusError(Exception):
    pass


def import_corpus(path):
    """Load a JSON-lines corpus; returns (records, diagnostics).

    Malformed lines are reported as (line_number, message) pairs, never
    silently dropped. Duplicate ids and lines that are not UTF-8 are malformed.
    """
    records, diagnostics = [], []
    seen = set()
    recent = {}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = TweetRecord.from_json(line.decode("utf-8"), recent)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                diagnostics.append((lineno, f"line {lineno}: {exc}"))
                continue
            if record.id in seen:
                diagnostics.append((lineno, f"line {lineno}: duplicate id {record.id!r}"))
                continue
            seen.add(record.id)
            records.append(record)
    return records, diagnostics


def export_corpus(records, path):
    """Write ``records`` as a JSON-lines corpus, one :meth:`TweetRecord.to_json` line each."""
    recent = {}
    with open(path, "w", encoding="utf-8") as fh:
        # line by line: one joined write raised cli-pipeline's peak RSS by 3.5 MB
        fh.writelines(record.to_json(recent) + "\n" for record in records)


# ---------------------------------------------------------------------------
# filtering


def filter_tweet(record, rules):
    """First-triggered-rule keep/discard decision; rules are pure predicates."""
    if record.is_retweet:
        return FilterReason.RETWEET
    if len(record.tweet_text.split()) < rules.min_word_count:
        return FilterReason.TOO_SHORT
    tokens = {t.lower() for t in record.tweet_text.split()}
    if any(term.lower() in tokens for term in rules.banned_terms):
        return FilterReason.BANNED_TERM
    if not record.image_ref:
        return FilterReason.NO_IMAGE
    return FilterReason.KEEP


def gate_image_by_text_probability(record, threshold):
    """'keep' / 'discard' on the precomputed text probability; 'ungated' if absent."""
    p = record.image_text_probability
    if p is None:
        return "ungated"
    return "discard" if p > threshold else "keep"


# ---------------------------------------------------------------------------
# annotation aggregation


def label_corpus(records, min_duration=default("dataset.min_duration")):
    """Majority-vote every record's annotations; returns (examples, unlabelable_ids).

    One pass per record counts the votes that took at least ``min_duration``
    seconds; faster hits are dropped. The binary label is the majority over
    hate vs NotHate among those votes (binary ties resolve to not-hate,
    flagged); the category is the plurality hate category, ties broken by the
    order of ``HATE_CATEGORIES``. A record whose every vote was a fast hit is
    unlabelable; a record without annotations is a ValueError.
    """
    examples, unlabelable = [], []
    for record in records:
        if not record.annotations:
            raise ValueError("need at least one annotation")
        counts = dict.fromkeys(CATEGORIES, 0)
        retained = 0
        for a in record.annotations:
            if a.duration_seconds >= min_duration:
                counts[a.category] += 1
                retained += 1
        if not retained:
            unlabelable.append(record.id)
            continue
        not_hate = counts["NotHate"]
        hate = retained - not_hate > not_hate
        examples.append(
            LabeledExample(
                id=record.id,
                tweet_text=record.tweet_text,
                hate=hate,
                # max keeps the first of equal counts, so the earlier category wins a tie
                category=max(HATE_CATEGORIES, key=counts.__getitem__) if hate else "NotHate",
                vote_counts=counts,
                binary_tie=retained == 2 * not_hate,
            )
        )
    return examples, unlabelable


# ---------------------------------------------------------------------------
# splits


def build_splits(examples, val_size, test_size, seed):
    """Assign balanced val/test splits in place; remainder goes to train.

    Val and test each get exactly half hate / half not-hate, drawn without
    replacement from a seeded shuffle; deterministic given the seed.
    """
    if min(val_size, test_size) < 0 or val_size % 2 or test_size % 2:
        raise ValueError(f"val and test sizes must be even and >= 0, got {val_size}, {test_size}")
    by_class = {True: [], False: []}
    for ex in examples:
        by_class[ex.hate].append(ex)
    need = (val_size + test_size) // 2
    for hate, pool in by_class.items():
        if len(pool) < need:
            label = "hate" if hate else "not-hate"
            raise ValueError(
                f"insufficient {label} examples: need {need} for val+test, have {len(pool)}"
            )
    rng = np.random.default_rng(seed)
    for ex in examples:
        ex.split = "train"
    for hate in (True, False):
        pool = by_class[hate]
        order = rng.permutation(len(pool))
        for i in order[: val_size // 2]:
            pool[i].split = "val"
        for i in order[val_size // 2 : need]:
            pool[i].split = "test"
    return examples


# ---------------------------------------------------------------------------
# statistics


def keyword_hate_rates(examples, keyword_list):
    """Per-keyword (hate, not-hate, fraction) via whole-token matching.

    Matching is case-insensitive over the symbol-preprocessed tweet text.
    Fraction is None when a keyword never occurs. Rows come back sorted by
    total frequency, descending.
    """
    rows = []
    tokenized = [(set(preprocess_tweet_text(ex.tweet_text)), ex.hate) for ex in examples]
    for keyword in keyword_list:
        hate = sum(1 for tokens, is_hate in tokenized if keyword in tokens and is_hate)
        not_hate = sum(1 for tokens, is_hate in tokenized if keyword in tokens and not is_hate)
        total = hate + not_hate
        fraction = hate / total if total else None
        rows.append((keyword, hate, not_hate, fraction))
    rows.sort(key=lambda r: (-(r[1] + r[2]), r[0]))
    return rows


def class_distribution(counts):
    """Percentages per category from raw counts (category -> count)."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no examples")
    return {cat: 100.0 * counts.get(cat, 0) / total for cat in CATEGORIES}


def write_keyword_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["keyword", "hate_count", "nothate_count", "fraction"])
        for keyword, hate, not_hate, fraction in rows:
            writer.writerow([keyword, hate, not_hate, "" if fraction is None else f"{fraction:.6f}"])


def write_class_distribution_csv(counts, path):
    percentages = class_distribution(counts)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "count", "percentage"])
        for cat in CATEGORIES:
            writer.writerow([cat, counts.get(cat, 0), f"{percentages[cat]:.2f}"])
