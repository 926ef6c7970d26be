"""Output checks. Each returns a list of problems; an empty list means correct.

The checks recompute what they verify with code of their own (rank AUC,
SHA-256) rather than trusting the function under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

AUC_TOLERANCE = 1e-12


def rank_auc(scores, labels):
    """Mann-Whitney AUC from midranks: P(pos > neg) with ties counted 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    midrank = upper - (counts - 1) / 2.0  # 1-based average rank of each tie group
    ranks = midrank[inverse]
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def check_history(history):
    problems = []
    if history.diverged:
        problems.append("history.diverged is set")
    bad = [step for step, loss in history.steps if not math.isfinite(loss)]
    if bad:
        problems.append(f"non-finite loss at steps {bad[:5]}")
    if not history.steps:
        problems.append("no training steps recorded")
    if not 0.0 <= history.best_val_auc <= 1.0:
        problems.append(f"best_val_auc {history.best_val_auc} outside [0, 1]")
    return problems


def check_scores(scored, data):
    """``score_dataset`` output: one score per example, in order, in [0, 1]."""
    problems = []
    if len(scored) != len(data):
        return [f"{len(scored)} scores for {len(data)} examples"]
    if [s.id for s in scored] != list(data.ids):
        problems.append("score ids do not follow the data order")
    scores = np.array([s.score for s in scored])
    if not (np.isfinite(scores).all() and (scores >= 0).all() and (scores <= 1).all()):
        problems.append("a score falls outside [0, 1]")
    if [s.hate for s in scored] != [bool(y) for y in data.labels]:
        problems.append("score labels do not match the data labels")
    return problems


def check_auc(reported, scored):
    own = rank_auc([s.score for s in scored], [s.hate for s in scored])
    if not abs(reported - own) <= AUC_TOLERANCE:
        return [f"evaluation AUC {reported!r} != rank AUC {own!r}"]
    return []


def check_manifest(out_dir):
    """Every artifact hash in ``manifest.json`` matches the file on disk."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    artifacts = manifest.get("artifacts", {})
    if not artifacts:
        return [f"{out_dir.name}/manifest.json lists no artifacts"]
    problems = []
    for name, digest in artifacts.items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"{out_dir.name}/{name}: manifest SHA-256 does not match the file")
    return problems


def check_checkpoint(saved, reloaded):
    """A reloaded checkpoint is bitwise equal to the arrays it was saved from."""
    if set(saved) != set(reloaded):
        return ["checkpoint names differ after reload"]
    problems = []
    for name, value in saved.items():
        before = np.asarray(value, dtype=np.float64)
        after = reloaded[name]
        if before.shape != after.shape or before.tobytes() != after.tobytes():
            problems.append(f"checkpoint array {name} is not bitwise equal after reload")
    return problems


def read_report_auc(report_csv):
    with open(report_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[0]["auc"])
