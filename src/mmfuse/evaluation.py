"""Ranking and threshold metrics over a scored split, plus report emission.

A scored split is ``training.score_dataset``'s record array of ``id``, ``score``
and ``hate``; a score is the hate class's softmax probability (higher = more hate).
Thresholding convention everywhere: predict hate iff score >= threshold.
The table "F" column is the maximum F1 over thresholds and "ACC" is balanced
accuracy (mean per-class recall), rendered as a percentage.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


class MetricError(Exception):
    """A metric precondition failed (e.g. single-class input)."""


@dataclass
class EvalReport:
    f1_at_half: float
    max_f1: float
    max_f1_threshold: float
    auc: float
    balanced_accuracy: float  # fraction in [0, 1]
    pr_points: list  # (threshold, recall, precision)
    roc_points: list  # (threshold, fpr, tpr)


def _sweep(scored, name):
    """Cumulative (thresholds, tps, fps, n_pos, n_neg) as the threshold descends.

    One row per distinct score (ties grouped), prefixed by a +inf threshold
    where nothing is predicted positive. At each row, predicted positive means
    score >= threshold. ``name`` labels the MetricError raised when a class is
    missing. A score outside [0, 1], NaN included, raises a ValueError.
    """
    scores, labels = scored["score"], scored["hate"]
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    if outside.any():
        raise ValueError(f"score {scores[np.argmax(outside)]} outside [0, 1]")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if not n_pos or not n_neg:
        raise MetricError(f"{name} needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    distinct = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    thresholds = np.concatenate(([np.inf], s[distinct]))
    tps = np.concatenate(([0], np.cumsum(y)[distinct]))
    fps = np.concatenate(([0], np.cumsum(~y)[distinct]))
    return thresholds, tps, fps, n_pos, n_neg


def _auc(tps, fps, n_pos, n_neg):
    """Trapezoidal area under the ROC sweep.

    Twice that area times P*N is an exact integer, so the quotient is
    correctly rounded.
    """
    return int(np.sum(np.diff(fps) * (tps[1:] + tps[:-1]))) / (2 * n_pos * n_neg)


def auc_roc(scored):
    """Mann-Whitney statistic: P(score_pos > score_neg) with ties counted 1/2."""
    _, tps, fps, n_pos, n_neg = _sweep(scored, "auc_roc")
    return _auc(tps, fps, n_pos, n_neg)


def evaluate(scored):
    """Every metric of one scored set from one sorted sweep.

    F1 at threshold 0.5, the max F1 over thresholds and its argmax threshold,
    AUC, balanced accuracy at 0.5, and the PR points (threshold, recall,
    precision) and ROC points (threshold, fpr, tpr), both descending in
    threshold. ROC starts at (0, 0) and ends at (1, 1); its trapezoidal area
    is the AUC.
    """
    thresholds, tps, fps, n_pos, n_neg = _sweep(scored, "evaluate")
    recall = tps / n_pos
    with np.errstate(invalid="ignore"):  # 0/0 precision where nothing is predicted
        precision = tps / (tps + fps)
        f1 = np.where(tps > 0, 2.0 * precision * recall / (precision + recall), 0.0)
    best = int(np.argmax(f1))
    half = int(np.count_nonzero(thresholds >= 0.5)) - 1  # the row that predicts score >= 0.5
    ts = thresholds.tolist()
    return EvalReport(
        f1_at_half=float(f1[half]),
        max_f1=float(f1[best]),
        max_f1_threshold=ts[best],
        auc=_auc(tps, fps, n_pos, n_neg),
        balanced_accuracy=float(0.5 * (recall[half] + (n_neg - fps[half]) / n_neg)),
        # only the +inf row predicts nothing; its precision is 1 by convention
        pr_points=list(zip(ts, recall.tolist(), [1.0, *precision[1:].tolist()])),
        roc_points=list(zip(ts, (fps / n_neg).tolist(), recall.tolist())),
    )


def write_curve_csv(points, path):
    """Emit curve points as 'threshold,x,y' rows, the bytes csv.writer gives, in one write."""
    rows = "".join(f"{t!r},{x!r},{y!r}\r\n" for t, x, y in points)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("threshold,x,y\r\n" + rows)


def results_table(rows):
    """Render (name, inputs, f, auc, acc) rows as (csv_text, aligned_text).

    ``f`` is the max F1, ``acc`` the balanced accuracy as a fraction; the ACC
    column shows it as a percentage. An empty ``inputs`` renders as "-".
    """
    rows = [
        (name, inputs or "-", f"{f:.3f}", f"{auc:.3f}", f"{100.0 * acc:.1f}")
        for name, inputs, f, auc, acc in rows
    ]
    if not rows:
        raise ValueError("need at least one row")
    if not all(row[0] for row in rows):
        raise ValueError("row names must be non-empty")
    header = ("Model", "Inputs", "F", "AUC", "ACC")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(5)]
    lines = [
        "  ".join(str(value).ljust(width) for value, width in zip(row, widths)).rstrip()
        for row in [header, *rows]
    ]
    return buf.getvalue(), "\n".join(lines) + "\n"
