"""Ranking and threshold metrics over scored examples, plus report emission.

Scores are the softmax probability of the hate class (higher = more hate).
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


@dataclass(frozen=True)
class ScoredExample:
    id: str
    score: float
    hate: bool

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass
class EvalReport:
    f1_at_half: float
    max_f1: float
    max_f1_threshold: float
    auc: float
    balanced_accuracy: float  # fraction in [0, 1]
    pr_points: list  # (threshold, recall, precision)
    roc_points: list  # (threshold, fpr, tpr)


def _split(scored):
    scores = np.array([ex.score for ex in scored], dtype=np.float64)
    labels = np.array([ex.hate for ex in scored], dtype=bool)
    return scores, labels


def _require_both_classes(labels, name):
    if labels.all() or not labels.any():
        raise MetricError(f"{name} needs both classes present")


def auc_roc(scored):
    """Mann-Whitney statistic: P(score_pos > score_neg) with ties counted 1/2.

    Computed as the trapezoidal area under the ROC sweep. Twice that area times
    P*N is an exact integer, so the quotient is correctly rounded.
    """
    scores, labels = _split(scored)
    _require_both_classes(labels, "auc_roc")
    _, tps, fps = _threshold_sweep(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return int(np.sum(np.diff(fps) * (tps[1:] + tps[:-1]))) / (2 * n_pos * n_neg)


def _threshold_sweep(scores, labels):
    """Cumulative (threshold, tp, fp) as the threshold descends.

    One entry per distinct score (ties grouped), prefixed by a +inf threshold
    where nothing is predicted positive. At each row, predicted positive means
    score >= threshold.
    """
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    tp = np.cumsum(y)
    fp = np.cumsum(~y)
    distinct = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    thresholds = np.concatenate(([np.inf], s[distinct]))
    tps = np.concatenate(([0], tp[distinct]))
    fps = np.concatenate(([0], fp[distinct]))
    return thresholds, tps, fps


def f_scores(scored):
    """(F1 at threshold 0.5, max F1 over thresholds, argmax threshold)."""
    scores, labels = _split(scored)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise MetricError("f_scores needs at least one positive")

    def f1(tp, fp):
        predicted = tp + fp
        if predicted == 0 or tp == 0:
            return 0.0
        precision = tp / predicted
        recall = tp / n_pos
        return 2.0 * precision * recall / (precision + recall)

    thresholds, tps, fps = _threshold_sweep(scores, labels)
    f1s = np.array([f1(tp, fp) for tp, fp in zip(tps, fps)])
    best = int(np.argmax(f1s))
    tp_half = int(labels[scores >= 0.5].sum())
    fp_half = int((~labels[scores >= 0.5]).sum())
    return f1(tp_half, fp_half), float(f1s[best]), float(thresholds[best])


def balanced_accuracy(scored, threshold=0.5):
    """Mean per-class recall at the threshold, as a fraction in [0, 1]."""
    scores, labels = _split(scored)
    _require_both_classes(labels, "balanced_accuracy")
    predicted = scores >= threshold
    recall_pos = (predicted & labels).sum() / labels.sum()
    recall_neg = (~predicted & ~labels).sum() / (~labels).sum()
    return float(0.5 * (recall_pos + recall_neg))


def curves(scored):
    """PR points (threshold, recall, precision) and ROC points (threshold, fpr, tpr).

    Both descend in threshold; ROC starts at (0, 0) and ends at (1, 1), and
    its trapezoidal area equals auc_roc.
    """
    scores, labels = _split(scored)
    _require_both_classes(labels, "curves")
    thresholds, tps, fps = _threshold_sweep(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    roc = [(float(t), fp / n_neg, tp / n_pos) for t, tp, fp in zip(thresholds, tps, fps)]
    pr = [
        (float(t), tp / n_pos, tp / (tp + fp) if tp + fp else 1.0)
        for t, tp, fp in zip(thresholds, tps, fps)
    ]
    return pr, roc


def evaluate(scored):
    f1_half, max_f1, max_f1_threshold = f_scores(scored)
    pr, roc = curves(scored)
    return EvalReport(
        f1_at_half=f1_half,
        max_f1=max_f1,
        max_f1_threshold=max_f1_threshold,
        auc=auc_roc(scored),
        balanced_accuracy=balanced_accuracy(scored),
        pr_points=pr,
        roc_points=roc,
    )


def write_curve_csv(points, path):
    """Emit curve points as 'threshold,x,y' rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "x", "y"])
        for threshold, x, y in points:
            writer.writerow([repr(threshold), repr(x), repr(y)])


def results_table(reports):
    """Render named reports as (csv_text, aligned_text).

    ``reports`` maps model name -> (inputs label, EvalReport); column order is
    F, AUC, ACC with ACC as a percentage.
    """
    if not reports:
        raise ValueError("need at least one report")
    rows = []
    for name, (inputs, report) in reports.items():
        if not name:
            raise ValueError("report names must be non-empty")
        rows.append(
            (name, inputs or "-", f"{report.max_f1:.3f}", f"{report.auc:.3f}",
             f"{100.0 * report.balanced_accuracy:.1f}")
        )
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
