"""Tolerance-aware evaluation metrics.

A prediction is credited when it lands within a tolerance of delta timesteps
of a true anomaly. Curve metrics sweep the score threshold over every
distinct value, build the tolerant PR / ROC curves, integrate them with the
trapezoid rule, and average areas over a tolerance grid. The affiliation
score softly matches predicted timestamps to ground-truth intervals through
a Gaussian kernel and is NaN when there is nothing to match.

Neither is the published metric of the same name, so the numbers are not
comparable with reported ones. VUS (Paparrizos et al., PVLDB 2022) gives
anomaly ranges soft sqrt-shaped label buffers, uses range-based recall and
integrates over a continuum of buffer lengths; here labels are dilated by a
hard +-delta window, recall is min(credited predictions, anomalies) /
anomalies, and areas are averaged over a finite delta set. Affiliation (Huet
et al., KDD 2022) scores each ground-truth event in its own zone against a
uniformly random prediction, so chance scores about 0.5; here a fixed-sigma
Gaussian kernel exp(-d^2 / 2 sigma^2) is averaged over all predicted and all
anomalous timestamps at once, so the value depends on sigma.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams

DEFAULT_DELTA_SET = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class DeltaRow:
    delta: int
    auc_pr: float
    auc_roc: float


@dataclass(frozen=True)
class EvalScores:
    vus_pr: float
    vus_roc: float
    affiliation_f1: float  # NaN when undefined
    per_delta: tuple[DeltaRow, ...]


def _check_series(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise BadParams("scores and labels must be 1-D and the same length")
    return scores, labels


def _tolerant_mask(labels: np.ndarray, delta: int) -> np.ndarray:
    """True at timesteps within delta of some anomaly timestep.

    Counts anomalies in [t - delta, t + delta] from one prefix count. Every
    delta of T - 1 or more marks the same steps, so a larger one is clamped
    to T."""
    T = labels.size
    delta = min(int(delta), T)
    before = np.concatenate([[0], np.cumsum(labels.astype(bool))])  # anomalies in [0, i)
    t = np.arange(T)
    return before[np.minimum(t + delta + 1, T)] > before[np.maximum(t - delta, 0)]


def _delta_areas(scores: np.ndarray, labels: np.ndarray, delta_set) -> list[tuple[float, float]]:
    """(PR area, ROC area) for each delta, sweeping {t: score >= tau} over every
    distinct score (ties grouped) from one descending sort of the scores.

    The PR curve carries its smallest-recall precision down to recall zero;
    the ROC curve is closed at (0, 0) and (1, 1), and is NaN with no normal point.
    """
    scores, labels = _check_series(scores, labels)
    n_anom = int(labels.sum())
    n_norm = labels.size - n_anom
    if n_anom == 0:
        raise BadParams("labels contain no anomaly")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    group_ends = np.append(np.nonzero(np.diff(s_sorted))[0], s_sorted.size - 1)
    n_pred = group_ends + 1.0
    areas = []
    for delta in delta_set:
        tp = np.cumsum(_tolerant_mask(labels, delta)[order].astype(np.float64))[group_ends]
        precision = tp / n_pred
        recall = np.minimum(tp, n_anom) / n_anom
        pr_precision = np.concatenate([[precision[0]], precision])
        auc_pr = float(np.trapezoid(pr_precision, np.concatenate([[0.0], recall])))
        auc_roc = float("nan")
        if n_norm > 0:
            tpr = np.concatenate([[0.0], recall, [1.0]])
            fpr = np.concatenate([[0.0], (n_pred - tp) / n_norm, [1.0]])
            auc_roc = float(np.trapezoid(tpr, fpr))
        areas.append((auc_pr, auc_roc))
    return areas


def vus_pr(scores: np.ndarray, labels: np.ndarray, delta_set=DEFAULT_DELTA_SET) -> float:
    """Tolerant area under the precision-recall curve, averaged over deltas."""
    return float(np.mean([pr for pr, _ in _delta_areas(scores, labels, delta_set)]))


def vus_roc(scores: np.ndarray, labels: np.ndarray, delta_set=DEFAULT_DELTA_SET) -> float:
    """Tolerant area under the ROC curve, averaged over deltas."""
    scores, labels = _check_series(scores, labels)
    if labels.sum() in (0, labels.size):
        raise BadParams("need at least one anomaly and one normal point")
    return float(np.mean([roc for _, roc in _delta_areas(scores, labels, delta_set)]))


def label_intervals(labels: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous runs of 1s as inclusive (start, end) pairs."""
    labels = np.asarray(labels, dtype=np.int64)
    edges = np.diff(np.concatenate([[0], labels, [0]]))
    starts = np.where(edges == 1)[0]
    ends = np.where(edges == -1)[0] - 1
    return list(zip(starts.tolist(), ends.tolist()))


def _dist_to_intervals(points: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest (start, end) interval, 0 inside.

    One binary search per point over the intervals sorted by start: of those
    starting at or before the point, the nearest is the one ending last; of
    those starting after it, the first. Memory is linear in points plus
    intervals."""
    intervals = intervals[np.argsort(intervals[:, 0], kind="stable")]
    starts = intervals[:, 0]
    last_end = np.maximum.accumulate(intervals[:, 1])
    k = np.searchsorted(starts, points, side="right")  # intervals starting at or before each point
    before = np.where(k > 0, np.maximum(points - last_end[np.maximum(k - 1, 0)], 0.0), np.inf)
    after = np.where(k < starts.size, starts[np.minimum(k, starts.size - 1)] - points, np.inf)
    return np.minimum(before, after)


def _kernel_denominator(sigma: float) -> float:
    """2 sigma^2 of the affiliation kernel, checked: sigma must be positive
    and finite and 2 sigma^2 must neither underflow to 0 nor overflow."""
    denom = 2.0 * sigma * sigma
    if not (0.0 < sigma < np.inf and 0.0 < denom < np.inf):
        raise BadParams(f"sigma must be positive and finite with 2*sigma^2 a positive finite number, got {sigma}")
    return denom


def affiliation_f1(
    pred_flags: np.ndarray, intervals: list[tuple[int, int]], sigma: float
) -> float:
    """Harmonic mean of Gaussian-kernel soft precision and recall.

    Precision averages, over predicted timestamps, the kernel of the distance
    to the nearest ground-truth interval; recall averages, over true anomaly
    timestamps, the kernel of the distance to the nearest prediction. NaN
    when there are no predictions (or no true anomalies to recall, or the
    kernels underflow to zero on both sides).
    """
    denom = _kernel_denominator(sigma)
    pred_ts = np.where(np.asarray(pred_flags, dtype=np.int64) == 1)[0].astype(np.float64)
    if pred_ts.size == 0 or not intervals:
        return float("nan")
    iv = np.asarray(intervals, dtype=np.float64)

    d_pred = _dist_to_intervals(pred_ts, iv)
    precision = float(np.mean(np.exp(-(d_pred**2) / denom)))

    true_ts = np.concatenate([np.arange(s, e + 1) for s, e in intervals]).astype(np.float64)
    d_true = _dist_to_intervals(true_ts, np.column_stack([pred_ts, pred_ts]))  # predictions as 1-step intervals
    recall = float(np.mean(np.exp(-(d_true**2) / denom)))

    if precision + recall == 0.0:
        return float("nan")
    return 2.0 * precision * recall / (precision + recall)


def evaluate(
    point_scores: np.ndarray,
    flags: np.ndarray,
    labels: np.ndarray,
    delta_set=DEFAULT_DELTA_SET,
    *,
    sigma: float,
) -> EvalScores:
    """All three metrics plus the per-delta breakdown, as the eval command
    reports them; sigma is the affiliation kernel bandwidth."""
    _kernel_denominator(sigma)
    areas = _delta_areas(point_scores, labels, delta_set)
    if np.all(labels):
        raise BadParams("need at least one anomaly and one normal point")
    rows = tuple(
        DeltaRow(delta=int(delta), auc_pr=pr, auc_roc=roc) for delta, (pr, roc) in zip(delta_set, areas)
    )
    return EvalScores(
        vus_pr=float(np.mean([r.auc_pr for r in rows])),
        vus_roc=float(np.mean([r.auc_roc for r in rows])),
        affiliation_f1=affiliation_f1(flags, label_intervals(labels), sigma),
        per_delta=rows,
    )
