"""Inference: window scores by nearest-center distance, point aggregation,
and the 3-sigma decision rule."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import granular, neural, tsdata
from .errors import BadParams, ModelMismatch
from .trainer import GbocModel


@dataclass(frozen=True)
class AnomalyReport:
    point_scores: np.ndarray  # (T,)
    threshold: float
    flags: np.ndarray  # (T,) 0/1


def score_windows(model: GbocModel, windows: np.ndarray) -> np.ndarray:
    """Distance from each (w, d) window's latent to the nearest retained center.

    Each encoder block goes straight to the nearest-center search, and only
    its distances are kept: no latent array of the whole series is built. A
    row's nearest center and distance do not depend on the block it is
    searched in, so the scores equal those of one search over every latent,
    bit for bit. The search is granular's private one: see _for_each_block."""
    if windows.shape[1:] != (model.config.window, model.encoder.input_size):
        raise ModelMismatch(
            f"windows are ({windows.shape[1]} x {windows.shape[2]}), model expects "
            f"({model.config.window} x {model.encoder.input_size})"
        )
    dists = np.empty(len(windows))

    def keep_distances(rows: slice, z: np.ndarray) -> None:
        dists[rows] = granular._nearest_centers(model.centers, z)[1]

    neural._for_each_block(model.encoder, windows, keep_distances)
    return dists


def windows_to_points(window_scores: np.ndarray, stride: int, w: int, T: int) -> np.ndarray:
    """Per-timestep score: mean over all windows covering the timestep;
    uncovered timesteps inherit the nearest covered timestep's score (ties ->
    the earlier one).

    Window k starts at k * stride, and the last one must end inside [0, T).
    Each timestep sums its windows in start order, one offset j at a time
    from w-1 down to 0, so the sums are those of a per-window loop."""
    window_scores = np.asarray(window_scores, dtype=np.float64)
    if window_scores.ndim != 1 or window_scores.size == 0:
        raise BadParams("window_scores must be 1-D with at least one window")
    if w < 1 or stride < 1:
        raise BadParams("window length and stride must be positive")
    starts = np.arange(window_scores.size, dtype=np.int64) * stride
    if starts[-1] + w > T:
        raise BadParams(f"{starts.size} windows of length {w} at stride {stride} do not fit in {T} steps")
    total = np.zeros(T)
    count = np.zeros(T)
    for j in range(w - 1, -1, -1):
        total[starts + j] += window_scores
        count[starts + j] += 1.0
    covered = count > 0
    out = np.zeros(T)
    out[covered] = total[covered] / count[covered]
    # with no gap, gaps and every array indexed by it are empty
    cov_idx = np.flatnonzero(covered)
    gaps = np.flatnonzero(~covered)
    right = np.searchsorted(cov_idx, gaps)
    left = np.maximum(right - 1, 0)
    right = np.minimum(right, cov_idx.size - 1)
    take_left = np.abs(gaps - cov_idx[left]) <= np.abs(cov_idx[right] - gaps)
    out[gaps] = out[np.where(take_left, cov_idx[left], cov_idx[right])]
    return out


def threshold_3sigma(point_scores: np.ndarray) -> float:
    """Mean + 3 * population std of the scores; points strictly above it are flagged."""
    scores = np.asarray(point_scores, dtype=np.float64)
    if scores.size < 1:
        raise BadParams("need at least one score")
    return float(scores.mean() + 3.0 * scores.std())


def detect(
    model: GbocModel,
    test_ts: tsdata.TimeSeries,
    threshold_scores: np.ndarray | None = None,
) -> AnomalyReport:
    """Full inference pass over a series.

    The 3-sigma threshold is fitted on the scored series itself unless
    threshold_scores (e.g. point scores of a separate normal validation
    series) are supplied.
    """
    values = tsdata.apply_normalizer(test_ts, model.norm)
    windows = tsdata.make_windows(values, model.config.window, model.config.stride)
    wscores = score_windows(model, windows)
    pscores = windows_to_points(wscores, model.config.stride, model.config.window, test_ts.T)
    fit_on = pscores if threshold_scores is None else np.asarray(threshold_scores, dtype=np.float64)
    threshold = threshold_3sigma(fit_on)
    flags = (pscores > threshold).astype(np.int64)
    return AnomalyReport(point_scores=pscores, threshold=threshold, flags=flags)
