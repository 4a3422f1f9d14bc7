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
    window_scores: np.ndarray  # (N_w,)
    point_scores: np.ndarray  # (T,)
    threshold: float
    flags: np.ndarray  # (T,) 0/1


def score_windows(model: GbocModel, ws: tsdata.WindowSet) -> np.ndarray:
    """Distance from each window's latent to the nearest retained center."""
    if ws.window_len != model.config.window or ws.n_channels != model.encoder.input_size:
        raise ModelMismatch(
            f"windows are ({ws.window_len} x {ws.n_channels}), model expects "
            f"({model.config.window} x {model.encoder.input_size})"
        )
    latents = neural.encode_batch(model.encoder, ws.as_sequences())
    _, dists = granular.nearest_centers(model.centers, latents)
    return dists


def windows_to_points(window_scores: np.ndarray, starts: np.ndarray, w: int, T: int) -> np.ndarray:
    """Per-timestep score: mean over all windows covering the timestep;
    uncovered timesteps inherit the nearest covered timestep's score (ties ->
    the earlier one).

    Starts must be strictly increasing and each window must fit in [0, T).
    Each timestep sums its windows in start order, one offset j at a time
    from w-1 down to 0, so the sums are those of a per-window loop."""
    window_scores = np.asarray(window_scores, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    if window_scores.shape != starts.shape or starts.ndim != 1:
        raise BadParams("window_scores and starts must be 1-D with the same length")
    if w < 1 or starts.size == 0:
        raise BadParams("need a positive window length and at least one window")
    if starts[0] < 0 or starts[-1] + w > T or np.any(np.diff(starts) <= 0):
        raise BadParams(f"window starts must increase strictly and windows of length {w} must fit in {T} steps")
    total = np.zeros(T)
    count = np.zeros(T)
    for j in range(w - 1, -1, -1):
        total[starts + j] += window_scores
        count[starts + j] += 1.0
    covered = count > 0
    out = np.zeros(T)
    out[covered] = total[covered] / count[covered]
    if not covered.all():
        cov_idx = np.flatnonzero(covered)
        gaps = np.flatnonzero(~covered)
        right = np.searchsorted(cov_idx, gaps)
        left = np.maximum(right - 1, 0)
        right = np.minimum(right, cov_idx.size - 1)
        take_left = np.abs(gaps - cov_idx[left]) <= np.abs(cov_idx[right] - gaps)
        out[gaps] = out[np.where(take_left, cov_idx[left], cov_idx[right])]
    return out


def threshold_3sigma(point_scores: np.ndarray) -> tuple[float, np.ndarray]:
    """Threshold at mean + 3 * population std; flags are strictly above it."""
    scores = np.asarray(point_scores, dtype=np.float64)
    if scores.size < 1:
        raise BadParams("need at least one score")
    threshold = float(scores.mean() + 3.0 * scores.std())
    flags = (scores > threshold).astype(np.int64)
    return threshold, flags


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
    norm_ts = tsdata.apply_normalizer(test_ts, model.norm)
    ws = tsdata.make_windows(norm_ts, model.config.window, model.config.stride)
    wscores = score_windows(model, ws)
    pscores = windows_to_points(wscores, ws.starts, model.config.window, test_ts.T)
    fit_on = pscores if threshold_scores is None else np.asarray(threshold_scores, dtype=np.float64)
    threshold, _ = threshold_3sigma(fit_on)
    flags = (pscores > threshold).astype(np.int64)
    return AnomalyReport(window_scores=wscores, point_scores=pscores, threshold=threshold, flags=flags)
