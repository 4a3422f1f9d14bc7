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


def score_windows(model: GbocModel, ws: tsdata.WindowSet) -> np.ndarray:
    """Distance from each window's latent to the nearest retained center.

    Each block of encode_blocks goes straight to the nearest-center search,
    and only its distances are kept: no latent array of the whole series is
    built. A row's nearest center and distance do not depend on the block
    it is searched in, so the scores equal those of one search over every
    latent, bit for bit."""
    if ws.window_len != model.config.window or ws.n_channels != model.encoder.input_size:
        raise ModelMismatch(
            f"windows are ({ws.window_len} x {ws.n_channels}), model expects "
            f"({model.config.window} x {model.encoder.input_size})"
        )
    dists = np.empty(ws.n_windows)
    for rows, z in neural.encode_blocks(model.encoder, ws.as_sequences()):
        dists[rows] = granular.nearest_centers(model.centers, z)[1]
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
    norm_ts = tsdata.apply_normalizer(test_ts, model.norm)
    ws = tsdata.make_windows(norm_ts, model.config.window, model.config.stride)
    wscores = score_windows(model, ws)
    pscores = windows_to_points(wscores, ws.starts, model.config.window, test_ts.T)
    fit_on = pscores if threshold_scores is None else np.asarray(threshold_scores, dtype=np.float64)
    threshold = threshold_3sigma(fit_on)
    flags = (pscores > threshold).astype(np.int64)
    return AnomalyReport(point_scores=pscores, threshold=threshold, flags=flags)
