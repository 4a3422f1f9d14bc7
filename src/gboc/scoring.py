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
    uncovered timesteps inherit the nearest covered timestep's score."""
    window_scores = np.asarray(window_scores, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    if window_scores.shape != starts.shape:
        raise BadParams("window_scores and starts must have the same length")
    total = np.zeros(T)
    count = np.zeros(T)
    for score, s in zip(window_scores, starts):
        total[s : s + w] += score
        count[s : s + w] += 1.0
    covered = count > 0
    out = np.zeros(T)
    out[covered] = total[covered] / count[covered]
    if not covered.all():
        cov_idx = np.where(covered)[0]
        for t in np.where(~covered)[0]:
            nearest = cov_idx[np.argmin(np.abs(cov_idx - t))]
            out[t] = out[nearest]
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
