"""Granular-ball one-class network for time-series anomaly detection."""

from . import errors, granular, metrics, model_io, neural, scoring, trainer, tsdata
from .errors import GbocError
from .granular import GbSet, GranularBall, coverage_rate, dm, generate, nearest_center, prune, try_split
from .metrics import EvalScores, affiliation_f1, evaluate, vus_pr, vus_roc
from .model_io import load_model, save_model
from .scoring import AnomalyReport, detect, score_windows, threshold_3sigma, windows_to_points
from .trainer import EpochReport, GbocModel, TrainConfig, train
from .tsdata import (
    NormStats,
    SynthParams,
    TimeSeries,
    WindowSet,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    make_windows,
    synth_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyReport",
    "EpochReport",
    "EvalScores",
    "GbSet",
    "GbocError",
    "GbocModel",
    "GranularBall",
    "NormStats",
    "SynthParams",
    "TimeSeries",
    "TrainConfig",
    "WindowSet",
    "affiliation_f1",
    "apply_normalizer",
    "coverage_rate",
    "detect",
    "dm",
    "errors",
    "evaluate",
    "fit_normalizer",
    "generate",
    "granular",
    "load_csv",
    "load_model",
    "make_windows",
    "metrics",
    "model_io",
    "nearest_center",
    "neural",
    "prune",
    "save_model",
    "score_windows",
    "scoring",
    "synth_scenario",
    "threshold_3sigma",
    "train",
    "trainer",
    "try_split",
    "tsdata",
    "vus_pr",
    "vus_roc",
    "windows_to_points",
]
