"""Granular-ball one-class network for time-series anomaly detection."""

from . import errors, granular, metrics, model_io, neural, scoring, trainer, tsdata
from .errors import GbocError
from .metrics import evaluate
from .model_io import load_model, save_model
from .scoring import detect
from .trainer import TrainConfig, train
from .tsdata import TimeSeries, load_csv, synth_scenario

__all__ = [
    "GbocError",
    "TimeSeries",
    "TrainConfig",
    "detect",
    "errors",
    "evaluate",
    "granular",
    "load_csv",
    "load_model",
    "metrics",
    "model_io",
    "neural",
    "save_model",
    "scoring",
    "synth_scenario",
    "train",
    "trainer",
    "tsdata",
]
