"""Time-series ingestion, normalization, windowing, and scenario synthesis.

All functions are pure: they never mutate their inputs and are safe to call
concurrently on distinct data.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import BadParams, MissingFile, ModelMismatch, ParseError
from .options import AT_LEAST_0, AT_LEAST_1, COUNT, NONNEGATIVE, POSITIVE, Options, _integer, option

EPS_STD = 1e-8


@dataclass(frozen=True)
class TimeSeries:
    """A T x d matrix of observations with optional per-timestep 0/1 labels."""

    values: np.ndarray
    labels: np.ndarray | None = None
    channel_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise BadParams(f"values must be a T x d matrix with T,d >= 1, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ParseError("values contain non-finite entries")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (values.shape[0],):
                raise BadParams(f"labels must have length T={values.shape[0]}, got shape {labels.shape}")
            bad = np.where((labels != 0) & (labels != 1))[0]
            if bad.size:
                raise ParseError(f"label at row {bad[0] + 1} is not 0/1", row=int(bad[0]) + 1)
            object.__setattr__(self, "labels", labels)
        if not self.channel_names:
            object.__setattr__(self, "channel_names", [f"v{i}" for i in range(values.shape[1])])
        elif len(self.channel_names) != values.shape[1]:
            raise BadParams("channel_names length must equal d")

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std fitted on the training split; std clamped to EPS_STD."""

    mean: np.ndarray
    std: np.ndarray


def load_csv(path: str | Path, label_column: str | None = None) -> TimeSeries:
    """Read a comma-separated file with a mandatory header into a TimeSeries.

    The header names each column once. All non-label columns must parse as
    finite reals; the label column, when named, must contain only 0/1. A bad
    cell, or the first cell missing from a short row, is named as
    ``row R, column 'C'`` with data rows counted from 1.

    np.loadtxt parses a plain file (see _parse_plain). Any other file, and a
    plain one that np.loadtxt does not read as a valid series, goes through
    the csv module one cell at a time, which gives the same series, names
    the first bad row or cell, and reports a decode error as the csv
    module's streaming read meets it.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"no such file: {path}")
    values, labels, names = _parse_plain(path, label_column) or _parse_with_csv_module(path, label_column)
    return TimeSeries(values=values, labels=None if labels is None else labels.astype(np.int64), channel_names=names)


# np.loadtxt strips these around a number, as it does every str.isspace()
# character, but float() rejects them
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _parse_plain(
    path: Path, label_column: str | None
) -> tuple[np.ndarray, np.ndarray | None, list[str]] | None:
    """Values, labels and channel names of a valid plain file, parsed by
    np.loadtxt; None for any other file. A plain file's bad header raises
    here the error the csv module's path would raise.

    A plain file decodes and holds no quote, NUL, lone CR or blank line, and
    no line longer than the csv module's field limit, so the csv module
    would split it at every comma and line terminator. It holds none of
    _LOADTXT_ONLY_SPACES either; then np.loadtxt reads each cell as float()
    does, or rejects it (an underscore, a non-ASCII digit), and a rejected
    cell sends the file to the csv module's path."""
    try:
        with path.open(newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if any(c in text for c in '"\0' + _LOADTXT_ONLY_SPACES) or text.count("\r") != text.count("\r\n"):
        return None
    if text.startswith(("\n", "\r\n")) or "\n\n" in text or "\n\r\n" in text:
        return None  # a blank line
    # np.loadtxt and the header's strip() both drop the CR of a CRLF
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # after the final terminator
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [h.strip() for h in lines[0].split(",")]
    feat_idx, label_idx = _column_indices(header, label_column)
    try:
        table = np.loadtxt(lines[1:], delimiter=",", dtype=np.float64, ndmin=2, comments=None, quotechar=None)
    except ValueError:
        return None
    if table.shape != (len(lines) - 1, len(header)):
        return None
    values = table[:, feat_idx]
    labels = None if label_idx is None else table[:, label_idx]
    if not np.all(np.isfinite(values)) or (labels is not None and np.any((labels != 0) & (labels != 1))):
        return None
    return values, labels, [header[i] for i in feat_idx]


def _parse_with_csv_module(
    path: Path, label_column: str | None
) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Values, labels and channel names, from the csv module's split of the
    file parsed one cell at a time."""
    try:
        with path.open(newline="") as fh:
            records = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not a CSV text file: {exc}") from None
    if not records:
        raise ParseError("file is empty (no header row)")
    header = [h.strip() for h in records[0]]
    feat_idx, label_idx = _column_indices(header, label_column)
    data = records[1:]
    if not data:
        raise ParseError("file has a header but no data rows")
    values, labels = _walk_rows(data, header, feat_idx, label_idx)
    return values, labels, [header[i] for i in feat_idx]


def _column_indices(header: list[str], label_column: str | None) -> tuple[list[int], int | None]:
    """Indices of the feature columns and of the label column, if named.

    A header that names a column twice, blank names included, is rejected:
    the labels or a channel would be read from whichever copy came first.
    The error's col stays None, since row 0 with a col names a missing
    column."""
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise ParseError(f"header names column {name!r} more than once", row=0)
        seen.add(name)
    label_idx: int | None = None
    if label_column is not None:
        if label_column not in header:
            raise ParseError(f"label column {label_column!r} not in header", row=0, col=label_column)
        label_idx = header.index(label_column)
    feat_idx = [i for i in range(len(header)) if i != label_idx]
    if not feat_idx:
        raise ParseError("no feature columns")
    return feat_idx, label_idx


def _walk_rows(
    data: list[list[str]], header: list[str], feat_idx: list[int], label_idx: int | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse the data rows one cell at a time; raise the error of the first
    bad row or cell, in row order and then column order."""
    rows: list[list[float]] = []
    labels: list[float] = []
    for rnum, record in enumerate(data, start=1):
        if len(record) > len(header):
            raise ParseError(f"row {rnum} has {len(record)} fields, expected {len(header)}", row=rnum)
        if len(record) < len(header):
            col = header[len(record)]
            msg = f"row {rnum}, column {col!r}: missing, the row has {len(record)} of {len(header)} fields"
            raise ParseError(msg, row=rnum, col=col)
        feats = []
        for i in feat_idx:
            try:
                v = float(record[i])
            except ValueError:
                msg = f"row {rnum}, column {header[i]!r}: {record[i]!r} is not a number"
                raise ParseError(msg, row=rnum, col=header[i]) from None
            if not math.isfinite(v):
                msg = f"row {rnum}, column {header[i]!r}: {record[i]!r} is not finite"
                raise ParseError(msg, row=rnum, col=header[i])
            feats.append(v)
        rows.append(feats)
        if label_idx is not None:
            raw = record[label_idx].strip()
            try:
                lv = float(raw)
            except ValueError:
                lv = None
            if lv not in (0.0, 1.0):
                msg = f"row {rnum}, column {header[label_idx]!r}: label {raw!r} is not 0/1"
                raise ParseError(msg, row=rnum, col=header[label_idx])
            labels.append(lv)
    return np.array(rows, dtype=np.float64), None if label_idx is None else np.array(labels)


def write_csv(path: str | Path, header: list[str], columns: Iterable[np.ndarray]) -> None:
    """Write a header row and then one numeric column per header name, in
    the format load_csv reads.

    Float columns get 17 significant digits, so every finite float64 reads
    back bit-exactly; integer columns are written as plain integers.
    """
    columns = [np.asarray(c) for c in columns]
    row_format = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + "\r\n"
    cells = [None] * sum(map(len, columns))  # row-major, for one % call over every row
    for j, c in enumerate(columns):
        cells[j :: len(columns)] = c.tolist()
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write((row_format * len(columns[0])) % tuple(cells))


def save_csv(ts: TimeSeries, path: str | Path) -> None:
    """Write a TimeSeries in the same format load_csv reads (label column included when present)."""
    if ts.labels is None:
        write_csv(path, list(ts.channel_names), ts.values.T)
    else:
        write_csv(path, [*ts.channel_names, "label"], [*ts.values.T, ts.labels])


def fit_normalizer(train: TimeSeries) -> NormStats:
    """Per-channel mean and sample (n-1) std of the training split."""
    if train.T < 2:
        raise BadParams(f"need at least 2 timesteps to fit a normalizer, got T={train.T}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.values.mean(axis=0)
        std = train.values.std(axis=0, ddof=1)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
        raise BadParams("the training series' mean or std overflows float64; rescale it")
    std = np.maximum(std, EPS_STD)
    return NormStats(mean=mean, std=std)


def apply_normalizer(ts: TimeSeries, stats: NormStats) -> np.ndarray:
    """The series' values z-scored by the training stats, as a (T, d) float64 array."""
    if stats.mean.shape != (ts.d,) or stats.std.shape != (ts.d,):
        raise ModelMismatch(f"normalizer is for d={stats.mean.shape[0]} channels, series has d={ts.d}")
    with np.errstate(over="ignore"):
        values = (ts.values - stats.mean) / stats.std
    if not np.all(np.isfinite(values)):
        raise ModelMismatch("the series lies far outside the training range: normalizing it overflows float64")
    return values


def make_windows(values: np.ndarray, w: int, stride: int) -> np.ndarray:
    """The (N, w, d) windows of a (T, d) array; window k starts at k * stride.

    The result is one fresh C-contiguous copy: a reshape of the sliding view
    would alias the input."""
    if w < 1 or stride < 1:
        raise BadParams("window length and stride must be positive")
    if w > len(values):
        raise BadParams(f"window length {w} exceeds series length {len(values)}")
    return np.array(np.lib.stride_tricks.sliding_window_view(values, (w, values.shape[1]))[::stride, 0])


@dataclass(frozen=True)
class SynthParams(Options):
    """Knobs for the scenario generator."""

    n_spikes: int = option(8, AT_LEAST_0, flag="--spikes")
    n_shifts: int = option(2, AT_LEAST_0, flag="--shifts")
    spike_mag: float = option(5.0, POSITIVE)
    shift_len: int = option(20, AT_LEAST_1)
    shift_mag: float = option(3.0, POSITIVE)
    drift_slope: float = option(0.001, NONNEGATIVE)
    noise_std: float = option(0.3, NONNEGATIVE)
    n_channels: int = option(1, COUNT, flag="--channels")


SCENARIO_KINDS = ("clean", "drift", "noise", "drift_noise")


def _base_signal(T: int, d: int, rng: np.random.Generator) -> np.ndarray:
    # one long record; the caller splits it into train/test halves so both
    # follow the same seeded pattern
    t = np.arange(2 * T, dtype=np.float64)
    out = np.zeros((2 * T, d))
    for c in range(d):
        # three incommensurate periods keep the pattern nontrivial but learnable
        periods = np.array([47.0, 131.0, 223.0]) * (1.0 + 0.1 * c)
        amps = np.array([1.0, 0.6, 0.4])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        for p, a, ph in zip(periods, amps, phases):
            out[:, c] += a * np.sin(2.0 * np.pi * t / p + ph)
    return out


# the test split's finiteness check names the knobs to lower; NumPy would only warn
@np.errstate(over="ignore", invalid="ignore")
def synth_scenario(
    kind: str, T: int, seed: int, params: SynthParams | None = None
) -> tuple[TimeSeries, TimeSeries]:
    """Build a (train, test) pair for one robustness scenario.

    Train is an anomaly-free sinusoid mixture. Test shares the signal family
    and carries injected spikes and level shifts with labels set; drift adds a
    linear trend to the test split only, noise adds i.i.d. Gaussian
    perturbation to the test values. Deterministic for a fixed seed: the
    drift/noise variants consume the generator in the same order as clean, so
    anomaly placement matches across kinds.
    """
    if kind not in SCENARIO_KINDS:
        raise BadParams(f"unknown scenario kind {kind!r}, expected one of {SCENARIO_KINDS}")
    for name, value in (("T", T), ("seed", seed)):
        if not _integer(lambda v: True)(value):
            raise BadParams(f"{name} must be an integer, got {value!r}")
    if not 200 <= T < 2**32:
        raise BadParams(f"T must be in [200, 2**32), got {T}")
    if not 0 <= seed < 2**64:
        raise BadParams(f"seed must be in [0, 2**64), got {seed}")
    params = params or SynthParams()
    margin = max(params.shift_len + 1, T // 50)
    lo, hi = margin, T - margin
    if params.n_shifts and lo >= hi - params.shift_len:
        raise BadParams(f"a level shift of length {params.shift_len} does not fit in a series of T={T}")
    d = params.n_channels
    rng = np.random.default_rng([seed, 0xB0C])

    signal = _base_signal(T, d, rng)
    train_values = signal[:T].copy()
    test_values = signal[T:].copy()
    labels = np.zeros(T, dtype=np.int64)

    # level shifts first (they occupy ranges), then spikes outside them
    occupied = np.zeros(T, dtype=bool)
    for _ in range(params.n_shifts):
        for _attempt in range(200):
            s = int(rng.integers(lo, hi - params.shift_len))
            seg = slice(s, s + params.shift_len)
            if not occupied[seg].any():
                sign = 1.0 if rng.random() < 0.5 else -1.0
                test_values[seg] += sign * params.shift_mag
                labels[seg] = 1
                occupied[seg] = True
                break
        else:
            raise BadParams("could not place level shifts; series too short for requested anomalies")

    free = np.where(~occupied)[0]
    free = free[(free >= lo) & (free < hi)]
    if params.n_spikes > free.size:
        raise BadParams("could not place spikes; series too short for requested anomalies")
    spike_pos = rng.choice(free, size=params.n_spikes, replace=False)
    for pos in np.sort(spike_pos):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        test_values[pos] += sign * params.spike_mag
        labels[pos] = 1

    if kind in ("drift", "drift_noise"):
        trend = params.drift_slope * np.arange(T, dtype=np.float64)
        test_values += trend[:, None]
    if kind in ("noise", "drift_noise"):
        test_values += params.noise_std * rng.standard_normal(size=(T, d))
    if not np.all(np.isfinite(test_values)):
        knobs = ", ".join(f.name for f in fields(params) if f.metadata["kind"].type is float)
        raise BadParams(f"the test split overflows float64; lower one of {knobs}")

    names = [f"v{i}" for i in range(d)]
    train = TimeSeries(values=train_values, labels=np.zeros(T, dtype=np.int64), channel_names=names)
    test = TimeSeries(values=test_values, labels=labels, channel_names=names)
    return train, test
