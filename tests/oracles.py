"""Independent reference implementations used as test oracles.

Everything here is deliberately written scalar/loop-style, sharing no code
with the library paths it checks.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gboc import granular, neural, tsdata
from gboc.errors import BadParams, MissingFile, ParseError


def naive_encode(enc: neural.EncoderParams, window: np.ndarray) -> np.ndarray:
    """Step-by-step recurrent forward pass with per-vector arithmetic."""
    h = enc.hidden_size
    seq = [np.asarray(row, dtype=np.float64) for row in window]
    finals = []
    for layer in enc.layers:
        hs = np.zeros(h)
        cs = np.zeros(h)
        outs = []
        for x in seq:
            a = layer.W @ x + layer.U @ hs + layer.b
            gate_i = 1.0 / (1.0 + np.exp(-a[0:h]))
            gate_f = 1.0 / (1.0 + np.exp(-a[h : 2 * h]))
            cand = np.tanh(a[2 * h : 3 * h])
            gate_o = 1.0 / (1.0 + np.exp(-a[3 * h : 4 * h]))
            cs = gate_f * cs + gate_i * cand
            hs = gate_o * np.tanh(cs)
            outs.append(hs)
        finals.append(hs)
        seq = outs
    return np.concatenate(finals)


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function with exp taken only of non-positive arguments, one
    branch per sign, written into a preallocated buffer."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def where_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as one np.where over both branches, each from a
    fresh exp(-|x|) and a fresh 1 + e."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + ex), ex / (1 + ex))


def unblocked_encode(enc: neural.EncoderParams, X: np.ndarray) -> np.ndarray:
    """Latents of the whole batch (B, w, d) in one forward pass, every gate
    product and state update a fresh array."""
    h = enc.hidden_size
    seq = np.asarray(X, dtype=np.float64)
    B, w, _ = seq.shape
    finals = []
    for layer in enc.layers:
        hs = np.zeros((B, h))
        cs = np.zeros((B, h))
        outputs = np.empty((B, w, h))
        for t in range(w):
            a = seq[:, t, :] @ layer.W.T + hs @ layer.U.T + layer.b
            i = where_sigmoid(a[:, :h])
            f = where_sigmoid(a[:, h : 2 * h])
            g = np.tanh(a[:, 2 * h : 3 * h])
            o = where_sigmoid(a[:, 3 * h :])
            cs = f * cs + i * g
            hs = o * np.tanh(cs)
            outputs[:, t, :] = hs
        finals.append(hs)
        seq = outputs
    return np.concatenate(finals, axis=1)


def full_step_forward(enc: neural.EncoderParams, X: np.ndarray) -> tuple[np.ndarray, list]:
    """Latents of X (B, w, d) and the per-layer, per-step BPTT cache, with
    every step, the first included, taking the recurrent product and the
    forget-gate term of its zero or carried state."""
    B, w, _ = X.shape
    h = enc.hidden_size
    seq = X
    finals = []
    cache = []
    for layer in enc.layers:
        hs = np.zeros((B, h))
        cs = np.zeros((B, h))
        outputs = np.empty((B, w, h))
        steps = []
        for t in range(w):
            xt = seq[:, t, :]
            a = xt @ layer.W.T
            a += hs @ layer.U.T
            a += layer.b
            i_f = where_sigmoid(a[:, : 2 * h])
            i, f = i_f[:, :h], i_f[:, h:]
            g = np.tanh(a[:, 2 * h : 3 * h])
            o = where_sigmoid(a[:, 3 * h :])
            c_new = f * cs
            c_new += i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            steps.append((xt, hs, cs, i, f, g, o, tanh_c))
            hs, cs = h_new, c_new
            outputs[:, t, :] = h_new
        finals.append(hs)
        cache.append((seq, steps))
        seq = outputs
    return np.concatenate(finals, axis=1), cache


def full_step_backward(enc: neural.EncoderParams, cache: list, dZ: np.ndarray) -> list[np.ndarray]:
    """BPTT through full_step_forward's cache: every step, the first
    included, adds its dU product and carries dh and dc to the step before.
    Returns each layer's fresh W, U and b gradients, bottom layer first."""
    h = enc.hidden_size
    grads = [None] * (3 * enc.num_layers)
    B = dZ.shape[0]
    w = len(cache[0][1])
    d_seq_above = None
    for l in range(enc.num_layers - 1, -1, -1):
        layer = enc.layers[l]
        seq, steps = cache[l]
        dW = np.zeros_like(layer.W)
        dU = np.zeros_like(layer.U)
        db = np.zeros_like(layer.b)
        d_inputs = np.zeros((B, w, seq.shape[2])) if l > 0 else None
        dh_next = dZ[:, l * h : (l + 1) * h].copy()
        dc_next = np.zeros((B, h))
        for t in range(w - 1, -1, -1):
            xt, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
            dh = dh_next
            if d_seq_above is not None:
                dh = dh + d_seq_above[:, t, :]
            dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
            da_o = dh * tanh_c * o * (1.0 - o)
            da_i = dc * g * i * (1.0 - i)
            da_f = dc * c_prev * f * (1.0 - f)
            da_g = dc * i * (1.0 - g * g)
            da = np.concatenate([da_i, da_f, da_g, da_o], axis=1)
            dW += da.T @ xt
            dU += da.T @ h_prev
            db += da.sum(axis=0)
            if d_inputs is not None:
                d_inputs[:, t, :] = da @ layer.W
            dh_next = da @ layer.U
            dc_next = dc * f
        grads[3 * l : 3 * l + 3] = [dW, dU, db]
        d_seq_above = d_inputs
    return grads


def per_tensor_backward(enc, dec, X, Y, centers, assignment, lam) -> list[np.ndarray]:
    """The joint loss's gradient as one fresh array per tensor, in the order
    of neural.flatten_params: the encoder's from full_step_backward, then the
    decoder's W1, b1, W2 and b2 as plain products and sums."""
    B = X.shape[0]
    z, cache = full_step_forward(enc, np.asarray(X, dtype=np.float64))
    hh = np.tanh(z @ dec.W1.T + dec.b1)
    resid = hh @ dec.W2.T + dec.b2 - Y
    d_recon = (2.0 * lam / B) * resid
    dhpre = (d_recon @ dec.W2) * (1.0 - hh * hh)
    dz = dhpre @ dec.W1 + (2.0 * (1.0 - lam) / B) * (z - centers[assignment])
    decoder = [dhpre.T @ z, dhpre.sum(axis=0), d_recon.T @ hh, d_recon.sum(axis=0)]
    return full_step_backward(enc, cache, dz) + decoder


@dataclass
class DictAdam:
    """Adam with one moment pair per named tensor."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def dict_adam_step(state: DictAdam, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """One bias-corrected Adam step, tensor by tensor, each moment a fresh array."""
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    for k, p in params.items():
        g = grads[k]
        m = state.m.get(k, np.zeros_like(p))
        v = state.v.get(k, np.zeros_like(p))
        state.m[k] = state.beta1 * m + (1.0 - state.beta1) * g
        state.v[k] = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[k] / c1
        v_hat = state.v[k] / c2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def decode_batch(dec: neural.DecoderParams, Z: np.ndarray) -> np.ndarray:
    """Reconstructions of a batch of latents (B, latent)."""
    Z = np.asarray(Z, dtype=np.float64)
    latent_size = dec.W1.shape[1]
    if Z.shape[1] != latent_size:
        raise BadParams(f"latent size {Z.shape[1]} does not match decoder ({latent_size})")
    return np.tanh(Z @ dec.W1.T + dec.b1) @ dec.W2.T + dec.b2


def naive_decode(dec: neural.DecoderParams, z: np.ndarray) -> np.ndarray:
    hidden = np.tanh(dec.W1 @ np.asarray(z, dtype=np.float64) + dec.b1)
    return dec.W2 @ hidden + dec.b2


def fd_gradient_check(enc, dec, X, Y, centers, assignment, lam, step=1e-5) -> float:
    """Max relative error between analytic gradients and central differences,
    one entry of the flat parameter vector at a time (enc and dec are bound
    to its views)."""
    flat = neural.flatten_params(enc, dec)
    grad, _, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, lam)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        _, up, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, lam)
        flat[i] = orig - step
        _, down, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, lam)
        flat[i] = orig
        fd = (up - down) / (2.0 * step)
        rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6)
        worst = max(worst, rel)
    return worst


def random_small_net(seed: int):
    """A random tiny encoder/decoder/batch/center setup for gradient checks."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    w = int(rng.integers(2, 5))
    h = int(rng.integers(2, 5))
    L = int(rng.integers(1, 3))
    B = int(rng.integers(2, 4))
    m_dec = int(rng.integers(3, 7))
    enc = neural.init_encoder(d, h, L, rng)
    dec = neural.init_decoder(L * h, w * d, m_dec, rng)
    X = rng.normal(size=(B, w, d))
    Y = X.reshape(B, -1) + 0.1 * rng.normal(size=(B, w * d))
    centers = rng.normal(size=(int(rng.integers(1, 5)), L * h))
    z = neural.encode_batch(enc, X)
    assignment, _ = granular.nearest_centers(centers, z)
    return enc, dec, X, Y, centers, assignment


def pairwise_nearest(centers: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center of each row by a loop over every (row, center) pair:
    one difference vector's squared length at a time, and a strict < so a
    tie keeps the lowest index."""
    idx = np.empty(Z.shape[0], dtype=np.intp)
    dist = np.empty(Z.shape[0])
    for i, z in enumerate(Z):
        best, best_j = math.inf, 0
        for j, c in enumerate(centers):
            diff = z - c
            d2 = float(np.einsum("d,d->", diff, diff))
            if d2 < best:
                best, best_j = d2, j
        idx[i], dist[i] = best_j, math.sqrt(best)
    return idx, dist


def brute_force_windows_to_points(window_scores, starts, w: int, T: int) -> np.ndarray:
    """Per timestep: the covering windows' scores added in window order and
    divided by their count; an uncovered timestep copies the closest covered
    one, the earlier on a tie."""
    out = np.empty(T)
    covered = []
    for t in range(T):
        total, count = 0.0, 0
        for score, s in zip(window_scores, starts):
            if s <= t < s + w:
                total += float(score)
                count += 1
        if count:
            out[t] = total / count
            covered.append(t)
    for t in range(T):
        if t not in covered:
            out[t] = out[min(covered, key=lambda c: (abs(c - t), c))]
    return out


def brute_force_vus_pr(scores, labels, delta_set) -> float:
    """Set-logic threshold enumeration with trapezoid integration."""
    scores = np.asarray(scores, dtype=np.float64)
    anomalies = set(np.where(np.asarray(labels) == 1)[0].tolist())
    n_anom = len(anomalies)
    areas = []
    for delta in delta_set:
        points = []
        for tau in sorted(set(scores.tolist()), reverse=True):
            pred = {int(t) for t in np.where(scores >= tau)[0]}
            tp = sum(1 for t in pred if any(abs(t - a) <= delta for a in anomalies))
            points.append((min(tp, n_anom) / n_anom, tp / len(pred)))
        recalls = [0.0] + [r for r, _ in points]
        precs = [points[0][1]] + [p for _, p in points]
        area = sum(
            (recalls[i + 1] - recalls[i]) * (precs[i] + precs[i + 1]) / 2.0
            for i in range(len(points))
        )
        areas.append(area)
    return float(np.mean(areas))


def brute_force_vus_roc(scores, labels, delta_set) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    anomalies = set(np.where(labels == 1)[0].tolist())
    n_anom = len(anomalies)
    n_norm = labels.size - n_anom
    areas = []
    for delta in delta_set:
        points = []
        for tau in sorted(set(scores.tolist()), reverse=True):
            pred = {int(t) for t in np.where(scores >= tau)[0]}
            tp = sum(1 for t in pred if any(abs(t - a) <= delta for a in anomalies))
            points.append((min(tp, n_anom) / n_anom, (len(pred) - tp) / n_norm))
        tprs = [0.0] + [t for t, _ in points] + [1.0]
        fprs = [0.0] + [f for _, f in points] + [1.0]
        area = sum(
            (fprs[i + 1] - fprs[i]) * (tprs[i] + tprs[i + 1]) / 2.0
            for i in range(len(tprs) - 1)
        )
        areas.append(area)
    return float(np.mean(areas))


def broadcast_dist_to_intervals(points: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest interval (0 inside), from the
    full (points x intervals) table."""
    below = intervals[None, :, 0] - points[:, None]
    above = points[:, None] - intervals[None, :, 1]
    return np.maximum(np.maximum(below, above), 0.0).min(axis=1)


def broadcast_affiliation_f1(pred_flags, intervals, sigma: float) -> float:
    """Gaussian-kernel affiliation F1 from the (flags x intervals) and
    (anomalies x flags) distance tables, in the metric's operation order."""
    denom = 2.0 * sigma * sigma
    pred_ts = np.where(np.asarray(pred_flags, dtype=np.int64) == 1)[0].astype(np.float64)
    if pred_ts.size == 0 or not intervals:
        return float("nan")
    d_pred = broadcast_dist_to_intervals(pred_ts, np.asarray(intervals, dtype=np.float64))
    precision = float(np.mean(np.exp(-(d_pred**2) / denom)))
    true_ts = np.concatenate([np.arange(s, e + 1) for s, e in intervals]).astype(np.float64)
    d_true = np.abs(true_ts[:, None] - pred_ts[None, :]).min(axis=1)
    recall = float(np.mean(np.exp(-(d_true**2) / denom)))
    if precision + recall == 0.0:
        return float("nan")
    return 2.0 * precision * recall / (precision + recall)


def row_walk_load_csv(path, label_column: str | None = None) -> tsdata.TimeSeries:
    """CSV to TimeSeries one cell at a time with float(), raising the first
    bad row or cell's error as soon as the walk reaches it."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"no such file: {path}")
    try:
        with path.open(newline="") as fh:
            records = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not a CSV text file: {exc}") from None
    if not records:
        raise ParseError("file is empty (no header row)")
    header = [h.strip() for h in records[0]]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ParseError(f"header names column {name!r} more than once", row=0)
    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise ParseError(f"label column {label_column!r} not in header", row=0, col=label_column)
        label_idx = header.index(label_column)
    feat_idx = [i for i in range(len(header)) if i != label_idx]
    if not feat_idx:
        raise ParseError("no feature columns")
    rows, labels = [], []
    for rnum, record in enumerate(records[1:], start=1):
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
                msg = f"row {rnum}, column {label_column!r}: label {raw!r} is not 0/1"
                raise ParseError(msg, row=rnum, col=label_column)
            labels.append(int(lv))
    if not rows:
        raise ParseError("file has a header but no data rows")
    return tsdata.TimeSeries(
        values=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64) if label_idx is not None else None,
        channel_names=[header[i] for i in feat_idx],
    )


def csv_writer_write(path, header: list[str], rows) -> None:
    """Header and rows through csv.writer, each float cell as format(v, '.17g')
    and any other cell as csv.writer writes it."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)


def reference_train_config_check(cfg) -> None:
    """TrainConfig's hand-written checks as they stood before each field
    declared its own kind; cfg is any object with the config's attributes."""
    if not 0.0 <= cfg.lam <= 1.0:
        raise BadParams(f"lambda must be in [0, 1], got {cfg.lam}")
    if cfg.batch_size < 1 or cfg.epochs < 1 or cfg.rebuild_every < 1:
        raise BadParams("batch_size, epochs and rebuild_every must be >= 1")
    if cfg.layers not in (1, 2, 3):
        raise BadParams(f"layers must be 1, 2 or 3, got {cfg.layers}")
    if min(cfg.window, cfg.stride, cfg.hidden, cfg.decoder_hidden, cfg.s_min) < 1:
        raise BadParams("window, stride, hidden, decoder_hidden and s_min must be >= 1")
    u32_fields = (cfg.epochs, cfg.batch_size, cfg.rebuild_every, cfg.window, cfg.stride, cfg.hidden,
                  cfg.decoder_hidden, cfg.s_min)
    if max(u32_fields) >= 2**32:
        raise BadParams("epochs, batch_size, rebuild_every, window, stride, hidden, decoder_hidden and s_min "
                        "must be < 2**32, the model file stores them as u32")
    if not 0 <= cfg.seed < 2**64:
        raise BadParams(f"seed must be in [0, 2**64), got {cfg.seed}")
    if not all(math.isfinite(v) and v > 0 for v in (cfg.lr, cfg.mu)):
        raise BadParams(f"lr and mu must be finite and positive, got {cfg.lr} and {cfg.mu}")


def reference_synth_params_check(params) -> None:
    """SynthParams' hand-written checks as they stood before each field
    declared its own kind; params is any object with the knobs' attributes."""
    for name in ("spike_mag", "shift_mag", "drift_slope", "noise_std"):
        if not math.isfinite(getattr(params, name)):
            raise BadParams(f"{name} must be finite, got {getattr(params, name)}")
    if params.spike_mag <= 0 or params.shift_mag <= 0:
        raise BadParams("spike and shift magnitudes must be positive")
    if params.shift_len <= 0 or params.n_channels <= 0:
        raise BadParams("shift length and channel count must be positive")
    if params.n_channels >= 2**32:
        raise BadParams(f"channel count must be < 2**32, got {params.n_channels}")
    if params.n_spikes < 0 or params.n_shifts < 0:
        raise BadParams("anomaly counts must be nonnegative")
    if params.drift_slope < 0 or params.noise_std < 0:
        raise BadParams("drift slope and noise scale must be nonnegative")
