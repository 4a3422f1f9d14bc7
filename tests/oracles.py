"""Independent reference implementations used as test oracles.

Everything here is deliberately written scalar/loop-style, sharing no code
with the library paths it checks.
"""
from __future__ import annotations

import numpy as np

from gboc import granular, neural


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


def naive_decode(dec: neural.DecoderParams, z: np.ndarray) -> np.ndarray:
    hidden = np.tanh(dec.W1 @ np.asarray(z, dtype=np.float64) + dec.b1)
    return dec.W2 @ hidden + dec.b2


def joint_loss(enc, dec, X, Y, centers, assignment, lam) -> float:
    """Loss recomputed from single-sample naive passes."""
    B = X.shape[0]
    rec = 0.0
    gb = 0.0
    for i in range(B):
        z = naive_encode(enc, X[i])
        r = naive_decode(dec, z)
        rec += float(np.sum((r - Y[i]) ** 2))
        gb += float(np.sum((z - centers[assignment[i]]) ** 2))
    return lam * rec / B + (1.0 - lam) * gb / B


def fd_gradient_check(enc, dec, X, Y, centers, assignment, lam, step=1e-5) -> float:
    """Max relative error between analytic gradients and central differences."""
    grads, _, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, lam)
    params = neural.param_dict(enc, dec)
    worst = 0.0
    for name, p in params.items():
        g = grads[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + step
            _, up, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, lam)
            p[ix] = orig - step
            _, down, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, lam)
            p[ix] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(g[ix] - fd) / max(abs(g[ix]), abs(fd), 1e-6)
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
