"""Recurrent window encoder, lightweight decoder, exact gradients, Adam.

The encoder is a stack of standard 4-gate recurrent cells run over the
window's timesteps from zero initial state; the latent vector is the
concatenation of every layer's final hidden state. The decoder is one
hidden tanh layer plus a linear output. Gradients are computed by
backpropagation through time in closed form; everything is float64 so the
finite-difference checks hold to tight tolerances.

Gate block order inside the stacked 4h-row parameter matrices is
input, forget, cell candidate, output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import granular
from .errors import NonFiniteGradient, ShapeMismatch


# encode_batch's block size: a block of ENCODE_BLOCK to 2 * ENCODE_BLOCK - 1
# rows keeps its gate and state arrays in cache, where one pass over a
# 20000-window series streams each 4h-wide pre-activation through memory at
# every timestep
ENCODE_BLOCK = 512


def _sigmoid(x: np.ndarray) -> np.ndarray:
    ex = np.abs(x)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    den = 1 + ex
    return np.where(x >= 0, 1 / den, ex / den)


@dataclass
class LstmLayer:
    W: np.ndarray  # (4h, input_size)
    U: np.ndarray  # (4h, h)
    b: np.ndarray  # (4h,)


@dataclass
class EncoderParams:
    input_size: int
    hidden_size: int
    layers: list[LstmLayer]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def latent_size(self) -> int:
        return self.num_layers * self.hidden_size


@dataclass
class DecoderParams:
    W1: np.ndarray  # (hidden, latent)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (out, hidden)
    b2: np.ndarray  # (out,)

    @property
    def latent_size(self) -> int:
        return self.W1.shape[1]

    @property
    def output_size(self) -> int:
        return self.W2.shape[0]


def init_encoder(
    input_size: int, hidden_size: int, num_layers: int, rng: np.random.Generator
) -> EncoderParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; forget-gate bias +1."""
    h = hidden_size
    layers = []
    for l in range(num_layers):
        in_l = input_size if l == 0 else h
        bw = 1.0 / np.sqrt(in_l)
        bu = 1.0 / np.sqrt(h)
        W = rng.uniform(-bw, bw, size=(4 * h, in_l))
        U = rng.uniform(-bu, bu, size=(4 * h, h))
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate
        layers.append(LstmLayer(W=W, U=U, b=b))
    return EncoderParams(input_size=input_size, hidden_size=hidden_size, layers=layers)


def init_decoder(
    latent_size: int, output_size: int, hidden_size: int, rng: np.random.Generator
) -> DecoderParams:
    b1 = 1.0 / np.sqrt(latent_size)
    b2 = 1.0 / np.sqrt(hidden_size)
    return DecoderParams(
        W1=rng.uniform(-b1, b1, size=(hidden_size, latent_size)),
        b1=np.zeros(hidden_size),
        W2=rng.uniform(-b2, b2, size=(output_size, hidden_size)),
        b2=np.zeros(output_size),
    )


def param_dict(enc: EncoderParams, dec: DecoderParams | None = None) -> dict[str, np.ndarray]:
    """Live name -> array view of every trainable tensor (in declared order)."""
    out: dict[str, np.ndarray] = {}
    for l, layer in enumerate(enc.layers):
        out[f"enc.l{l}.W"] = layer.W
        out[f"enc.l{l}.U"] = layer.U
        out[f"enc.l{l}.b"] = layer.b
    if dec is not None:
        out["dec.W1"] = dec.W1
        out["dec.b1"] = dec.b1
        out["dec.W2"] = dec.W2
        out["dec.b2"] = dec.b2
    return out


def _forward_encoder(
    enc: EncoderParams, X: np.ndarray, keep_cache: bool
) -> tuple[np.ndarray, list | None]:
    """Run the stack over X (B, w, d); return latents (B, L*h) and, optionally,
    the per-layer per-step cache needed for BPTT."""
    B, w, d = X.shape
    if d != enc.input_size:
        raise ShapeMismatch(f"window has {d} channels, encoder expects {enc.input_size}")
    h = enc.hidden_size
    seq = X
    finals = []
    cache: list | None = [] if keep_cache else None
    for layer in enc.layers:
        hs = np.zeros((B, h))
        cs = np.zeros((B, h))
        outputs = np.empty((B, w, h))
        steps = [] if keep_cache else None
        for t in range(w):
            xt = seq[:, t, :]
            a = xt @ layer.W.T
            a += hs @ layer.U.T
            a += layer.b
            i_f = _sigmoid(a[:, : 2 * h])
            i, f = i_f[:, :h], i_f[:, h:]
            g = np.tanh(a[:, 2 * h : 3 * h])
            o = _sigmoid(a[:, 3 * h :])
            c_new = f * cs
            c_new += i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            if keep_cache:
                steps.append((xt, hs, cs, i, f, g, o, tanh_c))
            hs, cs = h_new, c_new
            outputs[:, t, :] = h_new
        finals.append(hs)
        if keep_cache:
            cache.append((seq, steps))
        seq = outputs
    z = np.concatenate(finals, axis=1)
    return z, cache


def encode_batch(enc: EncoderParams, X: np.ndarray) -> np.ndarray:
    """Latent vectors for a batch of windows shaped (B, w, d).

    The batch runs as max(1, B // ENCODE_BLOCK) equal blocks, so a block
    holds the whole batch or at least ENCODE_BLOCK rows. A block of a few
    rows would go to BLAS's small-matrix or vector kernels, which round
    differently from its matrix kernel, and the latents would depend on B.
    """
    X = np.asarray(X, dtype=np.float64)
    blocks = np.array_split(X, max(1, X.shape[0] // ENCODE_BLOCK))
    return np.concatenate([_forward_encoder(enc, block, keep_cache=False)[0] for block in blocks])


def decode_batch(dec: DecoderParams, Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[1] != dec.latent_size:
        raise ShapeMismatch(f"latent size {Z.shape[1]} does not match decoder ({dec.latent_size})")
    return np.tanh(Z @ dec.W1.T + dec.b1) @ dec.W2.T + dec.b2


def _backward_encoder(
    enc: EncoderParams, cache: list, dZ: np.ndarray
) -> dict[str, np.ndarray]:
    """BPTT through the stack given dL/dz; returns gradients keyed like param_dict."""
    h = enc.hidden_size
    grads: dict[str, np.ndarray] = {}
    B = dZ.shape[0]
    w = len(cache[0][1])
    # gradient flowing into each layer's output sequence (from the layer above)
    d_seq_above: np.ndarray | None = None
    for l in range(enc.num_layers - 1, -1, -1):
        layer = enc.layers[l]
        seq, steps = cache[l]
        dW = np.zeros_like(layer.W)
        dU = np.zeros_like(layer.U)
        db = np.zeros_like(layer.b)
        d_inputs = np.zeros((B, w, seq.shape[2]))
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
            d_inputs[:, t, :] = da @ layer.W
            dh_next = da @ layer.U
            dc_next = dc * f
        grads[f"enc.l{l}.W"] = dW
        grads[f"enc.l{l}.U"] = dU
        grads[f"enc.l{l}.b"] = db
        d_seq_above = d_inputs
    return grads


def backward(
    enc: EncoderParams,
    dec: DecoderParams,
    windows: np.ndarray,
    targets: np.ndarray,
    centers: np.ndarray,
    assignment: np.ndarray | None,
    lam: float,
) -> tuple[dict[str, np.ndarray], float, float, float]:
    """Joint loss and exact gradients for one batch.

    The loss is lam * mean squared reconstruction error + (1 - lam) * mean
    squared distance to each sample's assigned center; centers are constants
    (no gradient flows into them). With assignment None, each window goes to
    its nearest center under the latents of this same forward pass. Returns
    (grads, loss, rec_term, align_term).
    """
    if not 0.0 <= lam <= 1.0:
        raise ShapeMismatch(f"lambda must be in [0, 1], got {lam}")
    X = np.asarray(windows, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    B = X.shape[0]
    if Y.shape != (B, dec.output_size):
        raise ShapeMismatch(f"targets shape {Y.shape} does not match decoder output ({B}, {dec.output_size})")

    z, cache = _forward_encoder(enc, X, keep_cache=True)
    if assignment is None:
        assignment, _ = granular.nearest_centers(centers, z)
    hpre = z @ dec.W1.T + dec.b1
    hh = np.tanh(hpre)
    recon = hh @ dec.W2.T + dec.b2

    resid = recon - Y
    l_rec = float(np.sum(resid * resid) / B)
    assigned = centers[assignment]
    zdiff = z - assigned
    l_gb = float(np.sum(zdiff * zdiff) / B)
    loss = lam * l_rec + (1.0 - lam) * l_gb

    grads: dict[str, np.ndarray] = {}
    d_recon = (2.0 * lam / B) * resid
    grads["dec.W2"] = d_recon.T @ hh
    grads["dec.b2"] = d_recon.sum(axis=0)
    dhh = d_recon @ dec.W2
    dhpre = dhh * (1.0 - hh * hh)
    grads["dec.W1"] = dhpre.T @ z
    grads["dec.b1"] = dhpre.sum(axis=0)

    dz = dhpre @ dec.W1 + (2.0 * (1.0 - lam) / B) * zdiff
    grads.update(_backward_encoder(enc, cache, dz))

    if not np.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in grads.values()):
        raise NonFiniteGradient("non-finite loss or gradient; aborting epoch")
    return grads, loss, l_rec, l_gb


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state, one slot per parameter."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] | None = None
    v: dict[str, np.ndarray] | None = None


def init_adam(params: dict[str, np.ndarray], lr: float = 1e-4) -> AdamState:
    return AdamState(
        lr=lr,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def opt_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """In-place bias-corrected update: p -= lr * m_hat / (sqrt(v_hat) + eps)."""
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} does not match parameter {k} {p.shape}")
        state.m[k] = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        state.v[k] = state.beta2 * state.v[k] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[k] / c1
        v_hat = state.v[k] / c2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
