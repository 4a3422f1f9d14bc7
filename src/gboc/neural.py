"""Recurrent window encoder, training-time decoder, exact gradients, Adam.

The encoder is a stack of standard 4-gate recurrent cells run over the
window's timesteps from zero initial state; the latent vector is the
concatenation of every layer's final hidden state. The decoder, one hidden
tanh layer plus a linear output, exists only for the reconstruction term of
the training loss: a model file holds the encoder alone. Gradients are
computed by backpropagation through time in closed form; everything is
float64 so the finite-difference checks hold to tight tolerances.

Training holds every trainable tensor as a view into one float64 vector
(flatten_params): each encoder layer's W, U and b, then the decoder's W1,
b1, W2 and b2. backward returns its gradient in that layout, so Adam
updates the whole network as one vector.

Gate block order inside the stacked 4h-row parameter matrices is
input, forget, cell candidate, output.
"""
from __future__ import annotations

import math
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
    """exp(min(x, 0)) / (1 + exp(-|x|)), computed in two fresh buffers.

    exp sees only non-positive arguments, and each sign gets the bits of its
    own branch, 1 / (1 + e^-x) or e^x / (1 + e^x). fmin maps NaN to 0, so a
    NaN comes out as the NaN of exp(-|x|), as it does in the branch form."""
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1
    out = np.fmin(x, 0.0)
    np.exp(out, out=out)
    out /= den
    return out


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


def _fields(enc: EncoderParams, dec: DecoderParams) -> list[tuple[object, str]]:
    """(holder, attribute name) of every trainable tensor, in flat-vector order."""
    return [(layer, k) for layer in enc.layers for k in ("W", "U", "b")] + [
        (dec, k) for k in ("W1", "b1", "W2", "b2")
    ]


def _views(flat: np.ndarray, fields: list[tuple[object, str]]) -> list[np.ndarray]:
    """flat cut into consecutive views, each shaped like one field's tensor."""
    views, start = [], 0
    for holder, k in fields:
        shape = getattr(holder, k).shape
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def flatten_params(enc: EncoderParams, dec: DecoderParams) -> np.ndarray:
    """Copy every trainable tensor into one float64 vector and rebind each
    field to its view of it, so an update of the vector updates the network."""
    fields = _fields(enc, dec)
    flat = np.concatenate([np.ravel(getattr(holder, k)) for holder, k in fields], dtype=np.float64)
    for (holder, k), view in zip(fields, _views(flat, fields)):
        setattr(holder, k, view)
    return flat


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
            if t:
                a += hs @ layer.U.T
            a += layer.b
            i_f = _sigmoid(a[:, : 2 * h])
            i, f = i_f[:, :h], i_f[:, h:]
            g = np.tanh(a[:, 2 * h : 3 * h])
            o = _sigmoid(a[:, 3 * h :])
            if t:
                c_new = f * cs
                c_new += i * g
            else:
                # from zero state; adding +0.0, as f * c_prev would, turns the
                # -0.0 of an underflowed i times a negative g into +0.0
                c_new = i * g
                c_new += 0.0
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
    Each block writes its latents into the one (B, L*h) result.
    """
    X = np.asarray(X, dtype=np.float64)
    n_blocks = max(1, X.shape[0] // ENCODE_BLOCK)
    out = np.empty((X.shape[0], enc.latent_size))
    for x_block, z_block in zip(np.array_split(X, n_blocks), np.array_split(out, n_blocks)):
        z_block[...] = _forward_encoder(enc, x_block, keep_cache=False)[0]
    return out


def _backward_encoder(enc: EncoderParams, cache: list, dZ: np.ndarray, grads: list[np.ndarray]) -> None:
    """BPTT through the stack given dL/dz. Adds each layer's W, U and b
    gradients into grads[3l], grads[3l + 1] and grads[3l + 2], which must
    hold zeros."""
    h = enc.hidden_size
    B = dZ.shape[0]
    w = len(cache[0][1])
    # gradient flowing into each layer's output sequence (from the layer above)
    d_seq_above: np.ndarray | None = None
    for l in range(enc.num_layers - 1, -1, -1):
        layer = enc.layers[l]
        seq, steps = cache[l]
        dW, dU, db = grads[3 * l : 3 * l + 3]
        # the input windows take no gradient, so the bottom layer skips d_inputs
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
            db += da.sum(axis=0)
            if d_inputs is not None:
                d_inputs[:, t, :] = da @ layer.W
            if t:
                # at t = 0, h_prev is the zero initial state, which takes no
                # gradient; dU, started at +0, never holds -0.0, so adding the
                # zero product da.T @ h_prev would leave its bits as they are
                dU += da.T @ h_prev
                dh_next = da @ layer.U
                dc_next = dc * f
        d_seq_above = d_inputs


def backward(
    enc: EncoderParams,
    dec: DecoderParams,
    windows: np.ndarray,
    targets: np.ndarray,
    centers: np.ndarray,
    assignment: np.ndarray | None,
    lam: float,
) -> tuple[np.ndarray, float, float, float]:
    """Joint loss and exact gradients for one batch.

    The loss is lam * mean squared reconstruction error + (1 - lam) * mean
    squared distance to each sample's assigned center; centers are constants
    (no gradient flows into them). With assignment None, each window goes to
    its nearest center under the latents of this same forward pass. Returns
    (grad, loss, rec_term, align_term); grad is one vector in the layout of
    flatten_params, each tensor's gradient written into its view of it.
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

    fields = _fields(enc, dec)
    grad = np.zeros(sum(getattr(holder, k).size for holder, k in fields))
    views = _views(grad, fields)
    g_W1, g_b1, g_W2, g_b2 = views[-4:]
    d_recon = (2.0 * lam / B) * resid
    np.matmul(d_recon.T, hh, out=g_W2)
    np.sum(d_recon, axis=0, out=g_b2)
    dhh = d_recon @ dec.W2
    dhpre = dhh * (1.0 - hh * hh)
    np.matmul(dhpre.T, z, out=g_W1)
    np.sum(dhpre, axis=0, out=g_b1)

    dz = dhpre @ dec.W1 + (2.0 * (1.0 - lam) / B) * zdiff
    _backward_encoder(enc, cache, dz, views[:-4])

    if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
        raise NonFiniteGradient("non-finite loss or gradient; aborting epoch")
    return grad, loss, l_rec, l_gb


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state for one flat parameter vector."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def init_adam(params: np.ndarray, lr: float = 1e-4) -> AdamState:
    return AdamState(lr=lr, m=np.zeros_like(params), v=np.zeros_like(params))


def opt_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """In-place bias-corrected update: p -= lr * m_hat / (sqrt(v_hat) + eps)."""
    if grad.shape != params.shape:
        raise ShapeMismatch(f"gradient shape {grad.shape} does not match parameters {params.shape}")
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * (grad * grad)
    params -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + state.eps)
