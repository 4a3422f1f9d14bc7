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

import contextvars
import ctypes
import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import granular
from .errors import BadParams, NonFiniteLoss


# encode_batch's block size: a block of ENCODE_BLOCK to 2 * ENCODE_BLOCK - 1
# rows keeps its gate and state arrays in cache, where one pass over a
# 20000-window series streams each 4h-wide pre-activation through memory at
# every timestep
ENCODE_BLOCK = 512

# Adam's first- and second-moment decay rates and its denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _sigmoid(x: np.ndarray, out: np.ndarray, den: np.ndarray) -> np.ndarray:
    """exp(min(x, 0)) / (1 + exp(-|x|)), written into out with den as scratch.

    exp sees only non-positive arguments, and each sign gets the bits of its
    own branch, 1 / (1 + e^-x) or e^x / (1 + e^x). fmin maps NaN to 0, so a
    NaN comes out as the NaN of exp(-|x|), as it does in the branch form."""
    np.abs(x, out=den)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1
    np.fmin(x, 0.0, out=out)
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


@dataclass
class _StepArrays:
    """Every array one cell step writes, each (rows, width)."""

    a: np.ndarray  # gate pre-activations, 4h
    rec: np.ndarray  # recurrent product h_prev U^T, 4h
    den_if: np.ndarray  # input and forget gates' sigmoid scratch, 2h
    i_f: np.ndarray  # input and forget gates, 2h
    den_o: np.ndarray  # output gate's sigmoid scratch, h
    o: np.ndarray  # output gate, h
    g: np.ndarray  # cell candidate, h
    ig: np.ndarray  # i * g, h
    c: np.ndarray  # cell state, h
    tanh_c: np.ndarray  # tanh of the cell state, h
    h: np.ndarray  # hidden state, h

    @classmethod
    def empty(cls, rows: int, h: int) -> "_StepArrays":
        return cls(*(np.empty((rows, k * h)) for k in (4, 4, 2, 2, 1, 1, 1, 1, 1, 1, 1)))

    def head(self, rows: int) -> "_StepArrays":
        """Views of the first rows of every array."""
        return _StepArrays(*(arr[:rows] for arr in vars(self).values()))


class _Workspace:
    """The arrays of a no-cache forward pass over blocks of up to `rows`
    windows: one set of step arrays, which every step rewrites; the output
    sequence of the layers below the top one, which each such layer rewrites
    in place, since step t reads its input t before it writes its output t;
    and the latents."""

    def __init__(self, enc: EncoderParams, rows: int, w: int) -> None:
        h = enc.hidden_size
        self.step = _StepArrays.empty(rows, h)
        self.seq = np.empty((rows if enc.num_layers > 1 else 0, w, h))
        self.z = np.empty((rows, enc.latent_size))


def _forward_encoder(
    enc: EncoderParams, X: np.ndarray, ws: _Workspace | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, list[_StepArrays]]]]:
    """Run the stack over X (B, w, d); return latents (B, L*h) and, per
    layer, its input sequence and the step arrays of its w steps.

    Without ws, every step writes a fresh set of step arrays, and the lists
    are the cache BPTT reads. With ws, every step writes ws's one set, so
    step t reads step t - 1's state from the arrays it then overwrites, each
    before it is written, and the latents returned are ws's."""
    B, w, d = X.shape
    if d != enc.input_size:
        raise BadParams(f"window has {d} channels, encoder expects {enc.input_size}")
    h = enc.hidden_size
    top = enc.num_layers - 1
    z = np.empty((B, enc.latent_size)) if ws is None else ws.z[:B]
    seq = X
    cache = []
    for l, layer in enumerate(enc.layers):
        steps = [_StepArrays.empty(B, h) for _ in range(w)] if ws is None else [ws.step.head(B)] * w
        # the top layer's output sequence is never read
        outputs = None if l == top else np.empty((B, w, h)) if ws is None else ws.seq[:B]
        for t, out in enumerate(steps):
            # step 0 runs from zero state and never reads prev, so no array
            # needs zeroing
            prev = steps[t - 1]
            a = np.matmul(seq[:, t, :], layer.W.T, out=out.a)
            if t:
                a += np.matmul(prev.h, layer.U.T, out=out.rec)
            a += layer.b
            i_f = _sigmoid(a[:, : 2 * h], out.i_f, out.den_if)
            i, f = i_f[:, :h], i_f[:, h:]
            g = np.tanh(a[:, 2 * h : 3 * h], out=out.g)
            o = _sigmoid(a[:, 3 * h :], out.o, out.den_o)
            if t:
                c_new = np.multiply(f, prev.c, out=out.c)
                c_new += np.multiply(i, g, out=out.ig)
            else:
                # from zero state; adding +0.0, as f * c_prev would, turns the
                # -0.0 of an underflowed i times a negative g into +0.0
                c_new = np.multiply(i, g, out=out.c)
                c_new += 0.0
            tanh_c = np.tanh(c_new, out=out.tanh_c)
            h_new = np.multiply(o, tanh_c, out=out.h)
            if outputs is not None:
                outputs[:, t, :] = h_new
        z[:, l * h : (l + 1) * h] = steps[-1].h
        cache.append((seq, steps))
        seq = outputs
    return z, cache


def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """NumPy's OpenBLAS thread-count getter and setter; None under MKL or Accelerate."""
    getter, setter = ctypes.CFUNCTYPE(ctypes.c_int), ctypes.CFUNCTYPE(None, ctypes.c_int)
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads"):
        try:
            lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
            return getter((name % "get", lib)), setter((name % "set", lib))
        except (AttributeError, OSError):  # no such module or symbol
            pass
    return None


_BLAS_THREADS = _blas_threads()
_TWO_THREADS = threading.Lock()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _for_each_block(enc: EncoderParams, X: np.ndarray, fn: Callable[[slice, np.ndarray], None]) -> None:
    """Call fn(rows, z) per block of a batch of windows shaped (B, w, d) with
    the batch rows it covers and their latents, which the thread's next
    block overwrites. The max(1, B // ENCODE_BLOCK) equal blocks hold at
    least ENCODE_BLOCK rows or the whole batch: the latents of a few rows
    would come from BLAS kernels that round differently.

    With at least 4 blocks, 2 usable CPUs and a BLAS thread setter, a worker
    thread runs the first half of the blocks and the caller the rest, with
    OpenBLAS held to one thread; an overlapping call runs on one thread. So
    that a span tracer keeps one stack, the worker calls no public function."""
    X = np.asarray(X, dtype=np.float64)
    parts = np.array_split(X, max(1, X.shape[0] // ENCODE_BLOCK))
    starts = np.cumsum([0] + [len(p) for p in parts]).tolist()

    def run(first: int, stop: int) -> None:
        ws = _Workspace(enc, len(parts[0]), X.shape[1])
        for i in range(first, stop):
            fn(slice(starts[i], starts[i + 1]), _forward_encoder(enc, parts[i], ws)[0])

    threaded = len(parts) >= 4 and _BLAS_THREADS is not None and _usable_cpus() > 1
    if not (threaded and _TWO_THREADS.acquire(blocking=False)):
        return run(0, len(parts))
    # imported here: with the logging module it pulls in, it adds about
    # 0.6 MB of RSS that one-thread calls need not pay
    from concurrent.futures import ThreadPoolExecutor

    get_threads, set_threads = _BLAS_THREADS
    blas_threads, half = get_threads(), len(parts) // 2
    try:
        set_threads(1)
        with ThreadPoolExecutor(1) as worker:
            # the worker sees the caller's context variables, errstate among them
            first_half = worker.submit(contextvars.copy_context().run, run, 0, half)
            run(half, len(parts))
        first_half.result()
    finally:
        set_threads(blas_threads)
        _TWO_THREADS.release()


def encode_batch(enc: EncoderParams, X: np.ndarray) -> np.ndarray:
    """Latent vectors (B, L*h) for a batch of windows shaped (B, w, d),
    copied block by block from _for_each_block."""
    out = np.empty((len(X), enc.latent_size))
    _for_each_block(enc, X, out.__setitem__)
    return out


def _backward_encoder(enc: EncoderParams, cache: list, dZ: np.ndarray, grads: list[np.ndarray]) -> None:
    """BPTT through the stack given dL/dz and _forward_encoder's cache. Adds
    each layer's W, U and b gradients into grads[3l], grads[3l + 1] and
    grads[3l + 2], which must hold zeros."""
    h = enc.hidden_size
    B = dZ.shape[0]
    c_zero = np.zeros((B, h))
    # gradient flowing into each layer's output sequence (from the layer above)
    d_seq_above: np.ndarray | None = None
    for l in range(enc.num_layers - 1, -1, -1):
        layer = enc.layers[l]
        seq, steps = cache[l]
        dW, dU, db = grads[3 * l : 3 * l + 3]
        # the input windows take no gradient, so the bottom layer skips d_inputs
        d_inputs = np.zeros(seq.shape) if l > 0 else None
        dh_next = dZ[:, l * h : (l + 1) * h].copy()
        dc_next = np.zeros((B, h))
        for t in range(len(steps) - 1, -1, -1):
            s = steps[t]
            i, f, g, o, tanh_c = s.i_f[:, :h], s.i_f[:, h:], s.g, s.o, s.tanh_c
            c_prev = steps[t - 1].c if t else c_zero
            dh = dh_next
            if d_seq_above is not None:
                dh = dh + d_seq_above[:, t, :]
            dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
            da_o = dh * tanh_c * o * (1.0 - o)
            da_i = dc * g * i * (1.0 - i)
            da_f = dc * c_prev * f * (1.0 - f)
            da_g = dc * i * (1.0 - g * g)
            da = np.concatenate([da_i, da_f, da_g, da_o], axis=1)
            dW += da.T @ seq[:, t, :]
            db += da.sum(axis=0)
            if d_inputs is not None:
                d_inputs[:, t, :] = da @ layer.W
            if t:
                # at t = 0, the zero initial state takes no gradient; dU,
                # started at +0, never holds -0.0, so adding the zero product
                # of da and that state would leave its bits as they are
                dU += da.T @ steps[t - 1].h
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
        raise BadParams(f"lambda must be in [0, 1], got {lam}")
    X = np.asarray(windows, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    B = X.shape[0]
    if Y.shape != (B, dec.output_size):
        raise BadParams(f"targets shape {Y.shape} does not match decoder output ({B}, {dec.output_size})")

    z, cache = _forward_encoder(enc, X)
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
        raise NonFiniteLoss("non-finite loss or gradient; aborting epoch")
    return grad, loss, l_rec, l_gb


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state for one flat parameter
    vector, with two scratch vectors of its size that each step writes
    through."""

    lr: float
    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    denom: np.ndarray


def init_adam(params: np.ndarray, lr: float) -> AdamState:
    m, v, scratch, denom = (np.zeros_like(params) for _ in range(4))
    return AdamState(lr=lr, step=0, m=m, v=v, scratch=scratch, denom=denom)


def opt_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """In-place bias-corrected update: p -= lr * m_hat / (sqrt(v_hat) + ADAM_EPS).

    Every product keeps the operands and order of that formula written with
    fresh arrays, up to commuting, so the bits are the same."""
    if grad.shape != params.shape:
        raise BadParams(f"gradient shape {grad.shape} does not match parameters {params.shape}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    t, denom = state.scratch, state.denom
    state.m *= ADAM_BETA1
    state.m += np.multiply(grad, 1.0 - ADAM_BETA1, out=t)
    state.v *= ADAM_BETA2
    np.multiply(grad, grad, out=t)
    state.v += np.multiply(t, 1.0 - ADAM_BETA2, out=t)
    np.divide(state.m, c1, out=t)
    t *= state.lr
    np.divide(state.v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    t /= denom
    params -= t
