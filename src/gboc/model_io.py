"""Versioned binary persistence for the trained model bundle.

Layout of format version 2 (all little-endian): magic "GBOC", u32 version,
u32 dims (window, stride, channels, layers, hidden, latent), normalization
mean/std, encoder gate matrices per layer (W, U, b), center count and
matrix, radii, then the training-config snapshot (_CONFIG_TAIL). The
decoder serves only the training loss and is not stored. Every real is a
64-bit IEEE-754 float, so a save -> load -> save round trip is
byte-identical. Files of any other version, format 1 with its decoder
block included, are rejected.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, InvariantViolation, MissingFile, TruncatedFile, VersionUnsupported
from .neural import EncoderParams, LstmLayer
from .trainer import GbocModel, TrainConfig
from .tsdata import NormStats

MAGIC = b"GBOC"
FORMAT_VERSION = 2

# The TrainConfig fields the file stores after the radii, in file order, with
# the _Writer/_Reader method of each; window, stride, layers and hidden are
# read back from the network dimensions. A flag is a u32 that holds 0 or 1.
_CONFIG_TAIL = (
    ("decoder_hidden", "u32"), ("epochs", "u32"), ("batch_size", "u32"), ("lr", "f64"), ("lam", "f64"),
    ("s_min", "u32"), ("mu", "f64"), ("seed", "u64"), ("rebuild_every", "u32"), ("gbc_off", "flag"),
    ("prune_off", "flag"), ("assign_unpruned", "flag"),
)


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def u32(self, v: int) -> None:
        if not 0 <= v < 2**32:
            raise InvariantViolation(f"value {v} does not fit in u32")
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.parts.append(struct.pack("<Q", v))

    def f64(self, v: float) -> None:
        self.parts.append(struct.pack("<d", v))

    def flag(self, v: bool) -> None:
        if v not in (0, 1):
            raise InvariantViolation(f"flag {v!r} is not 0 or 1")
        self.u32(int(v))

    def array(self, a: np.ndarray) -> None:
        self.parts.append(np.ascontiguousarray(a, dtype="<f8").tobytes())

    def bytes(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise TruncatedFile(f"expected {n} more bytes at offset {self.off}, file has {len(self.buf)}")
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def flag(self) -> bool:
        v = self.u32()
        if v not in (0, 1):
            raise InvariantViolation(f"flag slot at offset {self.off - 4} holds {v}, not 0 or 1")
        return bool(v)

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape)) if shape else 1
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

    def done(self) -> None:
        if self.off != len(self.buf):
            raise InvariantViolation(f"{len(self.buf) - self.off} trailing bytes after model payload")


def _dump(model: GbocModel) -> bytes:
    w = _Writer()
    w.parts.append(MAGIC)
    w.u32(FORMAT_VERSION)
    enc = model.encoder
    w.u32(model.config.window)
    w.u32(model.config.stride)
    w.u32(enc.input_size)
    w.u32(enc.num_layers)
    w.u32(enc.hidden_size)
    w.u32(enc.latent_size)
    w.array(model.norm.mean)
    w.array(model.norm.std)
    for layer in enc.layers:
        w.array(layer.W)
        w.array(layer.U)
        w.array(layer.b)
    w.u32(model.centers.shape[0])
    w.array(model.centers)
    w.array(model.radii)
    for name, kind in _CONFIG_TAIL:
        getattr(w, kind)(getattr(model.config, name))
    return w.bytes()


def _parse(buf: bytes) -> GbocModel:
    r = _Reader(buf)
    if r.take(4) != MAGIC:
        raise BadMagic("not a model file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise VersionUnsupported(
            f"model format version {version} is not supported; this gboc reads version {FORMAT_VERSION} "
            "only, so retrain the model with it"
        )
    window, stride, d, layers, hidden, latent = (r.u32() for _ in range(6))
    if window < 1 or stride < 1 or d < 1 or layers < 1 or hidden < 1:
        raise InvariantViolation("dimensions must be positive")
    if latent != layers * hidden:
        raise InvariantViolation(f"latent size {latent} != layers*hidden {layers * hidden}")
    mean = r.array((d,))
    std = r.array((d,))
    enc_layers = []
    for l in range(layers):
        in_l = d if l == 0 else hidden
        enc_layers.append(
            LstmLayer(W=r.array((4 * hidden, in_l)), U=r.array((4 * hidden, hidden)), b=r.array((4 * hidden,)))
        )
    m = r.u32()
    if m < 1:
        raise InvariantViolation("model must retain at least one center")
    centers = r.array((m, latent))
    radii = r.array((m,))
    tail = {name: getattr(r, kind)() for name, kind in _CONFIG_TAIL}
    cfg = TrainConfig(window=window, stride=stride, layers=layers, hidden=hidden, **tail)
    r.done()
    model = GbocModel(
        encoder=EncoderParams(input_size=d, hidden_size=hidden, layers=enc_layers),
        norm=NormStats(mean=mean, std=std),
        centers=centers,
        radii=radii,
        config=cfg,
    )
    for name, arr in _all_arrays(model):
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation(f"non-finite values in {name}")
    if np.any(radii < 0):
        raise InvariantViolation("radii must be nonnegative")
    return model


def _all_arrays(model: GbocModel):
    yield "norm.mean", model.norm.mean
    yield "norm.std", model.norm.std
    for l, layer in enumerate(model.encoder.layers):
        yield f"encoder[{l}].W", layer.W
        yield f"encoder[{l}].U", layer.U
        yield f"encoder[{l}].b", layer.b
    yield "centers", model.centers
    yield "radii", model.radii


def save_model(model: GbocModel, path: str | Path) -> None:
    Path(path).write_bytes(_dump(model))


def load_model(path: str | Path) -> GbocModel:
    if not Path(path).is_file():
        raise MissingFile(f"no such model file: {path}")
    return _parse(Path(path).read_bytes())
