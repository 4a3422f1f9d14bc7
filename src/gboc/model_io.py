"""Versioned binary persistence for the trained model bundle.

Format version 2 is declared once below, and both _dump and _parse follow
it. All little-endian: the ``_HEAD`` struct (magic "GBOC", u32 version and
six u32 dims: window, stride, channels, layers, hidden, latent); the float64
arrays of ``_arrays`` in file order, with the u32 center count ``_COUNT``
just before the centers; then the ``_TAIL`` struct, the training-config
snapshot ``_CONFIG_TAIL``. The decoder serves only the training loss and is
not stored. Every real is a 64-bit IEEE-754 float, so a save -> load -> save
round trip is byte-identical. Files of any other version, format 1 with its
decoder block included, are rejected.
"""
from __future__ import annotations

import dataclasses
import math
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, BadParams, InvariantViolation, MissingFile, TruncatedFile, VersionUnsupported
from .neural import EncoderParams, LstmLayer
from .trainer import GbocModel, TrainConfig
from .tsdata import NormStats

MAGIC = b"GBOC"
FORMAT_VERSION = 2

# The TrainConfig fields the file stores after the radii, in declaration
# order, each in the slot its kind gives; window, stride, layers and hidden are
# read back from the header. A flag is a u32 that holds 0 or 1.
_CONFIG_TAIL = tuple((f.name, f.metadata["kind"].slot) for f in dataclasses.fields(TrainConfig)
                     if f.name not in ("window", "stride", "layers", "hidden"))
_FLAGS = [name for name, kind in _CONFIG_TAIL if kind == "flag"]

_CODES = {"u32": "I", "flag": "I", "f64": "d", "u64": "Q"}

_HEAD = struct.Struct("<4s7I")
_COUNT = struct.Struct("<I")
_TAIL = struct.Struct("<" + "".join(_CODES[kind] for _, kind in _CONFIG_TAIL))


def _arrays(model: GbocModel) -> list[tuple[str, np.ndarray]]:
    """Every array the file stores, named, in file order."""
    arrays = [("norm.mean", model.norm.mean), ("norm.std", model.norm.std)]
    for l, layer in enumerate(model.encoder.layers):
        arrays += [(f"encoder[{l}].W", layer.W), (f"encoder[{l}].U", layer.U), (f"encoder[{l}].b", layer.b)]
    return arrays + [("centers", model.centers), ("radii", model.radii)]


def _dump(model: GbocModel) -> bytes:
    enc, cfg = model.encoder, model.config
    values = {name: getattr(cfg, name) for name, _ in _CONFIG_TAIL}
    for name in _FLAGS:
        if values[name] not in (0, 1):
            raise InvariantViolation(f"config flag {name}={values[name]!r} is not 0 or 1")
        values[name] = int(values[name])
    try:
        head = _HEAD.pack(MAGIC, FORMAT_VERSION, cfg.window, cfg.stride, enc.input_size, enc.num_layers,
                          enc.hidden_size, enc.latent_size)
        count = _COUNT.pack(model.centers.shape[0])
        tail = _TAIL.pack(*values.values())
    except struct.error as exc:
        raise InvariantViolation(f"a model value does not fit its slot in the file: {exc}") from None
    arrays = [np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in _arrays(model)]
    return b"".join([head, *arrays[:-2], count, *arrays[-2:], tail])


def _parse(buf: bytes) -> GbocModel:
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(buf):
            raise TruncatedFile(f"expected {n} more bytes at offset {off}, file has {len(buf)}")
        off += n
        return buf[off - n : off]

    def array(*shape: int) -> np.ndarray:
        return np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()

    # a foreign file is named as such even when it is shorter than the header
    if len(buf) >= len(MAGIC) and buf[: len(MAGIC)] != MAGIC:
        raise BadMagic("not a model file (bad magic)")
    _, version, window, stride, d, layers, hidden, latent = _HEAD.unpack(take(_HEAD.size))
    if version != FORMAT_VERSION:
        raise VersionUnsupported(
            f"model format version {version} is not supported; this gboc reads version {FORMAT_VERSION} "
            "only, so retrain the model with it"
        )
    if min(window, stride, d, layers, hidden) < 1:
        raise InvariantViolation("dimensions must be positive")
    if latent != layers * hidden:
        raise InvariantViolation(f"latent size {latent} != layers*hidden {layers * hidden}")
    norm = NormStats(mean=array(d), std=array(d))
    enc_layers = [
        LstmLayer(W=array(4 * hidden, d if l == 0 else hidden), U=array(4 * hidden, hidden), b=array(4 * hidden))
        for l in range(layers)
    ]
    (m,) = _COUNT.unpack(take(_COUNT.size))
    if m < 1:
        raise InvariantViolation("model must retain at least one center")
    centers, radii = array(m, latent), array(m)
    tail = dict(zip((name for name, _ in _CONFIG_TAIL), _TAIL.unpack(take(_TAIL.size))))
    for name in _FLAGS:
        if tail[name] not in (0, 1):
            raise InvariantViolation(f"config flag slot {name} holds {tail[name]}, not 0 or 1")
        tail[name] = bool(tail[name])
    try:
        cfg = TrainConfig(window=window, stride=stride, layers=layers, hidden=hidden, **tail)
    except BadParams as exc:
        raise InvariantViolation(f"model file's config is invalid: {exc}") from None
    if off != len(buf):
        raise InvariantViolation(f"{len(buf) - off} trailing bytes after model payload")
    encoder = EncoderParams(input_size=d, hidden_size=hidden, layers=enc_layers)
    model = GbocModel(encoder=encoder, norm=norm, centers=centers, radii=radii, config=cfg)
    for name, arr in _arrays(model):
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation(f"non-finite values in {name}")
    if np.any(radii < 0):
        raise InvariantViolation("radii must be nonnegative")
    return model


def save_model(model: GbocModel, path: str | Path) -> None:
    Path(path).write_bytes(_dump(model))


def load_model(path: str | Path) -> GbocModel:
    if not Path(path).is_file():
        raise MissingFile(f"no such model file: {path}")
    return _parse(Path(path).read_bytes())
