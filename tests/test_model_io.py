import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from gboc import model_io, neural, trainer, tsdata
from gboc.errors import BadMagic, GbocError, InvariantViolation, MissingFile, TruncatedFile, VersionUnsupported


def random_model(seed: int) -> trainer.GbocModel:
    """A random model of format v2: encoder, normalizer, centers, radii and config."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    w = int(rng.integers(2, 8))
    h = int(rng.integers(2, 9))
    layers = int(rng.integers(1, 4))
    m_dec = int(rng.integers(2, 12))
    n_centers = int(rng.integers(1, 9))
    enc = neural.init_encoder(d, h, layers, rng)
    cfg = trainer.TrainConfig(
        window=w,
        stride=int(rng.integers(1, 4)),
        layers=layers,
        hidden=h,
        decoder_hidden=m_dec,
        epochs=int(rng.integers(1, 30)),
        batch_size=int(rng.integers(1, 64)),
        lr=float(rng.uniform(1e-5, 1e-2)),
        lam=float(rng.uniform(0, 1)),
        s_min=int(rng.integers(2, 16)),
        mu=float(rng.uniform(1.0, 3.0)),
        seed=int(rng.integers(0, 2**31)),
        # the pinned digests below were taken when 1 was the default
        rebuild_every=1,
        gbc_off=bool(rng.integers(0, 2)),
        prune_off=bool(rng.integers(0, 2)),
        assign_unpruned=bool(rng.integers(0, 2)),
    )
    return trainer.GbocModel(
        encoder=enc,
        norm=tsdata.NormStats(mean=rng.normal(size=d), std=np.abs(rng.normal(size=d)) + 0.1),
        centers=rng.normal(size=(n_centers, layers * h)),
        radii=np.abs(rng.normal(size=n_centers)),
        config=cfg,
    )


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        for seed in range(5):
            model = random_model(seed)
            p1 = tmp_path / f"m{seed}a.gboc"
            p2 = tmp_path / f"m{seed}b.gboc"
            model_io.save_model(model, p1)
            loaded = model_io.load_model(p1)
            model_io.save_model(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_values_numerically_exact(self, tmp_path):
        model = random_model(99)
        p = tmp_path / "m.gboc"
        model_io.save_model(model, p)
        loaded = model_io.load_model(p)
        assert np.array_equal(loaded.centers, model.centers)
        assert np.array_equal(loaded.norm.mean, model.norm.mean)
        for a, b in zip(loaded.encoder.layers, model.encoder.layers):
            assert np.array_equal(a.W, b.W)
            assert np.array_equal(a.U, b.U)
            assert np.array_equal(a.b, b.b)
        assert loaded.config == model.config

    def test_trained_model_round_trips(self, tmp_path):
        ts = tsdata.TimeSeries(values=np.sin(np.linspace(0, 20, 120))[:, None])
        cfg = trainer.TrainConfig(window=2, layers=1, hidden=4, epochs=1, seed=3)
        model, _ = trainer.train(ts, cfg)
        p = tmp_path / "trained.gboc"
        model_io.save_model(model, p)
        loaded = model_io.load_model(p)
        assert np.array_equal(loaded.centers, model.centers)


class TestLayout:
    def test_byte_count_follows_from_the_dims(self):
        # no decoder block: the encoder, centers and radii are all the arrays
        for seed in range(20):
            model = random_model(seed)
            enc = model.encoder
            d, h, m = enc.input_size, enc.hidden_size, model.centers.shape[0]
            weights = sum(4 * h * (d if l == 0 else h) + 4 * h * h + 4 * h for l in range(enc.num_layers))
            reals = 2 * d + weights + m * enc.latent_size + m
            # magic, version, six dims and the center count; then the tail:
            # decoder_hidden, epochs, batch_size, s_min and rebuild_every as
            # u32, three u32 flags, lr, lam and mu as f64, and the u64 seed
            header = 4 + 4 + 6 * 4 + 4
            tail = 5 * 4 + 3 * 4 + 3 * 8 + 8
            assert len(model_io._dump(model)) == header + 8 * reals + tail

    # SHA-256 of each file; any change to the layout or the byte order of
    # format 2 changes these
    @pytest.mark.parametrize(
        "seed, digest",
        [(0, "9056161299d049d00291de5300a8610558fc5715f900130a172c1183417632a7"),
         (1, "13e1e9925d39d9e2f622cf27ffeb76d97318b941674ea44401297a92aa419069"),
         (2, "490436f99f1c0977e6419923701d8708bb734b140970ea93c14d5f757b2436c7"),
         (3, "c190758ae5bcfd0b2528dce207061f36d7feca83336931324df9400ba499f271")],
    )
    def test_bytes_are_pinned(self, seed, digest):
        assert hashlib.sha256(model_io._dump(random_model(seed))).hexdigest() == digest

    def test_version_1_rejected_with_retrain_hint(self):
        blob = model_io._dump(random_model(9))
        assert blob[4:8] == struct.pack("<I", 2)
        with pytest.raises(VersionUnsupported, match="retrain"):
            model_io._parse(blob[:4] + struct.pack("<I", 1) + blob[8:])


class TestWriteGuards:
    def test_flag_other_than_0_or_1_is_not_written(self):
        model = random_model(7)
        # construction rejects such a switch, so it is set past the check
        object.__setattr__(model.config, "gbc_off", 2)
        with pytest.raises(InvariantViolation, match="flag"):
            model_io._dump(model)

    def test_dimension_too_large_for_its_u32_is_not_written(self, tmp_path):
        model = random_model(7)
        model.encoder = dataclasses.replace(model.encoder, input_size=2**32)
        with pytest.raises(InvariantViolation):
            model_io.save_model(model, tmp_path / "m.gboc")
        assert not (tmp_path / "m.gboc").exists()


class TestRejection:
    def test_truncated(self, tmp_path):
        model = random_model(1)
        p = tmp_path / "m.gboc"
        model_io.save_model(model, p)
        blob = p.read_bytes()
        for cut in (0, 3, 10, len(blob) // 2, len(blob) - 1):
            p.write_bytes(blob[:cut])
            with pytest.raises(TruncatedFile):
                model_io.load_model(p)

    def test_bad_magic(self, tmp_path):
        model = random_model(2)
        p = tmp_path / "m.gboc"
        model_io.save_model(model, p)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"NOPE"
        p.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            model_io.load_model(p)

    def test_unsupported_version(self, tmp_path):
        model = random_model(3)
        p = tmp_path / "m.gboc"
        model_io.save_model(model, p)
        blob = bytearray(p.read_bytes())
        blob[4:8] = struct.pack("<I", 42)
        p.write_bytes(bytes(blob))
        with pytest.raises(VersionUnsupported):
            model_io.load_model(p)

    def test_zero_centers_rejected(self, tmp_path):
        model = random_model(4)
        blob = bytearray(model_io._dump(model))
        # the center-count u32 sits right after the last encoder layer
        m = model.centers.shape[0]
        pattern = struct.pack("<I", m) + model.centers.astype("<f8").tobytes()
        idx = bytes(blob).index(pattern)
        blob[idx : idx + 4] = struct.pack("<I", 0)
        p = tmp_path / "m.gboc"
        p.write_bytes(bytes(blob))
        with pytest.raises((InvariantViolation, TruncatedFile)):
            model_io.load_model(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = random_model(5)
        p = tmp_path / "m.gboc"
        model_io.save_model(model, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(InvariantViolation):
            model_io.load_model(p)

    def test_nonfinite_payload_rejected(self, tmp_path):
        model = random_model(6)
        model.centers[0, 0] = np.nan
        p = tmp_path / "m.gboc"
        model_io.save_model(model, p)
        with pytest.raises(InvariantViolation):
            model_io.load_model(p)

    def test_missing_path(self, tmp_path):
        with pytest.raises(MissingFile):
            model_io.load_model(tmp_path / "absent.gboc")

    # the tail ends with the gbc_off, prune_off and assign_unpruned flags, one
    # u32 each
    @pytest.mark.parametrize("from_end", [12, 8, 4], ids=["gbc_off", "prune_off", "assign_unpruned"])
    @pytest.mark.parametrize("value", [2, 7, 2**32 - 1])
    def test_flag_slot_other_than_0_or_1_rejected(self, from_end, value):
        blob = bytearray(model_io._dump(random_model(7)))
        blob[len(blob) - from_end : len(blob) - from_end + 4] = struct.pack("<I", value)
        with pytest.raises(InvariantViolation, match="flag"):
            model_io._parse(bytes(blob))

    # a config slot TrainConfig rejects is an error of the file, not of
    # train options
    @pytest.mark.parametrize(
        "name, packed",
        [("decoder_hidden", struct.pack("<I", 0)), ("epochs", struct.pack("<I", 0)), ("lam", struct.pack("<d", 2.0)),
         ("lr", struct.pack("<d", math.nan)), ("mu", struct.pack("<d", -1.0))],
        ids=["decoder_hidden", "epochs", "lam", "lr", "mu"],
    )
    def test_out_of_range_config_slot_is_a_file_error(self, name, packed):
        blob = bytearray(model_io._dump(random_model(7)))
        names = [n for n, _ in model_io._CONFIG_TAIL]
        size = {"u32": 4, "flag": 4, "f64": 8, "u64": 8}
        start = len(blob) - sum(size[kind] for _, kind in model_io._CONFIG_TAIL[names.index(name) :])
        blob[start : start + len(packed)] = packed
        with pytest.raises(InvariantViolation, match="model file's config"):
            model_io._parse(bytes(blob))

    def test_four_layers_in_the_header_is_a_file_error(self):
        model = random_model(7)
        rng = np.random.default_rng(0)
        model.encoder = neural.init_encoder(model.encoder.input_size, model.encoder.hidden_size, 4, rng)
        model.centers = rng.normal(size=(model.centers.shape[0], model.encoder.latent_size))
        with pytest.raises(InvariantViolation, match="model file's config"):
            model_io._parse(model_io._dump(model))

    def test_config_tail_and_dimensions_store_every_config_field(self):
        dims = {"window", "stride", "layers", "hidden"}
        tail = [name for name, _ in model_io._CONFIG_TAIL]
        assert len(tail) == len(set(tail)) and not dims & set(tail)
        assert dims | set(tail) == {f.name for f in dataclasses.fields(trainer.TrainConfig)}

    def test_every_truncation_and_byte_overwrite_is_a_typed_error(self):
        blob = model_io._dump(random_model(0))

        def corrupted():
            for cut in range(len(blob)):
                yield f"truncated to {cut} bytes", blob[:cut]
            for offset in range(len(blob)):
                for value in (0x00, 0x7F, 0x80, 0xFF):
                    buf = bytearray(blob)
                    buf[offset] = value
                    yield f"byte {offset} set to {value:#04x}", bytes(buf)

        for what, buf in corrupted():
            try:
                model = model_io._parse(buf)
            except GbocError:
                continue
            except Exception as exc:
                pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
            assert isinstance(model, trainer.GbocModel), what
