import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_curve
from oracles import decode_batch
import gboc
from gboc import cli, granular, model_io, neural, trainer, tsdata
from gboc.errors import BadParams, NonFiniteLoss


def tiny_series(T=160, seed=0) -> tsdata.TimeSeries:
    t = np.linspace(0, 12 * np.pi, T)
    values = np.sin(t)[:, None] + 0.05 * np.random.default_rng(seed).normal(size=(T, 1))
    return tsdata.TimeSeries(values=values)


def tiny_config(**over) -> trainer.TrainConfig:
    base = dict(window=2, layers=1, hidden=6, decoder_hidden=8, epochs=2, batch_size=16, seed=7)
    base.update(over)
    return trainer.TrainConfig(**base)


def zero_net(d_lat: int, out: int):
    """A 1-channel encoder and a decoder whose parameters are all zero: every
    latent and every reconstruction is exactly zero."""
    rng = np.random.default_rng(0)
    enc = neural.init_encoder(1, d_lat, 1, rng)
    dec = neural.init_decoder(d_lat, out, 3, rng)
    neural.flatten_params(enc, dec)[:] = 0.0
    return enc, dec


def losses(enc, dec, X, Y, centers, assignment) -> tuple[float, float]:
    """(l_rec, l_gb) exactly as training takes them from neural.backward."""
    _, _, l_rec, l_gb = neural.backward(enc, dec, X, Y, np.asarray(centers, dtype=np.float64), assignment, 0.5)
    return l_rec, l_gb


class TestLosses:
    def test_lgb_zero_at_centers(self):
        rng = np.random.default_rng(3)
        enc = neural.init_encoder(1, 2, 1, rng)
        dec = neural.init_decoder(2, 3, 4, rng)
        X = rng.normal(size=(3, 3, 1))
        centers = neural.encode_batch(enc, X)
        _, l_gb = losses(enc, dec, X, X.reshape(3, -1), centers, np.arange(3))
        assert l_gb == 0.0

    def test_lgb_single_sample_distance_two(self):
        enc, dec = zero_net(2, 2)
        _, l_gb = losses(enc, dec, np.ones((1, 2, 1)), np.zeros((1, 2)), [[0.0, 2.0]], np.array([0]))
        assert l_gb == pytest.approx(4.0)

    def test_lgb_hand_case(self):
        enc, dec = zero_net(1, 2)
        _, l_gb = losses(enc, dec, np.ones((3, 2, 1)), np.zeros((3, 2)), [[1.0], [2.0], [3.0]], np.arange(3))
        assert l_gb == pytest.approx(14.0 / 3.0)

    def test_lgb_empty_set(self):
        # training reads its alignment targets from GbSet.centers
        with pytest.raises(BadParams, match="^ball set is empty"):
            granular.GbSet(balls=[]).centers

    def test_lrec_perfect(self):
        enc, dec = zero_net(2, 6)
        dec.b2[:] = np.random.default_rng(1).normal(size=6)
        X, Y = np.ones((4, 6, 1)), np.tile(dec.b2, (4, 1))
        l_rec, _ = losses(enc, dec, X, Y, np.zeros((1, 2)), np.zeros(4, dtype=np.int64))
        assert l_rec == 0.0

    def test_lrec_unit_residual(self):
        enc, dec = zero_net(2, 5)
        l_rec, _ = losses(enc, dec, np.ones((1, 5, 1)), np.ones((1, 5)), np.zeros((1, 2)), np.array([0]))
        assert l_rec == pytest.approx(5.0)

    def test_lrec_matches_two_loop_oracle(self):
        rng = np.random.default_rng(2)
        enc = neural.init_encoder(1, 3, 1, rng)
        dec = neural.init_decoder(3, 7, 4, rng)
        X = rng.normal(size=(5, 7, 1))
        r = rng.normal(size=(5, 7))
        x = decode_batch(dec, neural.encode_batch(enc, X))
        total = 0.0
        for i in range(5):
            for j in range(7):
                total += (x[i, j] - r[i, j]) ** 2
        l_rec, _ = losses(enc, dec, X, r, np.zeros((1, 3)), np.zeros(5, dtype=np.int64))
        assert l_rec == pytest.approx(total / 5.0, rel=1e-12)


class TestTrain:
    def test_epoch_determinism(self):
        ts = tiny_series()
        cfg = tiny_config()
        model_a, reports_a = trainer.train(ts, cfg)
        model_b, reports_b = trainer.train(ts, cfg)
        assert reports_a == reports_b
        assert model_io._dump(model_a) == model_io._dump(model_b)

    def test_loss_composition_identity(self):
        ts = tiny_series()
        _, reports = trainer.train(ts, tiny_config(lam=0.3, epochs=3))
        for r in reports:
            assert abs(r.mean_loss - (0.3 * r.mean_lrec + 0.7 * r.mean_lgb)) < 1e-9

    def test_ball_counts_never_grow_under_pruning(self):
        ts = tiny_series()
        _, reports = trainer.train(ts, tiny_config(epochs=3))
        for r in reports:
            assert r.balls_after <= r.balls_before

    def test_lambda_zero_leaves_decoder_untouched(self, monkeypatch):
        # train keeps its decoder to itself; catch the one it initializes
        made = []
        init_decoder = neural.init_decoder
        monkeypatch.setattr(neural, "init_decoder", lambda *args: made.append(init_decoder(*args)) or made[-1])
        ts = tiny_series()
        cfg = tiny_config(lam=0.0)
        model, _ = trainer.train(ts, cfg)
        assert not hasattr(model, "decoder")
        rng = np.random.default_rng([cfg.seed, 1])
        neural.init_encoder(ts.d, cfg.hidden, cfg.layers, rng)
        fresh_dec = init_decoder(cfg.layers * cfg.hidden, cfg.window * ts.d, cfg.decoder_hidden, rng)
        (trained,) = made
        for k in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(trained, k), getattr(fresh_dec, k))

    def test_lambda_one_still_reports_alignment(self):
        ts = tiny_series()
        _, reports = trainer.train(ts, tiny_config(lam=1.0))
        assert all(r.mean_loss == pytest.approx(r.mean_lrec, rel=1e-12) for r in reports)
        assert all(r.mean_lgb >= 0.0 for r in reports)

    def test_gbc_off_uses_sqrt_n_kmeans(self):
        ts = tiny_series()
        cfg = tiny_config(gbc_off=True)
        model, reports = trainer.train(ts, cfg)
        n = (ts.T - cfg.window) // cfg.stride + 1
        expected = max(1, int(np.sqrt(n)))
        assert all(r.balls_before == r.balls_after for r in reports)
        assert model.centers.shape[0] <= expected
        assert model.centers.shape[0] >= 1

    def test_ablation_variants_constructible(self):
        for over in ({"gbc_off": True}, {"prune_off": True}, {"lam": 0.0}, {"lam": 1.0}):
            cfg = tiny_config(**over)
            assert isinstance(cfg, trainer.TrainConfig)

    def test_assign_unpruned_trains_against_full_set(self):
        ts = tiny_series()
        model, reports = trainer.train(ts, tiny_config(assign_unpruned=True))
        assert model.centers.shape[0] >= 1
        assert np.all(np.isfinite(model.centers))
        _, pruned_reports = trainer.train(ts, tiny_config())
        if any(r.balls_after < r.balls_before for r in pruned_reports):
            # alignment against the larger center set changes the loss trail
            assert reports != pruned_reports

    def test_rebuild_every(self):
        ts = tiny_series()
        _, reports = trainer.train(ts, tiny_config(epochs=4, rebuild_every=2))
        assert reports[0].balls_before == reports[1].balls_before
        assert reports[2].balls_before == reports[3].balls_before

    @pytest.mark.parametrize("epochs, build_epochs", [(10, [1, 11]), (20, [1, 11, 21])])
    def test_default_period_builds_at_epoch_1_every_10th_epoch_and_at_the_end(self, monkeypatch, epochs, build_epochs):
        # the final build is numbered epochs + 1
        builds = []
        build = trainer._build_balls

        def counted(enc, X, cfg, epoch, verbose):
            builds.append(epoch)
            return build(enc, X, cfg, epoch, verbose)

        monkeypatch.setattr(trainer, "_build_balls", counted)
        cfg = trainer.TrainConfig(epochs=epochs, layers=1, hidden=6, decoder_hidden=8, batch_size=64)
        _, reports = trainer.train(tiny_series(T=80), cfg)
        assert builds == build_epochs
        assert len({r.balls_before for r in reports[:10]}) == 1

    def test_one_encoder_pass_per_batch_and_per_ball_build(self, monkeypatch):
        ts = tiny_series()
        cfg = tiny_config(epochs=4, rebuild_every=2)
        calls = []
        forward = neural._forward_encoder

        def counted(enc, X, *args, **kwargs):
            calls.append(X.shape[0])
            return forward(enc, X, *args, **kwargs)

        monkeypatch.setattr(neural, "_forward_encoder", counted)
        trainer.train(ts, cfg)
        n = ts.T - cfg.window + 1
        # ball builds at epochs 1 and 3 plus the final build
        assert len(calls) == cfg.epochs * math.ceil(n / cfg.batch_size) + 3
        assert calls.count(n) == 3

    def test_series_shorter_than_window(self):
        # make_windows owns the rule, so train and detect reject it alike
        ts = tsdata.TimeSeries(values=np.zeros((3, 1)))
        with pytest.raises(BadParams, match="^window length 5 exceeds series length 3"):
            trainer.train(ts, tiny_config(window=5))

    def test_divergence_raises_nonfinite_loss(self):
        # an absurd step size overflows the squared residuals on the second batch
        ts = tiny_series()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss):
            trainer.train(ts, tiny_config(lr=1e200, epochs=4))

    def test_diverged_latents_at_a_ball_build_raise_nonfinite_loss(self):
        # one batch an epoch, so epoch 1's single Adam step sends every
        # weight to about 1e308 and epoch 2's ball build sees infinite latents
        train_ts, _ = tsdata.synth_scenario("noise", 200, 3)
        cfg = trainer.TrainConfig(epochs=3, rebuild_every=1, lr=1e308, batch_size=1000)
        msg = "^non-finite latents at the epoch-2 ball build; training diverged$"
        with pytest.raises(NonFiniteLoss, match=msg):
            trainer.train(train_ts, cfg)

    def test_model_invariants(self):
        ts = tiny_series()
        cfg = tiny_config()
        model, _ = trainer.train(ts, cfg)
        assert model.centers.shape[0] >= 1
        assert model.centers.shape[1] == cfg.layers * cfg.hidden
        assert model.radii.shape == (model.centers.shape[0],)
        assert np.all(model.radii >= 0)

    def test_model_tensors_own_their_data(self):
        # training's tensors are views into one vector that holds the decoder
        # too; a view in the model would keep the decoder alive
        model, _ = trainer.train(tiny_series(), tiny_config(layers=2))
        tensors = [getattr(layer, k) for layer in model.encoder.layers for k in ("W", "U", "b")]
        assert all(a.base is None for a in [*tensors, model.centers, model.radii])


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The coarse k-means of a T=300 fit ranks centers through a matrix
    product; its guard keeps the model the same however many threads the
    BLAS uses."""
    assert cli.main(["synth", "--kind", "clean", "--length", "300", "--seed", "3", "--out", str(tmp_path)]) == 0
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(Path(gboc.__file__).resolve().parents[1])
    code = "import sys; from gboc import cli; sys.exit(cli.main(sys.argv[1:]))"
    models = []
    for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        model = tmp_path / f"model_{name}.bin"
        argv = ["train", "--train-csv", str(tmp_path / "train.csv"), "--label-col", "label",
                "--model", str(model), "--epochs", "2", "--seed", "3", "--quiet"]
        subprocess.run([sys.executable, "-c", code, *argv], env={**base, **threads}, check=True, timeout=300)
        models.append(model.read_bytes())
    assert models[0] == models[1]


class TestDeskScaleCurve:
    def test_mean_loss_mostly_nonincreasing(self, desk_clean_runs):
        run_a, _ = desk_clean_runs
        curve = read_curve(run_a["curve"])
        losses = [row["mean_loss"] for row in curve]
        assert len(losses) == 10
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
        assert drops >= 8

    def test_composition_identity_at_desk_scale(self, desk_clean_runs):
        run_a, _ = desk_clean_runs
        for row in read_curve(run_a["curve"]):
            combined = 0.5 * row["mean_lrec"] + 0.5 * row["mean_lgb"]
            assert abs(row["mean_loss"] - combined) < 1e-9
