"""Training loop: periodic ball rebuilds in latent space plus joint-loss descent.

Every rebuild_every epochs, starting with the first, the loop encodes every
training window and rebuilds and prunes the ball set over those latents.
Each epoch walks seeded shuffled batches minimizing lam * reconstruction +
(1 - lam) * center alignment against the current centers; each batch's one
forward pass yields both its nearest-center assignment and its gradients.
After the last epoch the balls are rebuilt from the final latents to form the
shipped model. Fully deterministic for a fixed config and seed.
"""
from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import granular, neural, tsdata
from .errors import BadParams, NonFiniteLoss


@dataclass(frozen=True)
class TrainConfig:
    window: int = 2
    stride: int = 1
    layers: int = 2
    hidden: int = 32
    decoder_hidden: int = 64
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-4
    lam: float = 0.5
    s_min: int = 8
    mu: float = 2.0
    seed: int = 2024
    rebuild_every: int = 1
    gbc_off: bool = False
    prune_off: bool = False
    assign_unpruned: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise BadParams(f"lambda must be in [0, 1], got {self.lam}")
        if self.batch_size < 1 or self.epochs < 1 or self.rebuild_every < 1:
            raise BadParams("batch_size, epochs and rebuild_every must be >= 1")
        if self.layers not in (1, 2, 3):
            raise BadParams(f"layers must be 1, 2 or 3, got {self.layers}")
        if min(self.window, self.stride, self.hidden, self.decoder_hidden, self.s_min) < 1:
            raise BadParams("window, stride, hidden, decoder_hidden and s_min must be >= 1")
        u32_fields = (self.epochs, self.batch_size, self.rebuild_every, self.window, self.stride,
                      self.hidden, self.decoder_hidden, self.s_min)
        if max(u32_fields) >= 2**32:
            raise BadParams(
                "epochs, batch_size, rebuild_every, window, stride, hidden, decoder_hidden "
                "and s_min must be < 2**32, the model file stores them as u32"
            )
        if not 0 <= self.seed < 2**64:
            raise BadParams(f"seed must be in [0, 2**64), got {self.seed}")
        if not all(math.isfinite(v) and v > 0 for v in (self.lr, self.mu)):
            raise BadParams(f"lr and mu must be finite and positive, got {self.lr} and {self.mu}")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    mean_lrec: float
    mean_lgb: float
    mean_loss: float
    balls_before: int
    balls_after: int


@dataclass
class GbocModel:
    """Everything inference needs: encoder weights, retained centers and
    radii, normalization stats, and the config that produced them. The
    decoder serves only the training loss, so the model does not keep it."""

    encoder: neural.EncoderParams
    norm: tsdata.NormStats
    centers: np.ndarray  # (M, d')
    radii: np.ndarray  # (M,)
    config: TrainConfig


def _ball_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, 3, epoch]).generate_state(1)[0])


def _build_balls(
    enc: neural.EncoderParams, X: np.ndarray, cfg: TrainConfig, epoch: int, verbose: bool
) -> tuple[granular.GbSet, granular.GbSet, int]:
    """Encode every training window and rebuild the balls over the latents;
    returns (training_set, shipped_set, count_before_pruning). With verbose,
    a prune that keeps only the tightest ball says so on stderr."""
    latents = neural.encode_batch(enc, X)
    if not np.all(np.isfinite(latents)):
        raise NonFiniteLoss(f"non-finite latents at the epoch-{epoch} ball build; training diverged")
    seed = _ball_seed(cfg.seed, epoch)
    if cfg.gbc_off:
        # ablation: plain k-means clusters stand in for granular-balls
        unpruned = shipped = granular.GbSet(balls=granular.kmeans_balls(latents, seed)[0])
    else:
        unpruned = granular.generate(latents, s_min=cfg.s_min, seed=seed)
        shipped = unpruned if cfg.prune_off else granular.prune(unpruned, cfg.mu)
    if shipped.kept_tightest and verbose:
        build = "final ball build" if epoch > cfg.epochs else f"epoch {epoch} ball build"
        print(f"warning: {build}: --mu {cfg.mu} would prune every ball; kept the tightest one", file=sys.stderr)
    return (unpruned if cfg.assign_unpruned else shipped), shipped, len(unpruned.balls)


# a finiteness check catches every divergence (each batch's loss and gradient,
# each ball build's latents), so NumPy's own warnings would only precede it
@np.errstate(over="ignore", invalid="ignore")
def train(
    train_ts: tsdata.TimeSeries, cfg: TrainConfig, verbose: bool = False
) -> tuple[GbocModel, list[EpochReport]]:
    """Fit the full model on an anomaly-free series."""
    if train_ts.T < cfg.window:
        raise BadParams(f"series length {train_ts.T} is shorter than the window {cfg.window}")
    stats = tsdata.fit_normalizer(train_ts)
    X = tsdata.make_windows(tsdata.apply_normalizer(train_ts, stats), cfg.window, cfg.stride)
    targets = X.reshape(len(X), -1)
    n = len(X)

    init_rng = np.random.default_rng([cfg.seed, 1])
    enc = neural.init_encoder(train_ts.d, cfg.hidden, cfg.layers, init_rng)
    # the decoder only serves the reconstruction loss; the model keeps the encoder
    dec = neural.init_decoder(enc.latent_size, cfg.window * train_ts.d, cfg.decoder_hidden, init_rng)
    params = neural.flatten_params(enc, dec)
    opt = neural.init_adam(params, lr=cfg.lr)

    reports: list[EpochReport] = []
    for epoch in range(1, cfg.epochs + 1):
        if (epoch - 1) % cfg.rebuild_every == 0:
            training_set, shipped, before = _build_balls(enc, X, cfg, epoch, verbose)
            centers = training_set.centers

        order = np.random.default_rng([cfg.seed, 2, epoch]).permutation(n)
        sum_rec = sum_gb = sum_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                grad, loss, l_rec, l_gb = neural.backward(enc, dec, X[idx], targets[idx], centers, None, cfg.lam)
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(f"epoch {epoch}: {exc}") from exc
            neural.opt_step(opt, params, grad)
            sum_rec += l_rec * idx.size
            sum_gb += l_gb * idx.size
            sum_loss += loss * idx.size
        report = EpochReport(
            epoch=epoch,
            mean_lrec=sum_rec / n,
            mean_lgb=sum_gb / n,
            mean_loss=sum_loss / n,
            balls_before=before,
            balls_after=len(shipped.balls),
        )
        reports.append(report)
        if verbose:
            print(
                f"epoch {epoch:3d}  loss {report.mean_loss:.6f}  "
                f"rec {report.mean_lrec:.6f}  gb {report.mean_lgb:.6f}  "
                f"balls {before}->{report.balls_after}",
                file=sys.stderr,
            )

    shipped = _build_balls(enc, X, cfg, cfg.epochs + 1, verbose)[1]
    # enc's tensors are views into params, which holds the decoder too; the
    # model keeps copies that own their data
    model = GbocModel(copy.deepcopy(enc), stats, shipped.centers, shipped.radii, cfg)
    return model, reports
