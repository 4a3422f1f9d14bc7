"""Training loop: periodic ball rebuilds in latent space plus joint-loss descent.

At epochs 1, 1 + rebuild_every, 1 + 2 * rebuild_every, ... the loop encodes
every training window and rebuilds and prunes the ball set over those
latents; the epochs in between keep the last build's centers. Each epoch
walks seeded shuffled batches minimizing lam * reconstruction +
(1 - lam) * center alignment against the current centers; each batch's one
forward pass yields both its nearest-center assignment and its gradients.
The builds during training only set those alignment targets: after the last
epoch the balls are always rebuilt from the final latents to form the
shipped model. With the default period of 10, a 10-epoch train builds twice
and a 20-epoch train three times. Fully deterministic for a fixed config and
seed.
"""
from __future__ import annotations

import copy
import sys
from dataclasses import dataclass

import numpy as np

from . import granular, neural, tsdata
from .errors import NonFiniteLoss
from .options import COUNT, FRACTION, LAYERS, POSITIVE, SEED, SWITCH, Options, option


@dataclass(frozen=True)
class TrainConfig(Options):
    window: int = option(2, COUNT)
    stride: int = option(1, COUNT)
    layers: int = option(2, LAYERS)
    hidden: int = option(32, COUNT)
    decoder_hidden: int = option(64, COUNT)
    epochs: int = option(20, COUNT)
    batch_size: int = option(32, COUNT, flag="--batch")
    lr: float = option(1e-4, POSITIVE)
    lam: float = option(0.5, FRACTION, flag="--lambda")
    s_min: int = option(8, COUNT, flag="--smin")
    mu: float = option(2.0, POSITIVE)
    seed: int = option(2024, SEED)
    rebuild_every: int = option(10, COUNT)
    gbc_off: bool = option(False, SWITCH, help="replace balls with plain k-means centers")
    prune_off: bool = option(False, SWITCH, help="keep every ball, no radius pruning")
    assign_unpruned: bool = option(False, SWITCH, help="align against unpruned balls during training")


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
        rebuilt = (epoch - 1) % cfg.rebuild_every == 0
        if rebuilt:
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
            # ball counts repeated on an epoch that built none would suggest a build
            balls = f"  balls {before}->{report.balls_after}" if rebuilt else ""
            print(
                f"epoch {epoch:3d}  loss {report.mean_loss:.6f}  "
                f"rec {report.mean_lrec:.6f}  gb {report.mean_lgb:.6f}{balls}",
                file=sys.stderr,
            )

    shipped = _build_balls(enc, X, cfg, cfg.epochs + 1, verbose)[1]
    # enc's tensors are views into params, which holds the decoder too; the
    # model keeps copies that own their data
    model = GbocModel(copy.deepcopy(enc), stats, shipped.centers, shipped.radii, cfg)
    return model, reports
