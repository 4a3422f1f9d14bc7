"""Granular-ball construction over a set of latent vectors.

Balls are built by coarse k-means into about sqrt(N) clusters, then refined
by repeated 2-means splits accepted only when the member-weighted density
measure strictly improves, and finally pruned by a radius threshold derived
from the global radius distribution. Everything is deterministic for a fixed
seed: k-means++ seeding, first-occurrence tie breaking in assignments, and a
stable sweep order.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateRange, EmptyBall, EmptySet

KMEANS_MAX_ITER = 100


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (N, k)."""
    diff = X[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centers[j] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def _reseed_empty(X: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Move each empty cluster's centroid to the point farthest from its
    assigned centroid (for k=2 this is the member farthest from the other
    centroid). Identical points cannot be separated and are left alone."""
    k = centers.shape[0]
    counts = np.bincount(assign, minlength=k)
    for c in np.where(counts == 0)[0]:
        own = np.sum((X - centers[assign]) ** 2, axis=1)
        far = int(np.argmax(own))
        if own[far] <= 0.0:
            break
        centers[c] = X[far]
        assign[far] = c
        counts = np.bincount(assign, minlength=k)
    return assign

def kmeans(X: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ plus Lloyd iterations.

    Converges when assignments stop changing (at most KMEANS_MAX_ITER
    sweeps); assignment ties go to the lower-indexed centroid. Returns
    (centers, assignment); clusters can come back empty only when duplicate
    points make them unfixable.
    """
    X = np.asarray(X, dtype=np.float64)
    centers = _kmeanspp_init(X, k, rng)
    assign = _reseed_empty(X, centers, np.argmin(_sq_dists(X, centers), axis=1))
    for _ in range(KMEANS_MAX_ITER):
        for c in range(k):
            members = X[assign == c]
            if members.shape[0]:
                centers[c] = members.mean(axis=0)
        new_assign = _reseed_empty(X, centers, np.argmin(_sq_dists(X, centers), axis=1))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers, assign


@dataclass(frozen=True)
class GranularBall:
    """A latent-space region: mean center, max member distance as radius,
    plus the summed member distance used by the density measure."""

    center: np.ndarray
    radius: float
    member_indices: np.ndarray
    sum_dist: float

    @classmethod
    def from_members(cls, latents: np.ndarray, member_indices: np.ndarray) -> "GranularBall":
        idx = np.asarray(member_indices, dtype=np.int64)
        if idx.size == 0:
            raise EmptyBall("a granular-ball needs at least one member")
        pts = latents[idx]
        center = pts.mean(axis=0)
        dists = np.sqrt(np.sum((pts - center) ** 2, axis=1))
        return cls(center=center, radius=float(dists.max()), member_indices=idx, sum_dist=float(dists.sum()))

    @property
    def size(self) -> int:
        return int(self.member_indices.size)


def dm(ball: GranularBall) -> float:
    """Density measure: summed member distance over member count (lower is denser)."""
    if ball.size == 0:
        raise EmptyBall("density measure of an empty ball is undefined")
    return ball.sum_dist / ball.size


def weighted_child_dm(child1: GranularBall, child2: GranularBall) -> float:
    total = child1.size + child2.size
    return (child1.size / total) * dm(child1) + (child2.size / total) * dm(child2)


def try_split(
    ball: GranularBall,
    latents: np.ndarray,
    s_min: int,
    rng: np.random.Generator | None = None,
    require_child_support: bool = True,
) -> tuple[GranularBall, GranularBall] | None:
    """2-means refinement of one ball.

    Returns the two children when the split strictly improves the weighted
    density measure and both children carry enough members, else None (keep).
    Balls at or below the minimum support are never split. With
    require_child_support each child needs >= s_min members; without it, two
    members suffice.
    """
    if ball.size <= s_min:
        return None
    rng = rng if rng is not None else np.random.default_rng(0)
    pts = latents[ball.member_indices]
    if np.all(pts == pts[0]):
        return None
    _, assign = kmeans(pts, 2, rng)
    left = ball.member_indices[assign == 0]
    right = ball.member_indices[assign == 1]
    if left.size == 0 or right.size == 0:
        return None
    min_child = s_min if require_child_support else 2
    if left.size < min_child or right.size < min_child:
        return None
    child1 = GranularBall.from_members(latents, left)
    child2 = GranularBall.from_members(latents, right)
    if weighted_child_dm(child1, child2) < dm(ball):
        return child1, child2
    return None


@dataclass(frozen=True)
class GbSet:
    """The full ball collection; immutable once built."""

    balls: list[GranularBall]
    pruned: bool = False

    @property
    def centers(self) -> np.ndarray:
        if not self.balls:
            raise EmptySet("ball set is empty")
        return np.stack([b.center for b in self.balls])

    @property
    def radii(self) -> np.ndarray:
        return np.array([b.radius for b in self.balls])


def kmeans_balls(latents: np.ndarray, seed: int) -> tuple[list[GranularBall], np.random.Generator]:
    """One ball per non-empty cluster of a seeded floor(sqrt(N))-means over N
    latents, plus the generator after its k-means draws: generate's split
    sweep continues that stream."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[0] < 1:
        raise EmptySet("need at least one latent vector")
    rng = np.random.default_rng([seed, 0x6B])
    k = max(1, math.isqrt(latents.shape[0]))
    _, assign = kmeans(latents, k, rng)
    balls = [
        GranularBall.from_members(latents, np.where(assign == c)[0])
        for c in range(k)
        if np.any(assign == c)
    ]
    return balls, rng


def generate(
    latents: np.ndarray,
    s_min: int = 8,
    seed: int = 0,
    require_child_support: bool = True,
) -> GbSet:
    """Build the unpruned ball set over N latent vectors.

    Starts from the kmeans_balls clusters, then sweeps the balls in stable
    index order applying try_split; an accepted split replaces the parent in
    place and appends the second child. Stops when a full sweep produces no
    split.
    """
    latents = np.asarray(latents, dtype=np.float64)
    balls, rng = kmeans_balls(latents, seed)
    while True:
        split_happened = False
        for j in range(len(balls)):
            if balls[j].size <= s_min:
                continue
            result = try_split(balls[j], latents, s_min, rng, require_child_support)
            if result is not None:
                balls[j] = result[0]
                balls.append(result[1])
                split_happened = True
        if not split_happened:
            break
    return GbSet(balls=balls)


def prune(gb_set: GbSet, mu: float = 2.0) -> GbSet:
    """Drop diffuse balls whose radius exceeds mu * max(median, mean) of all radii.

    Pruning an already-pruned set is a no-op. If the threshold would remove
    everything (pathological radii), the single smallest-radius ball is kept
    so scoring always has a center.
    """
    if gb_set.pruned:
        return gb_set
    if not gb_set.balls:
        raise EmptySet("cannot prune an empty ball set")
    radii = gb_set.radii
    r_th = mu * max(float(np.median(radii)), float(radii.mean()))
    kept = [b for b in gb_set.balls if b.radius <= r_th]
    if not kept:
        warnings.warn("radius threshold would prune every ball; keeping the tightest one")
        kept = [gb_set.balls[int(np.argmin(radii))]]
    return replace(gb_set, balls=kept, pruned=True)


def nearest_center(centers: np.ndarray, z: np.ndarray) -> tuple[int, float]:
    """Index of and Euclidean distance to the closest center (ties -> lowest index)."""
    idx, dists = nearest_centers(centers, np.asarray(z)[None])
    return int(idx[0]), float(dists[0])


def nearest_centers(centers: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest_center over rows of Z; returns (indices, distances)."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise EmptySet("no centers to search")
    d2 = _sq_dists(np.asarray(Z, dtype=np.float64), centers)
    idx = np.argmin(d2, axis=1)
    return idx, np.sqrt(d2[np.arange(Z.shape[0]), idx])


def coverage_rate(latents: np.ndarray, centers: np.ndarray) -> float:
    """Percentage of average normalized proximity of each latent to its nearest center.

    Distances are normalized by the scalar range of all latent coordinate
    values; 100 means every latent coincides with a center.
    """
    latents = np.asarray(latents, dtype=np.float64)
    value_range = float(latents.max() - latents.min())
    if value_range <= 0.0:
        raise DegenerateRange("latent values span a zero range")
    _, dists = nearest_centers(centers, latents)
    return 100.0 * (1.0 - float(dists.mean()) / value_range)
