"""Granular-ball construction over a set of latent vectors.

Balls are built by coarse k-means into about sqrt(N) clusters, then refined
by hierarchical 2-means splits, and finally pruned by a radius threshold
derived from the global radius distribution. A split is accepted only when
the member-weighted density measure strictly improves and both children
carry enough members; each ball is tried at most once, so a rejected ball is
final and only the two children of an accepted split are tried next.
Everything is deterministic for a fixed seed: k-means++ seeding,
first-occurrence tie breaking in assignments, and a stable sweep order.

One kernel, _nearest, finds the nearest center for k-means (initial
assignment and Lloyd sweeps), training assignment and detect. It ranks
centers by ||c||^2 - 2 x.c from a matrix product per block of rows and keeps
a row's winner only when no other center lies within a proven rounding bound
of it; every other row, and every query of at most _EXACT_BLOCK (row,
center, coordinate) triples, is ranked by the exact broadcast of squared
differences. Its indices therefore equal the argmin of the exact squared
distances bit for bit, whatever the BLAS, its thread count or the blocking.
A row block holds at most _ROW_BLOCK (row, center) or (row, coordinate)
entries, so a query of N rows needs O(N) memory for its answers plus a fixed
workspace, however many centers it ranks.

Every squared distance between two points, in that exact ranking, k-means++
seeding, empty-cluster reseeding, nearest_centers' winner distances and a
ball's member distances, comes from the one kernel _sq_dist. So a ball's
radius is bit for bit the largest distance nearest_centers reports for its
members from its center, and its sum_dist is the sum of those distances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams

KMEANS_MAX_ITER = 100

# Largest (row, center, coordinate) count the exact broadcast handles in one
# block. Queries no larger skip the matrix product, which costs more than the
# broadcast at this size (the 2-means split sweep); larger exact work is cut
# into row blocks of at most this many triples.
_EXACT_BLOCK = 1 << 16

# Largest (row, center) count ranked by one matrix product, and largest
# (row, coordinate) count of one block of winner distances: the workspace of
# a query stays fixed however many rows it has.
_ROW_BLOCK = 1 << 18

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance over the last axis between a and b, as
    broadcast against each other: the module's one squared-distance formula."""
    diff = a - b
    return np.einsum("...d,...d->...", diff, diff)


def _broadcast_argmin(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Argmin over the exact broadcast squared distances (ties -> lowest index)."""
    return np.argmin(_sq_dist(X[:, None, :], centers), axis=1)


def _row_blocks(n: int, per_row: int):
    """Consecutive row slices of [0, n), each of at most _ROW_BLOCK // per_row
    rows (at least one)."""
    step = max(1, _ROW_BLOCK // max(1, per_row))
    return (slice(s, s + step) for s in range(0, n, step))


def _nearest(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each row's nearest center, equal to _broadcast_argmin bit for bit.

    g = ||c||^2 - 2 X C^T differs from the squared distance by the row
    constant ||x||^2. By the inner-product bound |fl(x.y) - x.y| <=
    gamma_n |x|.|y|, gamma_n = n u / (1 - n u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., eq. 3.5), both g + ||x||^2
    and the exact broadcast value lie within gamma_{d+2} R^2 of the true
    squared distance, R = ||x|| + max ||c||. So the exact winner's g is within
    4 gamma_{d+2} R^2 of the row's minimum; the tolerance doubles that to
    cover its own rounding and adds an absolute term for underflow. A row with
    one candidate inside it keeps that index; rows with more, or with none
    (NaN or overflow), are ranked exactly. The bound holds for any summation
    order, so each row's answer is the same whichever row block computes it.
    """
    n, d = X.shape
    k = centers.shape[0]
    if n * k * d <= _EXACT_BLOCK:
        return _broadcast_argmin(X, centers)
    c2 = np.einsum("kd,kd->k", centers, centers)
    c_max = np.sqrt(c2.max())
    gamma = (d + 2) * _UNIT_ROUNDOFF / (1.0 - (d + 2) * _UNIT_ROUNDOFF)
    step = max(1, _EXACT_BLOCK // (k * d))
    idx = np.empty(n, dtype=np.intp)
    for block in _row_blocks(n, k):
        Xb = X[block]
        g = Xb @ centers.T
        g *= -2.0
        g += c2
        best = np.argmin(g, axis=1)
        r = np.sqrt(np.einsum("nd,nd->n", Xb, Xb)) + c_max
        tol = 8.0 * (gamma * r * r + (d + 2) * _SMALLEST_SUBNORMAL)
        bound = g[np.arange(best.size), best] + tol
        ambiguous = np.flatnonzero(np.count_nonzero(g <= bound[:, None], axis=1) != 1)
        for s in range(0, ambiguous.size, step):
            rows = ambiguous[s : s + step]
            best[rows] = _broadcast_argmin(Xb[rows], centers)
        idx[block] = best
    return idx


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        d2 = np.minimum(d2, _sq_dist(X, centers[j - 1]))
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centers[j] = X[idx]
    return centers


def _reseed_empty(X: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Move each empty cluster's centroid to the point farthest from its
    assigned centroid (for k=2 this is the member farthest from the other
    centroid).

    Stops at the first empty cluster whose farthest point sits on its own
    centroid: then every point does, so no empty cluster can be fixed."""
    counts = np.bincount(assign, minlength=centers.shape[0])
    for c in np.where(counts == 0)[0]:
        own = _sq_dist(X, centers[assign])
        far = int(np.argmax(own))
        if own[far] <= 0.0:
            break
        centers[c] = X[far]
        assign[far] = c
    return assign


def _update_centers(X: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> None:
    """Set each non-empty cluster's centroid to its members' mean, in one pass
    over the rows sorted stably by cluster; empty clusters keep theirs."""
    counts = np.bincount(assign, minlength=centers.shape[0])
    filled = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[filled]
    sums = np.add.reduceat(X[np.argsort(assign, kind="stable")], starts, axis=0)
    centers[filled] = sums / counts[filled, None]


def kmeans(X: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ plus Lloyd iterations.

    Converges when assignments stop changing (at most KMEANS_MAX_ITER
    sweeps); assignment ties go to the lower-indexed centroid. Returns
    (centers, assignment); clusters can come back empty only when duplicate
    points make them unfixable. Raises BadParams unless 1 <= k <= N.
    """
    X = np.asarray(X, dtype=np.float64)
    if not 1 <= k <= X.shape[0]:
        raise BadParams(f"k-means needs 1 <= k <= {X.shape[0]} points, got k={k}")
    centers = _kmeanspp_init(X, k, rng)
    assign = _reseed_empty(X, centers, _nearest(X, centers))
    for _ in range(KMEANS_MAX_ITER):
        _update_centers(X, centers, assign)
        new_assign = _reseed_empty(X, centers, _nearest(X, centers))
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
            raise BadParams("a granular-ball needs at least one member")
        pts = latents[idx]
        center = pts.mean(axis=0)
        dists = np.sqrt(_sq_dist(pts, center))
        return cls(center=center, radius=float(dists.max()), member_indices=idx, sum_dist=float(dists.sum()))

    @property
    def size(self) -> int:
        return int(self.member_indices.size)


def dm(ball: GranularBall) -> float:
    """Density measure: summed member distance over member count (lower is denser)."""
    if ball.size == 0:
        raise BadParams("density measure of an empty ball is undefined")
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
    With require_child_support each child needs min_child = s_min members;
    without it, min_child = 2. Balls at or below the minimum support, or
    with fewer than 2 * min_child members, are kept before any k-means runs
    or any random number is drawn.
    """
    min_child = s_min if require_child_support else 2
    if ball.size <= s_min or ball.size < 2 * min_child:
        return None
    rng = rng if rng is not None else np.random.default_rng(0)
    pts = latents[ball.member_indices]
    if np.all(pts == pts[0]):
        return None
    _, assign = kmeans(pts, 2, rng)
    left = ball.member_indices[assign == 0]
    right = ball.member_indices[assign == 1]
    # at least 1 even when a caller passes s_min <= 0: no child may be empty
    if min(left.size, right.size) < max(min_child, 1):
        return None
    child1 = GranularBall.from_members(latents, left)
    child2 = GranularBall.from_members(latents, right)
    if weighted_child_dm(child1, child2) < dm(ball):
        return child1, child2
    return None


@dataclass(frozen=True)
class GbSet:
    """The full ball collection; immutable once built. kept_tightest marks a
    pruned set whose radius threshold would have dropped every ball."""

    balls: list[GranularBall]
    kept_tightest: bool = False

    @property
    def centers(self) -> np.ndarray:
        if not self.balls:
            raise BadParams("ball set is empty")
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
        raise BadParams("need at least one latent vector")
    rng = np.random.default_rng([seed, 0x6B])
    k = max(1, math.isqrt(latents.shape[0]))
    _, assign = kmeans(latents, k, rng)
    order = np.argsort(assign, kind="stable")
    members = np.split(order, np.cumsum(np.bincount(assign, minlength=k))[:-1])
    return [GranularBall.from_members(latents, m) for m in members if m.size], rng


def generate(latents: np.ndarray, s_min: int, seed: int) -> GbSet:
    """Build the unpruned ball set over N latent vectors.

    Starts from the kmeans_balls clusters, all open. Each sweep passes the
    open balls in index order to try_split; an accepted split replaces the
    parent in place, appends the second child, and opens both children for
    the next sweep. A ball try_split keeps is settled for good, so no ball is
    tried twice and each sweep is one level of the split tree. Balls with
    fewer than 2 * s_min members (see try_split) are kept without a k-means.
    """
    latents = np.asarray(latents, dtype=np.float64)
    balls, rng = kmeans_balls(latents, seed)
    open_balls = list(range(len(balls)))
    while open_balls:
        children = []
        for j in open_balls:
            result = try_split(balls[j], latents, s_min, rng)
            if result is not None:
                balls[j] = result[0]
                children += [j, len(balls)]
                balls.append(result[1])
        open_balls = sorted(children)
    return GbSet(balls=balls)


def prune(gb_set: GbSet, mu: float = 2.0) -> GbSet:
    """Drop diffuse balls whose radius exceeds mu * max(median, mean) of all radii.

    If the threshold would remove everything (pathological radii), the single
    smallest-radius ball is kept so scoring always has a center, and the
    result has kept_tightest set.
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise BadParams(f"prune needs a finite mu > 0, got {mu}")
    if not gb_set.balls:
        raise BadParams("cannot prune an empty ball set")
    radii = gb_set.radii
    r_th = mu * max(float(np.median(radii)), float(radii.mean()))
    kept = [b for b in gb_set.balls if b.radius <= r_th]
    if not kept:
        return GbSet(balls=[gb_set.balls[int(np.argmin(radii))]], kept_tightest=True)
    return GbSet(balls=kept)


def nearest_center(centers: np.ndarray, z: np.ndarray) -> tuple[int, float]:
    """Index of and Euclidean distance to the closest center (ties -> lowest index)."""
    idx, dists = nearest_centers(centers, np.asarray(z)[None])
    return int(idx[0]), float(dists[0])


def nearest_centers(centers: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest_center over rows of Z; returns (indices, distances).

    The winner's distance is recomputed by _sq_dist from its own difference
    vector, one row block at a time, which gives the same bits as the exact
    broadcast value."""
    return _nearest_centers(centers, Z)


def _nearest_centers(centers: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """nearest_centers, hidden from span tracers for neural._for_each_block's worker."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise BadParams("no centers to search")
    Z = np.asarray(Z, dtype=np.float64)
    idx = _nearest(Z, centers)
    dists = np.empty(Z.shape[0])
    for block in _row_blocks(Z.shape[0], Z.shape[1]):
        dists[block] = _sq_dist(Z[block], centers[idx[block]])
    return idx, np.sqrt(dists, out=dists)


def coverage_rate(latents: np.ndarray, centers: np.ndarray) -> float:
    """Percentage of average normalized proximity of each latent to its nearest center.

    Distances are normalized by the scalar range of all latent coordinate
    values; 100 means every latent coincides with a center.
    """
    latents = np.asarray(latents, dtype=np.float64)
    value_range = float(latents.max() - latents.min())
    if value_range <= 0.0:
        raise BadParams("latent values span a zero range")
    _, dists = nearest_centers(centers, latents)
    return 100.0 * (1.0 - float(dists.mean()) / value_range)
