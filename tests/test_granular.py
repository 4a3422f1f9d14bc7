import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gboc import granular
from gboc.errors import BadParams, GbocError
from oracles import pairwise_nearest


def ball_of(points) -> granular.GranularBall:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return granular.GranularBall.from_members(pts, np.arange(len(pts))), pts


@st.composite
def center_queries(draw):
    """Centers and query rows on either side of the exact-broadcast size
    gate: scales 1e-3..1e3, optionally far from the origin, with duplicate
    centers, rows on centers, rows near the bisector of two centers, and
    integer grids whose distances tie exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, d = draw(st.integers(1, 24)), draw(st.integers(1, 48))
    if draw(st.booleans()):
        n = granular._EXACT_BLOCK // (k * d) + draw(st.integers(1, 64))
    else:
        n = draw(st.integers(1, max(1, granular._EXACT_BLOCK // (k * d))))
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.sampled_from([0.0, 1e3])) * scale
    if draw(st.booleans()):
        step = 2.0 ** draw(st.integers(-10, 10))
        centers = offset + step * rng.integers(-3, 4, size=(k, d))
        Z = offset + step * rng.integers(-3, 4, size=(n, d))
    else:
        centers = offset + scale * rng.normal(size=(k, d))
        Z = offset + scale * rng.normal(size=(n, d))
    if draw(st.booleans()):
        centers[rng.integers(k, size=k // 2)] = centers[rng.integers(k)]
    on = rng.random(n) < 0.2
    Z[on] = centers[rng.integers(k, size=int(on.sum()))]
    near = rng.random(n) < 0.3
    a, b = rng.integers(k, size=(2, int(near.sum())))
    Z[near] = (centers[a] + centers[b]) / 2 + 1e-12 * scale * rng.normal(size=(int(near.sum()), d))
    return centers, Z


class TestDensityMeasure:
    def test_single_point(self):
        b, _ = ball_of([3.0])
        assert granular.dm(b) == 0.0
        assert b.radius == 0.0

    def test_two_point_symmetry(self):
        b, _ = ball_of([[0.0, 0.0], [0.0, 2.0]])
        assert np.allclose(b.center, [0.0, 1.0])
        assert b.sum_dist == pytest.approx(2.0)
        assert granular.dm(b) == pytest.approx(1.0)

    def test_hand_case(self):
        b, _ = ball_of([0.0, 1.0, 10.0, 11.0])
        assert granular.dm(b) == pytest.approx(5.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(BadParams, match="^a granular-ball needs at least one member"):
            granular.GranularBall.from_members(np.zeros((3, 1)), np.array([], dtype=np.int64))

    def test_sum_bounded_by_count_times_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b, _ = ball_of(rng.normal(size=(int(rng.integers(1, 30)), 3)))
            assert b.sum_dist <= b.size * b.radius + 1e-9


class TestTrySplit:
    def test_hand_case_kept_when_children_lack_support(self):
        b, pts = ball_of([0.0, 1.0, 10.0, 11.0])
        assert granular.try_split(b, pts, s_min=3) is None

    def test_hand_case_split_accepted(self):
        b, pts = ball_of([0.0, 1.0, 10.0, 11.0])
        result = granular.try_split(b, pts, s_min=2)
        assert result is not None
        child1, child2 = result
        members = sorted(tuple(sorted(c.member_indices.tolist())) for c in result)
        assert members == [(0, 1), (2, 3)]
        assert granular.dm(child1) == pytest.approx(0.5, abs=1e-12)
        assert granular.dm(child2) == pytest.approx(0.5, abs=1e-12)
        assert granular.weighted_child_dm(child1, child2) == pytest.approx(0.5, abs=1e-12)

    def test_relaxed_child_support_flag(self):
        b, pts = ball_of([0.0, 1.0, 10.0, 11.0])
        result = granular.try_split(b, pts, s_min=3, require_child_support=False)
        assert result is not None

    def test_split_rejected_by_the_density_rule(self):
        pts = np.array([[-1.69266798, 0.53875461], [-4.70336738, -4.99914809], [7.79667101, 3.80096304],
                        [0, 0], [0, 0], [0, 0]])
        b = granular.GranularBall.from_members(pts, np.arange(6))
        # the 2-means try_split runs, replayed from the same seed
        _, assign = granular.kmeans(pts, 2, np.random.default_rng(1299))
        children = [granular.GranularBall.from_members(pts, np.flatnonzero(assign == c)) for c in (0, 1)]
        assert sorted(c.size for c in children) == [2, 4]  # both children have s_min members
        assert granular.weighted_child_dm(*children) == pytest.approx(3.219, abs=1e-3)
        assert granular.dm(b) == pytest.approx(3.045, abs=1e-3)
        assert granular.try_split(b, pts, s_min=2, rng=np.random.default_rng(1299)) is None

    def test_identical_points_kept(self):
        b, pts = ball_of(np.zeros(9))
        assert granular.try_split(b, pts, s_min=8) is None

    def test_at_or_below_support_never_split(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(8, 2))
        b = granular.GranularBall.from_members(pts, np.arange(8))
        assert granular.try_split(b, pts, s_min=8) is None

    @given(st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_split_strictly_improves_weighted_dm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 60))
        pts = rng.normal(size=(n, int(rng.integers(1, 5))))
        b = granular.GranularBall.from_members(pts, np.arange(n))
        s_min = int(rng.integers(2, 12))
        result = granular.try_split(b, pts, s_min, rng=rng)
        if result is not None:
            assert granular.weighted_child_dm(*result) < granular.dm(b)
            assert result[0].size >= s_min and result[1].size >= s_min


class TestKmeans:
    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_k_outside_one_to_n_rejected(self, k):
        with pytest.raises(BadParams):
            granular.kmeans(np.arange(10.0).reshape(5, 2), k, np.random.default_rng(0))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 12), st.integers(1, 16),
           st.integers(-3, 3), st.sampled_from([0.0, 1e3]))
    @settings(max_examples=100, deadline=None)
    def test_converged_centers_are_member_means_and_a_fixed_point(self, seed, n, d, k, exp, offset):
        rng = np.random.default_rng(seed)
        scale = 10.0**exp
        X = offset * scale + scale * rng.normal(size=(n, d))
        k = min(k, n)
        centers, assign = granular.kmeans(X, k, rng)
        tol = 1e-12 * float(np.abs(X).max())
        for c in np.unique(assign):
            assert np.abs(centers[c] - X[assign == c].mean(axis=0)).max() <= tol
        assert np.array_equal(granular._nearest(X, centers), assign)


class TestGenerate:
    def test_single_point(self):
        gset = granular.generate(np.array([[4.0, 2.0]]), s_min=8, seed=0)
        assert len(gset.balls) == 1
        assert gset.balls[0].radius == 0.0
        assert granular.dm(gset.balls[0]) == 0.0

    def test_sqrt_initialization_count(self):
        # 8 well-separated blobs of 8 points: floor(sqrt(64)) = 8 initial
        # clusters land one per blob and nothing is large enough to split
        rng = np.random.default_rng(3)
        blobs = [c + rng.normal(0, 0.01, size=(8, 2)) for c in 100.0 * np.arange(1, 9)[:, None] * np.array([1.0, -1.0])]
        pts = np.concatenate(blobs)
        gset = granular.generate(pts, s_min=8, seed=1)
        assert len(gset.balls) == 8
        assert sorted(b.size for b in gset.balls) == [8] * 8

    def test_two_blob_membership(self):
        rng = np.random.default_rng(7)
        pts = np.concatenate([rng.normal(0, 0.1, size=(32, 1)), rng.normal(100, 0.1, size=(32, 1))])
        gset = granular.generate(pts, s_min=8, seed=11)
        union = np.sort(np.concatenate([b.member_indices for b in gset.balls]))
        assert np.array_equal(union, np.arange(64))
        for b in gset.balls:
            vals = pts[b.member_indices]
            assert (vals < 50).all() or (vals > 50).all()

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(120, 3))
        a = granular.generate(pts, s_min=8, seed=21)
        b = granular.generate(pts, s_min=8, seed=21)
        assert len(a.balls) == len(b.balls)
        for x, y in zip(a.balls, b.balls):
            assert np.array_equal(x.member_indices, y.member_indices)
            assert np.array_equal(x.center, y.center)

    @staticmethod
    def two_means_inputs(monkeypatch) -> list[np.ndarray]:
        """Record the points of every 2-means call made through granular.kmeans."""
        seen = []
        original = granular.kmeans

        def recording(X, k, rng):
            if k == 2:
                seen.append(np.array(X, copy=True))
            return original(X, k, rng)

        monkeypatch.setattr(granular, "kmeans", recording)
        return seen

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_member_set_is_split_twice(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(400, 3))
        seen = self.two_means_inputs(monkeypatch)
        granular.generate(pts, s_min=8, seed=seed)
        assert seen
        keys = [x.tobytes() for x in seen]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("s_min,floor", [(8, 16), (2, 4)])
    def test_no_two_means_on_a_ball_too_small_for_two_children(self, monkeypatch, s_min, floor):
        rng = np.random.default_rng(17)
        pts = np.concatenate([rng.normal(0, 1, size=(300, 2)), rng.normal(8, 0.3, size=(100, 2))])
        seen = self.two_means_inputs(monkeypatch)
        granular.generate(pts, s_min=s_min, seed=5)
        assert seen
        assert min(len(x) for x in seen) >= floor

    @given(st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_partition_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        pts = rng.normal(size=(n, int(rng.integers(1, 5))))
        gset = granular.generate(pts, s_min=8, seed=seed)
        union = np.sort(np.concatenate([b.member_indices for b in gset.balls]))
        assert np.array_equal(union, np.arange(n))
        assert len(gset.balls) <= n

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.sampled_from([1, 3, 16, 64]),
           st.integers(-3, 3), st.sampled_from([0.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_radius_is_the_largest_distance_nearest_centers_reports(self, seed, n, d, exponent, offset):
        # bitwise: a ball's radius and sum_dist come from the distances that
        # scoring reports for its members, not from a second formula
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        latents = offset * scale + scale * rng.normal(size=(n, d))
        balls = granular.generate(latents, s_min=4, seed=seed).balls + granular.kmeans_balls(latents, seed)[0]
        for ball in balls:
            _, dists = granular.nearest_centers(ball.center[None], latents[ball.member_indices])
            assert ball.radius == dists.max()
            assert ball.sum_dist == float(dists.sum())


def _degenerate_cloud(kind: str) -> np.ndarray:
    rng = np.random.default_rng(29)
    if kind == "all_equal":
        return np.full((100, 4), 0.3)
    if kind == "two_values":
        return np.where(rng.random(100) < 0.5, -1.5, 2.0)[:, None] * np.ones((1, 4))
    if kind == "below_s_min":
        return rng.normal(size=(5, 4))
    return rng.normal(size=(1, 4))


@pytest.mark.parametrize("kind", ["all_equal", "two_values", "below_s_min", "single"])
def test_degenerate_cloud_builds_a_partition(kind):
    # the latents a collapsed encoder produces: the build either refuses
    # with a typed error or yields a partition, and pruning keeps a ball
    latents = _degenerate_cloud(kind)
    try:
        gset = granular.generate(latents, s_min=8, seed=3)
        pruned = granular.prune(gset)
    except GbocError:
        return
    union = np.sort(np.concatenate([b.member_indices for b in gset.balls]))
    assert np.array_equal(union, np.arange(len(latents)))
    assert gset.balls and pruned.balls


class TestPrune:
    def make_set_with_radii(self, radii):
        rows = []
        balls = []
        for j, r in enumerate(radii):
            offset = 1000.0 * j
            pts = [[offset - r], [offset + r]]
            idx = np.array([len(rows), len(rows) + 1])
            rows.extend(pts)
            balls.append((idx, r))
        all_pts = np.asarray(rows, dtype=np.float64)
        return granular.GbSet(balls=[granular.GranularBall.from_members(all_pts, idx) for idx, _ in balls])

    def test_hand_case(self):
        gset = self.make_set_with_radii([1.0, 1.0, 2.0, 10.0])
        pruned = granular.prune(gset, mu=2.0)
        assert sorted(b.radius for b in pruned.balls) == [1.0, 1.0, 2.0]

    def test_equal_radii_nothing_pruned(self):
        gset = self.make_set_with_radii([3.0, 3.0, 3.0])
        assert len(granular.prune(gset, mu=2.0).balls) == 3

    def test_retained_set_matches_threshold_rule(self):
        rng = np.random.default_rng(15)
        radii = rng.uniform(0.1, 5.0, size=12).tolist()
        gset = self.make_set_with_radii(radii)
        pruned = granular.prune(gset, mu=2.0)
        r = np.array(radii)
        r_th = 2.0 * max(float(np.median(r)), float(r.mean()))
        expected = sorted(x for x in radii if x <= r_th)
        assert sorted(b.radius for b in pruned.balls) == pytest.approx(expected)

    @pytest.mark.parametrize("mu", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_mu_rejected(self, mu):
        gset = self.make_set_with_radii([1.0, 2.0])
        with pytest.raises(BadParams):
            granular.prune(gset, mu=mu)

    def test_never_removes_every_ball(self):
        gset = self.make_set_with_radii([1.0, 1.0])
        pruned = granular.prune(gset, mu=0.5)  # r_th = 0.5 < every radius
        assert pruned.kept_tightest
        assert len(pruned.balls) == 1
        assert pruned.balls[0].radius == 1.0
        assert not granular.prune(gset, mu=1.0).kept_tightest


class TestNearestCenter:
    def test_exact_center(self):
        centers = np.array([[1.0, 2.0], [5.0, 5.0]])
        idx, dist = granular.nearest_center(centers, np.array([5.0, 5.0]))
        assert idx == 1 and dist == 0.0

    def test_tie_goes_to_lowest_index(self):
        centers = np.array([[-1.0], [1.0]])
        idx, dist = granular.nearest_center(centers, np.array([0.0]))
        assert idx == 0 and dist == pytest.approx(1.0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(23)
        centers = rng.normal(size=(5, 3))
        for _ in range(50):
            z = rng.normal(size=3)
            idx, dist = granular.nearest_center(centers, z)
            dists = [float(np.linalg.norm(z - c)) for c in centers]
            assert idx == int(np.argmin(dists))
            assert dist == pytest.approx(min(dists), abs=1e-12)

    def test_empty_set(self):
        with pytest.raises(BadParams, match="^no centers to search"):
            granular.nearest_center(np.zeros((0, 2)), np.zeros(2))

    @staticmethod
    def assert_bitwise_equal_to_pairwise_oracle(centers, Z):
        idx, dists = granular.nearest_centers(centers, Z)
        want_idx, want_dists = pairwise_nearest(centers, Z)
        assert np.array_equal(idx, want_idx)
        assert dists.tobytes() == want_dists.tobytes()

    @given(center_queries())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_pairwise_oracle(self, query):
        self.assert_bitwise_equal_to_pairwise_oracle(*query)

    @given(center_queries())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_pairwise_oracle_across_row_blocks(self, query):
        # a budget of a few dozen entries puts one or a few rows in each
        # block, so every query above the exact gate crosses many boundaries
        with mock.patch.object(granular, "_ROW_BLOCK", 40):
            self.assert_bitwise_equal_to_pairwise_oracle(*query)

    def test_memory_is_answers_plus_a_fixed_workspace(self):
        # 20000 detect-sized latents against 160 centers, whose whole matrix
        # product would take 25.6 MB
        rng = np.random.default_rng(61)
        Z, centers = rng.normal(size=(20000, 64)), rng.normal(size=(160, 64))
        tracemalloc.start()
        try:
            granular.nearest_centers(centers, Z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        answers = 2 * Z.shape[0] * 8  # indices and distances
        workspace = 4 * granular._ROW_BLOCK * 8  # a few blocks of float64 entries
        assert peak < answers + workspace

    def test_converged_kmeans_assigns_each_point_its_oracle_nearest_center(self):
        # far from the origin, so the matrix-product ranking is at its least
        # accurate; at convergence the last assignment came from the
        # returned centers, and no cluster is empty, so nothing was reseeded
        rng = np.random.default_rng(41)
        pts = 1e3 + rng.normal(size=(900, 16))
        centers, assign = granular.kmeans(pts, 30, np.random.default_rng(3))
        assert pts.size * 30 > granular._EXACT_BLOCK
        assert (np.bincount(assign, minlength=30) > 0).all()
        assert np.array_equal(assign, pairwise_nearest(centers, pts)[0])


class TestCoverage:
    def test_perfect_coverage(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        assert granular.coverage_rate(pts, pts.copy()) == pytest.approx(100.0)

    def test_hand_case_fifty_percent(self):
        assert granular.coverage_rate(np.array([[0.0], [1.0]]), np.array([[0.0]])) == pytest.approx(50.0)

    def test_degenerate_range(self):
        with pytest.raises(BadParams, match="^latent values span a zero range"):
            granular.coverage_rate(np.ones((4, 2)), np.ones((1, 2)))

    def test_ball_economy_on_two_blobs(self):
        rng = np.random.default_rng(31)
        pts = np.concatenate([rng.normal(0, 0.5, size=(128, 2)), rng.normal(20, 0.5, size=(128, 2))])
        gset = granular.prune(granular.generate(pts, s_min=8, seed=31))
        assert len(gset.balls) <= 256 // 4

