import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gboc import granular
from gboc.errors import DegenerateRange, EmptyBall, EmptySet


def ball_of(points) -> granular.GranularBall:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return granular.GranularBall.from_members(pts, np.arange(len(pts))), pts


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
        with pytest.raises(EmptyBall):
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
        assert pruned.pruned
        assert sorted(b.radius for b in pruned.balls) == [1.0, 1.0, 2.0]

    def test_equal_radii_nothing_pruned(self):
        gset = self.make_set_with_radii([3.0, 3.0, 3.0])
        assert len(granular.prune(gset, mu=2.0).balls) == 3

    def test_second_prune_is_noop(self):
        gset = self.make_set_with_radii([1.0, 1.0, 2.0, 10.0])
        once = granular.prune(gset, mu=2.0)
        assert granular.prune(once, mu=2.0) is once

    def test_retained_set_matches_threshold_rule(self):
        rng = np.random.default_rng(15)
        radii = rng.uniform(0.1, 5.0, size=12).tolist()
        gset = self.make_set_with_radii(radii)
        pruned = granular.prune(gset, mu=2.0)
        r = np.array(radii)
        r_th = 2.0 * max(float(np.median(r)), float(r.mean()))
        expected = sorted(x for x in radii if x <= r_th)
        assert sorted(b.radius for b in pruned.balls) == pytest.approx(expected)

    def test_never_removes_every_ball(self):
        gset = self.make_set_with_radii([1.0, 1.0])
        with pytest.warns(UserWarning):
            pruned = granular.prune(gset, mu=0.5)  # r_th = 0.5 < every radius
        assert len(pruned.balls) == 1
        assert pruned.balls[0].radius == 1.0


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
        with pytest.raises(EmptySet):
            granular.nearest_center(np.zeros((0, 2)), np.zeros(2))


class TestCoverage:
    def test_perfect_coverage(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        assert granular.coverage_rate(pts, pts.copy()) == pytest.approx(100.0)

    def test_hand_case_fifty_percent(self):
        assert granular.coverage_rate(np.array([[0.0], [1.0]]), np.array([[0.0]])) == pytest.approx(50.0)

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            granular.coverage_rate(np.ones((4, 2)), np.ones((1, 2)))

    def test_ball_economy_on_two_blobs(self):
        rng = np.random.default_rng(31)
        pts = np.concatenate([rng.normal(0, 0.5, size=(128, 2)), rng.normal(20, 0.5, size=(128, 2))])
        gset = granular.prune(granular.generate(pts, s_min=8, seed=31))
        assert len(gset.balls) <= 256 // 4

