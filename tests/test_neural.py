import copy

import numpy as np
import pytest

from gboc import granular, neural
from gboc.errors import ShapeMismatch
from oracles import (
    fd_gradient_check,
    naive_decode,
    naive_encode,
    random_small_net,
    two_branch_sigmoid,
    unblocked_encode,
    where_sigmoid,
)


BLOCK = neural.ENCODE_BLOCK


def zero_encoder(d=2, h=4, L=2):
    enc = neural.init_encoder(d, h, L, np.random.default_rng(0))
    for layer in enc.layers:
        layer.W[:] = 0.0
        layer.U[:] = 0.0
        layer.b[:] = 0.0
    return enc


class TestEncode:
    def test_zero_params_fixed_point(self):
        enc = zero_encoder()
        window = np.random.default_rng(1).normal(size=(5, 2))
        assert np.array_equal(neural.encode_batch(enc, window[None])[0], np.zeros(8))

    def test_latent_dimension(self):
        enc = neural.init_encoder(3, 32, 2, np.random.default_rng(2))
        z = neural.encode_batch(enc, np.zeros((4, 3))[None])[0]
        assert z.shape == (64,)
        assert enc.latent_size == 64

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(33)
        enc = neural.init_encoder(2, 5, 3, rng)
        window = rng.normal(size=(7, 2))
        z = neural.encode_batch(enc, window[None])[0]
        ref = naive_encode(enc, window)
        assert np.max(np.abs(z - ref)) < 1e-12

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        enc = neural.init_encoder(2, 6, 2, rng)
        window = rng.normal(size=(6, 2))
        assert np.array_equal(neural.encode_batch(enc, window[None])[0], neural.encode_batch(enc, window[None])[0])

    def test_shape_mismatch(self):
        enc = neural.init_encoder(2, 4, 1, np.random.default_rng(5))
        with pytest.raises(ShapeMismatch):
            neural.encode_batch(enc, np.zeros((3, 5))[None])

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(6)
        enc = neural.init_encoder(3, 4, 2, rng)
        X = rng.normal(size=(9, 4, 3))
        Z = neural.encode_batch(enc, X)
        for i in range(9):
            assert np.max(np.abs(Z[i] - neural.encode_batch(enc, X[i][None])[0])) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, BLOCK, BLOCK + 1, 2 * BLOCK + 300, 3 * BLOCK + 1])
    @pytest.mark.parametrize("d,h,layers,w", [(1, 32, 2, 2), (3, 32, 2, 5), (2, 5, 3, 3)])
    def test_blocked_batch_bitwise_equals_one_unblocked_pass(self, n, d, h, layers, w):
        rng = np.random.default_rng(n + 7 * d)
        enc = neural.init_encoder(d, h, layers, rng)
        X = rng.normal(size=(n, w, d))
        assert neural.encode_batch(enc, X).tobytes() == unblocked_encode(enc, X).tobytes()


class TestSigmoid:
    def test_bitwise_equal_to_two_branch_form(self):
        rng = np.random.default_rng(13)
        wide = rng.normal(scale=50.0, size=(1000, 8))
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array(
            [0.0, -0.0, tiny, -tiny, 709.0, -709.0, 745.5, -745.5, 1e308, -1e308, np.inf, -np.inf]
        )
        for x in (rng.normal(scale=10.0, size=20000), wide[:, 2:6], wide[::3, 1], edges):
            assert np.array_equal(neural._sigmoid(x), two_branch_sigmoid(x))

    def test_bitwise_equal_to_one_where_over_fresh_arrays(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array(
            [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 2.2250738585072014e-308, -2.2250738585072014e-308,
             745.0, -745.0, 1e308, -1e308, np.nan, -np.nan]
        )
        rng = np.random.default_rng(17)
        for x in (edges, rng.normal(scale=30.0, size=(257, 64)), rng.normal(size=(40, 12))[:, 3:9]):
            assert neural._sigmoid(x).tobytes() == where_sigmoid(x).tobytes()

    def test_nan_maps_to_nan(self):
        assert np.isnan(neural._sigmoid(np.array([np.nan, 1.0])))[0]


class TestDecode:
    def test_zero_params(self):
        dec = neural.init_decoder(6, 4, 8, np.random.default_rng(7))
        dec.W1[:] = 0.0
        dec.b1[:] = 0.0
        dec.W2[:] = 0.0
        dec.b2[:] = 0.0
        assert np.array_equal(neural.decode_batch(dec, np.ones(6)[None])[0], np.zeros(4))

    def test_identity_construction_gives_tanh_prefix(self):
        d_lat, out = 5, 3
        dec = neural.DecoderParams(
            W1=np.eye(d_lat),
            b1=np.zeros(d_lat),
            W2=np.eye(out, d_lat),
            b2=np.zeros(out),
        )
        z = np.array([0.3, -0.8, 1.5, 0.0, 2.0])
        assert np.allclose(neural.decode_batch(dec, z[None])[0], np.tanh(z)[:out], atol=1e-15)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(8)
        dec = neural.init_decoder(6, 10, 7, rng)
        z = rng.normal(size=6)
        assert np.max(np.abs(neural.decode_batch(dec, z[None])[0] - naive_decode(dec, z))) < 1e-12

    def test_shape_mismatch(self):
        dec = neural.init_decoder(6, 4, 8, np.random.default_rng(9))
        with pytest.raises(ShapeMismatch):
            neural.decode_batch(dec, np.zeros(5)[None])


class TestBackward:
    def test_lambda_one_matches_pure_reconstruction(self):
        enc, dec, X, Y, centers, assignment = random_small_net(101)
        grads_full, loss, l_rec, l_gb = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
        assert loss == pytest.approx(l_rec)
        # alignment term contributes nothing: the same gradients fall out when
        # the centers are moved arbitrarily
        far = centers + 100.0
        grads_far, _, _, _ = neural.backward(enc, dec, X, Y, far, assignment, 1.0)
        for k in grads_full:
            assert np.array_equal(grads_full[k], grads_far[k])

    def test_lambda_zero_decoder_grads_vanish(self):
        enc, dec, X, Y, centers, assignment = random_small_net(102)
        grads, loss, l_rec, l_gb = neural.backward(enc, dec, X, Y, centers, assignment, 0.0)
        assert loss == pytest.approx(l_gb)
        for k in ("dec.W1", "dec.b1", "dec.W2", "dec.b2"):
            assert np.all(grads[k] == 0.0)

    def test_loss_equals_forward_recomputation(self):
        enc, dec, X, Y, centers, assignment = random_small_net(103)
        _, loss, l_rec, l_gb = neural.backward(enc, dec, X, Y, centers, assignment, 0.5)
        Z = neural.encode_batch(enc, X)
        R = neural.decode_batch(dec, Z)
        rec = float(np.sum((R - Y) ** 2) / X.shape[0])
        gb = float(np.sum((Z - centers[assignment]) ** 2) / X.shape[0])
        assert l_rec == pytest.approx(rec, rel=1e-12)
        assert l_gb == pytest.approx(gb, rel=1e-12)
        assert loss == pytest.approx(0.5 * rec + 0.5 * gb, rel=1e-12)

    @pytest.mark.parametrize("seed", [101, 102, 103, 201, 202, 203, 204, 205])
    def test_default_assignment_is_nearest_center_of_same_pass(self, seed):
        enc, dec, X, Y, centers, _ = random_small_net(seed)
        explicit, _ = granular.nearest_centers(centers, neural.encode_batch(enc, X))
        for lam in (0.0, 0.5, 1.0):
            grads_a, *losses_a = neural.backward(enc, dec, X, Y, centers, explicit, lam)
            grads_b, *losses_b = neural.backward(enc, dec, X, Y, centers, None, lam)
            assert losses_a == losses_b
            assert grads_a.keys() == grads_b.keys()
            assert all(np.array_equal(grads_a[k], grads_b[k]) for k in grads_a)

    def test_finite_difference_small_config(self):
        rng = np.random.default_rng(55)
        enc = neural.init_encoder(2, 4, 1, rng)
        dec = neural.init_decoder(4, 6, 5, rng)
        X = rng.normal(size=(3, 3, 2))
        Y = X.reshape(3, -1).copy()
        centers = rng.normal(size=(2, 4))
        assignment, _ = granular.nearest_centers(centers, neural.encode_batch(enc, X))
        worst = fd_gradient_check(enc, dec, X, Y, centers, assignment, 0.5)
        assert worst < 1e-4


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = {"x": np.array([1.0, -2.0])}
        state = neural.init_adam(p, lr=0.1)
        neural.opt_step(state, p, {"x": np.zeros(2)})
        assert np.array_equal(p["x"], np.array([1.0, -2.0]))

    def test_first_step_hand_formula(self):
        g = 0.37
        lr = 0.05
        p = {"x": np.array([2.0])}
        state = neural.init_adam(p, lr=lr)
        neural.opt_step(state, p, {"x": np.array([g])})
        expected = 2.0 - lr * g / (abs(g) + state.eps)
        assert p["x"][0] == pytest.approx(expected, rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(12)
        p = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
        g = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
        s1 = neural.init_adam(p, lr=1e-3)
        p1 = copy.deepcopy(p)
        p2 = copy.deepcopy(p)
        s2 = copy.deepcopy(s1)
        for _ in range(3):
            neural.opt_step(s1, p1, g)
            neural.opt_step(s2, p2, g)
        for k in p:
            assert np.array_equal(p1[k], p2[k])

    def test_loss_decrease_smoke(self):
        # 200 steps at lambda=1 on a fixed tiny dataset halve the
        # reconstruction term
        rng = np.random.default_rng(77)
        t = np.linspace(0, 6 * np.pi, 40)
        series = np.sin(t)[:, None]
        X = np.stack([series[i : i + 3] for i in range(16)])
        Y = X.reshape(16, -1).copy()
        enc = neural.init_encoder(1, 4, 1, rng)
        dec = neural.init_decoder(4, 3, 8, rng)
        centers = np.zeros((1, 4))
        assignment = np.zeros(16, dtype=np.int64)
        params = neural.param_dict(enc, dec)
        opt = neural.init_adam(params, lr=1e-2)
        _, first, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
        for _ in range(200):
            grads, loss, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
            neural.opt_step(opt, params, grads)
        _, last, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
        assert last <= 0.5 * first
