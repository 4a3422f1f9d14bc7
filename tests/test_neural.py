import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gboc import granular, neural
from gboc.errors import ShapeMismatch
from oracles import (
    DictAdam,
    decode_batch,
    dict_adam_step,
    fd_gradient_check,
    full_step_backward,
    full_step_forward,
    naive_decode,
    naive_encode,
    per_tensor_backward,
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

    def test_memory_is_output_plus_one_block_workspace(self):
        B, w, d, h, layers = 40000, 2, 1, 32, 2
        rng = np.random.default_rng(19)
        enc = neural.init_encoder(d, h, layers, rng)
        X = rng.normal(size=(B, w, d))
        tracemalloc.start()
        try:
            neural.encode_batch(enc, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = B * layers * h * 8
        # a block has fewer than 2 * BLOCK rows; it holds every layer's output
        # sequence and at most eight gate-width (4h) arrays at a time
        workspace = 2 * BLOCK * (layers * w * h + 8 * 4 * h) * 8
        assert workspace < output
        assert peak < output + workspace


# exact zeros, values whose pre-activations underflow a gate to 0, and plain ones
ENCODER_INPUT = st.one_of(st.just(0.0), st.just(-0.0), st.sampled_from([-3000.0, 3000.0]), st.floats(-3.0, 3.0))


class TestZeroStateFirstStep:
    @given(
        d=st.integers(1, 3),
        h=st.integers(1, 4),
        layers=st.integers(1, 3),
        w=st.integers(1, 4),
        B=st.integers(1, 5),
        zero_biases=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_latents_and_gradients_bitwise_equal_full_step(self, d, h, layers, w, B, zero_biases, seed, data):
        rng = np.random.default_rng(seed)
        enc = neural.init_encoder(d, h, layers, rng)
        for layer in enc.layers:
            layer.b[:] = 0.0 if zero_biases else rng.normal(size=layer.b.shape)
        X = np.array(data.draw(st.lists(ENCODER_INPUT, min_size=B * w * d, max_size=B * w * d))).reshape(B, w, d)
        dZ = rng.normal(size=(B, enc.latent_size)) * rng.integers(0, 2, size=(B, enc.latent_size))

        z, cache = neural._forward_encoder(enc, X, keep_cache=True)
        z_full, cache_full = full_step_forward(enc, X)
        assert z.tobytes() == z_full.tobytes()
        assert neural.encode_batch(enc, X).tobytes() == z_full.tobytes()
        grads = [np.zeros_like(getattr(layer, k)) for layer in enc.layers for k in ("W", "U", "b")]
        neural._backward_encoder(enc, cache, dZ, grads)
        grads_full = full_step_backward(enc, cache_full, dZ)
        assert len(grads) == len(grads_full)
        for i, (g, g_full) in enumerate(zip(grads, grads_full)):
            assert g.tobytes() == g_full.tobytes(), i

    def test_underflowed_input_gate_gives_positive_zero_cell(self):
        # a very negative input drives i to exactly +0 and g to -1, so i * g is
        # -0.0; the full step's f * c_prev + i * g is +0.0, and so is this one
        enc = neural.init_encoder(1, 1, 1, np.random.default_rng(0))
        enc.layers[0].W[:, 0] = [1.0, 1.0, 1.0, 1.0]
        enc.layers[0].b[:] = 0.0
        X = np.full((1, 1, 1), -3000.0)
        z, cache = neural._forward_encoder(enc, X, keep_cache=True)
        assert cache[0][1][0][3][0, 0] == 0.0 and np.signbit(cache[0][1][0][5][0, 0])  # i = +0, g = -1
        assert z.tobytes() == full_step_forward(enc, X)[0].tobytes()
        assert not np.signbit(z[0, 0])


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


def decoder_only_batch(seed, lat=5, out=3, B=4):
    """A 1-layer encoder of `lat` units, a batch of B 2-step 1-channel windows,
    their latents and one center per window."""
    rng = np.random.default_rng(seed)
    enc = neural.init_encoder(1, lat, 1, rng)
    X = rng.normal(size=(B, 2, 1))
    Z = neural.encode_batch(enc, X)
    return enc, X, Z, rng.normal(size=(B, out)), np.arange(B), Z.copy()


class TestDecode:
    """The decoder serves only backward's reconstruction term."""

    def test_zero_params(self):
        enc, X, _, Y, assignment, centers = decoder_only_batch(7, out=4)
        dec = neural.init_decoder(5, 4, 8, np.random.default_rng(7))
        for a in (dec.W1, dec.b1, dec.W2, dec.b2):
            a[:] = 0.0
        _, _, l_rec, _ = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
        assert l_rec == float(np.sum(Y * Y) / Y.shape[0])

    def test_identity_construction_gives_tanh_prefix(self):
        d_lat, out = 5, 3
        dec = neural.DecoderParams(
            W1=np.eye(d_lat),
            b1=np.zeros(d_lat),
            W2=np.eye(out, d_lat),
            b2=np.zeros(out),
        )
        enc, X, Z, _, assignment, centers = decoder_only_batch(8, d_lat, out)
        _, _, l_rec, _ = neural.backward(enc, dec, X, np.tanh(Z)[:, :out], centers, assignment, 1.0)
        assert l_rec < 1e-28

    def test_matches_naive_reference(self):
        enc, X, Z, Y, assignment, centers = decoder_only_batch(9, out=2)
        dec = neural.init_decoder(5, 2, 7, np.random.default_rng(8))
        _, _, l_rec, _ = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
        naive = sum(float(np.sum((naive_decode(dec, naive_encode(enc, x)) - y) ** 2)) for x, y in zip(X, Y))
        assert l_rec == pytest.approx(naive / X.shape[0], rel=1e-12)
        assert np.max(np.abs(decode_batch(dec, Z) - np.array([naive_decode(dec, z) for z in Z]))) < 1e-12

    def test_shape_mismatch(self):
        enc, X, _, Y, assignment, centers = decoder_only_batch(10, out=3)
        dec = neural.init_decoder(5, 4, 8, np.random.default_rng(9))
        with pytest.raises(ShapeMismatch):
            neural.backward(enc, dec, X, Y, centers, assignment, 0.5)


class TestBackward:
    def test_lambda_one_matches_pure_reconstruction(self):
        enc, dec, X, Y, centers, assignment = random_small_net(101)
        grads_full, loss, l_rec, l_gb = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
        assert loss == pytest.approx(l_rec)
        # alignment term contributes nothing: the same gradients fall out when
        # the centers are moved arbitrarily
        far = centers + 100.0
        grads_far, _, _, _ = neural.backward(enc, dec, X, Y, far, assignment, 1.0)
        assert np.array_equal(grads_full, grads_far)

    def test_lambda_zero_decoder_grads_vanish(self):
        enc, dec, X, Y, centers, assignment = random_small_net(102)
        grad, loss, l_rec, l_gb = neural.backward(enc, dec, X, Y, centers, assignment, 0.0)
        assert loss == pytest.approx(l_gb)
        n_dec = sum(a.size for a in (dec.W1, dec.b1, dec.W2, dec.b2))
        # the decoder's tensors are the vector's last entries
        assert np.all(grad[-n_dec:] == 0.0)
        assert np.any(grad[:-n_dec] != 0.0)

    def test_loss_equals_forward_recomputation(self):
        enc, dec, X, Y, centers, assignment = random_small_net(103)
        _, loss, l_rec, l_gb = neural.backward(enc, dec, X, Y, centers, assignment, 0.5)
        Z = neural.encode_batch(enc, X)
        R = decode_batch(dec, Z)
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
            grad_a, *losses_a = neural.backward(enc, dec, X, Y, centers, explicit, lam)
            grad_b, *losses_b = neural.backward(enc, dec, X, Y, centers, None, lam)
            assert losses_a == losses_b
            assert np.array_equal(grad_a, grad_b)

    @pytest.mark.parametrize("seed", [101, 102, 103, 201, 202, 203, 204, 205])
    def test_flat_gradient_bitwise_equals_per_tensor_oracle(self, seed):
        enc, dec, X, Y, centers, assignment = random_small_net(seed)
        for lam in (0.0, 0.3, 1.0):
            grad, *_ = neural.backward(enc, dec, X, Y, centers, assignment, lam)
            oracle = per_tensor_backward(enc, dec, X, Y, centers, assignment, lam)
            assert grad.tobytes() == np.concatenate([g.ravel() for g in oracle]).tobytes()

    def test_every_field_is_a_view_of_the_flat_vector(self):
        enc, dec, *_ = random_small_net(104)
        before = [layer.W.copy() for layer in enc.layers] + [dec.W2.copy()]
        flat = neural.flatten_params(enc, dec)
        fields = [getattr(layer, k) for layer in enc.layers for k in ("W", "U", "b")]
        fields += [dec.W1, dec.b1, dec.W2, dec.b2]
        assert all(np.shares_memory(a, flat) for a in fields)
        assert flat.size == sum(a.size for a in fields)
        assert all(np.array_equal(a, b) for a, b in zip(before, [layer.W for layer in enc.layers] + [dec.W2]))
        flat[:] = 0.5
        assert all(np.all(a == 0.5) for a in fields)

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


# gradients from subnormal to large, whose squares stay finite
ADAM_GRAD = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0])
        state = neural.init_adam(p, lr=0.1)
        neural.opt_step(state, p, np.zeros(2))
        assert np.array_equal(p, np.array([1.0, -2.0]))

    def test_first_step_hand_formula(self):
        g = 0.37
        lr = 0.05
        p = np.array([2.0])
        state = neural.init_adam(p, lr=lr)
        neural.opt_step(state, p, np.array([g]))
        expected = 2.0 - lr * g / (abs(g) + state.eps)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(12)
        p = rng.normal(size=10)
        g = rng.normal(size=10)
        s1 = neural.init_adam(p, lr=1e-3)
        p1 = p.copy()
        p2 = p.copy()
        s2 = copy.deepcopy(s1)
        for _ in range(3):
            neural.opt_step(s1, p1, g)
            neural.opt_step(s2, p2, g)
        assert np.array_equal(p1, p2)

    def test_gradient_shape_mismatch(self):
        p = np.zeros(4)
        state = neural.init_adam(p)
        with pytest.raises(ShapeMismatch):
            neural.opt_step(state, p, np.zeros(5))
        assert state.step == 0

    @given(
        shapes=st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=2), min_size=1, max_size=4),
        lr=st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_flat_steps_bitwise_equal_per_dict_adam(self, shapes, lr, seed, data):
        rng = np.random.default_rng(seed)
        params = {f"t{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        flat = np.concatenate([p.ravel() for p in params.values()])
        state, oracle = neural.init_adam(flat, lr=lr), DictAdam(lr=lr)
        for _ in range(5):
            grad = np.array(data.draw(st.lists(ADAM_GRAD, min_size=flat.size, max_size=flat.size)))
            grads, start = {}, 0
            for k, p in params.items():
                grads[k] = grad[start : start + p.size].reshape(p.shape)
                start += p.size
            neural.opt_step(state, flat, grad)
            dict_adam_step(oracle, params, grads)
            assert flat.tobytes() == np.concatenate([p.ravel() for p in params.values()]).tobytes()

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
        params = neural.flatten_params(enc, dec)
        opt = neural.init_adam(params, lr=1e-2)
        _, first, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
        for _ in range(200):
            grad, loss, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
            neural.opt_step(opt, params, grad)
        _, last, _, _ = neural.backward(enc, dec, X, Y, centers, assignment, 1.0)
        assert last <= 0.5 * first
