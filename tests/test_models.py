import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkalign.core import ShiftOperator, stack
from ntkalign.hermite import sech2
from ntkalign.models import (
    FilterParams,
    InitConfig,
    TwoLayerGnnParams,
    filter_forward,
    filter_jacobian,
    flatten_params,
    gnn2_forward,
    gnn2_forward_pullback,
    gnn2_jacobian,
    init_filter,
    init_gnn2,
    load_params,
    save_params,
    unflatten_params,
)
from ntkalign.shiftops import AsymmetricShift


def random_shift(rng, n):
    a = rng.standard_normal((n, n))
    s = (a + a.T) / 2.0
    return ShiftOperator(s / np.linalg.norm(s))


def fd_jacobian(fn, params, step=1e-5):
    """Central finite differences of fn(params) along the flat layout."""
    flat = flatten_params(params)
    cols = []
    for j in range(flat.size):
        hi, lo = flat.copy(), flat.copy()
        hi[j] += step
        lo[j] -= step
        cols.append((fn(unflatten_params(hi, params)) - fn(unflatten_params(lo, params))) / (2 * step))
    return np.column_stack(cols)


# The GNN's activations by the name params.txt records, with their derivatives;
# the model fixes tanh, so the per-activation cases below run once each.
ACTIVATIONS = {"tanh": (np.tanh, sech2)}


class TestActivations:
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_smooth_derivative_matches_fd(self, name):
        fn, deriv = ACTIVATIONS[name]
        u = np.linspace(-4, 4, 41)
        fd = (fn(u + 1e-6) - fn(u - 1e-6)) / 2e-6
        assert np.allclose(deriv(u), fd, atol=1e-7)
        assert np.allclose(sech2(u), 1.0 / np.cosh(u) ** 2, rtol=1e-12, atol=1e-15)


class TestFilterForward:
    def test_identity_filter(self):
        rng = np.random.default_rng(0)
        s = random_shift(rng, 5)
        x = rng.standard_normal(5)
        out = filter_forward(s, FilterParams(np.array([1.0, 0.0, 0.0])), x)
        assert np.allclose(out, x)

    def test_zero_shift_keeps_first_tap(self):
        s = ShiftOperator(np.zeros((4, 4)))
        x = np.arange(4.0)
        out = filter_forward(s, FilterParams(np.array([2.0, 5.0, -1.0])), x)
        assert np.allclose(out, 2.0 * x)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_polynomial(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        s = random_shift(rng, n)
        taps = rng.standard_normal(k)
        x = rng.standard_normal((n, 3))
        dense = sum(taps[j] * np.linalg.matrix_power(s.matrix, j) for j in range(k))
        assert np.allclose(filter_forward(s, FilterParams(taps), x), dense @ x, atol=1e-12)

    def test_shape_mismatch(self):
        s = ShiftOperator(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            filter_forward(s, FilterParams(np.ones(2)), np.ones(5))

    def test_empty_taps_are_rejected(self):
        with pytest.raises(ValueError, match="num_taps must be >= 1, got 0"):
            FilterParams(np.zeros(0))


class TestFilterJacobian:
    def test_single_tap_is_signal(self):
        rng = np.random.default_rng(1)
        s = random_shift(rng, 4)
        x = rng.standard_normal(4)
        assert np.allclose(filter_jacobian(s, x, 1), x[:, None])

    def test_identity_shift_repeats_columns(self):
        x = np.arange(3.0)
        jac = filter_jacobian(ShiftOperator(np.eye(3)), x, 4)
        assert np.allclose(jac, np.tile(x[:, None], (1, 4)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        s = random_shift(rng, 5)
        x = rng.standard_normal(5)
        params = FilterParams(rng.standard_normal(3))
        jac = filter_jacobian(s, x, 3)
        fd = fd_jacobian(lambda p: filter_forward(s, p, x), params)
        assert np.linalg.norm(jac - fd) <= 1e-7 * max(np.linalg.norm(fd), 1.0)

    def test_stacked_rows_are_sample_major(self):
        rng = np.random.default_rng(3)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 3))
        jac = filter_jacobian(s, x, 2)
        assert jac.shape == (12, 2)
        for i in range(3):
            assert np.allclose(jac[i * 4 : (i + 1) * 4], filter_jacobian(s, x[:, i], 2))


class TestGnn2Forward:
    def test_zero_params(self):
        rng = np.random.default_rng(4)
        s = random_shift(rng, 4)
        params = TwoLayerGnnParams(np.zeros((3, 2)), np.zeros((3, 2)))
        assert np.allclose(gnn2_forward(s, params, rng.standard_normal(4)), 0.0)

    def test_two_identity_filters(self):
        rng = np.random.default_rng(5)
        s = random_shift(rng, 5)
        x = rng.standard_normal(5)
        e0 = np.array([[1.0, 0.0]])
        params = TwoLayerGnnParams(e0, e0)
        assert np.allclose(gnn2_forward(s, params, x), np.tanh(x), atol=1e-14)

    def test_one_homogeneous_in_second_layer(self):
        rng = np.random.default_rng(6)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 2))
        params = init_gnn2(3, 2, InitConfig(kappa=0.7, seed=11))
        scaled = TwoLayerGnnParams(params.g, 3.5 * params.h)
        assert np.allclose(gnn2_forward(s, scaled, x), 3.5 * gnn2_forward(s, params, x))

    def test_matrix_input_matches_per_column(self):
        rng = np.random.default_rng(7)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 3))
        params = init_gnn2(2, 3, InitConfig(kappa=1.0, seed=8))
        out = gnn2_forward(s, params, x)
        for i in range(3):
            assert np.allclose(out[:, i], gnn2_forward(s, params, x[:, i]))


class TestGnn2Jacobian:
    def test_second_layer_identity_passthrough(self):
        # g = e0 passes x through the first filter, so every feature is tanh(x)
        rng = np.random.default_rng(8)
        s = random_shift(rng, 4)
        x = rng.standard_normal(4)
        width, k = 3, 2
        g = np.tile([1.0, 0.0], (width, 1))
        params = TwoLayerGnnParams(g, rng.standard_normal((width, k)))
        jac = gnn2_jacobian(s, params, x, which_layer="second")
        powers = s.powers_applied(np.tanh(x), k)
        for f in range(width):
            for j in range(k):
                assert np.allclose(jac[:, f * k + j], powers[j] / np.sqrt(width))

    def test_first_layer_vanishes_without_readout(self):
        rng = np.random.default_rng(9)
        s = random_shift(rng, 5)
        params = TwoLayerGnnParams(rng.standard_normal((3, 2)), np.zeros((3, 2)))
        jac = gnn2_jacobian(s, params, rng.standard_normal(5), which_layer="first")
        assert np.allclose(jac, 0.0)

    def test_tanh_against_finite_differences(self):
        rng = np.random.default_rng(10)
        s = random_shift(rng, 4)
        x = rng.standard_normal(4)
        params = init_gnn2(3, 2, InitConfig(kappa=0.9, seed=21))
        jac = gnn2_jacobian(s, params, x)
        fd = fd_jacobian(lambda p: gnn2_forward(s, p, x), params)
        assert np.linalg.norm(jac - fd) <= 1e-5 * np.linalg.norm(fd)

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_smooth_activations_fifty_instances(self, activation):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            width = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            s = random_shift(rng, n)
            x = rng.standard_normal(n)
            g, h = rng.standard_normal((2, width, k))
            params = TwoLayerGnnParams(g, h)
            jac = gnn2_jacobian(s, params, x)
            fd = fd_jacobian(lambda p: gnn2_forward(s, p, x), params)
            assert np.linalg.norm(jac - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-12)

    def test_both_is_first_then_second(self):
        rng = np.random.default_rng(12)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 2))
        params = init_gnn2(2, 2, InitConfig(kappa=1.1, seed=3))
        both = gnn2_jacobian(s, params, x, which_layer="both")
        first = gnn2_jacobian(s, params, x, which_layer="first")
        second = gnn2_jacobian(s, params, x, which_layer="second")
        assert np.allclose(both, np.hstack([first, second]))

    def test_stacked_rows_match_stack_convention(self):
        rng = np.random.default_rng(13)
        s = random_shift(rng, 3)
        x = rng.standard_normal((3, 4))
        params = init_gnn2(2, 2, InitConfig(kappa=0.8, seed=5))
        jac = gnn2_jacobian(s, params, x)
        fd = fd_jacobian(lambda p: stack(gnn2_forward(s, p, x)), params)
        assert np.linalg.norm(jac - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_rejects_unknown_layer_choice(self):
        s = ShiftOperator(np.zeros((2, 2)))
        params = init_gnn2(1, 1, InitConfig(kappa=1.0, seed=0))
        with pytest.raises(ValueError):
            gnn2_jacobian(s, params, np.ones(2), which_layer="third")


class TestGnn2ForwardPullback:
    """The fused backward pass against the materialised Jacobian."""

    @staticmethod
    def make_shift(rng, n, symmetric):
        if symmetric:
            return random_shift(rng, n)
        a = rng.standard_normal((n, n))
        return AsymmetricShift(a / np.linalg.norm(a))

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("samples", [None, 4], ids=["vector", "matrix"])
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_pullback_matches_jacobian_transpose(self, activation, samples, symmetric):
        rng = np.random.default_rng(12)
        n = 6
        s = self.make_shift(rng, n, symmetric)
        shape = (n,) if samples is None else (n, samples)
        x = rng.standard_normal(shape)
        r = rng.standard_normal(shape)
        params = init_gnn2(7, 3, InitConfig(kappa=0.9, seed=5))
        out, pullback = gnn2_forward_pullback(s, params, s.powers_applied(x, 3))
        jac = gnn2_jacobian(s, params, x)
        expected = jac.T @ (r if samples is None else stack(r))
        got = pullback(r)
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.array_equal(out, gnn2_forward(s, params, x))

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_output_and_pullback_match_jacobian(self, activation, k, symmetric):
        # the output is linear in h: the second-layer Jacobian block times h
        rng = np.random.default_rng(20 + k)
        n, samples = 5, 3
        s = self.make_shift(rng, n, symmetric)
        x = rng.standard_normal((n, samples))
        r = rng.standard_normal((n, samples))
        params = init_gnn2(4, k, InitConfig(kappa=0.9, seed=k))
        out, pullback = gnn2_forward_pullback(s, params, s.powers_applied(x, k))
        expected = gnn2_jacobian(s, params, x, which_layer="second") @ params.h.ravel()
        assert np.linalg.norm(stack(out) - expected) <= 1e-12 * np.linalg.norm(expected)
        grad = gnn2_jacobian(s, params, x).T @ stack(r)
        assert np.linalg.norm(pullback(r) - grad) <= 1e-12 * np.linalg.norm(grad)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("samples", [None, 3], ids=["vector", "matrix"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_horner_output_matches_explicit_sum(self, k, samples, symmetric):
        rng = np.random.default_rng(40 + k)
        n, width = 6, 5
        s = self.make_shift(rng, n, symmetric)
        x = rng.standard_normal((n,) if samples is None else (n, samples))
        params = init_gnn2(width, k, InitConfig(kappa=0.9, seed=k))
        powers = [np.linalg.matrix_power(s.matrix, j) for j in range(k)]
        expected = np.zeros_like(x)
        for f in range(width):
            q = np.tanh(sum(params.g[f, j] * powers[j] @ x for j in range(k)))
            expected += sum(params.h[f, j] * powers[j] @ q for j in range(k))
        expected /= np.sqrt(width)
        out = gnn2_forward(s, params, x)
        assert out.shape == x.shape
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_rejects_residual_of_another_shape(self):
        rng = np.random.default_rng(4)
        s = random_shift(rng, 4)
        params = init_gnn2(3, 2, InitConfig(kappa=1.0, seed=0))
        x_powers = s.powers_applied(rng.standard_normal((4, 2)), 2)
        _, pullback = gnn2_forward_pullback(s, params, x_powers)
        with pytest.raises(ValueError, match="residual shape"):
            pullback(np.zeros(8))

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_pullback_runs_once(self, activation):
        # sigma' overwrites sigma(u1), so a second call could only return a wrong gradient
        rng = np.random.default_rng(5)
        s = random_shift(rng, 4)
        params = init_gnn2(3, 2, InitConfig(kappa=1.0, seed=0))
        x = rng.standard_normal((4, 2))
        _, pullback = gnn2_forward_pullback(s, params, s.powers_applied(x, 2))
        r = rng.standard_normal((4, 2))
        grad = pullback(r)
        assert np.linalg.norm(grad - gnn2_jacobian(s, params, x).T @ stack(r)) <= (
            1e-12 * np.linalg.norm(grad))
        with pytest.raises(RuntimeError, match="pullback has run"):
            pullback(r)

    def test_rejects_a_tap_stack_of_another_shape(self):
        rng = np.random.default_rng(6)
        s = random_shift(rng, 4)
        params = init_gnn2(3, 2, InitConfig(kappa=1.0, seed=0))
        with pytest.raises(ValueError, match="tap stack of 3 taps"):
            gnn2_forward_pullback(s, params, s.powers_applied(rng.standard_normal(4), 3))


class TestInit:
    def test_deterministic_given_seed(self):
        cfg = InitConfig(kappa=0.5, seed=42)
        a = init_gnn2(4, 3, cfg)
        b = init_gnn2(4, 3, cfg)
        assert np.array_equal(a.g, b.g) and np.array_equal(a.h, b.h)

    def test_sample_variance_near_kappa_squared(self):
        params = init_gnn2(250, 200, InitConfig(kappa=0.7, seed=1))
        draws = np.concatenate([params.g.ravel(), params.h.ravel()])
        assert draws.size == 100_000
        assert abs(draws.var() - 0.49) <= 0.02 * 0.49

    def test_small_kappa_shrinks_output(self):
        rng = np.random.default_rng(14)
        s = random_shift(rng, 4)
        x = rng.standard_normal(4)
        out = gnn2_forward(s, init_gnn2(3, 2, InitConfig(kappa=1e-8, seed=2)), x)
        assert np.linalg.norm(out) < 1e-12

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError, match="width must be >= 1, got 0"):
            init_gnn2(0, 2, InitConfig(kappa=1.0, seed=0))
        with pytest.raises(ValueError, match="width must be >= 1"):
            TwoLayerGnnParams(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            InitConfig(kappa=0.0, seed=1)

    def test_filter_shapes(self):
        assert init_filter(4, InitConfig(kappa=1.0, seed=0)).num_taps == 4


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: init_filter(3, InitConfig(kappa=1.2, seed=30)),
        lambda: init_gnn2(3, 2, InitConfig(kappa=0.4, seed=31)),
    ])
    def test_round_trip(self, make, tmp_path):
        params = make()
        path = tmp_path / "params.csv"
        save_params(path, params)
        loaded = load_params(path)
        assert type(loaded) is type(params)
        assert np.array_equal(flatten_params(loaded), flatten_params(params))

    def test_flat_line_is_the_17_digit_join(self, tmp_path):
        # save_params shares dataio's row formatter; the line is unchanged
        taps = np.array([0.1, -1 / 3, -0.0, 5e-324, 1e308, -2.2250738585072014e-308, 123456789.0])
        path = tmp_path / "params.txt"
        save_params(path, FilterParams(taps))
        assert path.read_text().splitlines()[1] == ",".join(f"{v:.17g}" for v in taps)

    def test_flatten_round_trip_preserves_layout(self):
        params = init_gnn2(2, 3, InitConfig(kappa=1.0, seed=33))
        flat = flatten_params(params)
        rebuilt = unflatten_params(flat, params)
        assert np.array_equal(rebuilt.g, params.g)
        assert np.array_equal(rebuilt.h, params.h)
        # layer 1 occupies the leading block
        assert np.array_equal(flat[: params.g.size], params.g.ravel())

    def test_unflatten_rejects_wrong_length(self):
        params = init_filter(3, InitConfig(kappa=1.0, seed=34))
        with pytest.raises(ValueError):
            unflatten_params(np.zeros(4), params)

    @pytest.mark.parametrize("activation", ["tanh", "relu", None])
    def test_load_reads_only_the_tanh_header(self, tmp_path, activation):
        # the header keeps its activation key, so the file format is unchanged
        header = {"schema_version": 1, "kind": "gnn2", "width": 1, "num_taps": 2}
        if activation is not None:
            header["activation"] = activation
        path = tmp_path / "params.txt"
        path.write_text(json.dumps(header) + "\n0.5,-1,2,0.25\n")
        if activation != "tanh":
            with pytest.raises(ValueError, match="only tanh"):
                load_params(path)
            return
        loaded = load_params(path)
        assert np.array_equal(loaded.g, [[0.5, -1.0]]) and np.array_equal(loaded.h, [[2.0, 0.25]])
        save_params(tmp_path / "again.txt", loaded)
        assert (tmp_path / "again.txt").read_text() == path.read_text()

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('{"schema_version": 99, "kind": "filter", "num_taps": 1}\n1.0\n')
        with pytest.raises(ValueError):
            load_params(path)
