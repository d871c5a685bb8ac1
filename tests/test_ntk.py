import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense
from ntkalign.alignment import random_instance
from ntkalign.core import Dataset, DivergenceError, NtkMatrix, ShiftOperator, stack
from ntkalign.dataio import (
    PairExtractionConfig,
    VarProcessConfig,
    extract_pairs,
    generate_var,
    planted_transition,
)
from ntkalign.hermite import (
    SERIES_RTOL,
    TruncationError,
    hermite_coefficients,
    hermite_series,
    hermite_values,
    sech2,
    series_tails,
)
from ntkalign import hermite, ntk, training
from ntkalign.models import (
    FilterParams,
    InitConfig,
    TwoLayerGnnParams,
    filter_forward,
    filter_jacobian,
    flatten_params,
    gnn2_forward,
    gnn2_jacobian,
    init_gnn2,
    unflatten_params,
)
from ntkalign.shiftops import cross_covariance
from ntkalign.ntk import (
    ExpectationMatrix,
    TapStack,
    conjugated_power_sum,
    empirical_ntk,
    expectation_E_first_layer,
    expectation_E_quadrature,
    expectation_series,
    filter_ntk,
    gnn_infinite_ntk,
    z_vectors,
)
from ntkalign.training import TrainConfig, ntk_drift, train


def random_shift(rng, n):
    a = rng.standard_normal((n, n))
    s = (a + a.T) / 2.0
    return ShiftOperator(s / np.linalg.norm(s))


def random_dataset(rng, n, m):
    return Dataset(rng.standard_normal((n, m)), rng.standard_normal((n, m))).normalized()


def one_sample_stack(z):
    """The one-sample TapStack whose Z (n x K) is ``z``."""
    return TapStack(np.asarray(z, dtype=float).T[:, None, :])


def dense_block_diag(s, m):
    n = s.shape[0]
    out = np.zeros((n * m, n * m))
    for i in range(m):
        out[i * n : (i + 1) * n, i * n : (i + 1) * n] = s
    return out


def einsum_power_sum(s, matrix, num_taps, num_samples):
    """sum_k S~^k A S~^k as two einsums per power on the (M, n, M, n) blocks.

    The power sum's first form, kept as the oracle for the in-place one.
    """
    blk = matrix.reshape(num_samples, s.num_nodes, num_samples, s.num_nodes)
    acc = matrix.copy()
    for _ in range(1, num_taps):
        blk = np.einsum("ab,ibjc->iajc", s.matrix, blk)
        blk = np.einsum("ibjd,dc->ibjc", blk, s.matrix)
        acc += blk.reshape(matrix.shape)
    return acc


# The GNN's activations by name, with their derivatives; the model fixes tanh,
# so the per-activation cases run once each.
ACTIVATIONS = {"tanh": (np.tanh, sech2)}


def dense_monte_carlo_layer(s, x, num_taps, g, h, layer, activation="tanh"):
    """One layer's term of a width-F GNN's kernel as a dense sum over the F features.

    The reference for ``empirical_ntk`` of ``TwoLayerGnnParams(g, h)``, whose
    kernel is the first layer's term plus the second's: the second layer
    conjugates the feature Gram sigma(Z g') sigma(Z g')' / F by the shift
    powers; the first adds, per feature f, the rank-K term c c' / F with
    c = sum_j h_fj S~^j [sigma'(Z g_f) * Z], (sigma, sigma') = ACTIVATIONS[activation].
    """
    fn, deriv = ACTIVATIONS[activation]
    z = z_vectors(s, x, num_taps).matrix
    pre = z @ g.T  # (nM, F)
    num_features = g.shape[0]
    if layer == "second":
        feats = fn(pre)
        return conjugated_power_sum(s, feats @ feats.T / num_features, num_taps, x.shape[1])
    lift = dense_block_diag(s.matrix, x.shape[1])
    lift_powers = [np.linalg.matrix_power(lift, j) for j in range(num_taps)]
    theta = np.zeros((z.shape[0], z.shape[0]))
    for f in range(num_features):
        w = deriv(pre[:, f])[:, None] * z  # (nM, K)
        c = sum(h[f, j] * (lift_powers[j] @ w) for j in range(num_taps))
        theta += c @ c.T
    return theta / num_features


def within_residual(series, reference):
    """Entrywise gap to a reference is inside the residual, up to round-off."""
    gap = np.abs(series.matrix - reference.matrix).max()
    return gap <= series.info["truncation_residual"] + 64 * np.finfo(float).eps * max(
        1.0, np.abs(reference.matrix).max()
    )


def single_block_mehler(coeffs, rho, parity=1):
    """sum_i c_i c_i' rho^(2i + parity): Horner in rho^2 over the whole matrix at once.

    The odd sum (parity 1) is the reference for ``ntk._mehler_sum``; the
    even one times Z Z' is E1 in its Gram-matrix form.
    """
    rho_sq = rho * rho
    acc = np.zeros_like(rho)
    term = np.empty_like(rho)
    for c in coeffs.T[::-1]:
        acc *= rho_sq
        np.multiply.outer(c, c, out=term)
        acc += term
    if parity:
        acc *= rho
    return acc


# Each layer, with the id its tests carried when each layer had a builder of its own.
LAYERS = [
    pytest.param("second", id="expectation_E_series"),
    pytest.param("first", id="expectation_E_first_layer_series"),
]


def generated_split(m_train, seed):
    """cxy and the training split of gen-data --n 20 --len 1000 --dt 1 --anisotropy 0.6."""
    transition, _ = planted_transition(20, seed=seed, strength=0.9, background=0.36)
    series = generate_var(VarProcessConfig(20, 1000, transition, 1.0, seed))
    m_test = max(1, m_train // 10)  # gen-data's default
    train_split, _ = extract_pairs(series, PairExtractionConfig(1, m_train, m_test, seed))
    return cross_covariance(train_split.x, train_split.y), train_split


def benchmark_tap_stack():
    """Z of gen-data --n 20 --len 1000 --dt 1 --anisotropy 0.6 --m-train 3 --seed 0, cxy, K = 2."""
    s, train_split = generated_split(3, 0)
    return z_vectors(s, train_split.x, 2)


def gaussian_expectation(f):
    from scipy.integrate import quad

    val, err = quad(
        lambda u: f(u) * np.exp(-u * u / 2.0) / np.sqrt(2.0 * np.pi), -40, 40, limit=200
    )
    assert err < 5e-8
    return val


class TestZVectors:
    def test_rows_follow_stacking_convention(self):
        rng = np.random.default_rng(0)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 3))
        z = z_vectors(s, x, 3)
        assert z.matrix.shape == (12, 3)
        xs = stack(x)
        sx = stack(s.matrix @ x)
        ssx = stack(s.matrix @ s.matrix @ x)
        assert np.allclose(z.matrix[:, 0], xs)
        assert np.allclose(z.matrix[:, 1], sx)
        assert np.allclose(z.matrix[:, 2], ssx)

    def test_gram_matches_blockdiag_power_sum(self):
        rng = np.random.default_rng(1)
        s = random_shift(rng, 3)
        x = rng.standard_normal((3, 4))
        k = 3
        lift = dense_block_diag(s.matrix, 4)
        xt = stack(x)
        expected = sum(
            np.linalg.matrix_power(lift, j) @ np.outer(xt, xt) @ np.linalg.matrix_power(lift, j)
            for j in range(k)
        )
        assert np.allclose(z_vectors(s, x, k).gram(), expected, atol=1e-12)

    def test_views_hold_the_one_stack(self):
        # Z and its per-sample blocks are views of X, the powers applied to the samples
        rng = np.random.default_rng(2)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 5))
        z = z_vectors(s, x, 3)
        powers = s.powers_applied(x, 3)
        assert np.array_equal(z.powers, powers.transpose(0, 2, 1))
        assert z.powers.flags.c_contiguous and not z.powers.flags.writeable
        assert z.num_taps == 3
        assert np.array_equal(z.blocks, powers.transpose(2, 1, 0))
        assert np.array_equal(z.matrix, filter_jacobian(s, x, 3))
        assert z.matrix.flags.f_contiguous
        for view in (z.matrix, z.blocks):
            assert np.shares_memory(view, z.powers) and not view.flags.writeable
        assert [f.name for f in dataclasses.fields(TapStack)] == ["powers"]

    def test_correlations_of_parallel_rows_are_clamped(self):
        # rows that are exact multiples of one another have |rho| = 1, but
        # Z Z' / (|z_a| |z_b|) rounds past 1 for about 1 in 5 such pairs
        rng = np.random.default_rng(0)
        scales = rng.uniform(0.5, 2.0, 40) * rng.choice([-1.0, 1.0], 40)
        z = one_sample_stack(scales[:, None] * rng.standard_normal((1, 3)))
        raw = z.gram() / np.outer(z.norms, z.norms)
        assert np.abs(raw).max() > 1.0
        rho = z.correlations[1]
        assert np.abs(rho).max() <= 1.0
        assert np.allclose(np.abs(rho), 1.0, rtol=0.0, atol=1e-15)

    def test_keeps_a_frozen_stack_and_copies_a_writable_one(self):
        x = np.random.default_rng(3).standard_normal((2, 3, 4))
        assert TapStack(x).powers is not x and x.flags.writeable
        x.setflags(write=False)
        assert TapStack(x).powers is x
        with pytest.raises(ValueError, match="3-d"):
            TapStack(np.ones((6, 2)))


class TestFilterNtk:
    def test_scalar_two_tap_case(self):
        s = ShiftOperator(np.array([[0.7]]))
        x = np.array([[1.3]])
        theta = filter_ntk(s, x, 2)
        assert np.isclose(dense(theta)[0, 0], 1.3**2 * (1.0 + 0.7**2))

    def test_single_sample_one_tap(self):
        rng = np.random.default_rng(2)
        s = random_shift(rng, 5)
        x = rng.standard_normal((5, 1))
        theta = filter_ntk(s, x, 1)
        assert np.allclose(dense(theta), np.outer(x[:, 0], x[:, 0]))

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rank_at_most_num_taps(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        s = random_shift(rng, n)
        theta = filter_ntk(s, rng.standard_normal((n, m)), k)
        if n * m > k:
            assert theta.rank_estimate() <= k

    def test_equals_b_lin(self):
        rng = np.random.default_rng(3)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 3))
        theta = filter_ntk(s, x, 2)
        lift, xt = dense_block_diag(s.matrix, 3), stack(x)
        b_lin = np.outer(xt, xt) + lift @ np.outer(xt, xt) @ lift
        assert np.allclose(dense(theta), b_lin, atol=1e-12)
        assert theta.info == {"num_taps": 2}

    def test_diag_is_z_row_norms(self):
        rng = np.random.default_rng(4)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 3))
        z = z_vectors(s, x, 3)
        assert np.allclose(np.diag(dense(filter_ntk(s, x, 3))), z.norms**2)


class TestEmpiricalNtk:
    def test_filter_matches_analytic_fifty_instances(self):
        # a filter is linear in its taps: Jacobian column k is the filter with taps e_k
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            s = random_shift(rng, n) if n > 1 else ShiftOperator(rng.standard_normal((1, 1)))
            x = rng.standard_normal((n, m))
            emp = empirical_ntk(s, FilterParams(rng.standard_normal(k)), x)
            jac = np.column_stack([stack(filter_forward(s, FilterParams(e), x)) for e in np.eye(k)])
            scale = max(np.linalg.norm(jac) ** 2, 1.0)
            assert np.linalg.norm(dense(emp) - jac @ jac.T) <= 1e-10 * scale
            assert emp.info == filter_ntk(s, x, k).info == {"num_taps": k}

    def test_gnn_second_layer_block_ignores_readout(self):
        # c2 columns depend only on the hidden features, not on h
        rng = np.random.default_rng(6)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 2))
        g = rng.standard_normal((3, 2))
        zero_h = TwoLayerGnnParams(g, np.zeros((3, 2)))
        second = empirical_ntk(s, zero_h, x).factor[:, g.size :]
        assert np.linalg.norm(second @ second.T) > 1e-6

    def test_rejects_unsupported_params(self):
        rng = np.random.default_rng(7)
        s = random_shift(rng, 3)
        with pytest.raises(TypeError):
            empirical_ntk(s, np.zeros(2), rng.standard_normal((3, 2)))


class TestExpectationQuadrature:
    def test_diagonal_matches_adaptive_oracle(self):
        rng = np.random.default_rng(8)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        z = z_vectors(s, data, 2)
        e = expectation_E_quadrature(z, n_points=256)
        for a in [0, 5, 11]:
            norm = z.norms[a]
            expected = gaussian_expectation(lambda u: np.tanh(norm * u) ** 2)
            assert e.matrix[a, a] == pytest.approx(expected, abs=1e-7)
            assert 0.0 < e.matrix[a, a] < 1.0

    def test_orthogonal_rows_give_zero(self):
        z = one_sample_stack(np.array([[1.5, 0.0], [0.0, 0.8]]))
        e = expectation_E_quadrature(z)
        assert e.matrix[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo_three_sigma(self):
        rng = np.random.default_rng(9)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 3)
        z = z_vectors(s, data, 2)
        e = expectation_E_quadrature(z)
        norms = z.norms
        rho = z.gram() / np.outer(norms, norms)
        mc_rng = np.random.default_rng(1234)
        draws = 1_000_000
        u = mc_rng.standard_normal(draws)
        v = mc_rng.standard_normal(draws)
        for a, b in [(0, 1), (2, 7), (4, 8)]:
            r = float(np.clip(rho[a, b], -1.0, 1.0))
            uprime = r * u + np.sqrt(1.0 - r * r) * v
            samples = np.tanh(norms[a] * u) * np.tanh(norms[b] * uprime)
            se = samples.std(ddof=1) / np.sqrt(draws)
            assert abs(e.matrix[a, b] - samples.mean()) <= 3.0 * se + 1e-9

    def test_zero_sample_flags_rows(self):
        rng = np.random.default_rng(10)
        s = random_shift(rng, 3)
        x = rng.standard_normal((3, 2))
        x[:, 1] = 0.0
        z = z_vectors(s, x, 2)
        e = expectation_E_quadrature(z)
        assert e.info["zero_rows"] == (3, 4, 5)
        assert np.allclose(e.matrix[3:, :], 0.0)
        assert np.allclose(e.matrix[:, 3:], 0.0)

    def test_bounded_and_cauchy_schwarz(self):
        rng = np.random.default_rng(11)
        s = random_shift(rng, 5)
        data = random_dataset(rng, 5, 4)
        e = expectation_E_quadrature(z_vectors(s, data, 3)).matrix
        assert np.abs(e).max() <= 1.0
        bound = np.sqrt(np.outer(np.diag(e), np.diag(e)))
        assert np.all(np.abs(e) <= bound + 1e-10)
        assert np.allclose(e, e.T)


class TestExpectationSeries:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_leading_column_owns_its_memory(self, layer):
        # a view would keep the whole nM x degree coefficient table alive
        s, data, k = random_instance(3)
        e = expectation_series(z_vectors(s, data.x, k), layer)
        assert e.leading.base is None
        assert e.leading.shape == (data.x.size,)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_matrix_is_the_mehler_sum_itself(self, layer, monkeypatch):
        # the builder's fresh array is kept, not copied, and made read-only
        sums = []
        mehler_sum = ntk._mehler_sum
        monkeypatch.setattr(ntk, "_mehler_sum", lambda *a: sums.append(mehler_sum(*a)) or sums[-1])
        s, data, k = random_instance(3)
        e = expectation_series(z_vectors(s, data.x, k), layer)
        assert len(sums) == 1 and e.matrix is sums[0]
        assert not e.matrix.flags.writeable

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 5)
        z = z_vectors(s, data, 2)
        series = expectation_series(z, "second")
        quad = expectation_E_quadrature(z)
        tol = max(1e-6, series.info["truncation_residual"])
        assert np.abs(series.matrix - quad.matrix).max() <= tol

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetric_and_zero_on_zero_rows_exactly(self, seed):
        s, data, k = random_instance(seed)
        x = data.x.copy()
        x[:, seed % x.shape[1]] = 0.0
        z = z_vectors(s, x, k)
        assert z.correlations[2]
        for layer in ("second", "first"):
            e = expectation_series(z, layer)
            assert e.info["zero_rows"] == z.correlations[2]
            assert np.array_equal(e.matrix, e.matrix.T)
            assert not e.matrix[list(z.correlations[2])].any()

    def test_orthogonal_rows_vanish_in_both_parts(self):
        z = one_sample_stack(np.array([[1.0, 0.0], [0.0, 2.0]]))
        e = expectation_series(z, "second")
        assert e.matrix[0, 1] == 0.0
        assert e.matrix[1, 0] == 0.0

    def test_benchmark_inputs_at_degree_41_within_residual(self):
        """On the benchmark's inputs E keeps degree 31 and E1 degree 40, each within its residual.

        The id names degree 41, which neither layer keeps; it stays so the
        test keeps its id.
        """
        z = benchmark_tap_stack()
        for layer, oracle, degree in (
            ("second", expectation_E_quadrature, 31),
            ("first", expectation_E_first_layer, 40),
        ):
            e = expectation_series(z, layer)
            assert e.info["max_degree"] == degree
            assert e.info["truncation_residual"] <= SERIES_RTOL * np.abs(e.matrix).max()
            assert within_residual(e, oracle(z, n_points=256))

    @pytest.mark.parametrize("seed", [2, 10, 0, 1])  # K = 1, 2, 3, 4
    def test_both_layers_match_quadrature_within_residual(self, seed):
        s, data, k = random_instance(seed)
        z = z_vectors(s, data.x, k)
        for layer, oracle in (
            ("second", expectation_E_quadrature),
            ("first", expectation_E_first_layer),
        ):
            e = expectation_series(z, layer)
            residual = e.info["truncation_residual"]
            assert 0.0 <= residual <= SERIES_RTOL * np.abs(e.matrix).max()
            assert within_residual(e, oracle(z, n_points=256))

    def test_adaptive_degree_is_the_smallest_meeting_the_target(self):
        s, data, k = random_instance(23)
        z = z_vectors(s, data.x, k)
        e = expectation_series(z, "second")
        degree = e.info["max_degree"]
        assert e.info["n_points"] == 512
        # the residual one degree lower, from the same rule
        values, totals = hermite_values(np.tanh, z.norms)
        coeffs = hermite_coefficients(values, slice(1, degree, 2))
        shallower = np.abs(series_tails(coeffs, totals)[:, -1]).max()
        assert e.info["truncation_residual"] <= SERIES_RTOL * np.abs(e.matrix).max() < shallower

    def test_norm_beyond_the_first_rule_escalates(self):
        # |z_0| = 2.5 needs more than the 256 degrees of the 512-point rule
        # for both layers (E1 more than the 512 of the 1024-point rule); the
        # 512-point pair rule is itself off by 2e-11 on E's diagonal here
        z = one_sample_stack(np.array([[2.0, 1.5], [-0.9, 1.1]]))
        for layer, oracle, rule in (
            ("second", expectation_E_quadrature, 1024),
            ("first", expectation_E_first_layer, 2048),
        ):
            e = expectation_series(z, layer)
            assert e.info["n_points"] == rule
            assert e.info["max_degree"] > 256
            assert 0.0 < e.info["truncation_residual"] <= SERIES_RTOL * np.abs(e.matrix).max()
            assert within_residual(e, oracle(z, n_points=1024))

    @pytest.mark.parametrize("layer", LAYERS)
    def test_target_beyond_rule_raises(self, layer):
        z = one_sample_stack(np.array([[5.0, 0.0], [0.3, 0.2]]))
        with pytest.raises(TruncationError, match="row norm 5.000"):
            expectation_series(z, layer)

    def test_rejects_an_unknown_layer(self):
        z = one_sample_stack(np.array([[1.0, 0.0], [0.3, 0.2]]))
        for layer in ("both", "middle"):
            with pytest.raises(ValueError, match="unknown layer"):
                expectation_series(z, layer)


def one_column_block(coeffs):
    """The (L, nM, 1) layout ``ntk._mehler_sum`` takes, of one layer's nM x L coefficients."""
    return coeffs.T[:, :, None]


class TestMehlerSum:
    @pytest.mark.parametrize("parity", [0, 1])
    def test_row_blocks_match_the_single_block_sum(self, monkeypatch, parity):
        # 16 rows per block at nM = 60: blocks of 16, 16, 16 and 12 rows; the
        # even sech^2 coefficients times |z_a| are E1's, the odd tanh ones E's
        z = benchmark_tap_stack()
        rho = z.correlations[1]
        coeffs = ntk._layer_series(z, "second" if parity else "first")[0]
        monkeypatch.setattr(ntk, "MEHLER_BLOCK", 16 * rho.shape[0] + 15)
        blocked = ntk._mehler_sum(one_column_block(coeffs), rho)
        assert np.array_equal(blocked, single_block_mehler(coeffs, rho))
        assert np.array_equal(blocked, blocked.T)

    def test_one_row_per_block_when_rows_exceed_the_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, (5, 5))
        rho = (a + a.T) / 2.0
        coeffs = rng.standard_normal((5, 4))
        monkeypatch.setattr(ntk, "MEHLER_BLOCK", 3)
        expected = single_block_mehler(coeffs, rho)
        assert np.array_equal(ntk._mehler_sum(one_column_block(coeffs), rho), expected)

    @pytest.mark.parametrize("rows", [1, 16, 1000])
    def test_two_layers_in_one_pass_are_the_sum_of_one_layer_passes(self, monkeypatch, rows):
        # E + E1 from both layers' columns side by side, E's shorter series
        # padded with zero columns, in blocks of 1, 16 or all 60 rows
        z = benchmark_tap_stack()
        rho = z.correlations[1]
        second, first = (ntk._layer_series(z, layer)[0] for layer in ("second", "first"))
        assert second.shape[1] < first.shape[1]
        columns = np.zeros((first.shape[1], rho.shape[0], 2))
        columns[: second.shape[1], :, 0] = second.T
        columns[:, :, 1] = first.T
        monkeypatch.setattr(ntk, "MEHLER_BLOCK", rows * rho.shape[0])
        both = ntk._mehler_sum(columns, rho)
        expected = single_block_mehler(second, rho) + single_block_mehler(first, rho)
        assert np.abs(both - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_benchmark_inputs_project_at_most_two_blocks_per_layer(self, monkeypatch):
        # the full projection formed 128 (E) and 129 (E1) columns per series
        columns = []
        project = hermite.hermite_coefficients

        def counted(values, degrees):
            out = project(values, degrees)
            columns[-1] += out.shape[-1]
            return out

        monkeypatch.setattr(hermite, "hermite_coefficients", counted)
        z = benchmark_tap_stack()
        for layer in ("second", "first"):
            columns.append(0)
            e = expectation_series(z, layer)
            assert e.info["n_points"] == 512
            assert e.info["max_degree"] // 2 + 1 <= columns[-1] <= 2 * hermite.SERIES_BLOCK
        assert len(columns) == 2


class TestExpectationFirstLayerSeries:
    @pytest.mark.parametrize("rows", [3, 256])
    def test_gram_factor_in_place_matches_gram_matrix(self, monkeypatch, rows):
        # the odd sum of tau_2i |z_a|, in Mehler blocks of 3 or 256 rows,
        # against the even sum of tau_2i times the Gram matrix Z Z'
        s, data, k = random_instance(5)
        x = data.x.copy()
        x[:, 1] = 0.0
        z = z_vectors(s, x, k)
        norms, rho, zero_rows = z.correlations
        monkeypatch.setattr(ntk, "MEHLER_BLOCK", rows * rho.shape[0])
        coeffs = hermite_series(sech2, norms, 0, row_weight=norms * norms)[0]
        expected = single_block_mehler(coeffs, rho, parity=0) * z.gram()
        e1 = expectation_series(z, "first").matrix
        assert np.abs(e1 - expected).max() <= 1e-15 * np.abs(expected).max()
        assert np.array_equal(e1, e1.T)
        assert zero_rows and not e1[list(zero_rows)].any()

    def test_zero_rows_vanish(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 2))
        x[:, 1] = 0.0
        z = z_vectors(random_shift(rng, 3), x, 2)
        e1 = expectation_series(z, "first")
        assert e1.info["zero_rows"] == (3, 4, 5)
        assert np.all(e1.matrix[3:, :] == 0.0) and np.all(e1.matrix[:, 3:] == 0.0)


class TestExpectationFirstLayer:
    def test_diagonal_positive_and_matches_oracle(self):
        rng = np.random.default_rng(15)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        z = z_vectors(s, data, 2)
        e1 = expectation_E_first_layer(z, n_points=256)
        for a in [0, 3, 5]:
            norm = z.norms[a]
            expected = gaussian_expectation(lambda u: sech2(norm * u) ** 2) * norm**2
            assert e1.matrix[a, a] == pytest.approx(expected, abs=1e-8)
            assert e1.matrix[a, a] > 0.0

    def test_matches_monte_carlo_over_filters(self):
        rng = np.random.default_rng(16)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 3)
        z = z_vectors(s, data, 2)
        e1 = expectation_E_first_layer(z)
        mc_rng = np.random.default_rng(99)
        g = mc_rng.standard_normal((1_000_000, 2))
        for a, b in [(0, 1), (2, 6), (5, 8)]:
            samples = sech2(g @ z.matrix[a]) * sech2(g @ z.matrix[b])
            gram_ab = float(z.matrix[a] @ z.matrix[b])
            se = abs(gram_ab) * samples.std(ddof=1) / 1000.0
            assert abs(e1.matrix[a, b] - gram_ab * samples.mean()) <= 3.0 * se + 1e-9


class TestInfiniteNtk:
    def test_zero_shift_reduces_to_expectation(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, 4, 3)
        s = ShiftOperator(np.zeros((4, 4)))
        theta = gnn_infinite_ntk(s, data, num_taps=3)
        e = expectation_E_quadrature(z_vectors(s, data, 3))
        assert np.allclose(theta.matrix, e.matrix, atol=1e-12)

    @pytest.mark.parametrize("method", ["series"])
    def test_both_layers_is_the_sum_with_layer_info(self, method):
        rng = np.random.default_rng(26)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        both = gnn_infinite_ntk(s, data, 2, layer="both")
        second = gnn_infinite_ntk(s, data, 2, layer="second")
        first = gnn_infinite_ntk(s, data, 2, layer="first")
        np.testing.assert_allclose(both.matrix, second.matrix + first.matrix, atol=1e-14)
        layers = both.info["layers"]
        assert layers["second"]["method"] == second.info["method"]
        assert layers["first"]["method"] == first.info["method"]
        for name, single in (("second", second), ("first", first)):
            for key in ("max_degree", "truncation_residual"):
                assert layers[name][key] == single.info[key]

    def test_conjugated_power_sum_against_dense(self):
        rng = np.random.default_rng(19)
        s = random_shift(rng, 3)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        lift = dense_block_diag(s.matrix, 2)
        expected = sum(
            np.linalg.matrix_power(lift, j) @ a @ np.linalg.matrix_power(lift, j)
            for j in range(3)
        )
        assert np.allclose(conjugated_power_sum(s, a, 3, 2), expected, atol=1e-12)

    @pytest.mark.parametrize("n, m, num_taps", [(3, 2, 3), (5, 4, 2), (20, 25, 2)])
    def test_conjugated_power_sum_is_exactly_symmetric(self, n, m, num_taps):
        # the row and column products round differently; the sum must not
        rng = np.random.default_rng(n + m)
        s = random_shift(rng, n)
        f = rng.standard_normal((n * m, 7))
        a = f @ f.T
        a = (a + a.T) / 2.0
        theta = conjugated_power_sum(s, a, num_taps, m)
        assert np.array_equal(theta, theta.T)
        lift = dense_block_diag(s.matrix, m)
        expected = sum(
            np.linalg.matrix_power(lift, j) @ a @ np.linalg.matrix_power(lift, j)
            for j in range(num_taps)
        )
        assert np.abs(theta - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("num_taps", [2, 3, 4])
    def test_conjugated_power_sum_matches_the_einsum_form(self, num_taps):
        rng = np.random.default_rng(40 + num_taps)
        s = random_shift(rng, 20)
        f = rng.standard_normal((20 * 9, 5))
        a = f @ f.T
        theta = conjugated_power_sum(s, a, num_taps, 9)
        expected = einsum_power_sum(s, a, num_taps, 9)
        assert np.abs(theta - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_conjugated_power_sum_allocates_only_its_result(self):
        # one nM x nM array is the result; the products run in place on it
        rng = np.random.default_rng(44)
        s = random_shift(rng, 20)
        f = rng.standard_normal((600, 5))
        a = f @ f.T
        tracemalloc.start()
        try:
            conjugated_power_sum(s, a, 3, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * a.nbytes

    def test_infinite_kernel_is_exactly_symmetric(self):
        """Exactly symmetric at K = 3 and at K = 1, where no power is applied.

        The one Mehler pass over both layers adds two products per entry,
        which BLAS need not round alike on both sides of the diagonal, so
        the symmetry comes from ``conjugated_power_sum``'s copy of the upper
        triangle onto the lower one, which runs at every K.
        """
        rng = np.random.default_rng(27)
        s = random_shift(rng, 6)
        data = random_dataset(rng, 6, 5)
        for num_taps in (3, 1):
            theta = gnn_infinite_ntk(s, data, num_taps, layer="both").matrix
            assert np.array_equal(theta, theta.T)

    def test_both_layers_take_one_mehler_pass_and_no_expectation_matrix(self, monkeypatch):
        passes = []
        mehler_sum = ntk._mehler_sum
        monkeypatch.setattr(ntk, "_mehler_sum", lambda *a: passes.append(a[0].shape) or mehler_sum(*a))
        monkeypatch.setattr(ntk, "ExpectationMatrix", lambda *a: pytest.fail("per-layer matrix"))
        rng = np.random.default_rng(28)
        s = random_shift(rng, 4)
        gnn_infinite_ntk(s, random_dataset(rng, 4, 3), 2, layer="both")
        assert len(passes) == 1 and passes[0][1:] == (12, 2)

    def test_both_layers_peak_memory(self):
        # nM = 600 from the README generator: the Mehler pass writes one
        # nM x nM array, the correlation matrix is gone before the power sum,
        # the power sum allocates only its result, and NtkMatrix keeps that
        # frozen result; two passes and their sum, with rho kept, peaked at
        # 7.0 nM^2, the two-einsum power sum at 4.1, and NtkMatrix's copy of
        # the result at 3.1 (2.7 without it)
        s, split = generated_split(30, 1)
        nm = split.x.size
        assert nm == 600
        gnn_infinite_ntk(s, split.x, 2, layer="both")  # builds the cached Hermite rules
        tracemalloc.start()
        try:
            gnn_infinite_ntk(s, split.x, 2, layer="both")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 8 * nm**2

    def test_first_layer_kind_and_restrictions(self):
        rng = np.random.default_rng(20)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        theta = gnn_infinite_ntk(s, data, 2, layer="first")
        assert theta.info["layer"] == "first"
        assert theta.info["method"] == "first_layer_series"
        with pytest.raises(ValueError):
            gnn_infinite_ntk(s, data, 2, layer="middle")


class TestMonteCarloNtk:
    """The kernel of one random width-F network, ``empirical_ntk`` at ``init_gnn2`` taps."""

    @staticmethod
    def kernel(s, data, num_taps, width, seed, layer="both"):
        params = init_gnn2(width, num_taps, InitConfig(1.0, seed))
        if layer == "both":
            return dense(empirical_ntk(s, params, data))
        jac = gnn2_jacobian(s, params, data.x)
        block = jac[:, : width * num_taps] if layer == "first" else jac[:, width * num_taps :]
        return block @ block.T

    def test_same_seed_is_deterministic(self):
        rng = np.random.default_rng(21)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 3)
        a = self.kernel(s, data, 2, 16, seed=7)
        assert np.array_equal(a, self.kernel(s, data, 2, 16, seed=7))
        assert not np.array_equal(a, self.kernel(s, data, 2, 16, seed=8))

    def test_second_layer_converges_to_quadrature(self):
        rng = np.random.default_rng(23)
        s = random_shift(rng, 5)
        data = random_dataset(rng, 5, 6)
        reference = gnn_infinite_ntk(s, data, 2).matrix
        ref_norm = np.linalg.norm(reference)
        wins = 0
        for seed in range(5):
            small = self.kernel(s, data, 2, 128, seed, layer="second")
            large = self.kernel(s, data, 2, 4096, seed, layer="second")
            err_small = np.linalg.norm(small - reference) / ref_norm
            err_large = np.linalg.norm(large - reference) / ref_norm
            wins += err_large < err_small
        assert wins >= 4

    def test_first_layer_converges_to_quadrature(self):
        rng = np.random.default_rng(24)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 4)
        reference = gnn_infinite_ntk(s, data, 2, layer="first").matrix
        ref_norm = np.linalg.norm(reference)
        wins = 0
        for seed in range(3):
            small = self.kernel(s, data, 2, 256, seed, layer="first")
            large = self.kernel(s, data, 2, 4096, seed, layer="first")
            wins += np.linalg.norm(large - reference) < np.linalg.norm(small - reference)
        assert wins >= 2
        assert np.linalg.norm(large - reference) / ref_norm < 0.2

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("layer", ["second", "first", "both"])
    def test_matches_dense_per_feature_sum(self, activation, layer):
        rng = np.random.default_rng(32)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        params = init_gnn2(12, 3, InitConfig(1.0, 5))
        layers = ("second", "first") if layer == "both" else (layer,)
        expected = sum(
            dense_monte_carlo_layer(s, data.x, 3, params.g, params.h, name, activation)
            for name in layers
        )
        theta = self.kernel(s, data, 3, 12, seed=5, layer=layer)
        assert np.linalg.norm(theta - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("layer", ["second", "first", "both"])
    def test_fixed_draws_match_dense_per_feature_sum(self, layer):
        rng = np.random.default_rng(33)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 4)
        draw = np.random.default_rng(0)  # g first, then h, as init_gnn2 draws them at kappa 1
        g, h = draw.standard_normal((5, 2)), draw.standard_normal((5, 2))
        layers = ("second", "first") if layer == "both" else (layer,)
        expected = sum(dense_monte_carlo_layer(s, data.x, 2, g, h, name) for name in layers)
        theta = self.kernel(s, data, 2, 5, seed=0, layer=layer)
        assert np.linalg.norm(theta - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(25)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        with pytest.raises(ValueError):
            self.kernel(s, data, 2, 0, seed=0)  # no hidden features
        with pytest.raises(ValueError):
            self.kernel(random_shift(rng, 4), data, 2, 4, seed=0)  # 3-node signals


class TestNtkDrift:
    def test_zero_steps_means_zero_drift(self):
        rng = np.random.default_rng(27)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        points = ntk_drift(s, data, 2, widths=[8], eta=0.05, num_steps=0, seed=0)
        assert points[0].drift == 0.0

    def test_wider_network_drifts_less(self):
        rng = np.random.default_rng(28)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 4)
        points = ntk_drift(s, data, 2, widths=[8, 1024], eta=0.1, num_steps=15, seed=3)
        drifts = {p.width: p.drift for p in points}
        assert drifts[8] > 0.0
        assert drifts[1024] < drifts[8]

    def test_divergence_raises(self):
        rng = np.random.default_rng(29)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        with pytest.raises(DivergenceError):
            ntk_drift(s, data, 2, widths=[4], eta=1e4, num_steps=200, seed=1)

    def test_divergence_step_matches_train(self):
        rng = np.random.default_rng(29)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        with pytest.raises(DivergenceError) as drift_error:
            ntk_drift(s, data, 2, widths=[4], eta=1e4, num_steps=200, seed=1)
        model = init_gnn2(4, 2, InitConfig(kappa=1.0, seed=1))
        with pytest.raises(DivergenceError) as train_error:
            train(model, s, data, TrainConfig(1e4, epochs=200))
        assert drift_error.value.step == train_error.value.step

    def test_rejects_nonpositive_eta(self):
        rng = np.random.default_rng(34)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        for eta in (0.0, -0.1):
            with pytest.raises(ValueError):
                ntk_drift(s, data, 2, widths=[4], eta=eta, num_steps=3, seed=0)

    def test_one_jacobian_per_step_and_no_validated_kernel(self, monkeypatch):
        rng = np.random.default_rng(30)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        calls = {"jacobian": 0, "kernel": 0}
        init = NtkMatrix.__init__

        def counted_jacobian(*args, **kwargs):
            calls["jacobian"] += 1
            return gnn2_jacobian(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            calls["kernel"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(training, "gnn2_jacobian", counted_jacobian)
        monkeypatch.setattr(NtkMatrix, "__init__", counted_init)
        ntk_drift(s, data, 2, widths=[8, 16], eta=0.1, num_steps=5, seed=0)
        assert calls == {"jacobian": 2 * (5 + 1), "kernel": 0}  # num_steps + 1 per width

    def test_matches_a_loop_over_empirical_kernels(self):
        rng = np.random.default_rng(31)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        got = ntk_drift(s, data, 2, widths=[8, 32], eta=0.1, num_steps=6, seed=2)
        for point in got:
            params = init_gnn2(point.width, 2, InitConfig(kappa=1.0, seed=2))
            theta0 = dense(empirical_ntk(s, params, data.x))
            drift = 0.0
            for _ in range(6):
                resid = stack(gnn2_forward(s, params, data.x)) - stack(data.y)
                grad = gnn2_jacobian(s, params, data.x).T @ resid
                params = unflatten_params(flatten_params(params) - 0.1 * grad, params)
                theta = dense(empirical_ntk(s, params, data.x))
                drift = max(drift, float(np.linalg.norm(theta - theta0) / np.linalg.norm(theta0)))
            # the run's gradient is the fused pullback, which sums in another order
            assert point.drift == pytest.approx(drift, rel=1e-12)
