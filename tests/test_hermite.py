import math

import numpy as np
import pytest
from scipy.integrate import quad

from ntkalign import hermite as hm

SQ2PI = math.sqrt(2 * math.pi)


def adaptive_gaussian_expectation(f):
    """Independent oracle: scipy adaptive quadrature against the N(0,1) density."""
    val, _ = quad(
        lambda u: f(u) * math.exp(-u * u / 2) / SQ2PI,
        -np.inf,
        np.inf,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def sign_coefficient(degree):
    """Closed-form Hermite coefficient of the sign function, for odd degrees.

    E[sign(u) p_{2i+1}(u)] = sqrt(2/pi) (-1)^i (2i-1)!! / sqrt((2i+1)!), the
    y -> infinity limit of g_degree(y); computed in log space.
    """
    i = (degree - 1) // 2
    log_mag = 0.5 * math.log(2.0 / math.pi)
    log_mag += sum(math.log(2 * j - 1) for j in range(1, i + 1))
    log_mag -= 0.5 * math.lgamma(degree + 1)
    return (-1.0) ** i * math.exp(log_mag)


class TestPolynomials:
    def test_low_degree_values(self):
        assert hm.hermite_eval(1, 0.7) == pytest.approx(0.7, abs=1e-15)
        assert hm.hermite_eval(2, 1.0) == pytest.approx(0.0, abs=1e-15)
        # p_3(2) = (2^3 - 3*2)/sqrt(6)
        assert hm.hermite_eval(3, 2.0) == pytest.approx(0.8164965809277260, abs=1e-12)

    def test_orthonormality_up_to_degree_ten(self):
        nodes, weights = hm.gauss_hermite_rule(64)
        p = hm.hermite_eval_upto(10, nodes)
        gram = (p * weights) @ p.T
        assert np.abs(gram - np.eye(11)).max() < 1e-8

    def test_vectorized_eval(self):
        u = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(hm.hermite_eval(2, u), (u * u - 1) / math.sqrt(2), atol=1e-14)


class TestQuadratureRule:
    def test_probability_weights(self):
        for n in (2, 16, 64, 512):
            _, w = hm.gauss_hermite_rule(n)
            assert w.sum() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("moment,expected", [(0, 1.0), (2, 1.0), (4, 3.0), (6, 15.0)])
    def test_even_moments_double_factorial(self, moment, expected):
        nodes, weights = hm.gauss_hermite_rule(64)
        assert weights @ nodes**moment == pytest.approx(expected, rel=1e-12)

    def test_min_points_enforced(self):
        with pytest.raises(ValueError):
            hm.gauss_hermite_rule(1)

    def test_large_rule_finite(self):
        nodes, weights = hm.gauss_hermite_rule(512)
        assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))


class TestProjection:
    def test_orthonormal_through_full_rule(self):
        # the projected family sqrt(w_i) p_j(x_i), every degree up to 511
        nodes, vecs = hm._jacobi_eigensystem(512)
        assert np.abs(vecs @ vecs.T - np.eye(512)).max() <= 1e-12
        weights = hm.gauss_hermite_rule(512)[1]
        np.testing.assert_allclose(vecs[0], np.sqrt(weights), atol=1e-15)
        np.testing.assert_allclose(vecs[1], np.sqrt(weights) * nodes, atol=1e-14)

    def test_matches_weighted_polynomials_at_low_degree(self):
        # w_i p_j(x_i) is accurate below degree ten, where the Gram residual is small
        nodes, proj = hm.hermite_projection(512)
        naive = hm.gauss_hermite_rule(512)[1] * hm.hermite_eval_upto(10, nodes)
        np.testing.assert_allclose(proj[:11], naive, atol=1e-12)

    def test_high_degree_coefficients_are_bounded_and_complete(self):
        y = 3.0
        nodes, proj = hm.hermite_projection(512)
        t = np.tanh(y * nodes)
        coeffs = proj @ t
        assert np.abs(coeffs).max() <= 1.0
        # discrete Parseval: all 512 coefficients carry the rule's E[tanh^2]
        assert coeffs @ coeffs == pytest.approx(proj[0] @ (t * t), abs=1e-13)

    def test_tail_below_roundoff_raises(self):
        # coefficients from separately computed weights and polynomial values
        # overshoot the total past degree 20; the tail must not be clamped
        nodes, weights = hm.gauss_hermite_rule(512)
        t = np.tanh(8.0 * nodes)
        unstable = hm.hermite_eval_upto(41, nodes) @ (weights * t)
        with pytest.raises(hm.TruncationError, match="round-off"):
            hm.series_tails(unstable, weights @ (t * t))
        _, proj = hm.hermite_projection(512)
        tails = hm.series_tails(proj[:42] @ t, proj[0] @ (t * t))
        assert tails.min() >= 0.0
        assert np.all(np.diff(tails) <= 1e-15)

    def test_degree_must_stay_below_rule_size(self):
        with pytest.raises(ValueError):
            hm.coeff_g_table(hm.MAX_POINTS, 1.0)
        with pytest.raises(ValueError):
            hm.coeff_tau(-1, 1.0)


class TestCoefficients:
    def test_even_degree_tanh_coefficient_vanishes(self):
        for y in (0.3, 1.0, 4.0):
            assert abs(hm.coeff_g(2, y)) < 1e-12

    def test_linear_coefficient_small_scale(self):
        # adaptive oracle: g_1(0.01) = 0.009999000199943356
        got = hm.coeff_g(1, 0.01)
        assert got == pytest.approx(0.009999000199943356, abs=1e-12)
        assert got == pytest.approx(0.01, abs=1e-5)

    def test_linear_coefficient_saturation_limit(self):
        limit = sign_coefficient(1)
        assert limit == pytest.approx(math.sqrt(2 / math.pi), abs=1e-15)
        assert abs(hm.coeff_g(1, 12.0) - limit) < 1e-2

    def test_coeff_g_matches_adaptive_oracle(self):
        for y in (0.5, 1.0, 2.0):
            want = adaptive_gaussian_expectation(lambda u, y=y: math.tanh(y * u) * u)
            assert hm.coeff_g(1, y) == pytest.approx(want, abs=1e-10)

    def test_odd_degree_sech2_coefficient_vanishes(self):
        for z in (0.3, 1.0, 4.0):
            assert abs(hm.coeff_tau(1, z)) < 1e-12

    def test_tau0_continuity_at_zero(self):
        assert hm.coeff_tau(0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_tau0_matches_adaptive_oracle(self):
        # frozen from scipy.integrate.quad and confirmed by mpmath to 30 digits
        assert hm.coeff_tau(0, 3.0) == pytest.approx(0.4105609155218697, abs=1e-8)
        live = adaptive_gaussian_expectation(
            lambda u: 1.0 - math.tanh(math.sqrt(3.0) * u) ** 2
        )
        assert hm.coeff_tau(0, 3.0) == pytest.approx(live, abs=1e-8)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            hm.coeff_g(1, -0.5)
        with pytest.raises(ValueError):
            hm.coeff_tau(0, -1.0)


class TestHermiteValues:
    @pytest.mark.parametrize(
        "fn,reference",
        [
            (lambda g: g, lambda g: g),
            (lambda g: g[..., ::-1][..., ::-1], lambda g: g),
            (lambda g: np.tanh(g, out=g), np.tanh),
            (np.tanh, np.tanh),
            (hm.sech2, hm.sech2),
        ],
        ids=["argument", "view", "in-place", "tanh", "sech2"],
    )
    def test_values_and_totals_whatever_fn_returns(self, fn, reference):
        # the squares reuse the argument grid's buffer unless fn's values live there
        y = np.array([[0.3, 1.0, 2.5], [0.0, 4.0, 0.7]])
        nodes, proj = hm.hermite_projection(64)
        want = reference(np.multiply.outer(y, nodes))
        values, totals = hm.hermite_values(fn, y, 64)
        assert values.shape == y.shape + (64,)
        assert values.tobytes() == want.tobytes()
        assert totals.tobytes() == ((want * want) @ proj[0]).tobytes()

    def test_totals_of_the_identity_are_the_second_moments(self):
        # E[(y u)^2] = y^2, exact on the rule for a polynomial of degree 2
        y = np.array([0.0, 0.5, 3.0])
        values, totals = hm.hermite_values(lambda g: g, y, 64)
        np.testing.assert_allclose(totals, y * y, rtol=1e-13, atol=0)
        assert np.array_equal(values, np.multiply.outer(y, hm.hermite_projection(64)[0]))


class TestSigmaHat:
    def test_value_at_zero_and_scaled_supremum(self):
        assert hm.sigma_hat(0.0) == 1.0
        assert hm.sigma_hat(1e-8) == pytest.approx(1.0, abs=1e-6)
        scaled = hm.SIGMA_HAT_SUP * hm.SQRT_2PI
        assert scaled == pytest.approx(2.5066282746310002, abs=1e-12)
        assert scaled <= 2.51

    def test_monotone_decrease(self):
        assert hm.sigma_hat(1.0) > hm.sigma_hat(4.0)
        grid = np.linspace(0.0, 6.0, 25)
        vals = hm.sigma_hat(grid)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_matches_adaptive_oracle(self):
        want = adaptive_gaussian_expectation(
            lambda u: math.tanh(math.sqrt(2.0) * u) * u
        ) / math.sqrt(2.0)
        assert hm.sigma_hat(2.0) == pytest.approx(want, abs=1e-8)
        assert hm.sigma_hat(2.0) == pytest.approx(0.4800242543360514, abs=1e-8)

    def test_stein_identity_links_sigma_hat_and_tau0(self):
        # E[u tanh(yu)] = y E[sech^2(yu)] by Stein's lemma, so the two agree.
        for z in (0.5, 1.0, 2.0, 3.0):
            assert hm.sigma_hat(z) == pytest.approx(hm.coeff_tau(0, z), abs=1e-10)


class TestBetaConstant:
    def test_closed_form_value(self):
        res = hm.beta_constant()
        assert res.value == pytest.approx((math.pi - 2) / 2, abs=1e-15)
        assert res.value == pytest.approx((1 - 2 / math.pi) / (2 / math.pi), abs=1e-15)

    def test_partial_sums_increase_to_value(self):
        r3 = hm.beta_constant(max_terms=3)
        r100 = hm.beta_constant(max_terms=100)
        assert r3.partial_sum < r100.partial_sum < r100.value
        assert r3.truncation_residual > r100.truncation_residual > 0

    def test_sign_coefficients_match_quadrature_at_saturation(self):
        # g_ell(y) approaches the sign-function coefficient as y grows
        for ell in (1, 3, 5):
            assert abs(hm.coeff_g(ell, 12.0) - sign_coefficient(ell)) < 2e-2

    def test_sign_coefficient_parseval(self):
        partial = np.cumsum([sign_coefficient(ell) ** 2 for ell in range(1, 4000, 2)])
        # slow i^{-3/2} tail; confirm monotone approach toward E[sign^2] = 1
        assert np.all(np.diff(partial) > 0)
        assert 0.9 < partial[-1] < 1.0


def full_series(fn, y, parity, target=None, row_weight=None):
    """Reference for ``hermite_series``: every degree up to half each rule in one product.

    Returns what ``hermite_series`` returns, or None past the last rule's reach.
    """
    weight = np.ones_like(y) if row_weight is None else row_weight
    for n_points in hm.SERIES_RULES:
        nodes, proj = hm.hermite_projection(n_points)
        vals = fn(np.multiply.outer(y, nodes))
        coeffs = vals @ proj[parity : n_points // 2 + 1 : 2].T
        totals = (vals * vals) @ proj[0]
        tails = hm.series_tails(coeffs, totals) * weight[:, None]
        residuals = np.abs(tails).max(axis=0, initial=0.0)
        if target is None:
            goal = hm.SERIES_RTOL * float((totals * weight).max(initial=0.0))
        else:
            goal = target(coeffs, totals)
        met = np.flatnonzero(residuals <= goal)
        if met.size:
            keep = int(met[0]) + 1
            degree = parity + 2 * (keep - 1)
            return coeffs[:, :keep], totals, degree, float(residuals[keep - 1]), n_points
    return None


def _beta_target(c, _):
    return hm.BETA_FIRST_RTOL * c[0, 0] ** 2


# row norms like those of unit-column data at K = 2: E keeps degree 29, E1 degree 36
_NORMS = np.random.default_rng(4).uniform(0.05, 0.6, 60)


class TestBlockedSeries:
    @pytest.mark.parametrize(
        "fn, y, parity, target, weighted, rule",
        [
            (np.tanh, _NORMS, 1, None, False, 512),
            (hm.sech2, _NORMS, 0, None, True, 512),
            (hm.sech2, _NORMS, 0, None, False, 512),
            (np.tanh, _NORMS[:7], 1, None, True, 512),
            (hm.sech2, np.sqrt([3.0]), 0, _beta_target, False, 512),
            (hm.sech2, np.sqrt([10.0]), 0, _beta_target, False, 1024),
            # one row past each rule's reach moves the whole series up
            (np.tanh, np.append(_NORMS[:5], 2.5), 1, None, False, 1024),
            (hm.sech2, np.append(_NORMS[:5], 2.5), 0, None, True, 2048),
            (np.tanh, np.array([4.0, 0.3]), 1, None, False, 2048),
        ],
    )
    def test_matches_the_full_projection(self, fn, y, parity, target, weighted, rule):
        row_weight = y * y if weighted else None
        got = hm.hermite_series(fn, y, parity, target, row_weight)
        want = full_series(fn, y, parity, target, row_weight)
        coeffs, totals, degree, residual, n_points = got
        assert (degree, n_points) == (want[2], want[4]) and n_points == rule
        assert coeffs.shape == want[0].shape == (y.size, (degree - parity) // 2 + 1)
        assert np.array_equal(totals, want[1])
        # one product per block rounds like the single product up to a few ulp
        # (a BLAS picks its kernel by the product's shape)
        np.testing.assert_allclose(coeffs, want[0], rtol=0.0, atol=8 * np.finfo(float).eps)
        assert residual == pytest.approx(want[3], rel=0.0, abs=1e-14 * totals.max())

    @pytest.mark.parametrize("fn, parity", [(np.tanh, 1), (hm.sech2, 0)])
    def test_past_reach_raises_like_the_full_projection(self, fn, parity):
        y = np.array([5.0, 0.3])
        assert full_series(fn, y, parity) is None
        with pytest.raises(hm.TruncationError, match="row norm 5.000 .* 2048-point rule"):
            hm.hermite_series(fn, y, parity)

    def test_projects_only_the_blocks_it_needs(self, monkeypatch):
        columns, checked = [], []
        project, tails = hm.hermite_coefficients, hm.series_tails

        def counted_project(values, degrees):
            out = project(values, degrees)
            columns.append(out.shape[-1])
            return out

        def counted_tails(coeffs, totals):
            checked.append(coeffs.shape[-1])
            return tails(coeffs, totals)

        monkeypatch.setattr(hm, "hermite_coefficients", counted_project)
        monkeypatch.setattr(hm, "series_tails", counted_tails)
        coeffs = hm.hermite_series(hm.sech2, _NORMS, 0, row_weight=_NORMS**2)[0]
        assert coeffs.shape[1] == 19
        assert columns == [16, 16]
        # every projected degree's tail is checked, the last block's included
        assert checked == [16, 32]


class TestBesselExcess:
    @pytest.mark.parametrize("n_points", hm.SERIES_RULES)
    def test_rules_are_orthonormal_to_round_off(self, n_points):
        excess = hm.bessel_excess(n_points)
        assert 0.0 <= excess <= hm.TAIL_ROUNDOFF

    @pytest.mark.parametrize("n_points", [16, 64])
    def test_bounds_the_energy_up_to_half_the_rule(self, n_points):
        # sum_{d <= n/2} c_d^2 <= (1 + gamma) total for any values on the rule
        values = np.random.default_rng(n_points).standard_normal((50, n_points))
        proj = hm.hermite_projection(n_points)[1]
        coeffs = values @ proj[: n_points // 2 + 1].T
        totals = (values * values) @ proj[0]
        bound = (1.0 + hm.bessel_excess(n_points)) * totals
        assert np.all(np.sum(coeffs * coeffs, axis=1) <= bound)

    def test_computed_once_per_rule(self, monkeypatch):
        hm.hermite_projection(512)
        hm.bessel_excess.cache_clear()
        calls = []
        eigensystem = hm._jacobi_eigensystem
        monkeypatch.setattr(hm, "_jacobi_eigensystem", lambda n: calls.append(n) or eigensystem(n))
        for _ in range(3):
            hm.hermite_series(np.tanh, _NORMS, 1)
        assert calls == [512]

    @pytest.fixture
    def corrupted_rule(self, monkeypatch):
        """The 512-point rule with one unprojected row 1e-9 too long."""
        eigensystem = hm._jacobi_eigensystem

        def corrupted(n_points):
            nodes, vecs = eigensystem(n_points)
            if n_points == 512:
                vecs = vecs.copy()
                vecs[200] *= 1.0 + 1e-9
            return nodes, vecs

        caches = (hm.gauss_hermite_rule, hm.hermite_projection, hm.bessel_excess)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(hm, "_jacobi_eigensystem", corrupted)
        yield
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()

    def test_a_non_orthonormal_rule_raises(self, corrupted_rule):
        assert hm.bessel_excess(512) > hm.TAIL_ROUNDOFF
        # degree 200 lies far past the degrees this series projects
        with pytest.raises(hm.TruncationError, match="512-point rule's Bessel excess"):
            hm.hermite_series(np.tanh, _NORMS, 1)


class TestBetaFirstLayer:
    def test_value_and_residual(self):
        res = hm.beta_first_layer(3.0)
        assert res.value == pytest.approx(0.732, abs=2e-2)
        # mpmath oracle: 0.732419737703044456
        assert res.parseval_value == pytest.approx(0.7324197377030444, abs=1e-9)
        assert 0 <= res.truncation_residual < 1e-6

    def test_monotone_in_argument(self):
        # frozen adaptive oracle: beta1(1) = 0.2658197781695809
        r1 = hm.beta_first_layer(1.0)
        r3 = hm.beta_first_layer(3.0)
        assert r1.parseval_value == pytest.approx(0.2658197781695809, abs=1e-8)
        assert r1.value < r3.value

    def test_truncation_error_when_capped(self):
        # b = 91 (K = 3, nu = 3) needs more than the 1024 degrees of the 2048-point rule
        with pytest.raises(hm.TruncationError, match="degree 1024.*2048-point rule"):
            hm.beta_first_layer(91.0)

    @pytest.mark.parametrize("b", [3.0, 7.0, 7.5, 10.0])
    def test_certified_tail_holds_on_a_finer_rule(self, b):
        # the 2048-point rule's tail past the returned degree meets the target;
        # a 512-point tail taken beyond degree 256 certified 9.92e-7 at b = 7.5
        # where this reads 1.031e-6
        res = hm.beta_first_layer(b)
        degrees = slice(0, 2 * res.num_pairs + 1, 2)
        values, total = hm.hermite_values(hm.sech2, np.sqrt([b]), 2048)
        taus = hm.hermite_coefficients(values, degrees)
        tail = total[0] - np.sum(taus[0] ** 2)
        assert 0.0 <= tail <= hm.BETA_FIRST_RTOL * taus[0, 0] ** 2

    @pytest.mark.parametrize(
        "b,value,num_pairs",
        [
            (0.5, 0.1229833239975716, 11),
            (1.0, 0.2658189491908267, 20),
            (3.0, 0.7324187893317688, 58),
            (5.0, 1.0979514611770274, 98),
            (6.5, 1.3346425314896881, 128),
        ],
    )
    def test_degrees_within_the_first_rule_are_unchanged(self, b, value, num_pairs):
        # frozen from the 512-point rule truncated at degree 300 (values to the bit)
        res = hm.beta_first_layer(b)
        assert (res.value, res.num_pairs) == (value, num_pairs)

    @pytest.mark.parametrize("b", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_bound(self, b):
        with pytest.raises(ValueError, match="positive and finite"):
            hm.beta_first_layer(b)


class TestCorrelatedPair:
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.5, 0.99])
    def test_hermite_pair_identity(self, rho):
        for j in range(7):
            for k in range(7):
                got = hm.correlated_pair_expectation(
                    lambda u, j=j: hm.hermite_eval(j, u),
                    lambda u, k=k: hm.hermite_eval(k, u),
                    rho,
                )
                want = rho**j if j == k else 0.0
                assert got == pytest.approx(want, abs=1e-6)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            hm.correlated_pair_expectation(np.tanh, np.tanh, 1.5)


class TestParsevalGap:
    @pytest.mark.parametrize("y", [0.5, 2.0, 8.0])
    def test_gap_nonnegative_and_decreasing(self, y):
        gaps = [hm.parseval_gap(y, L) for L in (5, 11, 21, 41, 101, 255)]
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[0] >= gaps[1] >= gaps[2]
        # past degree 41 the gap at small y is round-off
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestGridChecks:
    def test_odd_coefficients_keep_sign(self):
        res = hm.verify_sign_constancy("tanh_odd", (1, 3, 5, 7, 9))
        assert res.passed, res.violations

    def test_even_coefficients_keep_sign(self):
        res = hm.verify_sign_constancy("sech2_even", (0, 2, 4, 6, 8))
        assert res.passed, res.violations

    def test_ratio_monotonicity(self):
        for kind, degrees in (("tanh_odd", (3, 5, 7, 9)), ("sech2_even", (2, 4, 6, 8))):
            res = hm.verify_ratio_monotonicity(kind, degrees)
            assert res.passed, (kind, res.violations)

    def test_alternating_signs_of_odd_coefficients(self):
        # adaptive oracle signs: g3 < 0 < g5 across the grid
        assert hm.coeff_g(3, 1.0) < 0 < hm.coeff_g(5, 1.0)


class TestExpansionConstants:
    def test_composition(self):
        ec = hm.expansion_constants(2)
        assert ec.norm_sq_bound == pytest.approx(2.0)
        assert ec.rho == pytest.approx(hm.sigma_hat(2.0) ** 2, abs=1e-12)
        assert ec.gain_second_layer == pytest.approx(ec.rho * (1 + ec.beta / 2), abs=1e-15)
        assert ec.penalty_second_layer == pytest.approx(
            (ec.beta / 2) * (1.0 / ec.rho) ** 2, abs=1e-12
        )
        assert ec.gain_first_layer == pytest.approx(
            ec.rho_first_layer * (1 + ec.beta_first / 2), abs=1e-15
        )

    def test_beta_is_the_closed_form_without_the_partial_sum(self, monkeypatch):
        exact = hm.beta_constant().value
        monkeypatch.setattr(hm, "beta_constant", None)  # its 1000-term loop must not run
        assert hm.expansion_constants(2).beta == exact == hm.BETA_SATURATION

    def test_spectral_bound_shrinks_norm(self):
        tight = hm.expansion_constants(3, spectral_bound=0.5)
        loose = hm.expansion_constants(3, spectral_bound=1.0)
        assert tight.norm_sq_bound < loose.norm_sq_bound
        assert tight.rho > loose.rho

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hm.expansion_constants(0)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                hm.expansion_constants(2, spectral_bound=bad)


def test_self_check_clean():
    report = hm.self_check()
    assert report["violations"] == 0
    assert report["orthonormality"]["projection_max_degree"] == 511
    assert report["orthonormality"]["projection_max_residual"] <= 1e-12
    assert report["bessel_excess"]["n_points"] == 512
    assert 0.0 <= report["bessel_excess"]["value"] <= report["bessel_excess"]["bound"]
    assert report["beta"]["value"] == pytest.approx(0.5707963267948966, abs=1e-3)



_SIGMA_HAT = hm.sigma_hat


@pytest.mark.parametrize(
    "name, wrong",
    [
        # below the transform's values near 0, or above the value it reaches there
        ("SIGMA_HAT_SUP", 1.0 - 1e-9),
        ("SIGMA_HAT_SUP", 1.0 + 1e-9),
        # a transform that increases, whatever the constant says
        ("sigma_hat", lambda z_sq: _SIGMA_HAT(z_sq)[::-1]),
    ],
)
def test_self_check_catches_a_wrong_supremum(monkeypatch, name, wrong):
    monkeypatch.setattr(hm, name, wrong)
    report = hm.self_check()
    assert report["sigma_hat_sup"]["passed"] is False
    assert report["violations"] == 1


@pytest.mark.parametrize(
    "name, wrong",
    [
        # the partial sum's gap to the value must lie in (0, 1/sqrt(pi N)]
        ("BETA_SATURATION", (math.pi - 2.0) / 2.0 + 0.01),
        ("BETA_SATURATION", (math.pi - 2.0) / 2.0 - 0.02),
        # a partial sum that claims to have converged
        ("beta_constant", lambda: hm.BetaResult(hm.BETA_SATURATION, hm.BETA_SATURATION, 1000, 0.0)),
    ],
)
def test_self_check_catches_a_wrong_beta(monkeypatch, name, wrong):
    monkeypatch.setattr(hm, name, wrong)
    report = hm.self_check()
    assert report["beta"]["passed"] is False
    assert report["violations"] == 1


def test_self_check_catches_a_bessel_excess_above_round_off(monkeypatch):
    monkeypatch.setattr(hm, "bessel_excess", lambda n_points: 2.0 * hm.TAIL_ROUNDOFF)
    report = hm.self_check()
    assert report["bessel_excess"]["passed"] is False
    # beta_first_layer's series refuses the same rule, and the report says so
    assert report["beta_first_layer_3"]["passed"] is False
    assert "Bessel excess" in report["beta_first_layer_3"]["error"]
    assert report["violations"] == 2
