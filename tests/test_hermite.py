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
        got = hm.gauss_hermite_expectation(lambda u: u**moment, n_points=64)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_min_points_enforced(self):
        with pytest.raises(ValueError):
            hm.gauss_hermite_expectation(lambda u: u, n_points=1)

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
        limit = hm.sign_coefficient(1)
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
            assert abs(hm.coeff_g(ell, 12.0) - hm.sign_coefficient(ell)) < 2e-2

    def test_sign_coefficient_parseval(self):
        partial = np.cumsum([hm.sign_coefficient(ell) ** 2 for ell in range(1, 4000, 2)])
        # slow i^{-3/2} tail; confirm monotone approach toward E[sign^2] = 1
        assert np.all(np.diff(partial) > 0)
        assert 0.9 < partial[-1] < 1.0


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
        taus, total = hm.hermite_coefficients(hm._sech2, np.sqrt([b]), degrees, 2048)
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
