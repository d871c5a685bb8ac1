import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkalign.alignment import alignment_report
from ntkalign.core import Dataset, ShiftOperator
from ntkalign.models import InitConfig, init_filter
from ntkalign.ntk import filter_ntk, gnn_infinite_ntk
from ntkalign.shiftops import (
    AsymmetricShift,
    NoRealRootError,
    constraint_lhs,
    covariance,
    cross_covariance,
    cross_covariance_matrix,
    mu_from_budget,
    power_sum_root,
    solve_optimal_gso,
)
from ntkalign.training import TrainConfig, train


def power_sum(s, num_taps):
    acc = np.eye(s.shape[0])
    power = np.eye(s.shape[0])
    for _ in range(1, num_taps):
        power = power @ s
        acc += power
    return acc


def symmetric_with_spectrum(rng, gammas):
    """Random symmetric matrix with prescribed eigenvalues."""
    n = len(gammas)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.asarray(gammas)) @ q.T


class TestCovariance:
    def test_unit_frobenius_and_symmetric(self):
        rng = np.random.default_rng(0)
        c = covariance(rng.standard_normal((5, 12)))
        assert isinstance(c, ShiftOperator)
        assert np.isclose(np.linalg.norm(c.matrix), 1.0)
        assert np.allclose(c.matrix, c.matrix.T)

    def test_direction_matches_gram(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 9))
        gram = x @ x.T
        assert np.allclose(covariance(x).matrix, gram / np.linalg.norm(gram))

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            covariance(np.zeros((3, 4)))


class TestCrossCovariance:
    def test_symmetrized_default(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 8))
        y = rng.standard_normal((5, 8))
        c = cross_covariance(x, y)
        assert isinstance(c, ShiftOperator)
        raw = x @ y.T
        expected = (raw + raw.T) / 2.0
        assert np.array_equal(cross_covariance_matrix(x, y), expected)
        assert np.array_equal(c.matrix, expected / np.linalg.norm(expected))

    def test_raw_mode_flagged(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 8))
        y = rng.standard_normal((5, 8))
        c = cross_covariance(x, y, symmetrize=False)
        assert isinstance(c, AsymmetricShift)
        raw = x @ y.T
        assert np.array_equal(cross_covariance_matrix(x, y, symmetrize=False), raw)
        assert np.array_equal(c.matrix, raw / np.linalg.norm(raw))
        with pytest.raises(ValueError, match="not symmetric"):
            ShiftOperator(c.matrix)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_covariance(np.ones((3, 4)), np.ones((3, 5)))

    def test_zero_product_rejected(self):
        x = np.zeros((3, 4))
        with pytest.raises(ValueError):
            cross_covariance(x, x)

    def test_matrix_is_read_only(self):
        rng = np.random.default_rng(4)
        c = cross_covariance(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)))
        with pytest.raises(ValueError):
            c.matrix[0, 0] = 7.0


class TestOperatorsGoStraightToTheirConsumers:
    def test_cross_covariance_as_returned(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6))
        data = Dataset(x, 0.8 * x + 0.2 * rng.standard_normal((4, 6))).normalized()
        for s in (cross_covariance(data.x, data.y), covariance(data.x)):
            trace = train(init_filter(2, InitConfig(1.0, 0)), s, data, TrainConfig(0.1, 3))
            assert trace.num_epochs == 3
            assert filter_ntk(s, data.x, 2).size == 24
            assert gnn_infinite_ntk(s, data.x, 2, layer="both").size == 24
            assert np.isfinite(alignment_report(s, data, 2).a)


class TestAsymmetricShift:
    def test_raw_mode_yields_experiment_operator(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        op = cross_covariance(x, y, symmetrize=False)
        assert isinstance(op, AsymmetricShift)
        assert op.num_nodes == 4
        assert np.linalg.norm(op.matrix) == pytest.approx(1.0, abs=1e-15)
        assert isinstance(op.normalized(), AsymmetricShift)

    def test_powers_match_repeated_products(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((3, 3))
        op = AsymmetricShift(m)
        v = rng.standard_normal(3)
        powers = op.powers_applied(v, 3)
        assert np.allclose(powers[0], v)
        assert np.allclose(powers[1], m @ v)
        assert np.allclose(powers[2], m @ m @ v)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            AsymmetricShift(np.ones((2, 3)))


class TestConstraintLhs:
    def test_identity_shift(self):
        # sum of K copies of I has Frobenius norm K * sqrt(n)
        assert np.isclose(constraint_lhs(np.eye(4), 3), 6.0)

    def test_zero_shift(self):
        assert np.isclose(constraint_lhs(np.zeros((5, 5)), 4), np.sqrt(5.0))

    def test_single_tap_is_identity_norm(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((4, 4))
        assert np.isclose(constraint_lhs(s, 1), 2.0)

    def test_accepts_shift_operator(self):
        s = ShiftOperator(np.eye(3) * 0.5)
        expected = np.linalg.norm(np.eye(3) * 1.75)  # I + 0.5 I + 0.25 I
        assert np.isclose(constraint_lhs(s, 3), expected)

    def test_rejects_zero_taps(self):
        with pytest.raises(ValueError):
            constraint_lhs(np.eye(2), 0)


class TestMuFromBudget:
    def test_hand_value(self):
        # sqrt(2 / (0.5 * 16)) / 2 = 0.5 / 2
        assert np.isclose(mu_from_budget(alpha=2.0, eta=0.5, num_samples=16, c_norm=2.0), 0.25)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, eta=1.0, num_samples=1),
        dict(alpha=1.0, eta=0.0, num_samples=1),
        dict(alpha=1.0, eta=1.0, num_samples=0),
        dict(alpha=1.0, eta=1.0, num_samples=1, c_norm=0.0),
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            mu_from_budget(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "eta", "c_norm"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_one_positive_and_finite_rule(self, name, value):
        kwargs = {"alpha": 1.0, "eta": 1.0, "num_samples": 4, "c_norm": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            mu_from_budget(**kwargs)


class TestPowerSumRoot:
    def test_two_taps_is_affine(self):
        assert power_sum_root(4.0, 2) == 3.0
        assert power_sum_root(-1.5, 2) == -2.5

    def test_three_taps_picks_smallest_magnitude(self):
        # 1 + s + s^2 = 1 has roots 0 and -1
        assert power_sum_root(1.0, 3) == pytest.approx(0.0, abs=1e-12)
        # 1 + s + s^2 = 3 has roots 1 and -2
        assert power_sum_root(3.0, 3) == pytest.approx(1.0, abs=1e-12)
        assert type(power_sum_root(3.0, 3)) is float

    def test_five_taps(self):
        # s = 1 solves sum_{k<5} s^k = 5; the other real root is near -1.65
        assert power_sum_root(5.0, 5) == pytest.approx(1.0, abs=1e-10)

    def test_no_real_root(self):
        # 1 + s + s^2 >= 3/4 for all real s
        with pytest.raises(NoRealRootError) as exc:
            power_sum_root(0.5, 3)
        assert exc.value.gamma == 0.5
        assert exc.value.num_taps == 3

    @given(
        gamma=st.floats(min_value=-20.0, max_value=20.0),
        num_taps=st.sampled_from([2, 4, 6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_even_tap_counts_always_solvable(self, gamma, num_taps):
        # odd-degree polynomial, so a real root always exists
        s = power_sum_root(gamma, num_taps)
        assert np.isclose(sum(s**k for k in range(num_taps)), gamma, atol=1e-7)

    def test_rejects_single_tap(self):
        with pytest.raises(ValueError):
            power_sum_root(1.0, 1)


class TestSolveOptimalGso:
    def test_two_taps_closed_form(self):
        rng = np.random.default_rng(6)
        c = cross_covariance(rng.standard_normal((4, 7)), rng.standard_normal((4, 7)))
        mu = 2.3
        sol = solve_optimal_gso(c, num_taps=2, mu=mu)
        assert np.allclose(sol.operator.matrix, mu * c.matrix - np.eye(4), atol=1e-14)
        assert sol.residual <= 1e-8

    def test_scaled_identity_target(self):
        # mu C = 4 I with K = 2 gives S = 3 I
        n = 3
        c = ShiftOperator(np.eye(n) / np.sqrt(n))
        sol = solve_optimal_gso(c, num_taps=2, mu=4.0 * np.sqrt(n))
        assert np.allclose(sol.operator.matrix, 3.0 * np.eye(n), atol=1e-12)

    def test_identity_target_three_taps_gives_zero(self):
        # I + S + S^2 = I is solved by S = 0 (smallest-magnitude root)
        n = 4
        c = ShiftOperator(np.eye(n) / np.sqrt(n))
        sol = solve_optimal_gso(c, num_taps=3, mu=np.sqrt(n))
        assert np.allclose(sol.operator.matrix, 0.0, atol=1e-10)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_eigen_route_matches_closed_form(self, seed):
        # the K = 2 closed form against V diag(power_sum_root(gamma, 2)) V'
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        c = cross_covariance(rng.standard_normal((n, 10)), rng.standard_normal((n, 10)))
        mu = float(rng.uniform(0.1, 5.0))
        closed = solve_optimal_gso(c, num_taps=2, mu=mu)
        gammas, vecs = np.linalg.eigh(mu * c.matrix)
        roots = np.array([power_sum_root(g, 2) for g in gammas])
        eigen = (vecs * roots) @ vecs.T
        assert np.abs(closed.operator.matrix - eigen).max() <= 1e-10

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_taps=st.sampled_from([2, 3, 4, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_sum_reconstructs_target(self, seed, num_taps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        # spectra >= 1 keep odd tap counts solvable
        gammas = rng.uniform(1.0, 4.0, size=n)
        target = symmetric_with_spectrum(rng, gammas)
        mu = float(np.linalg.norm(target))
        sol = solve_optimal_gso(ShiftOperator(target / mu), num_taps=num_taps, mu=mu)
        recon = power_sum(sol.operator.matrix, num_taps)
        assert np.linalg.norm(recon - target) <= 1e-8 * np.linalg.norm(target)
        assert sol.residual <= 1e-8

    def test_no_real_root_propagates(self):
        # K = 3 with tiny mu pushes every eigenvalue below the 3/4 threshold
        n = 3
        c = ShiftOperator(np.eye(n) / np.sqrt(n))
        with pytest.raises(NoRealRootError) as exc:
            solve_optimal_gso(c, num_taps=3, mu=0.1)
        assert exc.value.num_taps == 3
        assert exc.value.gamma < 0.75

    def test_rejects_raw_cross_covariance(self):
        rng = np.random.default_rng(8)
        raw = cross_covariance(
            rng.standard_normal((4, 6)), rng.standard_normal((4, 6)), symmetrize=False
        )
        with pytest.raises(TypeError, match="^C must be a ShiftOperator, got AsymmetricShift$"):
            solve_optimal_gso(raw, num_taps=2)

    def test_rejects_asymmetric_matrix(self):
        # C is a ShiftOperator, which an asymmetric matrix cannot become
        with pytest.raises(ValueError, match="not symmetric"):
            ShiftOperator(np.arange(9.0).reshape(3, 3))
        with pytest.raises(TypeError, match="^C must be a ShiftOperator, got ndarray$"):
            solve_optimal_gso(np.arange(9.0).reshape(3, 3), num_taps=2)

    def test_rejects_a_plain_array(self):
        # even a symmetric one: the symmetry check is ShiftOperator's alone
        with pytest.raises(TypeError, match="^C must be a ShiftOperator, got ndarray$"):
            solve_optimal_gso(np.eye(3), num_taps=2)

    def test_rejects_single_tap(self):
        with pytest.raises(ValueError):
            solve_optimal_gso(ShiftOperator(np.eye(3)), num_taps=1)

    @pytest.mark.parametrize("mu, message", [
        (1e-38, r"relative residual \d\.\d{3}e-01$"),
        (1e300, r"^\|\|mu C\|\|_F = 1\.000e\+300 is beyond the solver's reach: its square "
                r"overflows$"),
    ], ids=["tiny", "huge"])
    def test_target_beyond_reach_is_an_input_error(self, mu, message):
        # I swamps a tiny mu C; a huge one is refused before anything is computed,
        # as its squared norm overflows, which would make any residual read 0
        rng = np.random.default_rng(6)
        c = cross_covariance(rng.standard_normal((4, 7)), rng.standard_normal((4, 7)))
        with pytest.raises(ValueError, match=message):  # numpy warnings are errors here
            solve_optimal_gso(c, num_taps=2, mu=mu)

    @pytest.mark.parametrize("solver", [solve_optimal_gso])
    @pytest.mark.parametrize("mu", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_mu(self, solver, mu):
        with pytest.raises(ValueError, match=f"^mu must be positive and finite, got {mu}$"):
            solver(ShiftOperator(np.eye(3)), num_taps=2, mu=mu)
