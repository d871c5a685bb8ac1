import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkalign.alignment import (
    AlignmentReport,
    CheckReport,
    NegativeEigenvalueError,
    alignment,
    alignment_filt,
    alignment_lin,
    alignment_lin_lower_bound,
    alignment_lower_bound,
    alignment_report,
    check_budget_implies_kernel_bound,
    check_filter_lower_bound,
    check_first_layer_alignment_lower_bound,
    check_first_term_lower_bound,
    check_gnn_alignment_lower_bound,
    check_linear_lower_bound,
    check_series_tail_domination,
    gnn_alignment_terms,
    optimality_sweep,
    planted_instance,
    q_matrix,
    random_instance,
    run_inequality_sweeps,
    solve_optimal_gso_linear_gnn,
    symmetrized_cross_covariance,
    xi_observed,
)
from ntkalign.core import Dataset, NtkMatrix, ShiftOperator, stack
from ntkalign.hermite import coeff_g
from ntkalign.ntk import (
    b_lin,
    expectation_E_first_layer_series,
    expectation_E_quadrature,
    expectation_E_series,
    filter_ntk,
    z_vectors,
)
from ntkalign.shiftops import NoRealRootError, cross_covariance


def random_shift(rng, n):
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2.0
    return ShiftOperator(sym / np.linalg.norm(sym), frobenius_unit=True)


def random_dataset(rng, n, m):
    return Dataset(rng.standard_normal((n, m)), rng.standard_normal((n, m))).normalized()


def dense_block_shift(s, num_samples):
    return np.kron(np.eye(num_samples), s.matrix)


def test_q_matrix_matches_dense_block_conjugation():
    rng = np.random.default_rng(0)
    s = random_shift(rng, 3)
    y = rng.standard_normal((3, 2))
    big = dense_block_shift(s, 2)
    y_st = stack(y)
    expected = np.zeros((6, 6))
    for k in range(3):
        v = np.linalg.matrix_power(big, k) @ y_st
        expected += np.outer(v, v)
    assert np.allclose(q_matrix(s, y, 3), expected, atol=1e-12)


def test_alignment_accepts_matrix_and_stacked_targets():
    rng = np.random.default_rng(1)
    s = random_shift(rng, 4)
    data = random_dataset(rng, 4, 3)
    theta = filter_ntk(s, data.x, 2)
    assert alignment(theta, data.y) == alignment(theta, stack(data.y))


def test_alignment_leaves_a_factored_kernel_factored(monkeypatch):
    rng = np.random.default_rng(4)
    s = random_shift(rng, 4)
    data = random_dataset(rng, 4, 3)
    theta = filter_ntk(s, data.x, 2)
    expected = float(stack(data.y) @ b_lin(s, data.x, 2) @ stack(data.y))
    monkeypatch.setattr(NtkMatrix, "matrix", property(lambda self: pytest.fail("materialised")))
    assert alignment(theta, data.y) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_factored_alignment_terms_match_dense_formulas(seed):
    s, data, k = random_instance(seed)
    terms = gnn_alignment_terms(s, data, k)
    z = z_vectors(s, data.x, k)
    q = q_matrix(s, data.y, k)
    e, e1 = expectation_E_series(z), expectation_E_first_layer_series(z)
    xi = alignment_lin(s, data, k) / (np.linalg.norm(q) * np.linalg.norm(b_lin(s, data.x, k)))
    assert terms.a == pytest.approx(float(np.sum(q * e.matrix)), rel=1e-12)
    assert terms.a_first_layer == pytest.approx(float(np.sum(q * e1.matrix)), rel=1e-12)
    assert terms.xi_observed == pytest.approx(xi, rel=1e-12)
    assert xi_observed(s, data, k) == pytest.approx(xi, rel=1e-12)


def test_alignment_rejects_mismatched_sizes():
    rng = np.random.default_rng(2)
    s = random_shift(rng, 3)
    theta = filter_ntk(s, rng.standard_normal((3, 2)), 2)
    with pytest.raises(ValueError, match="does not match"):
        alignment(theta, np.ones(5))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 5),
    m=st.integers(1, 4),
    k=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_filter_alignment_equals_kernel_quadratic_form(n, m, k, seed):
    rng = np.random.default_rng(seed)
    s = random_shift(rng, n)
    data = random_dataset(rng, n, m)
    via_kernel = alignment(filter_ntk(s, data.x, k), data.y)
    via_traces = alignment_filt(s, data, k)
    assert via_traces == pytest.approx(via_kernel, rel=1e-10, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 5),
    m=st.integers(1, 4),
    k=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_linear_alignment_equals_trace_against_linear_kernel(n, m, k, seed):
    rng = np.random.default_rng(seed)
    s = random_shift(rng, n)
    data = random_dataset(rng, n, m)
    q = q_matrix(s, data.y, k)
    expected = float(np.sum(q * b_lin(s, data.x, k)))
    assert alignment_lin(s, data, k) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_identity_shift_alignment_closed_forms():
    # all K power traces coincide, so A_filt = K w^2 and A_lin = K^2 w^2
    rng = np.random.default_rng(3)
    data = random_dataset(rng, 4, 2)
    s = ShiftOperator(np.eye(4))
    w = float(np.sum(data.x * data.y))
    assert alignment_filt(s, data, 3) == pytest.approx(3 * w**2, rel=1e-12)
    assert alignment_lin(s, data, 3) == pytest.approx(9 * w**2, rel=1e-12)
    assert alignment_lin_lower_bound(s, data, 3).value == pytest.approx(
        9 * w**2, rel=1e-12
    )


def test_filter_bound_is_exact_for_single_tap():
    rng = np.random.default_rng(4)
    s = random_shift(rng, 5)
    data = random_dataset(rng, 5, 3)
    assert alignment_lower_bound(s, data, 1).value == pytest.approx(
        alignment_filt(s, data, 1), rel=1e-12
    )


def test_linear_bound_tight_at_equal_traces():
    # scalar case with every power trace equal to 1: any constant larger
    # than 1/K would push the bound above the alignment itself
    s = ShiftOperator(np.array([[1.0]]))
    data = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    assert alignment_lin(s, data, 2) == pytest.approx(4.0, rel=1e-12)
    assert alignment_lin_lower_bound(s, data, 2).value == pytest.approx(4.0, rel=1e-12)


def test_bounds_expose_raw_symmetrized_cross_covariance():
    rng = np.random.default_rng(5)
    s = random_shift(rng, 3)
    data = random_dataset(rng, 3, 4)
    expected = (data.x @ data.y.T + data.y @ data.x.T) / 2.0
    got = alignment_lower_bound(s, data, 2).c_xy
    assert np.array_equal(got, expected)
    assert np.array_equal(symmetrized_cross_covariance(data.x, data.y), expected)
    assert not math.isclose(np.linalg.norm(got), 1.0)


def test_alignment_functionals_invariant_to_target_sign_flip():
    rng = np.random.default_rng(6)
    s = random_shift(rng, 4)
    data = random_dataset(rng, 4, 2)
    flipped = Dataset(data.x, -data.y)
    for k in (1, 2, 3):
        assert alignment_filt(s, data, k) == pytest.approx(alignment_filt(s, flipped, k))
        assert alignment_lin(s, data, k) == pytest.approx(alignment_lin(s, flipped, k))
        assert alignment_lower_bound(s, data, k).value == pytest.approx(
            alignment_lower_bound(s, flipped, k).value
        )
        assert alignment_lin_lower_bound(s, data, k).value == pytest.approx(
            alignment_lin_lower_bound(s, flipped, k).value
        )


def test_lower_bounds_hold_across_random_instances():
    for seed in range(300):
        s, data, k = random_instance(seed)
        assert alignment_filt(s, data, k) >= alignment_lower_bound(s, data, k).value - 1e-9
        assert alignment_lin(s, data, k) >= alignment_lin_lower_bound(s, data, k).value - 1e-9


def test_xi_observed_unit_interval_and_target_scale_invariance():
    for seed in range(100):
        s, data, k = random_instance(seed)
        xi = xi_observed(s, data, k)
        assert -1e-12 <= xi <= 1.0 + 1e-12
        doubled = Dataset(data.x, 2.0 * data.y)
        assert xi_observed(s, doubled, k) == pytest.approx(xi, rel=1e-10)


class TestSolveOptimalGsoLinearGnn:
    def test_identity_target_gives_zero_shift(self):
        sol = solve_optimal_gso_linear_gnn(np.eye(3), 2, mu=1.0)
        assert np.abs(sol.operator.matrix).max() < 1e-12

    def test_four_identity_target_gives_identity_shift(self):
        sol = solve_optimal_gso_linear_gnn(4.0 * np.eye(3), 2, mu=1.0)
        assert np.allclose(sol.operator.matrix, np.eye(3), atol=1e-12)

    def test_matches_matrix_square_root_for_two_taps(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        c = a @ a.T + 0.1 * np.eye(4)
        sol = solve_optimal_gso_linear_gnn(c, 2, mu=1.0)
        evals, vecs = np.linalg.eigh(c)
        root = (vecs * np.sqrt(evals)) @ vecs.T
        assert np.allclose(sol.operator.matrix, root - np.eye(4), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 5), k=st.integers(2, 4), seed=st.integers(0, 10_000))
    def test_squared_power_sum_reconstructs_target(self, n, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        c = a @ a.T + np.eye(n)  # eigenvalues >= 1 keep odd-tap solves real
        sol = solve_optimal_gso_linear_gnn(c, k, mu=1.0)
        acc = np.zeros((n, n))
        for j in range(k):
            acc += np.linalg.matrix_power(sol.operator.matrix, j)
        assert np.allclose(acc @ acc, c, rtol=1e-8, atol=1e-8)
        assert sol.residual <= 1e-8

    def test_negative_eigenvalue_is_rejected(self):
        with pytest.raises(NegativeEigenvalueError) as exc:
            solve_optimal_gso_linear_gnn(np.diag([1.0, -1.0]), 2)
        assert exc.value.gamma == pytest.approx(-1.0)

    def test_unsolvable_odd_tap_count_propagates(self):
        with pytest.raises(NoRealRootError):
            solve_optimal_gso_linear_gnn(0.01 * np.eye(2), 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_optimal_gso_linear_gnn(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)
        with pytest.raises(ValueError, match="num_taps"):
            solve_optimal_gso_linear_gnn(np.eye(2), 1)

    def test_normalize_rescales_to_unit_frobenius(self):
        sol = solve_optimal_gso_linear_gnn(4.0 * np.eye(3), 2, normalize=True)
        assert np.linalg.norm(sol.operator.matrix) == pytest.approx(1.0)
        assert sol.scale == pytest.approx(1.0 / math.sqrt(3.0))


class TestBudgetCheck:
    def test_holds_on_gram_spectrum_shifts(self):
        for seed in range(200):
            s, data, k = random_instance(seed, spectrum="nonnegative")
            assert check_budget_implies_kernel_bound(s, data, k).passed

    def test_fails_for_indefinite_shift_with_aligned_data(self):
        # both eigenvalues negative: the kernel keeps the even-power mass
        # 1 + 0.81 while the tight budget collapses to |1 - 0.9|^2 + ...
        s = ShiftOperator(np.diag([-0.9, -math.sqrt(1.0 - 0.81)]))
        e1 = np.array([[1.0], [0.0]])
        rep = check_budget_implies_kernel_bound(s, Dataset(e1, e1), 2)
        assert not rep.passed
        assert rep.margin < -1.0

    def test_rejects_unnormalized_data(self):
        s = ShiftOperator(np.eye(2) / math.sqrt(2.0))
        big = Dataset(2.0 * np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="x_i"):
            check_budget_implies_kernel_bound(s, big, 2)


class TestFirstTermCheck:
    @pytest.mark.parametrize("layer", ["second", "first"])
    def test_holds_on_nonnegative_instances(self, layer):
        for seed in range(200):
            s, data, k = random_instance(seed, entries="nonnegative")
            assert check_first_term_lower_bound(s, data, k, layer=layer).passed

    def test_can_fail_for_mixed_sign_instances(self):
        # pinching by the smallest diagonal entry is not sound once the
        # shifted targets and the linear kernel rows disagree in sign
        s, data, k = random_instance(57)
        rep = check_first_term_lower_bound(s, data, k)
        assert not rep.passed
        assert rep.margin < -1e-3

    def test_layers_coincide_for_tanh(self):
        # the derivative's even leading coefficient equals the rescaled
        # odd one (Gaussian integration by parts), so both leading-term
        # matrices and floors are identical
        s, data, k = random_instance(233, entries="nonnegative")
        second = check_first_term_lower_bound(s, data, k, layer="second")
        first = check_first_term_lower_bound(s, data, k, layer="first")
        assert second.lhs == pytest.approx(first.lhs, rel=1e-9)
        assert second.rhs == pytest.approx(first.rhs, rel=1e-9)

    def test_spectral_precondition_enforced(self):
        rng = np.random.default_rng(8)
        s = random_shift(rng, 2)  # unit Frobenius on 2 nodes: norm >= 1/sqrt(2)
        data = random_dataset(rng, 2, 2)
        with pytest.raises(ValueError, match="spectral bound"):
            check_first_term_lower_bound(s, data, 2, spectral_bound=0.5)

    def test_rejects_unknown_layer(self):
        s, data, k = random_instance(0)
        with pytest.raises(ValueError, match="layer"):
            check_first_term_lower_bound(s, data, k, layer="third")


def test_series_tail_domination_on_random_instances():
    for seed in range(100):
        s, data, k = random_instance(seed)
        z = z_vectors(s, data.x, k)
        rep = check_series_tail_domination(z)
        assert rep.passed, rep.details
        tail_diagonal = expectation_E_series(z).matrix.diagonal() - coeff_g(1, z.norms) ** 2
        assert tail_diagonal.min(initial=0.0) >= -1e-15


def test_alignment_terms_peak_memory():
    # E and E1 are one Mehler sum each; the peak measures 5.2 nM^2 doubles
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 50))
    data = Dataset(x, 0.8 * x + 0.2 * rng.standard_normal((20, 50))).normalized()
    s = cross_covariance(data.x, data.y).as_shift_operator()
    gnn_alignment_terms(s, data, 2)  # builds the cached Hermite rules
    tracemalloc.start()
    try:
        gnn_alignment_terms(s, data, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * 1000**2


class TestConditionalAlignmentChecks:
    def test_skips_when_requested_xi_exceeds_observed(self):
        s, data, k = random_instance(11)  # measured xi ~ 0.70
        rep = check_gnn_alignment_lower_bound(s, data, k, xi=0.99)
        assert rep.skipped
        assert "assumption" in rep.reason
        assert not math.isfinite(rep.margin)

    def test_runs_when_requested_xi_is_met(self):
        s, data, k = planted_instance(1)
        assert xi_observed(s, data, k) >= 0.3
        rep = check_gnn_alignment_lower_bound(s, data, k, xi=0.3)
        assert not rep.skipped
        assert rep.passed

    @pytest.mark.parametrize(
        "check", [check_gnn_alignment_lower_bound, check_first_layer_alignment_lower_bound]
    )
    def test_planted_instances_pass(self, check):
        for seed in range(40):
            s, data, k = planted_instance(seed)
            rep = check(s, data, k)
            assert rep.passed
            # saturating activations keep rho well below the tail weight on
            # this domain, so the factor is nonpositive and the bound holds
            # with room to spare
            if not rep.skipped:
                assert rep.lhs >= -1e-12

    @pytest.mark.parametrize(
        "check",
        [check_gnn_alignment_lower_bound, check_first_layer_alignment_lower_bound, alignment_report],
    )
    def test_shared_terms_must_match_the_arguments(self, check):
        s, data, k = planted_instance(3)
        terms = gnn_alignment_terms(s, data, k, spectral_bound=0.5)
        shared = check(s, data, k, spectral_bound=0.5, terms=terms)
        assert shared == check(s, data, k, spectral_bound=0.5)
        for num_taps, bound in ((k, 1.0), (k + 1, 0.5)):
            with pytest.raises(ValueError, match="terms were built for"):
                check(s, data, num_taps, spectral_bound=bound, terms=terms)


def test_identity_activation_alignment_equals_linear_alignment():
    rng = np.random.default_rng(9)
    s = random_shift(rng, 4)
    data = random_dataset(rng, 4, 3)
    z = z_vectors(s, data.x, 2)
    e = expectation_E_series(z, activation="identity")
    got = float(np.sum(q_matrix(s, data.y, 2) * e.matrix))
    assert got == pytest.approx(alignment_lin(s, data, 2), rel=1e-12)


def test_planted_targets_are_exact_filter_outputs():
    s, data, k = planted_instance(12)
    rebuilt = s.powers_applied(data.x, k).sum(axis=0)
    assert np.allclose(rebuilt, data.y, atol=1e-12)
    assert data.is_normalized()


def test_alignment_report_fields_and_payload():
    s, data, k = random_instance(21)
    report = alignment_report(s, data, k, eta=0.5, alpha=2.0)
    assert isinstance(report, AlignmentReport)
    assert report.a >= -1e-12
    assert report.a_filt >= report.a_lower - 1e-9
    assert report.a_lin >= report.a_lin_lower - 1e-9
    assert report.budget == pytest.approx(math.sqrt(2.0 / (0.5 * data.num_samples)))
    payload = report.to_dict()
    for key in ("a", "a_filt", "a_lin", "a_lower", "a_lin_lower", "xi_observed", "rho", "beta"):
        assert key in payload
    assert payload["gain_second_layer"] > 0
    assert payload["penalty_second_layer"] > 0


def test_quadrature_alignment_matches_series_alignment():
    s, data, k = random_instance(33)
    z = z_vectors(s, data.x, k)
    q = q_matrix(s, data.y, k)
    via_quad = float(np.sum(q * expectation_E_quadrature(z, n_points=256).matrix))
    series = expectation_E_series(z)
    via_series = float(np.sum(q * series.matrix))
    slack = series.truncation_residual * np.abs(q).sum() + 1e-8
    assert abs(via_quad - via_series) <= slack


def test_run_inequality_sweeps_clean():
    serial = run_inequality_sweeps(num_instances=60, base_seed=0)
    assert set(serial) == {
        "filter_lower_bound",
        "linear_lower_bound",
        "budget_implies_kernel_bound",
        "first_term_lower_bound",
        "series_tail_domination",
    }
    for name, result in serial.items():
        assert result.violations == 0, (name, result.failing_seeds)
        assert result.num_instances == 60


def test_sweep_result_payload_roundtrips():
    result = run_inequality_sweeps(num_instances=5, checks=("filter_lower_bound",))
    payload = result["filter_lower_bound"].to_dict()
    assert payload["violations"] == 0
    assert payload["num_instances"] == 5
    assert isinstance(payload["failing_seeds"], list)


def test_rejects_unknown_check_name():
    with pytest.raises(ValueError, match="unknown check"):
        run_inequality_sweeps(num_instances=1, checks=("made_up",))


def test_optimality_sweep_no_boundary_candidate_beats_solution():
    result = optimality_sweep(num_instances=200, seed=3)
    assert result.passed
    assert result.max_excess <= 1e-9
    assert result.best_value > 0


def test_optimality_sweep_requires_two_taps():
    with pytest.raises(ValueError, match="K = 2"):
        optimality_sweep(num_instances=1, num_taps=3)


def test_check_report_is_plain_data():
    rep = CheckReport(name="x", passed=True, lhs=1.0, rhs=0.5, margin=0.5)
    assert rep.details == {}
    assert not rep.skipped
