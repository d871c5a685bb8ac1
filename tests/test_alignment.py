import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntkalign.alignment as alignment_module
from ntkalign.alignment import (
    AlignmentReport,
    CheckReport,
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
    optimality_sweep,
    planted_instance,
    random_instance,
    run_inequality_sweeps,
    xi_observed,
)
from ntkalign.core import Dataset, NtkMatrix, ShiftOperator, stack
from ntkalign.hermite import coeff_g, coeff_tau, expansion_constants
from ntkalign.ntk import (
    expectation_E_first_layer_series,
    expectation_E_quadrature,
    expectation_E_series,
    filter_ntk,
    z_vectors,
)
from ntkalign.shiftops import cross_covariance


def random_shift(rng, n):
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2.0
    return ShiftOperator(sym).normalized()


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
    assert np.allclose(filter_ntk(s, y, 3).matrix, expected, atol=1e-12)


def test_alignment_leaves_a_factored_kernel_factored(monkeypatch):
    rng = np.random.default_rng(4)
    s = random_shift(rng, 4)
    data = random_dataset(rng, 4, 3)
    theta = filter_ntk(s, data.x, 2)
    expected = float(stack(data.y) @ filter_ntk(s, data.x, 2).matrix @ stack(data.y))
    monkeypatch.setattr(NtkMatrix, "matrix", property(lambda self: pytest.fail("materialised")))
    assert theta.quadratic_form(stack(data.y)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_factored_alignment_terms_match_dense_formulas(seed):
    s, data, k = random_instance(seed)
    terms = alignment_report(s, data, k)
    z = z_vectors(s, data.x, k)
    q, b_lin = filter_ntk(s, data.y, k).matrix, filter_ntk(s, data.x, k).matrix
    e, e1 = expectation_E_series(z), expectation_E_first_layer_series(z)
    xi = float(np.sum(q * b_lin)) / (np.linalg.norm(q) * np.linalg.norm(b_lin))
    assert terms.a_filt == pytest.approx(float(stack(data.y) @ b_lin @ stack(data.y)), rel=1e-12)
    assert terms.a == pytest.approx(float(np.sum(q * e.matrix)), rel=1e-12)
    assert terms.a_first_layer == pytest.approx(float(np.sum(q * e1.matrix)), rel=1e-12)
    assert terms.xi_observed == pytest.approx(xi, rel=1e-12)
    assert xi_observed(s, data, k) == pytest.approx(xi, rel=1e-12)


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
    via_kernel = filter_ntk(s, data.x, k).quadratic_form(stack(data.y))
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
    q = filter_ntk(s, data.y, k).matrix
    expected = float(np.sum(q * filter_ntk(s, data.x, k).matrix))
    assert alignment_lin(s, data, k) == pytest.approx(expected, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_alignments_match_multiplicity_weighted_power_traces(seed):
    # the formulas A_filt and A_lin had before they were read off C = Zy'Z
    s, data, k = random_instance(seed)
    traces = np.einsum("nm,jnm->j", data.y, s.powers_applied(data.x, 2 * k - 1))
    j = np.arange(2 * k - 1)
    multiplicities = k - np.abs(j - (k - 1))
    a_filt = float(traces[:k] @ traces[:k])
    a_lin = float(multiplicities @ (traces * traces))
    assert alignment_filt(s, data, k) == pytest.approx(a_filt, rel=1e-12)
    assert alignment_lin(s, data, k) == pytest.approx(a_lin, rel=1e-12)
    terms = alignment_report(s, data, k)
    assert terms.a_filt == pytest.approx(a_filt, rel=1e-12)
    assert terms.a_lin == pytest.approx(a_lin, rel=1e-12)


def test_identity_shift_alignment_closed_forms():
    # all K power traces coincide, so A_filt = K w^2 and A_lin = K^2 w^2
    rng = np.random.default_rng(3)
    data = random_dataset(rng, 4, 2)
    s = ShiftOperator(np.eye(4))
    w = float(np.sum(data.x * data.y))
    assert alignment_filt(s, data, 3) == pytest.approx(3 * w**2, rel=1e-12)
    assert alignment_lin(s, data, 3) == pytest.approx(9 * w**2, rel=1e-12)
    assert alignment_lin_lower_bound(s, data, 3) == pytest.approx(
        9 * w**2, rel=1e-12
    )


def test_filter_bound_is_exact_for_single_tap():
    rng = np.random.default_rng(4)
    s = random_shift(rng, 5)
    data = random_dataset(rng, 5, 3)
    assert alignment_lower_bound(s, data, 1) == pytest.approx(
        alignment_filt(s, data, 1), rel=1e-12
    )


def test_linear_bound_tight_at_equal_traces():
    # scalar case with every power trace equal to 1: any constant larger
    # than 1/K would push the bound above the alignment itself
    s = ShiftOperator(np.array([[1.0]]))
    data = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    assert alignment_lin(s, data, 2) == pytest.approx(4.0, rel=1e-12)
    assert alignment_lin_lower_bound(s, data, 2) == pytest.approx(4.0, rel=1e-12)


def test_lower_bound_uses_the_unnormalised_cross_covariance():
    rng = np.random.default_rng(5)
    s = random_shift(rng, 3)
    data = random_dataset(rng, 3, 4)
    c = (data.x @ data.y.T + data.y @ data.x.T) / 2.0
    assert not math.isclose(np.linalg.norm(c), 1.0)
    acc = np.eye(3) + s.matrix
    expected = (np.trace(acc @ c) / math.sqrt(2.0)) ** 2
    assert alignment_lower_bound(s, data, 2) == pytest.approx(expected, rel=1e-12)


def test_alignment_functionals_invariant_to_target_sign_flip():
    rng = np.random.default_rng(6)
    s = random_shift(rng, 4)
    data = random_dataset(rng, 4, 2)
    flipped = Dataset(data.x, -data.y)
    for k in (1, 2, 3):
        assert alignment_filt(s, data, k) == pytest.approx(alignment_filt(s, flipped, k))
        assert alignment_lin(s, data, k) == pytest.approx(alignment_lin(s, flipped, k))
        assert alignment_lower_bound(s, data, k) == pytest.approx(
            alignment_lower_bound(s, flipped, k)
        )
        assert alignment_lin_lower_bound(s, data, k) == pytest.approx(
            alignment_lin_lower_bound(s, flipped, k)
        )


def test_lower_bounds_hold_across_random_instances():
    for seed in range(300):
        s, data, k = random_instance(seed)
        assert alignment_filt(s, data, k) >= alignment_lower_bound(s, data, k) - 1e-9
        assert alignment_lin(s, data, k) >= alignment_lin_lower_bound(s, data, k) - 1e-9


def test_xi_observed_unit_interval_and_target_scale_invariance():
    for seed in range(100):
        s, data, k = random_instance(seed)
        xi = xi_observed(s, data, k)
        assert -1e-12 <= xi <= 1.0 + 1e-12
        doubled = Dataset(data.x, 2.0 * data.y)
        assert xi_observed(s, doubled, k) == pytest.approx(xi, rel=1e-10)


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

    @pytest.mark.parametrize("seed, zero_column", [(0, None), (1, None), (2, None), (3, None), (5, 1)])
    def test_leading_term_is_c_c_rho_for_both_layers(self, seed, zero_column):
        # the first layer's (tau_0 |z|)(tau_0 |z|)' rho is tau_0 tau_0' Z Z' up to
        # round-off; the second layer's B is g_1 g_1' rho bit for bit
        s, data, k = random_instance(seed)
        x = data.x.copy()
        if zero_column is not None:
            x[:, zero_column] = 0.0
        z = z_vectors(s, x, k)
        norms, rho, zero_rows = z.correlations
        assert bool(zero_rows) == (zero_column is not None)
        first = alignment_module._leading_term(z, "first")
        tau0 = coeff_tau(0, norms**2)
        expected = np.outer(tau0, tau0) * z.gram()
        assert np.abs(first - expected).max() <= 1e-15 * np.abs(expected).max()
        assert np.array_equal(first, first.T)
        assert not first[list(zero_rows)].any()
        g1 = coeff_g(1, norms)
        assert np.array_equal(alignment_module._leading_term(z, "second"), np.outer(g1, g1) * rho)


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
    s = cross_covariance(data.x, data.y)
    alignment_report(s, data, 2)  # builds the cached Hermite rules
    tracemalloc.start()
    try:
        alignment_report(s, data, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * 1000**2


class TestConditionalAlignmentChecks:
    def test_skips_when_requested_xi_exceeds_observed(self):
        report = alignment_report(*random_instance(11))  # measured xi ~ 0.70
        rep = check_gnn_alignment_lower_bound(report, xi=0.99)
        assert rep.skipped
        assert rep.verdict == "skipped"
        assert "assumption" in rep.reason
        assert not math.isfinite(rep.margin)

    def test_runs_when_requested_xi_is_met(self):
        report = alignment_report(*planted_instance(1))
        assert report.xi_observed >= 0.3
        rep = check_gnn_alignment_lower_bound(report, xi=0.3)
        assert not rep.skipped
        # 0.3 is below the threshold penalty / gain, so the bound asserts nothing
        assert rep.vacuous and not rep.passed
        assert rep.lhs >= rep.rhs

    @pytest.mark.parametrize(
        "check", [check_gnn_alignment_lower_bound, check_first_layer_alignment_lower_bound]
    )
    def test_planted_instances_pass(self, check):
        for seed in range(40):
            rep = check(alignment_report(*planted_instance(seed)))
            assert rep.verdict != "failed"
            # saturating activations keep rho well below the tail weight on
            # this domain, so the factor is nonpositive and the bound, vacuous,
            # holds with room to spare
            if not rep.skipped:
                assert rep.vacuous
                assert rep.details["factor"] <= 0
                assert rep.lhs >= -1e-12

    @pytest.mark.parametrize("num_taps", [1, 2, 3, 4])
    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 1.0])
    def test_xi_thresholds_exceed_one(self, num_taps, nu):
        # xi_observed <= 1 by Cauchy-Schwarz, so neither bound can bind
        consts = expansion_constants(num_taps, nu)
        for layer in ("second", "first"):
            threshold = getattr(consts, f"xi_threshold_{layer}_layer")
            gain = getattr(consts, f"gain_{layer}_layer")
            assert threshold == getattr(consts, f"penalty_{layer}_layer") / gain
            assert threshold > 1.0

    @pytest.mark.parametrize(
        "a_value, xi_obs, gain, penalty, xi, verdict",
        [
            (2.0, 0.5, 4.0, 1.0, None, "passed"),  # factor 4 - 1/0.5 = 2, A = 2 >= 2 A_lin
            (1.0, 0.5, 4.0, 1.0, None, "failed"),  # A = 1 < 2 A_lin
            (2.0, 0.5, 4.0, 1.0, 0.8, "skipped"),  # xi_observed below the requested 0.8
            (2.0, 0.5, 1.0, 1.0, None, "vacuous"),  # factor 1 - 1/0.5 = -1
            (2.0, 0.5, 2.0, 1.0, None, "vacuous"),  # factor 0 at the threshold xi = 1/2
        ],
    )
    def test_conditional_check_verdicts(self, a_value, xi_obs, gain, penalty, xi, verdict):
        rep = alignment_module._conditional_alignment_check(
            "synthetic", a_value, 1.0, xi_obs, gain, penalty, xi
        )
        assert rep.verdict == verdict
        assert rep.passed == (verdict == "passed")
        assert rep.vacuous == (verdict == "vacuous")
        assert rep.skipped == (verdict == "skipped")

    def test_sweep_counts_vacuous_apart_from_violations(self):
        vacuous = CheckReport(name="x", passed=False, lhs=1.0, rhs=-1.0, margin=2.0, vacuous=True)
        failed = CheckReport(name="x", passed=False, lhs=0.0, rhs=1.0, margin=-1.0)
        result = alignment_module._sweep("x", [vacuous, failed, vacuous], [0, 1, 2])
        assert (result.vacuous, result.violations, result.failing_seeds) == (2, 1, (1,))
        assert result.worst_margin == -1.0

    def test_conditional_sweeps_are_vacuous_not_violations(self):
        names = ("gnn_alignment_lower_bound", "first_layer_alignment_lower_bound")
        for result in run_inequality_sweeps(num_instances=20, checks=names).values():
            assert result.violations == 0
            assert result.vacuous + result.skipped == 20
            assert result.vacuous > 0
            assert result.to_dict()["vacuous"] == result.vacuous


def test_planted_targets_are_exact_filter_outputs():
    s, data, k = planted_instance(12)
    rebuilt = s.powers_applied(data.x, k).sum(axis=0)
    assert np.allclose(rebuilt, data.y, atol=1e-12)
    assert data.max_column_norm <= 1.0 + 1e-12


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
    q = filter_ntk(s, data.y, k).matrix
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


def test_rejects_unknown_check_name(monkeypatch):
    calls = []
    monkeypatch.setattr(alignment_module, "_run_check", lambda *a: calls.append(a))
    for checks in (("made_up",), ("filter_lower_bound", "made_up")):
        with pytest.raises(ValueError, match="unknown check 'made_up'"):
            run_inequality_sweeps(num_instances=1, checks=checks)
    assert calls == []  # every name is checked before the first sweep


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
