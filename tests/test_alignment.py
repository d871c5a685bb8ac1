import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense
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
)
from ntkalign.core import Dataset, ShiftOperator, stack
from ntkalign import hermite
from ntkalign.hermite import (
    BETA_SATURATION,
    beta_first_layer,
    coeff_g,
    coefficient_table,
    sech2,
    sigma_hat,
)
from ntkalign.ntk import (
    expectation_E_first_layer,
    expectation_E_quadrature,
    expectation_series,
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


def closed_form_leading(z, layer):
    """c of the degree-1 term B = c c' * rho: g_1(|z|), or tau_0(|z|^2) |z| for the first layer."""
    norms = z.norms
    if layer == "second":
        return coeff_g(1, norms)
    return coefficient_table(sech2, norms, 0)[:, 0] * norms


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
    assert np.allclose(dense(filter_ntk(s, y, 3)), expected, atol=1e-12)


def test_alignment_leaves_a_factored_kernel_factored():
    rng = np.random.default_rng(4)
    s = random_shift(rng, 4)
    data = random_dataset(rng, 4, 3)
    theta = filter_ntk(s, data.x, 2)
    expected = float(stack(data.y) @ dense(theta) @ stack(data.y))
    assert theta.matrix is None  # no dense form to fall back on
    assert theta.quadratic_form(stack(data.y)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_factored_alignment_terms_match_dense_formulas(seed):
    s, data, k = random_instance(seed)
    terms = alignment_report(s, data, k)
    z = z_vectors(s, data.x, k)
    q, b_lin = dense(filter_ntk(s, data.y, k)), dense(filter_ntk(s, data.x, k))
    e, e1 = expectation_series(z, "second"), expectation_series(z, "first")
    xi = float(np.sum(q * b_lin)) / (np.linalg.norm(q) * np.linalg.norm(b_lin))
    assert terms.a_filt == pytest.approx(float(stack(data.y) @ b_lin @ stack(data.y)), rel=1e-12)
    assert terms.a == pytest.approx(float(np.sum(q * e.matrix)), rel=1e-12)
    assert terms.a_first_layer == pytest.approx(float(np.sum(q * e1.matrix)), rel=1e-12)
    assert terms.xi_observed == pytest.approx(xi, rel=1e-12)


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
    q = dense(filter_ntk(s, data.y, k))
    expected = float(np.sum(q * dense(filter_ntk(s, data.x, k))))
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


def multiplicity_lin_lower_bound(s, data, num_taps):
    """A_L' from the 2K - 1 power traces, each weighted by its number of (k, k') pairs,
    and the same sum over the entries' magnitudes, the scale of its round-off."""
    c = (data.x @ data.y.T + data.y @ data.x.T) / 2.0
    powers = s.powers_applied(np.eye(s.num_nodes), 2 * num_taps - 1)
    j = np.arange(2 * num_taps - 1)
    pairs = num_taps - np.abs(j - (num_taps - 1))
    value, scale = (float(pairs @ np.einsum("jab,ab->j", p, q)) / num_taps
                    for p, q in ((powers, c), (np.abs(powers), np.abs(c))))
    return value**2, scale**2


def test_linear_bound_matches_the_multiplicity_form():
    # tr((sum_k S^k)^2 C) = sum_j #{(k, k'): k + k' = j} tr(S^j C); where the
    # terms cancel, the agreement is relative to their magnitudes' sum
    for seed in range(200):
        s, data, k = random_instance(seed)
        expected, scale = multiplicity_lin_lower_bound(s, data, k)
        got = alignment_lin_lower_bound(s, data, k)
        assert abs(got - expected) <= 1e-13 * scale, seed


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
        xi = alignment_report(s, data, k).xi_observed
        assert -1e-12 <= xi <= 1.0 + 1e-12
        doubled = Dataset(data.x, 2.0 * data.y)
        assert alignment_report(s, doubled, k).xi_observed == pytest.approx(xi, rel=1e-10)


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
    @pytest.mark.parametrize("layer", ["first", "second"])
    def test_holds_on_nonnegative_instances(self, layer):
        # the one check covers both layers: the layer's own closed-form
        # leading term B also clears the floor rho A_lin the check reports
        for seed in range(200):
            s, data, k = random_instance(seed, entries="nonnegative")
            rep = check_first_term_lower_bound(s, data, k)
            assert rep.passed, seed
            z, zy = z_vectors(s, data.x, k), z_vectors(s, data.y, k)
            b = alignment_module._leading_term(closed_form_leading(z, layer), z.correlations[1])
            lhs = float(np.sum(zy.matrix * (b @ zy.matrix)))
            tol = alignment_module.SWEEP_TOL * max(1.0, abs(lhs), abs(rep.rhs))
            assert lhs >= rep.rhs - tol, seed
            assert lhs == pytest.approx(rep.lhs, rel=1e-12), seed

    def test_reads_only_the_floor(self, monkeypatch):
        # rho = sigma_hat(K)^2 alone: the first layer's tail ratio is not computed
        def no_tail_ratio(*args):
            raise AssertionError("beta_first_layer ran")

        monkeypatch.setattr(hermite, "beta_first_layer", no_tail_ratio)
        s, data, k = random_instance(0, entries="nonnegative")
        rep = check_first_term_lower_bound(s, data, k)
        assert rep.verdict == "passed"
        assert rep.details == {"rho": sigma_hat(k) ** 2}

    def test_can_fail_for_mixed_sign_instances(self):
        # pinching by the smallest diagonal entry is not sound once the
        # shifted targets and the linear kernel rows disagree in sign
        s, data, k = random_instance(57)
        rep = check_first_term_lower_bound(s, data, k)
        assert not rep.passed
        assert rep.margin < -1e-3

    def test_spectral_precondition_enforced(self):
        rng = np.random.default_rng(8)
        s = ShiftOperator(np.diag([1.5, 0.2]))  # operator norm 1.5, above the bound 1
        data = random_dataset(rng, 2, 2)
        with pytest.raises(ValueError, match="spectral bound"):
            check_first_term_lower_bound(s, data, 2)

    def test_rejects_inputs_outside_the_unit_ball(self):
        # |z_a|^2 <= K needs ||x_i|| <= 1; at three times these inputs the bound
        # itself fails (margin -0.384), so the check refuses them instead
        s, data, k = random_instance(2, entries="nonnegative")
        big = Dataset(3.0 * data.x, data.y)
        with pytest.raises(ValueError, match=r"\|\|x_i\|\| <= 1"):
            check_first_term_lower_bound(s, big, k)

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
        first = alignment_module._leading_term(closed_form_leading(z, "first"), rho)
        tau0 = coefficient_table(sech2, norms, 0)[:, 0]
        expected = np.outer(tau0, tau0) * z.gram()
        assert np.abs(first - expected).max() <= 1e-15 * np.abs(expected).max()
        assert np.array_equal(first, first.T)
        assert not first[list(zero_rows)].any()
        g1 = coeff_g(1, norms)
        second = alignment_module._leading_term(closed_form_leading(z, "second"), rho)
        assert np.array_equal(second, np.outer(g1, g1) * rho)

    @pytest.mark.parametrize("layer, rtol", [("second", 1e-15), ("first", 5e-14)])
    def test_series_leading_term_matches_closed_form(self, layer, rtol):
        # B from the series' projected degree-1 column (what the tail check and
        # c_data read) against B from the closed-form coefficient; over these
        # 500 seeds the largest gap measured 9.7e-16 (second) and 2.8e-14
        # (first) of max |B|
        for seed in range(500):
            s, data, k = random_instance(seed)
            z = z_vectors(s, data.x, k)
            rho = z.correlations[1]
            got = alignment_module._leading_term(expectation_series(z, layer).leading, rho)
            want = alignment_module._leading_term(closed_form_leading(z, layer), rho)
            assert np.abs(got - want).max() <= rtol * np.abs(want).max(), seed


def test_series_tail_domination_on_random_instances():
    for seed in range(100):
        s, data, k = random_instance(seed)
        z = z_vectors(s, data.x, k)
        rep = check_series_tail_domination(z)
        assert rep.passed, rep.details
        second = expectation_series(z, "second").matrix
        tail_diagonal = second.diagonal() - coeff_g(1, z.norms) ** 2
        assert tail_diagonal.min(initial=0.0) >= -1e-15


def test_alignment_terms_peak_memory():
    # one layer's matrix is held at a time: the peak measures 3.0 nM^2
    # doubles, against 4.0 with E and E1 held together
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
    assert peak <= 3.5 * 8 * 1000**2


def dense_c_data(report, s, data, k, layer):
    """c_data with Q = Zy Zy' formed as an nM x nM array and B from the closed-form c."""
    z = z_vectors(s, data.x, k)
    q = dense(filter_ntk(s, data.y, k))
    c = closed_form_leading(z, layer)
    b = np.outer(c, c) * z.correlations[1]
    e = expectation_series(z, layer)
    tail = np.linalg.norm(e.matrix - b) + q.shape[0] * e.info["truncation_residual"]
    return (np.sum(q * b) - np.linalg.norm(q) * tail) / report.a_lin


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("build", [random_instance, planted_instance])
def test_c_data_matches_dense_computation(build, seed):
    s, data, k = build(seed)
    report = alignment_report(s, data, k)
    assert report.c_data == pytest.approx(dense_c_data(report, s, data, k, "second"), rel=1e-12)
    assert report.c_data_first_layer == pytest.approx(
        dense_c_data(report, s, data, k, "first"), rel=1e-12)


class TestConditionalAlignmentChecks:
    @pytest.mark.parametrize(
        "check", [check_gnn_alignment_lower_bound, check_first_layer_alignment_lower_bound]
    )
    def test_planted_instances_pass(self, check):
        # c_data A_lin <= A holds on every instance; on planted ones c_data > 0
        for seed in range(200):
            rep = check(alignment_report(*planted_instance(seed)))
            assert rep.verdict == "passed", seed
            assert rep.details["c_data"] > 0
            assert rep.rhs <= rep.lhs

    @pytest.mark.parametrize("layer", ["second", "first"])
    def test_c_data_bounds_the_untruncated_alignment(self, layer):
        # the pair quadrature stands in for the untruncated E, to about 1e-8
        reference = {"second": expectation_E_quadrature, "first": expectation_E_first_layer}
        for seed in range(8):
            s, data, k = planted_instance(seed)
            report = alignment_report(s, data, k)
            z = z_vectors(s, data.x, k)
            e = reference[layer](z).matrix
            a = float(np.sum(dense(filter_ntk(s, data.y, k)) * e))
            c = report.c_data if layer == "second" else report.c_data_first_layer
            assert c * report.a_lin <= a + 1e-8 * a

    @pytest.mark.parametrize("num_taps", [1, 2, 3, 4])
    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 1.0])
    def test_xi_thresholds_exceed_one(self, num_taps, nu):
        # why c_data replaced the a-priori bound A >= (gain - penalty / xi) A_lin:
        # its factor is positive only for xi above penalty / gain, above 1 for
        # every K and nu here, while xi_observed <= 1 by Cauchy-Schwarz; the
        # constants are taken at squared-norm bound b = sum_k nu^(2k)
        b = float(np.sum(nu ** (2.0 * np.arange(num_taps))))
        rho = sigma_hat(b) ** 2  # the floor of both layers
        for beta in (BETA_SATURATION, beta_first_layer(b).value):
            gain, penalty = rho * (1.0 + beta / 2.0), (beta / 2.0) / rho**2
            assert penalty / gain > 1.0

    def test_not_positive_c_data_is_vacuous(self):
        report = alignment_report(*random_instance(1))  # c_data -1.25 and -5.54
        for check in (check_gnn_alignment_lower_bound, check_first_layer_alignment_lower_bound):
            rep = check(report)
            assert rep.details["c_data"] <= 0
            assert rep.verdict == "vacuous" and rep.vacuous and not rep.passed
            assert rep.lhs >= rep.rhs
        # A_lin = 0 leaves c_data undefined: NaN, and the bound says nothing
        rep = check_gnn_alignment_lower_bound(replace(report, c_data=math.nan, a_lin=0.0))
        assert rep.verdict == "vacuous" and not rep.passed

    def test_sweep_counts_vacuous_apart_from_violations(self):
        vacuous = CheckReport(name="x", passed=False, lhs=1.0, rhs=-1.0, margin=2.0, vacuous=True)
        failed = CheckReport(name="x", passed=False, lhs=0.0, rhs=1.0, margin=-1.0)
        result = alignment_module._sweep("x", [vacuous, failed, vacuous], [0, 1, 2])
        assert (result.vacuous, result.violations, result.failing_seeds) == (2, 1, (1,))
        assert result.worst_margin == -1.0

    def test_conditional_sweeps_certify_every_instance(self):
        names = ("gnn_alignment_lower_bound", "first_layer_alignment_lower_bound")
        for result in run_inequality_sweeps(num_instances=20, checks=names).values():
            assert (result.violations, result.vacuous) == (0, 0)
            assert result.worst_margin >= 0
            assert "skipped" not in result.to_dict()


def test_planted_targets_are_exact_filter_outputs():
    s, data, k = planted_instance(12)
    rebuilt = s.powers_applied(data.x, k).sum(axis=0)
    assert np.allclose(rebuilt, data.y, atol=1e-12)
    assert data.max_column_norm <= 1.0 + 1e-12


def test_alignment_report_fields_and_payload():
    s, data, k = random_instance(21)
    report = alignment_report(s, data, k)
    assert isinstance(report, AlignmentReport)
    assert report.a >= -1e-12
    assert report.a_filt >= report.a_lower - 1e-9
    assert report.a_lin >= report.a_lin_lower - 1e-9
    payload = report.to_dict()
    for key in ("a", "a_filt", "a_lin", "a_lower", "a_lin_lower", "xi_observed", "rho", "beta"):
        assert key in payload
    assert payload["a_first_layer"] == report.a_first_layer
    assert payload["c_data"] == report.c_data
    assert payload["c_data_first_layer"] == report.c_data_first_layer
    assert "budget" not in payload  # a function of (S, X, Y, K) alone
    assert not any(key.startswith(("gain_", "penalty_", "xi_threshold")) for key in payload)


def test_quadrature_alignment_matches_series_alignment():
    s, data, k = random_instance(33)
    z = z_vectors(s, data.x, k)
    q = dense(filter_ntk(s, data.y, k))
    via_quad = float(np.sum(q * expectation_E_quadrature(z, n_points=256).matrix))
    series = expectation_series(z, "second")
    via_series = float(np.sum(q * series.matrix))
    slack = series.info["truncation_residual"] * np.abs(q).sum() + 1e-8
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


def test_rejects_a_repeated_check_name(monkeypatch):
    calls = []
    monkeypatch.setattr(alignment_module, "_run_check", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="check 'filter_lower_bound' is named twice"):
        run_inequality_sweeps(num_instances=1, checks=("filter_lower_bound",) * 2)
    assert calls == []


def test_optimality_sweep_no_boundary_candidate_beats_solution():
    result = optimality_sweep(num_instances=200, seed=3)
    assert result.passed
    assert result.max_excess <= 1e-9
    assert result.best_value > 0


def test_check_report_is_plain_data():
    rep = CheckReport(name="x", passed=True, lhs=1.0, rhs=0.5, margin=0.5)
    assert rep.details == {}
    assert not rep.vacuous
    assert rep.verdict == "passed"
