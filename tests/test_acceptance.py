"""End-to-end checks of every headline numeric claim, one test per criterion.

Each test carries a ``criterion`` marker; the conftest hook prints one
pass/fail line per criterion after the run.  Runtime ceilings are asserted
where a criterion pins one.
"""

import json
import math
import time

import numpy as np
import pytest

from ntkalign.cli import main as cli_main
from ntkalign.core import Dataset, ShiftOperator, stack
from ntkalign.dataio import (
    PairExtractionConfig,
    VarProcessConfig,
    extract_pairs,
    generate_var,
    planted_transition,
)
from ntkalign.hermite import (
    beta_first_layer,
    sigma_hat,
    verify_ratio_monotonicity,
    verify_sign_constancy,
)
from ntkalign.models import InitConfig, init_filter, init_gnn2
from ntkalign.ntk import (
    empirical_ntk,
    filter_ntk,
    gnn_infinite_ntk,
    gnn_monte_carlo_ntk,
)
from ntkalign.shiftops import covariance, cross_covariance
from ntkalign.training import (
    TrainConfig,
    check_training_sandwich,
    kappa_for_budget,
    ntk_drift,
    pinv_quadratic,
    predicted_param_movement,
    slack_from_kappa,
    train,
)


def random_shift(rng, n):
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2.0
    return ShiftOperator(sym / np.linalg.norm(sym), frobenius_unit=True)


def random_dataset(rng, n, m):
    return Dataset(rng.standard_normal((n, m)), rng.standard_normal((n, m))).normalized()


@pytest.mark.criterion(1, "closed-form tail constant of the saturating activation")
def test_tail_constant_via_cli(tmp_path):
    start = time.perf_counter()
    assert cli_main(["verify-hermite", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["beta"]["value"] - (math.pi - 2.0) / 2.0) <= 1e-3
    assert time.perf_counter() - start < 5.0


@pytest.mark.criterion(2, "first-layer tail constant at three taps")
def test_first_layer_tail_constant():
    start = time.perf_counter()
    result = beta_first_layer(3.0)
    assert abs(result.value - 0.7320) <= 2e-2
    assert time.perf_counter() - start < 10.0


@pytest.mark.criterion(3, "activation slope-transform supremum")
def test_slope_transform_supremum():
    scale = math.sqrt(2.0 * math.pi)
    sup = max(sigma_hat(z) for z in (1e-14, 1e-10, 1e-6)) * scale
    assert sup <= 2.51
    assert abs(sup - 2.5066) <= 1e-3
    # the supremum sits at the origin: the transform is non-increasing
    assert sigma_hat(1e-14) >= sigma_hat(0.1) >= sigma_hat(10.0)


@pytest.mark.criterion(4, "analytic filter kernel equals Jacobian product")
def test_filter_kernel_equals_jacobian_product():
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        num_taps = int(rng.integers(1, 5))
        s = random_shift(rng, n)
        data = random_dataset(rng, n, m)
        params = init_filter(num_taps, InitConfig(1.0, seed))
        analytic = filter_ntk(s, data.x, num_taps).matrix
        empirical = empirical_ntk(s, params, data.x).matrix
        gap = np.linalg.norm(empirical - analytic) / max(np.linalg.norm(analytic), 1e-300)
        assert gap <= 1e-10, f"seed {seed}: relative gap {gap:.3e}"
    assert time.perf_counter() - start < 10.0


@pytest.mark.criterion(5, "Monte Carlo kernel converges with width")
def test_monte_carlo_kernel_converges_with_width():
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    s = random_shift(rng, 5)
    data = random_dataset(rng, 5, 10)
    reference = gnn_infinite_ntk(s, data, 2, layer="both").matrix
    ref_norm = np.linalg.norm(reference)

    def mc_error(num_features, seed):
        total = (
            gnn_monte_carlo_ntk(s, data, 2, num_features, seed).matrix
            + gnn_monte_carlo_ntk(
                s, data, 2, num_features, seed, which_layer="first"
            ).matrix
        )
        return np.linalg.norm(total - reference) / ref_norm

    wins = 0
    for seed in range(10):
        wide, narrow = mc_error(4096, seed), mc_error(256, seed)
        assert wide <= 0.05, f"seed {seed}: wide-width error {wide:.4f}"
        wins += wide < narrow
    assert wins >= 9
    assert time.perf_counter() - start < 120.0


@pytest.mark.criterion(6, "alignment inequality sweeps are violation-free")
def test_inequality_sweeps_are_violation_free():
    from ntkalign.alignment import run_inequality_sweeps

    start = time.perf_counter()
    sweeps = run_inequality_sweeps(num_instances=500, base_seed=0)
    assert len(sweeps) == 5
    for name, result in sweeps.items():
        assert result.violations == 0, f"{name}: failing seeds {result.failing_seeds}"
    assert time.perf_counter() - start < 300.0


@pytest.mark.criterion(7, "closed-form shift operator is optimal on the boundary")
def test_closed_form_shift_operator_is_optimal():
    from ntkalign.alignment import optimality_sweep

    start = time.perf_counter()
    result = optimality_sweep(num_instances=1000, seed=0, num_taps=2)
    assert result.passed, f"max excess {result.max_excess:.3e}"
    assert time.perf_counter() - start < 60.0


@pytest.mark.criterion(8, "training-error curves stay inside the sandwich")
def test_training_error_sandwich_sweep():
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 7)), int(rng.integers(1, 5))
        num_taps = int(rng.integers(1, 4))
        s = random_shift(rng, n)
        data = random_dataset(rng, n, m)
        theta = filter_ntk(s, data.x, num_taps)
        eta = float(rng.uniform(0.2, 1.0)) / max(theta.operator_norm, 1e-12)
        cfg = TrainConfig(
            eta=eta,
            epochs=200,
            kappa=kappa_for_budget(0.01, 0.05, n, m),
            seed=seed,
        )
        check = check_training_sandwich(s, data, num_taps, cfg)
        assert check.passed, f"seed {seed}: violations at {check.violation_epochs}"
    assert time.perf_counter() - start < 120.0


@pytest.mark.criterion(9, "parameter movement matches the kernel prediction")
def test_parameter_movement_matches_prediction():
    start = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        rng = np.random.default_rng(seed)
        s = random_shift(rng, 5)
        data = random_dataset(rng, 5, 2)
        theta = filter_ntk(s, data.x, 2)
        evals = theta.eigenvalues
        lam_max = float(evals[-1])
        positive = evals[evals > 1e-10 * lam_max]
        if positive[0] < 5e-3 * lam_max:
            continue  # convergence would need too many epochs
        checked += 1
        epochs = int(math.ceil(12.0 * lam_max / positive[0]))
        kappa = 1e-7
        cfg = TrainConfig(eta=1.0 / lam_max, epochs=epochs, kappa=kappa, seed=seed)
        trace = train(init_filter(2, InitConfig(kappa, seed)), s, data, cfg)
        predicted = predicted_param_movement(theta, stack(data.y))
        slack = slack_from_kappa(kappa, cfg.delta_budget, 5, 2)
        observed = trace.param_movement[-1]
        assert abs(observed - predicted) <= 0.05 * predicted + slack, (
            f"seed {seed}: observed {observed}, predicted {predicted}"
        )
    assert time.perf_counter() - start < 120.0


@pytest.mark.criterion(10, "inverse-kernel quadratic sandwich identity")
def test_inverse_kernel_quadratic_sandwich():
    def assert_sandwich(theta, y):
        evals, vecs = np.linalg.eigh(theta.matrix)
        keep = evals > 1e-10 * evals.max()
        in_range = vecs[:, keep] @ (vecs[:, keep].T @ y)
        range_sq = float(in_range @ in_range)
        alignment = float(y @ theta.matrix @ y)
        if alignment <= 1e-12:
            return
        quad = pinv_quadratic(theta.matrix, y)
        lower = range_sq**2 / alignment
        upper = (evals.max() / evals[keep].min()) * range_sq**2 / alignment
        assert lower <= quad * (1.0 + 1e-9) + 1e-300
        assert quad <= upper * (1.0 + 1e-9) + 1e-300

    for seed in range(50):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        num_taps = int(rng.integers(1, 4))
        s = random_shift(rng, n)
        data = random_dataset(rng, n, m)
        assert_sandwich(filter_ntk(s, data.x, num_taps), stack(data.y))
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        theta = gnn_infinite_ntk(s, data, 2)
        assert_sandwich(theta, stack(data.y))


@pytest.mark.criterion(11, "cross-covariance beats covariance on planted data")
def test_cross_covariance_beats_covariance():
    start = time.perf_counter()
    protocols = {"filter": 0.625, "gnn2": 0.0125}
    epochs = 150
    checkpoints = (50, 100, epochs)
    for model, eta in protocols.items():
        train_wins = {e: 0 for e in checkpoints}
        test_wins = 0
        for seed in range(10):
            transition, _ = planted_transition(20, seed=seed, strength=0.9,
                                               background=0.35)
            series = generate_var(VarProcessConfig(20, 1000, transition, 1.0, seed=seed))
            train_split, test_split = extract_pairs(
                series, PairExtractionConfig(1, 200, 50, seed=seed)
            )
            arms = {
                "cxy": cross_covariance(train_split.x, train_split.y).as_shift_operator(),
                "cxx": covariance(train_split.x),
            }
            traces = {}
            for name, s in arms.items():
                params = (
                    init_filter(2, InitConfig(1.0, seed))
                    if model == "filter"
                    else init_gnn2(50, 2, InitConfig(1.0, seed))
                )
                cfg = TrainConfig(eta=eta, epochs=epochs, optimizer="adam",
                                  kappa=1.0, seed=seed)
                traces[name] = train(params, s, train_split, cfg, test_data=test_split)
            for e in checkpoints:
                train_wins[e] += (
                    traces["cxy"].train_losses[e] < traces["cxx"].train_losses[e]
                )
            test_wins += traces["cxy"].test_losses[-1] < traces["cxx"].test_losses[-1]
        for e, count in train_wins.items():
            assert count >= 8, f"{model}: train wins at epoch {e} only {count}/10"
        assert test_wins >= 8, f"{model}: test wins only {test_wins}/10"
    assert time.perf_counter() - start < 300.0


@pytest.mark.criterion(12, "kernel drift shrinks with width")
def test_kernel_drift_shrinks_with_width():
    start = time.perf_counter()
    rng = np.random.default_rng(50)
    s = random_shift(rng, 5)
    data = random_dataset(rng, 5, 10)
    wins = 0
    for seed in range(10):
        points = ntk_drift(s, data, 2, widths=[128, 2048], eta=0.1, num_steps=15,
                           seed=seed)
        drift = {p.width: p.drift for p in points}
        assert drift[128] > 0.0
        wins += drift[2048] < drift[128]
    assert wins >= 8
    assert time.perf_counter() - start < 300.0


@pytest.mark.criterion(13, "coefficient sign and ratio grids are violation-free")
def test_coefficient_grids_are_violation_free():
    checks = [
        verify_sign_constancy("tanh_odd", (1, 3, 5, 7, 9)),
        verify_sign_constancy("sech2_even", (0, 2, 4, 6, 8)),
        verify_ratio_monotonicity("tanh_odd", (3, 5, 7, 9)),
        verify_ratio_monotonicity("sech2_even", (2, 4, 6, 8)),
    ]
    for check in checks:
        assert check.grid.min() == pytest.approx(0.1) and check.grid.max() == pytest.approx(10.0)
        assert check.passed, f"{check.kind} violations: {check.violations}"
