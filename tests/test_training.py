import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkalign import models, training
from ntkalign.core import Dataset, DivergenceError, NtkKind, NtkMatrix, ShiftOperator, stack
from ntkalign.models import (
    InitConfig,
    filter_forward,
    filter_jacobian,
    flatten_params,
    gnn2_forward,
    gnn2_jacobian,
    init_filter,
    init_gnn2,
    unflatten_params,
)
from ntkalign.ntk import filter_ntk
from ntkalign.shiftops import AsymmetricShift
from ntkalign.training import (
    BoundCheck,
    GsoComparison,
    TrainConfig,
    TrainTrace,
    check_training_sandwich,
    compare_gso,
    generalization_bound,
    kappa_for_budget,
    linearized_dynamics,
    pinv_quadratic,
    predicted_param_movement,
    rademacher_bound_value,
    slack_from_kappa,
    train,
)


def random_shift(rng, n):
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2.0
    return ShiftOperator(sym / np.linalg.norm(sym), frobenius_unit=True)


def random_dataset(rng, n, m):
    return Dataset(rng.standard_normal((n, m)), rng.standard_normal((n, m))).normalized()


def half_loss(s, params, data, forward):
    r = forward(s, params, data.x) - data.y
    return 0.5 * float(np.sum(r * r))


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0, "epochs": 1},
            {"eta": -0.1, "epochs": 1},
            {"eta": 0.1, "epochs": -1},
            {"eta": 0.1, "epochs": 1, "batch_size": -2},
            {"eta": 0.1, "epochs": 1, "optimizer": "sgd"},
            {"eta": 0.1, "epochs": 1, "kappa": 0.0},
            {"eta": 0.1, "epochs": 1, "eps_budget": 0.0},
            {"eta": 0.1, "epochs": 1, "delta_budget": -0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_slack_round_trips_through_kappa(self):
        kappa = kappa_for_budget(0.01, 0.05, 6, 3)
        assert slack_from_kappa(kappa, 0.05, 6, 3) == pytest.approx(0.1, rel=1e-12)


class TestTrain:
    def test_zero_epochs_records_initial_state_only(self):
        rng = np.random.default_rng(0)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        params = init_filter(2, InitConfig(kappa=0.5, seed=1))
        trace = train(params, s, data, TrainConfig(eta=0.1, epochs=0))
        assert trace.num_epochs == 0
        assert trace.train_losses.shape == (1,)
        assert trace.train_losses[0] == pytest.approx(
            half_loss(s, params, data, filter_forward)
        )
        assert trace.param_movement[0] == 0.0
        assert math.isnan(trace.test_losses[0])

    def test_filter_gd_loss_is_monotone_below_critical_rate(self):
        rng = np.random.default_rng(1)
        s = random_shift(rng, 5)
        data = random_dataset(rng, 5, 3)
        theta = filter_ntk(s, data.x, 3)
        cfg = TrainConfig(eta=0.9 / theta.operator_norm, epochs=50, kappa=0.7, seed=2)
        trace = train(init_filter(3, InitConfig(cfg.kappa, cfg.seed)), s, data, cfg)
        diffs = np.diff(trace.train_losses)
        assert np.all(diffs <= 1e-12 * max(1.0, trace.train_losses[0]))

    @pytest.mark.parametrize("model_kind", ["filter", "gnn2"])
    def test_one_gd_step_matches_finite_difference_gradient(self, model_kind):
        rng = np.random.default_rng(3)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 2)
        if model_kind == "filter":
            params = init_filter(3, InitConfig(kappa=0.8, seed=4))
            forward = filter_forward
        else:
            params = init_gnn2(5, 2, InitConfig(kappa=0.8, seed=4))
            forward = gnn2_forward
        eta = 1e-3
        trace = train(params, s, data, TrainConfig(eta=eta, epochs=1))
        taken = (flatten_params(params) - flatten_params(trace.final_params)) / eta

        flat = flatten_params(params)
        fd = np.empty_like(flat)
        h = 1e-6
        for i in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                half_loss(s, unflatten_params(up, params), data, forward)
                - half_loss(s, unflatten_params(dn, params), data, forward)
            ) / (2 * h)
        assert np.linalg.norm(taken - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(5)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        theta = filter_ntk(s, data.x, 2)
        cfg = TrainConfig(eta=50.0 / theta.operator_norm, epochs=200, kappa=1.0, seed=6)
        with pytest.raises(DivergenceError) as err:
            train(init_filter(2, InitConfig(cfg.kappa, cfg.seed)), s, data, cfg)
        assert err.value.step >= 1

    def test_minibatch_is_deterministic_and_learns(self):
        rng = np.random.default_rng(7)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 5)
        theta = filter_ntk(s, data.x, 2)
        cfg = TrainConfig(eta=0.3 / theta.operator_norm, epochs=30, batch_size=2, seed=8)
        params = init_filter(2, InitConfig(kappa=0.5, seed=8))
        first = train(params, s, data, cfg)
        second = train(params, s, data, cfg)
        assert np.array_equal(first.train_losses, second.train_losses)
        assert first.train_losses[-1] < first.train_losses[0]

    def test_adam_is_deterministic_and_learns(self):
        rng = np.random.default_rng(9)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        cfg = TrainConfig(eta=0.05, epochs=300, optimizer="adam", seed=10)
        params = init_gnn2(6, 2, InitConfig(kappa=0.5, seed=10))
        first = train(params, s, data, cfg)
        second = train(params, s, data, cfg)
        assert np.array_equal(first.train_losses, second.train_losses)
        assert first.train_losses[-1] < 0.5 * first.train_losses[0]

    def test_tracks_test_losses_when_split_given(self):
        rng = np.random.default_rng(11)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        test_data = random_dataset(rng, 4, 2)
        cfg = TrainConfig(eta=0.05, epochs=5)
        params = init_filter(2, InitConfig(kappa=0.5, seed=12))
        trace = train(params, s, data, cfg, test_data=test_data)
        assert np.all(np.isfinite(trace.test_losses))
        assert trace.test_losses[0] == pytest.approx(
            half_loss(s, params, test_data, filter_forward)
        )

    def test_rejects_unsupported_parameter_types(self):
        rng = np.random.default_rng(13)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        with pytest.raises(TypeError):
            train(np.zeros(3), s, data, TrainConfig(eta=0.1, epochs=1))

    def test_trace_arrays_must_share_length(self):
        with pytest.raises(ValueError, match="share length"):
            TrainTrace(
                train_losses=np.zeros(3),
                test_losses=np.zeros(2),
                param_movement=np.zeros(3),
                final_params=None,
            )


def jacobian_reference_train(params, s, data, cfg, test_data, forward, jacobian):
    """Training loop that forms every gradient as J' r from a materialised Jacobian.

    Every step recomputes the forward pass and ``jacobian(params, x)`` at
    that step's samples.  Returns the train and test loss curves (test NaN
    without a split), the parameter movement and the final parameters.
    """
    flat = flatten_params(params)
    flat0 = flat.copy()
    rng = np.random.default_rng(cfg.seed)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    steps = 0

    def test_loss():
        return math.nan if test_data is None else half_loss(s, params, test_data, forward)

    curves = [[half_loss(s, params, data, forward)], [test_loss()], [0.0]]
    for _ in range(cfg.epochs):
        if cfg.batch_size == 0:
            batches = [np.arange(data.num_samples)]
        else:
            order = rng.permutation(data.num_samples)
            batches = [order[i : i + cfg.batch_size]
                       for i in range(0, data.num_samples, cfg.batch_size)]
        for idx in batches:
            x, y = data.x[:, idx], data.y[:, idx]
            grad = jacobian(params, x).T @ stack(forward(s, params, x) - y)
            if cfg.optimizer == "gd":
                flat = flat - cfg.eta * grad
            else:
                steps += 1
                m = 0.9 * m + 0.1 * grad
                v = 0.999 * v + 0.001 * grad * grad
                m_hat, v_hat = m / (1 - 0.9**steps), v / (1 - 0.999**steps)
                flat = flat - cfg.eta * m_hat / (np.sqrt(v_hat) + 1e-8)
            params = unflatten_params(flat, params)
        curves[0].append(half_loss(s, params, data, forward))
        curves[1].append(test_loss())
        curves[2].append(float(np.linalg.norm(flat - flat0)))
    return [np.array(c) for c in curves] + [params]


OPTIMIZER_CASES = pytest.mark.parametrize(
    "optimizer, eta, batch_size",
    [("gd", 0.05, 0), ("adam", 0.02, 0), ("adam", 0.02, 3), ("gd", 0.05, 4)],
    ids=["gd", "adam", "adam-minibatch", "gd-minibatch"],
)


class TestFusedGradientTraining:
    """gnn2 training through the fused pullback against the Jacobian loop."""

    @OPTIMIZER_CASES
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    def test_matches_jacobian_reference(self, optimizer, eta, batch_size, symmetric):
        rng = np.random.default_rng(31)
        n = 5
        if symmetric:
            s = random_shift(rng, n)
        else:
            a = rng.standard_normal((n, n))
            s = AsymmetricShift(a / np.linalg.norm(a))
        data = random_dataset(rng, n, 10)
        test_data = random_dataset(rng, n, 3)
        cfg = TrainConfig(eta=eta, epochs=25, batch_size=batch_size, optimizer=optimizer, seed=32)
        params = init_gnn2(8, 3, InitConfig(kappa=0.8, seed=33))
        trace = train(params, s, data, cfg, test_data=test_data)
        ref_train, ref_test, ref_movement, _ = jacobian_reference_train(
            params, s, data, cfg, test_data, gnn2_forward,
            lambda p, x: gnn2_jacobian(s, p, x),
        )  # fmt: skip
        assert trace.train_losses[-1] < trace.train_losses[0]
        assert np.allclose(trace.train_losses, ref_train, rtol=1e-10, atol=0.0)
        assert np.allclose(trace.test_losses, ref_test, rtol=1e-10, atol=0.0)
        assert np.allclose(trace.param_movement, ref_movement, rtol=1e-12, atol=0.0)


class TestFixedJacobianFilterTraining:
    """Graph-filter training on the Z built once, against the per-step Jacobian loop."""

    @OPTIMIZER_CASES
    @pytest.mark.parametrize("with_test", [True, False], ids=["test-split", "no-test-split"])
    def test_matches_per_step_reference(self, optimizer, eta, batch_size, with_test):
        rng = np.random.default_rng(34)
        n = 6
        s = random_shift(rng, n)
        data = random_dataset(rng, n, 11)
        test_data = random_dataset(rng, n, 4) if with_test else None
        cfg = TrainConfig(eta=eta, epochs=30, batch_size=batch_size, optimizer=optimizer, seed=35)
        params = init_filter(3, InitConfig(kappa=0.8, seed=36))
        trace = train(params, s, data, cfg, test_data=test_data)
        ref_train, ref_test, ref_movement, ref_params = jacobian_reference_train(
            params, s, data, cfg, test_data, filter_forward,
            lambda p, x: filter_jacobian(s, x, p.num_taps),
        )  # fmt: skip
        assert trace.train_losses[-1] < trace.train_losses[0]
        assert np.allclose(trace.train_losses, ref_train, rtol=1e-12, atol=0.0)
        assert np.allclose(trace.test_losses, ref_test, rtol=1e-12, atol=0.0, equal_nan=True)
        assert bool(np.isnan(trace.test_losses).all()) is not with_test
        assert np.allclose(trace.param_movement, ref_movement, rtol=1e-12, atol=0.0)
        assert np.allclose(trace.final_params.taps, ref_params.taps, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("batch_size", [0, 4], ids=["full-batch", "minibatch"])
    def test_one_jacobian_per_run_and_no_forward_on_the_training_split(
        self, monkeypatch, batch_size
    ):
        rng = np.random.default_rng(37)
        s = random_shift(rng, 5)
        data = random_dataset(rng, 5, 9)
        test_data = random_dataset(rng, 5, 3)
        jacobian_calls, forward_inputs = [], []

        def counting_jacobian(*args):
            jacobian_calls.append(args)
            return filter_jacobian(*args)

        def recording_forward(s, params, x):
            forward_inputs.append(x)
            return filter_forward(s, params, x)

        monkeypatch.setattr(training, "filter_jacobian", counting_jacobian)
        monkeypatch.setattr(training, "filter_forward", recording_forward)
        params = init_filter(2, InitConfig(kappa=0.8, seed=38))
        cfg = TrainConfig(eta=0.05, epochs=6, batch_size=batch_size)
        train(params, s, data, cfg)
        assert len(jacobian_calls) == 1
        assert forward_inputs == []
        train(params, s, data, cfg, test_data=test_data)
        assert len(jacobian_calls) == 2
        assert len(forward_inputs) == cfg.epochs + 1
        assert all(x is test_data.x for x in forward_inputs)


class TestGnnPassShape:
    def test_no_feature_is_shifted_and_tanh_runs_once_per_pass(self, monkeypatch):
        # the adjoint pass shifts only (n, M) blocks, never the F*M feature columns
        rng = np.random.default_rng(50)
        s = random_shift(rng, 5)
        data = random_dataset(rng, 5, 9)
        test_data = random_dataset(rng, 5, 4)
        trailing, tanh_calls, passes = [], [], []
        powers_applied = ShiftOperator.powers_applied

        def recording_powers(self, signals, num_taps):
            trailing.append(np.shape(signals)[-1])
            return powers_applied(self, signals, num_taps)

        def counting_tanh(u, out=None):
            tanh_calls.append(np.shape(u))
            return tanh(u, out=out)

        def counting_pass(*args):
            passes.append(len(args))
            return forward_pullback(*args)

        forward_pullback = models.gnn2_forward_pullback
        tanh = np.tanh
        monkeypatch.setattr(ShiftOperator, "powers_applied", recording_powers)
        monkeypatch.setattr(np, "tanh", counting_tanh)
        counted = dataclasses.replace(models.ACTIVATIONS["tanh"], fn=counting_tanh)
        monkeypatch.setitem(models.ACTIVATIONS, "tanh", counted)
        monkeypatch.setattr(models, "gnn2_forward_pullback", counting_pass)
        monkeypatch.setattr(training, "gnn2_forward_pullback", counting_pass)
        params = init_gnn2(7, 3, InitConfig(kappa=0.8, seed=51))
        train(params, s, data, TrainConfig(eta=0.05, epochs=4), test_data=test_data)
        assert len(passes) == 2 * (4 + 1)  # train and test loss per epoch, epoch 0 included
        assert trailing and max(trailing) <= data.num_samples
        assert len(tanh_calls) == len(passes)


class TestLinearizedDynamics:
    def test_zero_initial_residual_stays_zero(self):
        theta = np.eye(4)
        y = np.ones(4)
        out = linearized_dynamics(theta, y, y.copy(), eta=0.3, epochs=10)
        assert np.all(out.residual_norms == 0.0)

    def test_identity_kernel_halves_residual(self):
        theta = np.eye(3)
        out = linearized_dynamics(theta, np.zeros(3), np.ones(3), eta=0.5, epochs=6)
        expected = math.sqrt(3.0) * 0.5 ** np.arange(7)
        assert np.allclose(out.residual_norms, expected, rtol=1e-12)
        assert out.convergent
        assert out.eta_lambda_max == pytest.approx(0.5)

    def test_flags_nonconvergent_rate(self):
        theta = 6.0 * np.eye(2)
        out = linearized_dynamics(theta, np.zeros(2), np.ones(2), eta=0.5, epochs=4)
        assert not out.convergent
        # factor 1 - eta*lambda = -2, so the norm doubles each step
        assert out.residual_norms[-1] == pytest.approx(16.0 * out.residual_norms[0])

    def test_rate_past_one_still_converges(self):
        # factor 1 - eta*lambda = -0.5: the residual flips sign and halves each step
        out = linearized_dynamics(3.0 * np.eye(2), np.zeros(2), np.ones(2), eta=0.5, epochs=6)
        assert np.allclose(out.residual_norms, math.sqrt(2.0) * 0.5 ** np.arange(7), rtol=1e-12)
        assert out.eta_lambda_max == 1.5
        assert out.convergent

    def test_rate_two_keeps_norms_constant(self):
        # factor 1 - eta*lambda = -1: the residual flips sign and keeps its norm
        out = linearized_dynamics(4.0 * np.eye(2), np.zeros(2), np.ones(2), eta=0.5, epochs=6)
        assert np.allclose(out.residual_norms, math.sqrt(2.0), rtol=1e-12)
        assert out.eta_lambda_max == 2.0
        assert not out.convergent

    def test_null_space_part_stays_constant(self):
        # the identity kernel's null space within R^3 is the last axis: that part never moves
        theta = NtkMatrix(np.eye(3)[:, :2], NtkKind.EMPIRICAL, factored=True)
        r0 = np.array([1.0, 1.0, 2.0])
        out = linearized_dynamics(theta, np.zeros(3), r0, eta=0.5, epochs=4)
        expected = np.sqrt(2.0 * 0.25 ** np.arange(5) + 4.0)
        assert np.allclose(out.residual_norms, expected, rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_taps=st.integers(1, 4),
        eta_frac=st.floats(0.1, 0.95),
    )
    def test_filter_gd_trace_matches_linearized_prediction(self, seed, num_taps, eta_frac):
        # graph filters are linear in their taps, so the match is exact
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        s = random_shift(rng, n)
        data = random_dataset(rng, n, m)
        theta = filter_ntk(s, data.x, num_taps)
        eta = eta_frac / max(theta.operator_norm, 1e-12)
        params0 = init_filter(num_taps, InitConfig(kappa=0.8, seed=seed))
        trace = train(params0, s, data, TrainConfig(eta=eta, epochs=30))
        observed = np.sqrt(2.0 * trace.train_losses)
        f0 = filter_forward(s, params0, data.x)
        pred = linearized_dynamics(theta, data.y, f0, eta, 30).residual_norms
        assert np.allclose(observed, pred, rtol=1e-8, atol=1e-10)


class TestFactoredKernelOracle:
    """The dense kernel NtkMatrix(F F') is the oracle for the factored one."""

    def test_pinv_and_dynamics_match_dense_kernel(self, kernel_factor):
        f = kernel_factor
        factored = NtkMatrix(f, NtkKind.EMPIRICAL, factored=True)
        dense = NtkMatrix(f @ f.T, NtkKind.EMPIRICAL)
        rng = np.random.default_rng(8)
        y, f0 = rng.standard_normal((2, f.shape[0]))
        assert pinv_quadratic(factored, y) == pytest.approx(pinv_quadratic(dense, y), rel=1e-10)
        assert predicted_param_movement(factored, y) == pytest.approx(
            predicted_param_movement(dense, y), rel=1e-10
        )
        eta = 1.5 / dense.operator_norm if dense.operator_norm > 0 else 0.3
        got = linearized_dynamics(factored, y, f0, eta, 12)
        want = linearized_dynamics(dense, y, f0, eta, 12)
        np.testing.assert_allclose(got.residual_norms, want.residual_norms, rtol=1e-10)
        assert got.eta_lambda_max == pytest.approx(want.eta_lambda_max, rel=1e-10)
        assert got.convergent == want.convergent

    @pytest.mark.parametrize("n, m, num_taps", [(5, 3, 2), (4, 2, 3), (2, 1, 3), (3, 1, 4)])
    def test_generalization_bound_matches_dense_kernel(self, n, m, num_taps, monkeypatch):
        rng = np.random.default_rng(n * 100 + m * 10 + num_taps)
        s = random_shift(rng, n)
        data = random_dataset(rng, n, m)
        cfg = TrainConfig(eta=0.1, epochs=1)
        got = generalization_bound(s, data, num_taps, cfg).to_dict()
        factored = training.filter_ntk
        monkeypatch.setattr(
            training,
            "filter_ntk",
            lambda *args: NtkMatrix(factored(*args).matrix, NtkKind.FILTER_ANALYTIC),
        )
        want = generalization_bound(s, data, num_taps, cfg).to_dict()
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-10), key


class TestTrainingSandwich:
    def test_sweep_has_no_violations(self):
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
                epochs=100,
                kappa=kappa_for_budget(0.01, 0.05, n, m),
                seed=seed,
            )
            check = check_training_sandwich(s, data, num_taps, cfg)
            assert check.passed, f"seed {seed}: violations at {check.violation_epochs}"

    def test_rank_one_kernel_touches_upper_bound_at_critical_rate(self):
        # K = 1 makes the kernel rank one; eta = 1/lambda zeroes both the
        # one-step residual and the upper bound
        rng = np.random.default_rng(20)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 2))
        data = Dataset(x, x.copy()).normalized()
        theta = filter_ntk(s, data.x, 1)
        lam = theta.operator_norm
        cfg = TrainConfig(eta=1.0 / lam, epochs=3, kappa=1e-9, seed=21)
        check = check_training_sandwich(s, data, 1, cfg)
        assert check.passed
        assert check.upper[0] - check.slack == pytest.approx(0.0, abs=1e-10)
        assert check.observed[0] == pytest.approx(0.0, abs=1e-10)

    def test_zero_target_gives_vanishing_curves(self):
        rng = np.random.default_rng(22)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 2))
        data = Dataset(x, np.zeros_like(x)).normalized()
        cfg = TrainConfig(eta=0.5, epochs=5, kappa=1e-9, seed=23)
        check = check_training_sandwich(s, data, 2, cfg)
        assert check.passed
        assert np.max(np.abs(check.observed)) <= 1e-12
        assert np.allclose(check.upper, check.slack, atol=1e-15)
        assert np.allclose(check.lower, -check.slack, atol=1e-15)

    def test_rejects_excessive_learning_rate(self):
        rng = np.random.default_rng(24)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 2)
        theta = filter_ntk(s, data.x, 2)
        cfg = TrainConfig(eta=2.0 / theta.operator_norm, epochs=5)
        with pytest.raises(ValueError, match="regime"):
            check_training_sandwich(s, data, 2, cfg)

    def test_requires_full_batch_gd(self):
        rng = np.random.default_rng(25)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 2)
        with pytest.raises(ValueError, match="full-batch"):
            check_training_sandwich(
                s, data, 2, TrainConfig(eta=0.01, epochs=5, optimizer="adam")
            )
        with pytest.raises(ValueError, match="full-batch"):
            check_training_sandwich(
                s, data, 2, TrainConfig(eta=0.01, epochs=5, batch_size=1)
            )

    def test_vacuous_lower_epochs_are_not_violations(self):
        # at large t the linear-in-t lower bound goes negative while the
        # observed squared residual stays nonnegative
        rng = np.random.default_rng(26)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 2)
        theta = filter_ntk(s, data.x, 2)
        cfg = TrainConfig(
            eta=0.9 / theta.operator_norm,
            epochs=400,
            kappa=kappa_for_budget(0.01, 0.05, 4, 2),
            seed=27,
        )
        check = check_training_sandwich(s, data, 2, cfg)
        assert check.lower[-1] < 0
        assert check.passed


class TestParameterMovement:
    def test_null_space_target_moves_nothing(self):
        theta = np.diag([1.0, 0.0])
        assert predicted_param_movement(theta, np.array([0.0, 3.0])) == 0.0

    def test_identity_kernel_moves_by_target_norm(self):
        y = np.array([3.0, 4.0])
        assert predicted_param_movement(np.eye(2), y) == pytest.approx(5.0)

    def test_zero_kernel_gives_zero(self):
        assert pinv_quadratic(np.zeros((3, 3)), np.ones(3)) == 0.0

    def test_trained_filters_match_prediction_within_tolerance(self):
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
            eta = 1.0 / lam_max
            epochs = int(math.ceil(12.0 * lam_max / positive[0]))
            kappa = 1e-7
            cfg = TrainConfig(eta=eta, epochs=epochs, kappa=kappa, seed=seed)
            trace = train(init_filter(2, InitConfig(kappa, seed)), s, data, cfg)
            predicted = predicted_param_movement(theta, stack(data.y))
            slack = slack_from_kappa(kappa, cfg.delta_budget, 5, 2)
            observed = trace.param_movement[-1]
            assert abs(observed - predicted) <= 0.05 * predicted + slack, (
                f"seed {seed}: observed {observed}, predicted {predicted}"
            )


class TestGeneralizationBound:
    def test_rank_one_kernel_collapses_sandwich(self):
        rng = np.random.default_rng(30)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 2)
        gb = generalization_bound(s, data, 1, TrainConfig(eta=0.1, epochs=1))
        assert gb.sandwich_lower == pytest.approx(gb.pinv_quadratic, rel=1e-12)
        assert gb.sandwich_upper == pytest.approx(gb.pinv_quadratic, rel=1e-12)

    def test_unit_norm_in_range_target_reduces_to_inverse_alignment(self):
        rng = np.random.default_rng(31)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 3))
        theta = filter_ntk(s, x, 2)
        y_st = theta.matrix @ rng.standard_normal(12)
        y_st /= np.linalg.norm(y_st)
        data = Dataset(x, y_st.reshape(4, 3, order="F"))
        gb = generalization_bound(s, data, 2, TrainConfig(eta=0.1, epochs=1))
        assert gb.sandwich_lower == pytest.approx(1.0 / gb.alignment, rel=1e-12)
        assert gb.sandwich_lower <= gb.pinv_quadratic * (1 + 1e-9)
        assert gb.pinv_quadratic <= gb.sandwich_upper * (1 + 1e-9)

    def test_sandwich_is_an_identity_on_random_instances(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(3, 7)), int(rng.integers(1, 4))
            num_taps = int(rng.integers(1, 4))
            s = random_shift(rng, n)
            data = random_dataset(rng, n, m)
            gb = generalization_bound(s, data, num_taps, TrainConfig(eta=0.1, epochs=1))
            assert gb.sandwich_lower <= gb.pinv_quadratic * (1 + 1e-9)
            assert gb.pinv_quadratic <= gb.sandwich_upper * (1 + 1e-9)

    def test_null_space_target_raises(self):
        rng = np.random.default_rng(32)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 2))
        theta = filter_ntk(s, x, 1)
        y_st = rng.standard_normal(8)
        evals, vecs = np.linalg.eigh(theta.matrix)
        keep = evals > 1e-10 * evals[-1]
        y_st -= vecs[:, keep] @ (vecs[:, keep].T @ y_st)
        data = Dataset(x, y_st.reshape(4, 2, order="F"))
        with pytest.raises(ValueError, match="alignment"):
            generalization_bound(s, data, 1, TrainConfig(eta=0.1, epochs=1))

    def test_default_rho_is_largest_sample_norm(self):
        rng = np.random.default_rng(33)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        gb = generalization_bound(s, data, 2, TrainConfig(eta=0.1, epochs=1))
        assert gb.rho == pytest.approx(np.linalg.norm(data.y, axis=0).max())

    def test_bound_value_sums_both_terms(self):
        rng = np.random.default_rng(34)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        gb = generalization_bound(
            s, data, 2, TrainConfig(eta=0.1, epochs=1), rho_clip=0.5, b_movement=2.0
        )
        assert gb.rho == 0.5
        assert gb.movement_bound == 2.0
        assert gb.value == pytest.approx(gb.rademacher_term + gb.concentration_term)
        assert gb.rademacher_term == pytest.approx(
            2.0 * rademacher_bound_value(s, data, 2, 2.0, 0.5)
        )


class TestRademacherBound:
    def test_zero_movement_radius_gives_zero(self):
        rng = np.random.default_rng(40)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        assert rademacher_bound_value(s, data, 2, 0.0, 1.0) == 0.0

    def test_zero_shift_single_tap_closed_form(self):
        rng = np.random.default_rng(41)
        s = ShiftOperator(np.zeros((3, 3)))
        x = rng.standard_normal((3, 4))
        data = Dataset(x, x.copy())
        max_sq = float((x * x).sum(axis=0).max())
        expected = 1.5 * 0.7 * math.sqrt(2.0 * max_sq / 4)
        assert rademacher_bound_value(s, data, 1, 1.5, 0.7) == pytest.approx(expected)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), num_taps=st.integers(1, 4))
    def test_doubling_samples_scales_by_root_two(self, seed, num_taps):
        rng = np.random.default_rng(seed)
        s = random_shift(rng, 4)
        x = rng.standard_normal((4, 3))
        single = Dataset(x, x.copy())
        doubled = Dataset(np.hstack([x, x]), np.hstack([x, x]))
        ratio = rademacher_bound_value(s, single, num_taps, 1.0, 1.0) / (
            rademacher_bound_value(s, doubled, num_taps, 1.0, 1.0)
        )
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_negative_radius_rejected(self):
        rng = np.random.default_rng(42)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        with pytest.raises(ValueError, match=">= 0"):
            rademacher_bound_value(s, data, 1, -1.0, 1.0)


class TestCompareGso:
    def test_identical_operators_give_identical_curves(self):
        rng = np.random.default_rng(50)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        cfg = TrainConfig(eta=0.05, epochs=5, kappa=0.5, seed=51)
        report = compare_gso(data, 2, cfg, [("a", s), ("b", s)], reps=3)
        assert np.array_equal(report.train_curves["a"], report.train_curves["b"])
        assert report.gap("a", "b", metric="train") == 0.0
        assert report.win_count("a", "b", metric="train") == 0

    def test_single_rep_zero_epochs_gap_is_init_loss_difference(self):
        rng = np.random.default_rng(52)
        s1 = random_shift(rng, 4)
        s2 = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        cfg = TrainConfig(eta=0.05, epochs=0, kappa=0.5, seed=53)
        report = compare_gso(data, 2, cfg, [("one", s1), ("two", s2)], reps=1)
        params = init_filter(2, InitConfig(kappa=0.5, seed=53))
        expected = half_loss(s1, params, data, filter_forward) - half_loss(
            s2, params, data, filter_forward
        )
        assert report.gap("one", "two", metric="train") == pytest.approx(expected)

    def test_duplicate_names_rejected(self):
        rng = np.random.default_rng(54)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        with pytest.raises(ValueError, match="unique"):
            compare_gso(data, 1, TrainConfig(eta=0.1, epochs=1), [("a", s), ("a", s)])

    def test_unknown_model_rejected(self):
        rng = np.random.default_rng(55)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        with pytest.raises(ValueError, match="model"):
            compare_gso(
                data, 1, TrainConfig(eta=0.1, epochs=1), [("a", s)], model="mlp"
            )

    def test_gnn_arms_track_test_losses(self):
        rng = np.random.default_rng(58)
        s = random_shift(rng, 4)
        data = random_dataset(rng, 4, 3)
        test_data = random_dataset(rng, 4, 2)
        cfg = TrainConfig(eta=0.05, epochs=3, kappa=0.5, seed=59)
        report = compare_gso(
            data, 2, cfg, [("a", s)], model="gnn2", width=4, reps=2, test_data=test_data
        )
        assert np.all(np.isfinite(report.test_curves["a"]))
        assert report.final_test("a").shape == (2,)

    def test_report_payload_is_plain_data(self):
        rng = np.random.default_rng(60)
        s = random_shift(rng, 3)
        data = random_dataset(rng, 3, 2)
        report = compare_gso(
            data, 1, TrainConfig(eta=0.05, epochs=2, seed=61), [("a", s)], reps=2
        )
        payload = report.to_dict()
        assert payload["names"] == ["a"]
        assert payload["num_reps"] == 2
        assert len(payload["mean_train_curves"]["a"]) == 3
