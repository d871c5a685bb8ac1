"""Gradient-descent training and kernel-regime bound checks.

Training is plain full-batch (or minibatch/Adam) gradient descent on the
squared loss, tracked per epoch.  Because graph filters are linear in
their taps, their Jacobian Z = [S^k x]_k does not depend on the taps:
training builds it once per run and takes each step from two thin
products with it.  For the same reason a filter's gradient-descent trace
is reproduced exactly by the constant-kernel dynamics
r_{t+1} = (I - eta Theta~) r_t with Theta~ = Z Z', which is what the
sandwich check, the parameter-movement prediction, and the
generalization bound all lean on.

The generalization sandwich is evaluated with the target projected onto
the kernel's range.  The unprojected form is not an identity: a filter
kernel has rank at most K, and any null-space component of the target
breaks the lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DIVERGENCE_FACTOR,
    Dataset,
    DivergenceError,
    NtkMatrix,
    ShiftOperator,
    as_stacked,
    stack,
)
from .models import (
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
    unflatten_params,
)
from .ntk import filter_ntk

PINV_RTOL = 1e-10
DEFAULT_SLACK_FACTOR = 10.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings plus the probabilistic-bound budgets.

    ``eps_budget`` and ``delta_budget`` parameterize the kernel-regime
    slack: an initialization scale kappa = eps sqrt(delta/(nM)) keeps the
    finite-width deviation terms O(eps) with probability 1 - delta.
    """

    eta: float
    epochs: int
    batch_size: int = 0
    optimizer: str = "gd"
    kappa: float = 1.0
    seed: int = 0
    eps_budget: float = 0.01
    delta_budget: float = 0.05

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"optimizer must be 'gd' or 'adam', got {self.optimizer!r}")
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.eps_budget <= 0 or self.delta_budget <= 0:
            raise ValueError("budgets must be > 0")


def kappa_for_budget(eps: float, delta: float, num_nodes: int, num_samples: int) -> float:
    """Initialization scale at which the kernel-regime slack stays O(eps)."""
    return eps * math.sqrt(delta / (num_nodes * num_samples))


def slack_from_kappa(
    kappa: float,
    delta: float,
    num_nodes: int,
    num_samples: int,
    c_slack: float = DEFAULT_SLACK_FACTOR,
) -> float:
    """c_slack * eps with eps recovered from kappa; the bounds hide constants."""
    return c_slack * kappa * math.sqrt(num_nodes * num_samples / delta)


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch record, epoch 0 (initialization) included.

    ``train_losses`` holds (1/2) sum_i ||f(x_i) - y_i||^2; ``test_losses``
    is NaN-filled when no test split was given.
    """

    train_losses: np.ndarray
    test_losses: np.ndarray
    param_movement: np.ndarray
    final_params: object

    def __post_init__(self):
        sizes = {len(self.train_losses), len(self.test_losses), len(self.param_movement)}
        if len(sizes) != 1:
            raise ValueError("trace arrays must share length epochs + 1")

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses) - 1


def _forward(s: ShiftOperator, params, x: np.ndarray) -> np.ndarray:
    if isinstance(params, FilterParams):
        return filter_forward(s, params, x)
    if isinstance(params, TwoLayerGnnParams):
        return gnn2_forward(s, params, x)
    raise TypeError(f"cannot train parameters of type {type(params).__name__}")


def _training_pass(s: ShiftOperator, model, data: Dataset):
    """The training split's pass: (params, idx) -> (residual, pullback r -> J' r).

    ``idx`` picks a minibatch of samples (None: all of them); the pullback
    is flat in flatten_params order.  A graph filter is linear in its taps,
    so its Jacobian Z = [S^k x]_k is built once here: a step's residual is
    Z taps - y and its pullback Z' r, and a minibatch takes its samples'
    rows of Z.  A GNN takes one fused gnn2_forward_pullback pass.
    """
    if isinstance(model, FilterParams):
        num_taps = model.num_taps
        z = filter_jacobian(s, data.x, num_taps).reshape(data.num_samples, -1, num_taps)
        y = stack(data.y).reshape(data.num_samples, -1)  # both sample-major

        def filter_pass(params, idx):
            zb = (z if idx is None else z[idx]).reshape(-1, num_taps)
            yb = (y if idx is None else y[idx]).ravel()
            return zb @ params.taps - yb, lambda r: zb.T @ r

        return filter_pass
    if isinstance(model, TwoLayerGnnParams):

        def gnn_pass(params, idx):
            x, y = (data.x, data.y) if idx is None else (data.x[:, idx], data.y[:, idx])
            out, pullback = gnn2_forward_pullback(s, params, x)
            return out - y, pullback

        return gnn_pass
    raise TypeError(f"cannot train parameters of type {type(model).__name__}")


def _half_squared_loss(s, params, data: Dataset) -> float:
    resid = _forward(s, params, data.x) - data.y
    return 0.5 * float(np.sum(resid * resid))


def _descent(model, s: ShiftOperator, data: Dataset, cfg: TrainConfig):
    """Gradient-descent iterates from ``model``: yields (epoch, params, flat, loss).

    Epochs run 0 (the initialization) to cfg.epochs, each with its train
    loss; ``flat`` is updated in place by the next step.  Full-batch when
    batch_size is 0, otherwise seeded shuffled minibatches.  Each step's
    gradient is the pullback of the residual, J' r, from the same
    ``_training_pass`` call that computed the residual: two thin products
    with a graph filter's Jacobian Z, built once per call, or one fused
    GNN pass.  In full-batch mode the pass that gives an epoch's train
    loss also gives the next epoch's residual and pullback.  Raises
    DivergenceError when a train loss exceeds 10^6 times the initial one
    (floored at 1e-12) or stops being finite.
    """
    flat = flatten_params(model).copy()
    params = model
    training_pass = _training_pass(s, model, data)
    resid, pullback = training_pass(params, None)
    loss = 0.5 * float(np.sum(resid * resid))
    loss_ceiling = DIVERGENCE_FACTOR * max(loss, 1e-12)
    yield 0, params, flat, loss

    rng = np.random.default_rng(cfg.seed)
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)
    adam_steps = 0

    for epoch in range(1, cfg.epochs + 1):
        if cfg.batch_size == 0:
            batches = [None]  # the full batch: its residual and pullback are at hand
        else:
            order = rng.permutation(data.num_samples)
            batches = [
                order[i : i + cfg.batch_size]
                for i in range(0, data.num_samples, cfg.batch_size)
            ]
        for idx in batches:
            if idx is not None:
                resid, pullback = training_pass(params, idx)
            grad = pullback(resid)
            if cfg.optimizer == "gd":
                flat -= cfg.eta * grad
            else:
                adam_steps += 1
                adam_m = ADAM_BETA1 * adam_m + (1.0 - ADAM_BETA1) * grad
                adam_v = ADAM_BETA2 * adam_v + (1.0 - ADAM_BETA2) * grad * grad
                m_hat = adam_m / (1.0 - ADAM_BETA1**adam_steps)
                v_hat = adam_v / (1.0 - ADAM_BETA2**adam_steps)
                flat -= cfg.eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            params = unflatten_params(flat, model)

        resid, pullback = training_pass(params, None)
        loss = 0.5 * float(np.sum(resid * resid))
        if not math.isfinite(loss) or loss > loss_ceiling:
            raise DivergenceError(epoch, loss)
        yield epoch, params, flat, loss


def train(model, s: ShiftOperator, data: Dataset, cfg: TrainConfig, test_data: Dataset | None = None) -> TrainTrace:
    """Gradient descent from the given parameters; deterministic per config.

    Records ``_descent``'s losses and parameter movement per epoch, and the
    test loss when a test split is given.  Raises DivergenceError when the
    train loss exceeds 10^6 times its initial value (or stops being finite).
    """
    flat0 = flatten_params(model)
    train_losses = np.empty(cfg.epochs + 1)
    test_losses = np.full(cfg.epochs + 1, np.nan)
    movement = np.zeros(cfg.epochs + 1)
    for epoch, params, flat, loss in _descent(model, s, data, cfg):
        train_losses[epoch] = loss
        movement[epoch] = float(np.linalg.norm(flat - flat0))
        if test_data is not None:
            test_losses[epoch] = _half_squared_loss(s, params, test_data)
    return TrainTrace(
        train_losses=train_losses,
        test_losses=test_losses,
        param_movement=movement,
        final_params=params,
    )


@dataclass(frozen=True)
class DriftPoint:
    width: int
    drift: float


def ntk_drift(
    s: ShiftOperator,
    data: Dataset,
    num_taps: int,
    widths,
    eta: float,
    num_steps: int,
    seed: int,
    activation: str = "tanh",
    kappa: float = 1.0,
) -> tuple[DriftPoint, ...]:
    """Largest relative two-layer-GNN NTK movement during a short GD run.

    For each width F, runs ``_descent`` (full-batch GD on the squared loss,
    ``TrainConfig(eta, num_steps, kappa=kappa, seed=seed)``) and reports
    max_t ||Theta_t - Theta_0||_F / ||Theta_0||_F with Theta_t = J_t J_t'
    over steps t = 0..num_steps; wider GNNs should drift less.  (A graph
    filter's NTK is parameter-free, so it cannot drift.)  Divergence is
    ``train``'s rule: DivergenceError when a post-step loss, checked
    through the last step, exceeds 10^6 times the initial loss floored at
    1e-12.  (A separate loop here once checked only the pre-step losses of
    steps 0..num_steps-1, with the floor at 1e-300.)  eta <= 0 raises
    ValueError.
    """
    cfg = TrainConfig(eta, num_steps, kappa=kappa, seed=seed)
    out = []
    for width in widths:
        model = init_gnn2(int(width), num_taps, InitConfig(kappa=kappa, seed=seed), activation)
        drift = 0.0
        for step, params, _, _ in _descent(model, s, data, cfg):
            jac = gnn2_jacobian(s, params, data.x)
            theta = jac @ jac.T
            if step == 0:
                theta0, norm0 = theta, np.linalg.norm(theta)
            else:
                drift = max(drift, float(np.linalg.norm(theta - theta0) / norm0))
        out.append(DriftPoint(width=int(width), drift=drift))
    return tuple(out)


def _eigenpairs(theta):
    """An NtkMatrix's cached eigenpairs, or those of a raw kernel array."""
    if isinstance(theta, NtkMatrix):
        return theta.eigenpairs
    return np.linalg.eigh(np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class LinearizedDynamics:
    """Residual norms under constant-kernel dynamics; epoch 0 included."""

    residual_norms: np.ndarray
    convergent: bool
    eta_lambda_max: float


def linearized_dynamics(theta, y, f0, eta: float, epochs: int) -> LinearizedDynamics:
    """||(I - eta Theta~)^t (f0 - y)|| per epoch, from the kernel's eigenpairs.

    The part of f0 - y outside the eigenvectors' span (for a factored
    kernel, the null space) is unchanged by every step.  ``convergent`` is
    True when eta lambda_max < 2, where every eigendirection contracts
    (|1 - eta lambda| < 1); at 2 the top direction keeps its norm and past
    it the norms grow.  They are returned either way so callers can
    inspect the regime.
    """
    evals, vecs = _eigenpairs(theta)
    r0 = as_stacked(f0) - as_stacked(y)
    coeffs = vecs.T @ r0
    outside = r0 - vecs @ coeffs
    outside_sq = float(outside @ outside)
    factors = 1.0 - eta * evals
    norms = np.empty(epochs + 1)
    scaled = coeffs.copy()
    norms[0] = math.sqrt(float(scaled @ scaled) + outside_sq)
    for t in range(1, epochs + 1):
        scaled = scaled * factors
        norms[t] = math.sqrt(float(scaled @ scaled) + outside_sq)
    lam_max = float(evals.max(initial=0.0))
    return LinearizedDynamics(
        residual_norms=norms,
        convergent=bool(eta * lam_max < 2.0),
        eta_lambda_max=eta * lam_max,
    )


@dataclass(frozen=True)
class BoundCheck:
    """Per-epoch sandwich on the squared training residual, epochs 1..T.

    A negative lower bound is vacuous (the residual is nonnegative) and
    cannot register as a violation; it is reported as computed.
    """

    lower: np.ndarray
    observed: np.ndarray
    upper: np.ndarray
    slack: float
    violation_epochs: tuple

    @property
    def passed(self) -> bool:
        return not self.violation_epochs


def check_training_sandwich(
    s: ShiftOperator,
    data: Dataset,
    num_taps: int,
    cfg: TrainConfig,
    c_slack: float = DEFAULT_SLACK_FACTOR,
) -> BoundCheck:
    """Constant-kernel sandwich for a trained graph filter.

    Needs exact full-batch GD and eta * lambda_max <= 1; the lower bound
    is linear in t (Bernoulli), the upper is the t-independent one-step
    contraction of the alignment.
    """
    if cfg.optimizer != "gd" or cfg.batch_size != 0:
        raise ValueError("the sandwich is stated for full-batch gradient descent")
    theta = filter_ntk(s, data.x, num_taps)
    lam_max = theta.operator_norm
    if cfg.eta * lam_max > 1.0 + 1e-12:
        raise ValueError(
            f"eta * lambda_max = {cfg.eta * lam_max:.4f} > 1; sandwich regime violated"
        )
    params0 = init_filter(num_taps, InitConfig(kappa=cfg.kappa, seed=cfg.seed))
    trace = train(params0, s, data, cfg)

    y_st = stack(data.y)
    yty = float(y_st @ y_st)
    a = theta.quadratic_form(y_st)
    slack = slack_from_kappa(cfg.kappa, cfg.delta_budget, data.num_nodes, data.num_samples, c_slack)

    t = np.arange(1, cfg.epochs + 1, dtype=float)
    lower = yty - 2.0 * t * cfg.eta * a - slack
    upper = np.full(cfg.epochs, yty - cfg.eta * a + slack)
    observed = 2.0 * trace.train_losses[1:]
    bad = np.flatnonzero((observed > upper) | (observed < lower))
    return BoundCheck(
        lower=lower,
        observed=observed,
        upper=upper,
        slack=slack,
        violation_epochs=tuple(int(b) + 1 for b in bad),
    )


def _range_coefficients(theta, y):
    """Eigenvalues above PINV_RTOL lambda_max and y's coefficients on their eigenvectors."""
    evals, vecs = _eigenpairs(theta)
    keep = evals > PINV_RTOL * max(evals.max(initial=0.0), 0.0)
    return evals[keep], vecs[:, keep].T @ as_stacked(y)


def pinv_quadratic(theta, y) -> float:
    """y~' pinv(Theta~) y~ with eigenvalues below 1e-10 lambda_max dropped."""
    evals, coeffs = _range_coefficients(theta, y)
    return float(np.sum(coeffs * coeffs / evals))


def predicted_param_movement(theta, y) -> float:
    """sqrt(y~' pinv(Theta~) y~), the kernel-regime parameter displacement."""
    return math.sqrt(pinv_quadratic(theta, y))


def rademacher_bound_value(
    s: ShiftOperator, data: Dataset, num_taps: int, b: float, rho_clip: float
) -> float:
    """B rho sqrt(2K max_{k,i} ||S^k x_i||^2 / M)."""
    if b < 0:
        raise ValueError("movement radius must be >= 0")
    powers = s.powers_applied(data.x, num_taps)  # (K, n, M)
    max_sq = float(np.max(np.sum(powers * powers, axis=1)))
    return b * rho_clip * math.sqrt(2.0 * num_taps * max_sq / data.num_samples)


@dataclass(frozen=True)
class GeneralizationBound:
    """Bound value with its two terms and the alignment sandwich.

    The sandwich brackets ``pinv_quadratic`` between ||y_r||^4 / A and
    (lambda_max / lambda_min+) ||y_r||^4 / A, where y_r is the target
    projected onto the kernel's range; with a unit-norm in-range target
    this is the plain 1/A form.
    """

    value: float
    rademacher_term: float
    concentration_term: float
    pinv_quadratic: float
    alignment: float
    sandwich_lower: float
    sandwich_upper: float
    rho: float
    movement_bound: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "rademacher_term": self.rademacher_term,
            "concentration_term": self.concentration_term,
            "pinv_quadratic": self.pinv_quadratic,
            "alignment": self.alignment,
            "sandwich_lower": self.sandwich_lower,
            "sandwich_upper": self.sandwich_upper,
            "rho": self.rho,
            "movement_bound": self.movement_bound,
        }


def generalization_bound(
    s: ShiftOperator,
    data: Dataset,
    num_taps: int,
    cfg: TrainConfig,
    rho_clip: float | None = None,
    b_movement: float | None = None,
    params=None,
) -> GeneralizationBound:
    """Generalization gap bound for graph filters, plus the 1/A sandwich.

    rho defaults to the largest per-sample residual, of the given params
    or of the zero predictor (the small-kappa anchor) when none are given.
    """
    theta = filter_ntk(s, data.x, num_taps)
    y_st = stack(data.y)
    a = theta.quadratic_form(y_st)
    scale = theta.frobenius_norm * float(y_st @ y_st)
    if a <= 1e-12 * max(scale, 1e-300):
        raise ValueError("alignment is zero; the sandwich and the bound are undefined")

    if rho_clip is None:
        preds = _forward(s, params, data.x) if params is not None else 0.0
        rho = float(np.linalg.norm(data.y - preds, axis=0).max())
    else:
        rho = float(rho_clip)

    pq = pinv_quadratic(theta, y_st)
    movement = float(b_movement) if b_movement is not None else math.sqrt(pq)
    rademacher_term = 2.0 * rademacher_bound_value(s, data, num_taps, movement, rho)
    concentration_term = 4.0 * rho**2 * math.sqrt(
        2.0 * math.log(4.0 / cfg.delta_budget) / data.num_samples
    )

    evals, coeffs = _range_coefficients(theta, y_st)
    range_sq = float(coeffs @ coeffs)
    lam_max = float(evals.max()) if evals.size else 0.0
    lam_min = float(evals.min()) if evals.size else 0.0
    return GeneralizationBound(
        value=rademacher_term + concentration_term,
        rademacher_term=rademacher_term,
        concentration_term=concentration_term,
        pinv_quadratic=pq,
        alignment=a,
        sandwich_lower=range_sq**2 / a,
        sandwich_upper=(lam_max / lam_min) * range_sq**2 / a if lam_min > 0 else math.inf,
        rho=rho,
        movement_bound=movement,
    )


@dataclass(frozen=True)
class GsoComparison:
    """Matched-seed training comparison across shift operators."""

    names: tuple
    num_reps: int
    train_curves: dict = field(default_factory=dict)  # name -> (reps, T+1)
    test_curves: dict = field(default_factory=dict)

    def mean_train_curve(self, name: str) -> np.ndarray:
        return self.train_curves[name].mean(axis=0)

    def final_train(self, name: str) -> np.ndarray:
        return self.train_curves[name][:, -1]

    def final_test(self, name: str) -> np.ndarray:
        return self.test_curves[name][:, -1]

    def win_count(self, name_a: str, name_b: str, metric: str = "test") -> int:
        """Repetitions in which ``name_a`` ends strictly below ``name_b``."""
        pick = self.final_test if metric == "test" else self.final_train
        return int(np.sum(pick(name_a) < pick(name_b)))

    def gap(self, name_a: str, name_b: str, metric: str = "test") -> float:
        pick = self.final_test if metric == "test" else self.final_train
        return float(np.mean(pick(name_a) - pick(name_b)))

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "num_reps": self.num_reps,
            "mean_train_curves": {n: self.mean_train_curve(n).tolist() for n in self.names},
            "final_train": {n: self.final_train(n).tolist() for n in self.names},
            "final_test": {n: self.final_test(n).tolist() for n in self.names},
        }


def compare_gso(
    data: Dataset,
    num_taps: int,
    cfg: TrainConfig,
    gso_list,
    model: str = "filter",
    width: int = 50,
    reps: int = 10,
    test_data: Dataset | None = None,
    activation: str = "tanh",
) -> GsoComparison:
    """Train matched models per shift operator over seeded repetitions.

    Repetition r initializes every arm from the same seed (cfg.seed + r),
    so differences come from the operator alone.  Identical operators in
    the list therefore produce identical curves.
    """
    gso_list = list(gso_list)
    names = tuple(name for name, _ in gso_list)
    if len(set(names)) != len(names):
        raise ValueError("shift-operator names must be unique")
    if model not in ("filter", "gnn2"):
        raise ValueError(f"model must be 'filter' or 'gnn2', got {model!r}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")

    train_curves = {name: np.empty((reps, cfg.epochs + 1)) for name in names}
    test_curves = {name: np.empty((reps, cfg.epochs + 1)) for name in names}
    for name, s in gso_list:
        for rep in range(reps):
            init = InitConfig(kappa=cfg.kappa, seed=cfg.seed + rep)
            if model == "filter":
                params0 = init_filter(num_taps, init)
            else:
                params0 = init_gnn2(width, num_taps, init, activation)
            trace = train(params0, s, data, cfg, test_data=test_data)
            train_curves[name][rep] = trace.train_losses
            test_curves[name][rep] = trace.test_losses
    return GsoComparison(
        names=names, num_reps=reps, train_curves=train_curves, test_curves=test_curves
    )
