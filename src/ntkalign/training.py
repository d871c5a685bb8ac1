"""Gradient-descent training and kernel-regime bound checks.

Training is plain full-batch (or minibatch/Adam) gradient descent on the
squared loss, tracked per epoch.  The tap stack [S^k x]_k does not depend
on the parameters, so each split's is built once per run (per arm in
``compare_gso``), in the calling thread, and runs only read it.  A graph
filter is linear in its taps: the stack is its Jacobian Z, whose thin QR
is taken once per split, so a full-batch run works on K Python floats (R
and c = Q'y as lists) and makes no numpy call per epoch; a minibatch step
takes its samples' rows of Z.  A two-layer GNN takes the stack's
sample-major X (K, M, n) into one fused forward-and-pullback pass per
step, on views of the flat parameter vector; the test loss takes the same
pass on the test stack.  A filter's gradient-descent trace is reproduced
exactly by the constant-kernel dynamics r_{t+1} = (I - eta Theta~) r_t
with Theta~ = Z Z', which the sandwich check and the parameter-movement
prediction lean on.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DIVERGENCE_FACTOR,
    Dataset,
    DivergenceError,
    NtkMatrix,
    ShiftOperator,
    as_stacked,
    require_positive_finite,
    stack,
)
# filter_forward, filter_jacobian and gnn2_forward stay bound here for perfbench/tracer.py
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
from .ntk import TapStack, filter_ntk, z_vectors

PINV_RTOL = 1e-10
SLACK_FACTOR = 10.0  # the constant the kernel-regime bounds hide
# the kernel-regime slack's failure probability delta: at kappa = eps sqrt(delta/(nM))
# the finite-width deviation terms stay O(eps) with probability 1 - delta
DELTA_BUDGET = 0.05
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; eta and kappa must be positive and finite."""

    eta: float
    epochs: int
    batch_size: int = 0
    optimizer: str = "gd"
    kappa: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_positive_finite("eta", self.eta)
        require_positive_finite("kappa", self.kappa)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"optimizer must be 'gd' or 'adam', got {self.optimizer!r}")


def kappa_for_budget(eps: float, delta: float, num_nodes: int, num_samples: int) -> float:
    """Initialization scale at which the kernel-regime slack stays O(eps)."""
    return eps * math.sqrt(delta / (num_nodes * num_samples))


def slack_from_kappa(kappa: float, delta: float, num_nodes: int, num_samples: int) -> float:
    """SLACK_FACTOR * eps with eps recovered from kappa."""
    return SLACK_FACTOR * kappa * math.sqrt(num_nodes * num_samples / delta)


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch record, epoch 0 (initialization) included.

    ``train_losses`` holds (1/2) sum_i ||f(x_i) - y_i||^2; ``test_losses``
    is NaN-filled when no test split was given.  ``tap_stack`` is the
    training split's stack.
    """

    train_losses: np.ndarray
    test_losses: np.ndarray
    param_movement: np.ndarray
    final_params: object
    tap_stack: TapStack | None = None

    def __post_init__(self):
        sizes = {len(self.train_losses), len(self.test_losses), len(self.param_movement)}
        if len(sizes) != 1:
            raise ValueError("trace arrays must share length epochs + 1")

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses) - 1


def _qr_pass(taps: TapStack, y: np.ndarray):
    """A graph filter's full batch on Python floats: h -> (loss, thunk of the gradient).

    ``taps`` is the split's tap stack Z and ``y`` its targets.  Set-up takes
    the thin QR Z = QR once, with c = Q'y and floor = (1/2)||y - Qc||^2, and
    keeps R and c as lists; at the taps ``h`` (K floats) the loss is
    (1/2)||R h - c||^2 + floor and the gradient R'(R h - c), a list.  Both
    are exact for any Z (a rank-deficient one too) because Q has orthonormal
    columns, and nothing of size nM is read after set-up.  (The Gram form
    (1/2)(y'y - 2b'h + h'Gh) would cancel near a good fit.)  Squares are
    x * x under a plain sum: a float overflows to inf there, where ** and
    math.fsum raise.
    """
    y = stack(y)
    q, r = np.linalg.qr(taps.matrix)
    c = q.T @ y
    floor = _half_loss(y - q @ c)
    rows, columns, c = r.tolist(), r.T.tolist(), c.tolist()

    def qr_pass(h):
        resid = [sum(map(operator.mul, row, h)) - ci for row, ci in zip(rows, c)]
        loss = 0.5 * sum(map(operator.mul, resid, resid)) + floor
        return loss, lambda: [sum(map(operator.mul, col, resid)) for col in columns]

    return qr_pass


def _training_pass(s: ShiftOperator, model, taps: TapStack, y: np.ndarray):
    """One split's pass for ``_descent``: (flat, idx) -> (loss, thunk of the flat gradient).

    ``taps`` is the split's tap stack and ``y`` its (n, M) targets; ``idx``
    picks a minibatch of samples (None: all of them) from the stack and
    from the targets' sample-major view y' (M, n).  The loss is
    (1/2)||f - y||^2 over the batch and the thunk gives J' (f - y), in
    flatten_params order.

    A graph filter's taps are ``flat`` itself.  This pass serves its
    minibatch runs: a minibatch takes its samples' rows Z_b of the stack,
    Z_b'(Z_b h - y_b), and an epoch's full-batch loss is ``_qr_pass``'s.  A
    GNN takes its samples of X (K, M, n) into one fused
    gnn2_forward_pullback pass on its layers g and h, views of ``flat``
    taken per call, with no copy and no check: non-finite taps give a
    non-finite loss, which the divergence rule reports.  The thunk reads h
    when it runs; ``_descent`` runs it before it updates ``flat`` in place,
    so the views still hold that step's taps.
    """
    targets = np.asarray(y, dtype=float).T
    if isinstance(model, FilterParams):
        full_batch = _qr_pass(taps, y)

        def filter_pass(flat, idx=None):
            if idx is None:
                return full_batch(flat.tolist())  # the loss; minibatches give the steps
            zb = taps.blocks[idx].reshape(-1, taps.num_taps)
            resid = zb @ flat - targets[idx].ravel()
            return _half_loss(resid), lambda: zb.T @ resid

        return filter_pass
    powers, layers = taps.powers, (2, *model.g.shape)

    def gnn_pass(flat, idx=None):
        xb, yb = (powers, targets) if idx is None else (powers[:, idx], targets[idx])
        out, pullback = gnn2_forward_pullback(s, *flat.reshape(layers), xb)
        resid = out - yb
        return _half_loss(resid), lambda: pullback(resid)

    return gnn_pass


def _tap_stacks(s: ShiftOperator, model, *splits):
    """The splits' tap stacks (None for None), built in the calling thread; runs only read them.

    ``model`` gives type and K; a type that cannot be trained raises TypeError first.
    """
    if not isinstance(model, (FilterParams, TwoLayerGnnParams)):
        raise TypeError(f"cannot train parameters of type {type(model).__name__}")
    return [None if split is None else z_vectors(s, split.x, model.num_taps) for split in splits]


def _run_errstate():
    """A training run's error state: steps and losses do not warn, the divergence rule reports."""
    return np.errstate(over="ignore", invalid="ignore")


def _half_loss(resid: np.ndarray) -> float:
    return 0.5 * float(np.sum(resid * resid))


def _optimizer_step(cfg: TrainConfig, grad, m, v, t: int, sqrt=np.sqrt):
    """cfg's step at gradient ``grad``: (the step to subtract, m, v).

    ``m`` and ``v`` are Adam's moment estimates before step ``t`` (from 1);
    gd returns them as given.  The arithmetic holds for an ndarray and for a
    float, so one formula serves a whole vector and each coordinate of a
    float descent, which passes ``math.sqrt`` (a float's ** 0.5 is not
    always the correctly rounded root that np.sqrt gives).
    """
    if cfg.optimizer == "gd":
        return cfg.eta * grad, m, v
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return cfg.eta * m_hat / (sqrt(v_hat) + ADAM_EPS), m, v


def _divergence_rule(loss0: float):
    """(epoch, loss) -> loss, raising DivergenceError once the loss stops
    being finite or exceeds 10^6 times ``loss0`` (floored at 1e-12)."""
    loss_ceiling = DIVERGENCE_FACTOR * max(loss0, 1e-12)

    def checked(epoch, loss):
        if not math.isfinite(loss) or loss > loss_ceiling:
            raise DivergenceError(epoch, loss)
        return loss

    return checked


def _descent(flat0: np.ndarray, training_pass, num_samples: int, cfg: TrainConfig):
    """Gradient-descent iterates from ``flat0``: yields (epoch, flat, loss).

    Epochs run 0 (the initialization) to cfg.epochs, each with its train
    loss; ``flat`` is a copy of ``flat0`` updated in place by the next
    step.  Full-batch when batch_size is 0, otherwise seeded shuffled
    minibatches of the ``num_samples`` training samples.  Each step's
    gradient comes from the same ``training_pass`` call as its loss; in
    full-batch mode the pass that gives an epoch's train loss also gives
    the next step's gradient.  Raises DivergenceError when a train loss
    exceeds 10^6 times the initial one (floored at 1e-12) or stops being
    finite.
    """
    flat = np.array(flat0, dtype=float)
    loss, gradient = training_pass(flat, None)
    checked = _divergence_rule(loss)
    yield 0, flat, loss

    rng = np.random.default_rng(cfg.seed)
    adam_m = adam_v = 0.0
    adam_steps = 0

    for epoch in range(1, cfg.epochs + 1):
        if cfg.batch_size == 0:
            batches = [None]  # the full batch: its gradient is at hand
        else:
            order = rng.permutation(num_samples)
            batches = [order[i : i + cfg.batch_size] for i in range(0, num_samples, cfg.batch_size)]
        for idx in batches:
            if idx is not None:
                gradient = training_pass(flat, idx)[1]
            adam_steps += 1
            step, adam_m, adam_v = _optimizer_step(cfg, gradient(), adam_m, adam_v, adam_steps)
            flat -= step

        loss, gradient = training_pass(flat, None)
        yield epoch, flat, checked(epoch, loss)


def _qr_descent(h0: list, qr_pass, cfg: TrainConfig):
    """``_descent``'s full batch for a graph filter on K Python floats: yields (epoch, h, loss).

    ``h`` is a copy of ``h0`` updated in place, coordinate by coordinate,
    with ``qr_pass`` giving each epoch's loss and the next step's gradient;
    no numpy call is made per epoch.  The divergence rule is ``_descent``'s.
    """
    h = list(h0)
    loss, gradient = qr_pass(h)
    checked = _divergence_rule(loss)
    yield 0, h, loss

    adam_m, adam_v = [0.0] * len(h), [0.0] * len(h)
    for epoch in range(1, cfg.epochs + 1):
        for j, grad in enumerate(gradient()):
            step, adam_m[j], adam_v[j] = _optimizer_step(
                cfg, grad, adam_m[j], adam_v[j], epoch, math.sqrt
            )
            h[j] -= step
        loss, gradient = qr_pass(h)
        yield epoch, h, checked(epoch, loss)


def train(model, s: ShiftOperator, data: Dataset, cfg: TrainConfig, test_data: Dataset | None = None) -> TrainTrace:
    """Gradient descent from the given parameters; deterministic per config.

    Records ``_descent``'s losses and parameter movement per epoch, and the
    test loss when a test split is given, each split on its own tap stack;
    the trace carries the training split's.  Raises DivergenceError when
    the train loss exceeds 10^6 times its initial value (or stops being
    finite).
    """
    splits = (data, test_data)
    return _trace(model, cfg, s, _tap_stacks(s, model, *splits), splits)


def _trace(model, cfg: TrainConfig, s: ShiftOperator, stacks, splits) -> TrainTrace:
    """``train`` on the (train, test) splits' stacks, with passes of its own (test may be None).

    A graph filter's full batch descends on K Python floats (``_qr_pass``,
    ``_qr_descent``); GNNs and minibatches on numpy vectors
    (``_training_pass``, ``_descent``).
    """
    flat0 = flatten_params(model)
    train_losses = np.empty(cfg.epochs + 1)
    test_losses = np.full(cfg.epochs + 1, np.nan)
    movement = np.zeros(cfg.epochs + 1)
    floats = isinstance(model, FilterParams) and cfg.batch_size == 0
    with _run_errstate():
        build = _qr_pass if floats else functools.partial(_training_pass, s, model)
        train_pass, test_pass = (
            None if taps is None else build(taps, split.y) for taps, split in zip(stacks, splits)
        )
        if floats:
            h0 = flat0.tolist()
            steps, distance = _qr_descent(h0, train_pass, cfg), functools.partial(math.dist, h0)
        else:
            steps = _descent(flat0, train_pass, splits[0].num_samples, cfg)

            def distance(flat):
                return float(np.linalg.norm(flat - flat0))
        for epoch, flat, loss in steps:
            train_losses[epoch] = loss
            movement[epoch] = distance(flat)
            if test_pass is not None:
                test_losses[epoch] = test_pass(flat)[0]
    return TrainTrace(
        train_losses=train_losses,
        test_losses=test_losses,
        param_movement=movement,
        final_params=unflatten_params(flat, model),
        tap_stack=stacks[0],
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
) -> tuple[DriftPoint, ...]:
    """Largest relative two-layer-GNN NTK movement during a short GD run.

    For each width F, initializes at kappa = 1, runs ``_descent``
    (full-batch GD on the squared loss, ``TrainConfig(eta, num_steps,
    seed=seed)``) and reports max_t ||Theta_t - Theta_0||_F / ||Theta_0||_F
    with Theta_t = J_t J_t' over steps t = 0..num_steps; wider GNNs should
    drift less.  (A graph filter's NTK is parameter-free, so it cannot
    drift.)  Divergence is ``train``'s rule: DivergenceError when a
    post-step loss, checked through the last step, exceeds 10^6 times the
    initial loss floored at 1e-12.  An eta that is not positive and finite
    raises ValueError.
    """
    cfg = TrainConfig(eta, num_steps, seed=seed)
    taps = z_vectors(s, data.x, num_taps)  # one tap stack serves every width
    out = []
    for width in widths:
        model = init_gnn2(int(width), num_taps, InitConfig(kappa=cfg.kappa, seed=seed))
        drift = 0.0
        training_pass = _training_pass(s, model, taps, data.y)
        steps = _descent(flatten_params(model), training_pass, data.num_samples, cfg)
        with _run_errstate():
            for step, flat, _ in steps:
                jac = gnn2_jacobian(s, unflatten_params(flat, model), data.x)
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
    slack = slack_from_kappa(cfg.kappa, DELTA_BUDGET, data.num_nodes, data.num_samples)

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


def pinv_quadratic(theta, y) -> float:
    """y~' pinv(Theta~) y~ with eigenvalues below 1e-10 lambda_max dropped."""
    evals, vecs = _eigenpairs(theta)
    keep = evals > PINV_RTOL * max(evals.max(initial=0.0), 0.0)
    coeffs = vecs[:, keep].T @ as_stacked(y)
    return float(np.sum(coeffs * coeffs / evals[keep]))


def predicted_param_movement(theta, y) -> float:
    """sqrt(y~' pinv(Theta~) y~), the kernel-regime parameter displacement."""
    return math.sqrt(pinv_quadratic(theta, y))


@dataclass(frozen=True)
class GsoComparison:
    """Matched-seed training comparison across shift operators."""

    names: tuple
    num_reps: int
    train_curves: dict = field(default_factory=dict)  # name -> (reps, T+1)
    test_curves: dict = field(default_factory=dict)

    @classmethod
    def pooled(cls, comparisons: list) -> GsoComparison:
        """One comparison whose runs are those of ``comparisons``, in order; they share arms."""
        first = comparisons[0]
        return cls(
            first.names,
            sum(c.num_reps for c in comparisons),
            {n: np.concatenate([c.train_curves[n] for c in comparisons]) for n in first.names},
            {n: np.concatenate([c.test_curves[n] for c in comparisons]) for n in first.names},
        )

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
) -> GsoComparison:
    """Train matched models per shift operator over seeded repetitions.

    Repetition r initializes every arm from the same seed (cfg.seed + r),
    so differences come from the operator alone.  Identical operators in
    the list therefore produce identical curves.  Repetitions share tap
    stacks.  The runs are dealt out to this thread and the ones it starts;
    the first error in (arm, rep) order is raised.
    """
    gso_list = list(gso_list)
    names = tuple(name for name, _ in gso_list)
    if len(set(names)) != len(names):
        raise ValueError("shift-operator names must be unique")
    if model not in ("filter", "gnn2"):
        raise ValueError(f"model must be 'filter' or 'gnn2', got {model!r}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")

    init = init_filter if model == "filter" else functools.partial(init_gnn2, width)
    models0 = [init(num_taps, InitConfig(cfg.kappa, cfg.seed + rep)) for rep in range(reps)]
    train_curves = {name: np.empty((reps, cfg.epochs + 1)) for name in names}
    test_curves = {name: np.empty((reps, cfg.epochs + 1)) for name in names}
    splits, runs = (data, test_data), {}
    for name, s in gso_list:
        stacks = _tap_stacks(s, models0[0], *splits)  # shared by every repetition
        for rep, params0 in enumerate(models0):
            runs[name, rep] = functools.partial(_trace, params0, cfg, s, stacks, splits)
    # a GNN run's time is in tanh and BLAS products, which release the GIL;
    # a filter's float epochs hold it, so a second thread only slows them
    workers = 1 if model == "filter" else min(len(runs), len(os.sched_getaffinity(0)))
    keys, outcomes = list(runs), {}

    def chunk(first):  # runs first, first + workers, ... in turn, up to the first error
        for key in keys[first::workers]:
            try:
                outcomes[key] = runs[key]()
            except Exception as exc:  # raised below, in (arm, rep) order
                outcomes[key] = exc
                return

    # each thread runs in a copy of this context: numpy's error state is a contextvar
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(chunk, i))
               for i in range(1, workers)]
    for thread in threads:
        thread.start()
    chunk(0)  # this thread takes a share: its allocator arena is warm already
    for thread in threads:
        thread.join()
    for name, rep in keys:
        trace = outcomes[name, rep]  # a run its chunk skipped comes after that chunk's error
        if isinstance(trace, Exception):
            raise trace
        train_curves[name][rep] = trace.train_losses
        test_curves[name][rep] = trace.test_losses
    return GsoComparison(
        names=names, num_reps=reps, train_curves=train_curves, test_curves=test_curves
    )
