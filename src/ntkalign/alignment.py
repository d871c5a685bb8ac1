"""Alignment functionals, their lower bounds, and inequality checkers.

Alignment A = y~^T Theta~ y~ measures how much kernel mass sits along the
targets; larger alignment means faster kernel gradient descent and a
smaller generalization bound.  For graph filters and linear GNNs the
alignment has closed trace forms in S, X, Y, which admit Cauchy-Schwarz
lower bounds whose maximizers over a Frobenius ball are functions of the
symmetrized cross-covariance C_XY.  They are read off the tap stacks Z, Zy
of X and Y as C = Zy^T Z (K x K): A_filt = ||C[0]||^2, A_lin = ||C||_F^2.
For tanh GNNs the bounds become conditional: they hold when the linear
alignment is a large enough fraction xi of its Cauchy-Schwarz ceiling,
with constants from the Hermite expansion of tanh.

Checkers return CheckReport values rather than raising on violation, so
sweeps can count failures and record the seeds that produced them.

Two domain notes, both load-bearing.  The linear-GNN lower bound here
carries 1/K (Cauchy-Schwarz over the K^2 power-sum terms); a 1/sqrt(K)
constant is refuted by the equal-terms case where the bound must be
tight.  And the budget-to-operator-norm implication holds only for
shifts with nonnegative spectrum, so its sweep draws Gram-matrix shifts;
an indefinite shift can put far more even-power mass on a negative
eigenvalue than the squared power sum retains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import (
    Dataset,
    ShiftOperator,
    require_positive_finite,
)
from .hermite import BETA_SATURATION, ExpansionConstants, coeff_g, coeff_tau, expansion_constants
from .ntk import (  # the quadrature references stay bound here for perfbench/tracer.py
    TapStack,
    expectation_E_first_layer,
    expectation_E_first_layer_series,
    expectation_E_quadrature,
    expectation_E_series,
    expectation_info,
    filter_ntk,
    z_vectors,
)
from .shiftops import (
    constraint_lhs,
    cross_covariance_matrix,
    frobenius_budget,
    mu_from_budget,
    power_sum,
    solve_optimal_gso,
)

SWEEP_TOL = 1e-9
SIGN_ZERO_ATOL = 1e-12
TAIL_SLACK = 1e-12


def _trace_q(zy: np.ndarray, e: np.ndarray) -> float:
    """tr(Q E) with Q = Zy Zy^T left factored: sum(Zy * (E Zy))."""
    return float(np.sum(zy * (e @ zy)))


def _tap_stacks(s: ShiftOperator, data: Dataset, num_taps: int):
    """The tap stacks z of X and zy of Y, and C = Zy^T Z: C[k, k'] = tr(Y^T S^(k+k') X)."""
    z, zy = z_vectors(s, data.x, num_taps), z_vectors(s, data.y, num_taps)
    return z, zy, zy.matrix.T @ z.matrix


def alignment_filt(s: ShiftOperator, data: Dataset, num_taps: int) -> float:
    """sum_k tr(Y^T S^k X)^2 = ||C[0]||^2, without materializing the kernel."""
    c = _tap_stacks(s, data, num_taps)[2]
    return float(c[0] @ c[0])


def _multiplicities(num_taps: int) -> np.ndarray:
    # number of (k, k') pairs with k + k' = j
    j = np.arange(2 * num_taps - 1)
    return (num_taps - np.abs(j - (num_taps - 1))).astype(float)


def alignment_lin(s: ShiftOperator, data: Dataset, num_taps: int) -> float:
    """tr(Q B_lin) = ||Zy^T Z||_F^2 = ||C||_F^2."""
    c = _tap_stacks(s, data, num_taps)[2]
    return float(np.sum(c * c))


def alignment_lower_bound(s: ShiftOperator, data: Dataset, num_taps: int) -> float:
    """A_L = ((1/sqrt(K)) tr((sum_k S^k) C_XY))^2 for the unnormalised C_XY; A_L <= A_filt."""
    c = cross_covariance_matrix(data.x, data.y)
    acc = power_sum(s.matrix, num_taps)
    return float((np.sum(acc * c) / math.sqrt(num_taps)) ** 2)


def alignment_lin_lower_bound(s: ShiftOperator, data: Dataset, num_taps: int) -> float:
    """Lower bound on tr(Q B_lin) with the Cauchy-Schwarz constant 1/K.

    The double power sum has K^2 terms, so the tight constant is 1/K (the
    bound meets A_lin when all power traces coincide); at K = 1 it reduces
    to the filter bound.
    """
    c = cross_covariance_matrix(data.x, data.y)
    powers = s.powers_applied(np.eye(s.num_nodes), 2 * num_taps - 1)
    traces = np.einsum("jab,ab->j", powers, c)
    return (float(_multiplicities(num_taps) @ traces) / num_taps) ** 2


def _xi(a_lin: float, zy: np.ndarray, z: np.ndarray) -> float:
    # ||Q||_F = ||Zy^T Zy||_F and ||B_lin||_F = ||Z^T Z||_F: K x K, not nM x nM
    denom = np.linalg.norm(zy.T @ zy) * np.linalg.norm(z.T @ z)
    return 0.0 if denom == 0.0 else a_lin / denom


def xi_observed(s: ShiftOperator, data: Dataset, num_taps: int) -> float:
    """A_lin / (||Q||_F ||B_lin||_F), the measured assumption level."""
    z, zy, c = _tap_stacks(s, data, num_taps)
    return _xi(float(np.sum(c * c)), zy.matrix, z.matrix)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check: passes when lhs >= rhs - tol.

    Neither a skipped check (its assumption not met) nor a vacuous one (its
    bound asserts nothing) passes, but neither is a violation either.
    """

    name: str
    passed: bool
    lhs: float
    rhs: float
    margin: float
    skipped: bool = False
    reason: str = ""
    details: dict = field(default_factory=dict)
    vacuous: bool = False

    @property
    def verdict(self) -> str:
        """'skipped', 'vacuous', 'passed' or 'failed'."""
        if self.skipped:
            return "skipped"
        if self.vacuous:
            return "vacuous"
        return "passed" if self.passed else "failed"


def _verdict(name, lhs, rhs, **details) -> CheckReport:
    margin = lhs - rhs
    tol = SWEEP_TOL * max(1.0, abs(lhs), abs(rhs))
    return CheckReport(
        name=name,
        passed=bool(margin >= -tol),
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        details=details,
    )


def check_filter_lower_bound(s: ShiftOperator, data: Dataset, num_taps: int) -> CheckReport:
    """A_filt >= A_L."""
    return _verdict(
        "filter_lower_bound",
        alignment_filt(s, data, num_taps),
        alignment_lower_bound(s, data, num_taps),
    )


def check_linear_lower_bound(s: ShiftOperator, data: Dataset, num_taps: int) -> CheckReport:
    """A_lin >= A_L' (with the 1/K constant)."""
    return _verdict(
        "linear_lower_bound",
        alignment_lin(s, data, num_taps),
        alignment_lin_lower_bound(s, data, num_taps),
    )


def check_budget_implies_kernel_bound(
    s: ShiftOperator, data: Dataset, num_taps: int, eta: float = 1.0
) -> CheckReport:
    """Frobenius budget on sum_k S^k caps the kernel operator norm.

    Sets alpha so the budget is exactly tight for this S, then checks
    eta ||Theta~||_op <= alpha.  Needs ||x_i|| <= 1 and a shift with
    nonnegative spectrum: per eigenvalue the even-power sum is capped by
    the squared power sum only when the cross terms are nonnegative, and
    an indefinite shift with data on a negative eigenvector violates the
    conclusion outright (see the tests for a two-node example).
    """
    if data.max_column_norm > 1.0 + 1e-12:
        raise ValueError("inputs must satisfy ||x_i|| <= 1")
    lhs_budget = constraint_lhs(s, num_taps)
    alpha = eta * data.num_samples * lhs_budget**2
    theta = filter_ntk(s, data.x, num_taps)
    return _verdict(
        "budget_implies_kernel_bound",
        alpha,
        eta * theta.operator_norm,
        budget=lhs_budget,
    )


def _leading_term(z: TapStack, layer: str) -> np.ndarray:
    """B = c c' * rho, the degree-1 term of the layer's odd Mehler series.

    c is g_1(|z|) for the second layer's E and tau_0(|z|^2) |z| for the
    first layer's E1, whose B is then tau_0 tau_0' <z_a, z_b>.
    """
    norms, rho, _ = z.correlations
    c = coeff_g(1, norms) if layer == "second" else coeff_tau(0, norms**2) * norms
    return np.outer(c, c) * rho


def check_first_term_lower_bound(
    s: ShiftOperator,
    data: Dataset,
    num_taps: int,
    spectral_bound: float = 1.0,
    layer: str = "second",
) -> CheckReport:
    """tr(Q B) >= rho A_lin for the leading Hermite term B of either layer.

    The second layer's B is the degree-1 tanh term g_1 g_1' rho; the first
    layer's is the even-expansion leading term tau_0 tau_0 <z_a, z_b>.  rho
    is the squared coefficient floor over the bounded norm domain, so the
    operator norm of S must not exceed the declared spectral bound.

    B is B_lin conjugated by a diagonal D with entries in [sqrt(rho), 1],
    and pinching the quadratic form by min(D)^2 is only sound when the
    shift and signals are entrywise nonnegative (then y'Dy-type products
    are coordinatewise monotone); mixed-sign instances can dip below the
    bound and the sweeps draw from the nonnegative domain accordingly.
    """
    if layer not in ("first", "second"):
        raise ValueError(f"layer must be 'first' or 'second', got {layer!r}")
    op_norm = float(np.abs(np.linalg.eigvalsh(s.matrix)).max())
    if op_norm > spectral_bound + 1e-12:
        raise ValueError(f"operator norm {op_norm:.6f} exceeds spectral bound {spectral_bound}")
    z, zy, c = _tap_stacks(s, data, num_taps)
    consts = expansion_constants(num_taps, spectral_bound)
    b = _leading_term(z, layer)
    rho = consts.rho if layer == "second" else consts.rho_first_layer
    return _verdict(
        f"first_term_lower_bound_{layer}",
        _trace_q(zy.matrix, b),
        rho * float(np.sum(c * c)),
        rho=rho,
    )


def check_series_tail_domination(z: TapStack) -> CheckReport:
    """Tail entries share the sign of the leading term and |dB| <= beta |B|.

    dB = E - B takes the whole certified series past degree 1; every tail
    term has the sign of B, so a shorter partial tail could only be
    smaller.  beta is the exact closed-form series ratio at the saturation
    limit.
    """
    b = _leading_term(z, "second")
    delta = expectation_E_series(z).matrix - b
    beta = BETA_SATURATION
    meaningful = (np.abs(b) > SIGN_ZERO_ATOL) & (np.abs(delta) > SIGN_ZERO_ATOL)
    sign_violations = int(np.count_nonzero((np.sign(b) * np.sign(delta) < 0) & meaningful))
    excess = np.abs(delta) - beta * np.abs(b) - TAIL_SLACK
    magnitude_violations = int(np.count_nonzero(excess > 0))
    worst = float(excess.max(initial=-np.inf))
    return CheckReport(
        name="series_tail_domination",
        passed=sign_violations == 0 and magnitude_violations == 0,
        lhs=0.0,
        rhs=0.0,
        margin=-worst,
        details={
            "sign_violations": sign_violations,
            "magnitude_violations": magnitude_violations,
            "worst_excess": worst,
            "beta": beta,
        },
    )


def _conditional_alignment_check(
    name: str,
    a_value: float,
    a_lin: float,
    xi_obs: float,
    gain: float,
    penalty: float,
    xi_required: float | None,
) -> CheckReport:
    if xi_required is not None:
        require_positive_finite("xi", xi_required)
    if xi_required is not None and xi_obs < xi_required:
        return CheckReport(
            name=name,
            passed=False,
            lhs=a_value,
            rhs=float("nan"),
            margin=float("nan"),
            skipped=True,
            reason=f"assumption not met: xi_observed {xi_obs:.4f} < required {xi_required:.4f}",
            details={"xi_observed": xi_obs},
        )
    xi_used = xi_required if xi_required is not None else xi_obs
    if xi_used <= 0:
        return CheckReport(
            name=name,
            passed=False,
            lhs=a_value,
            rhs=float("nan"),
            margin=float("nan"),
            skipped=True,
            reason="xi is zero; bound undefined",
            details={"xi_observed": xi_obs},
        )
    factor = gain - penalty / xi_used
    report = _verdict(name, a_value, factor * a_lin, xi_observed=xi_obs, factor=factor)
    if factor <= 0:  # xi_used <= penalty / gain: the right side is <= 0 <= A, so asserts nothing
        return replace(report, passed=False, vacuous=True)
    return report


@dataclass(frozen=True)
class AlignmentReport:
    """All alignment functionals, bounds and constants for one (S, X, Y, K).

    ``a`` and ``a_first_layer`` are tr(Q E) and tr(Q E1) for the two GNN
    layers; ``layers`` holds each expectation's diagnostics (method,
    degree, residual).  The record carries its own K and spectral bound in
    ``constants``, so the conditional checks read everything from it.
    """

    a: float
    a_filt: float
    a_lin: float
    a_lower: float
    a_lin_lower: float
    constraint_lhs: float
    budget: float
    xi_observed: float
    a_first_layer: float
    constants: ExpansionConstants
    layers: dict

    def to_dict(self) -> dict:
        c = self.constants
        return {
            **{k: v for k, v in asdict(self).items()
               if k not in ("a_first_layer", "constants", "layers")},
            "rho": c.rho,
            "rho_first_layer": c.rho_first_layer,
            "beta": c.beta,
            "beta_first_layer": c.beta_first,
            "gain_second_layer": c.gain_second_layer,
            "penalty_second_layer": c.penalty_second_layer,
            "gain_first_layer": c.gain_first_layer,
            "penalty_first_layer": c.penalty_first_layer,
            "xi_threshold_second_layer": c.xi_threshold_second_layer,
            "xi_threshold_first_layer": c.xi_threshold_first_layer,
        }


def alignment_report(
    s: ShiftOperator,
    data: Dataset,
    num_taps: int,
    eta: float = 1.0,
    alpha: float = 1.0,
    spectral_bound: float = 1.0,
) -> AlignmentReport:
    """Build z, Zy, C, E, E1 and the constants of one instance once.

    E and E1 come from the certified Hermite series; the quadrature
    references stay available as ``expectation_E_quadrature`` and
    ``expectation_E_first_layer``.  Q = Zy Zy^T and B_lin = Z Z^T are
    used only through their factors, and A_filt and A_lin through C.
    """
    budget = frobenius_budget(alpha, eta, data.num_samples)
    z, zy, c = _tap_stacks(s, data, num_taps)
    e, e1 = expectation_E_series(z), expectation_E_first_layer_series(z)
    a_lin = float(np.sum(c * c))
    return AlignmentReport(
        a=_trace_q(zy.matrix, e.matrix),
        a_first_layer=_trace_q(zy.matrix, e1.matrix),
        a_filt=float(c[0] @ c[0]),
        a_lin=a_lin,
        xi_observed=_xi(a_lin, zy.matrix, z.matrix),
        constants=expansion_constants(num_taps, spectral_bound),
        layers={"second": expectation_info(e), "first": expectation_info(e1)},
        a_lower=alignment_lower_bound(s, data, num_taps),
        a_lin_lower=alignment_lin_lower_bound(s, data, num_taps),
        constraint_lhs=constraint_lhs(s, num_taps),
        budget=budget,
    )


def check_gnn_alignment_lower_bound(
    report: AlignmentReport, xi: float | None = None
) -> CheckReport:
    """A >= (c - d/xi) A_lin for the infinite-width tanh GNN second layer.

    xi=None measures xi on the instance; a requested xi below the observed
    level skips the instance (reported, not failed).  When the factor
    c - d/xi is nonpositive the bound says nothing and the check is vacuous.
    """
    c = report.constants
    return _conditional_alignment_check(
        "gnn_alignment_lower_bound",
        report.a,
        report.a_lin,
        report.xi_observed,
        c.gain_second_layer,
        c.penalty_second_layer,
        xi,
    )


def check_first_layer_alignment_lower_bound(
    report: AlignmentReport, xi: float | None = None
) -> CheckReport:
    """First-layer analog with tau-based constants."""
    c = report.constants
    return _conditional_alignment_check(
        "first_layer_alignment_lower_bound",
        report.a_first_layer,
        report.a_lin,
        report.xi_observed,
        c.gain_first_layer,
        c.penalty_first_layer,
        xi,
    )


def random_instance(
    seed: int,
    max_nodes: int = 8,
    max_samples: int = 6,
    max_taps: int = 4,
    spectrum: str = "any",
    entries: str = "any",
):
    """Normalized random instance: unit-Frobenius GOE shift, unit-ball data.

    ``spectrum='nonnegative'`` draws a Gram-matrix shift, for checks whose
    derivation needs a PSD operator.  ``entries='nonnegative'`` makes the
    shift and both signal blocks entrywise nonnegative (adjacency-like),
    the domain on which the diagonal-rescaling sandwich behind the
    first-term bound actually holds.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_samples + 1))
    num_taps = int(rng.integers(1, max_taps + 1))
    a = rng.standard_normal((n, n))
    if spectrum == "nonnegative":
        sym = a @ a.T
    elif spectrum == "any":
        sym = (a + a.T) / 2.0
    else:
        raise ValueError(f"spectrum must be 'any' or 'nonnegative', got {spectrum!r}")
    x = rng.standard_normal((n, m))
    y = rng.standard_normal((n, m))
    if entries == "nonnegative":
        sym, x, y = np.abs(sym), np.abs(x), np.abs(y)
    elif entries != "any":
        raise ValueError(f"entries must be 'any' or 'nonnegative', got {entries!r}")
    s = ShiftOperator(sym).normalized()
    return s, Dataset(x, y).normalized(), num_taps


def planted_instance(seed: int, max_nodes: int = 8, max_samples: int = 6, max_taps: int = 3):
    """High-alignment instance: targets are a noise-free filter output."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_samples + 1))
    num_taps = int(rng.integers(1, max_taps + 1))
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2.0
    s = ShiftOperator(sym).normalized()
    x = rng.standard_normal((n, m))
    x = x / np.abs(np.linalg.norm(x, axis=0)).max()
    y = s.powers_applied(x, num_taps).sum(axis=0)  # all-ones taps
    return s, Dataset(x, y).normalized(), num_taps


@dataclass(frozen=True)
class SweepResult:
    name: str
    num_instances: int
    violations: int
    skipped: int
    vacuous: int
    worst_margin: float
    failing_seeds: tuple

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "failing_seeds": list(self.failing_seeds)}


def _sweep(name, reports, seeds) -> SweepResult:
    violations, skipped, vacuous, failing = 0, 0, 0, []
    worst = math.inf
    for seed, report in zip(seeds, reports):
        if report.skipped:
            skipped += 1
            continue
        if math.isfinite(report.margin):
            worst = min(worst, report.margin)
        if report.vacuous:
            vacuous += 1
        elif not report.passed:
            violations += 1
            failing.append(seed)
    return SweepResult(
        name=name,
        num_instances=len(seeds),
        violations=violations,
        skipped=skipped,
        vacuous=vacuous,
        worst_margin=worst if math.isfinite(worst) else float("nan"),
        failing_seeds=tuple(failing),
    )


_nonnegative_entries = functools.partial(random_instance, entries="nonnegative")

# sweep name -> (instance builder: seed -> (s, data, num_taps), check of that instance);
# the first five, the unconditional inequalities, are the default sweeps
SWEEP_CHECKS = {
    "filter_lower_bound": (random_instance, check_filter_lower_bound),
    "linear_lower_bound": (random_instance, check_linear_lower_bound),
    "budget_implies_kernel_bound": (functools.partial(random_instance, spectrum="nonnegative"),
                                    check_budget_implies_kernel_bound),
    "first_term_lower_bound": (_nonnegative_entries, check_first_term_lower_bound),
    "series_tail_domination": (random_instance, lambda s, data, num_taps:
                               check_series_tail_domination(z_vectors(s, data.x, num_taps))),
    "first_term_lower_bound_first_layer": (
        _nonnegative_entries, functools.partial(check_first_term_lower_bound, layer="first")),
    "gnn_alignment_lower_bound": (
        planted_instance, lambda *inst: check_gnn_alignment_lower_bound(alignment_report(*inst))),
    "first_layer_alignment_lower_bound": (
        planted_instance,
        lambda *inst: check_first_layer_alignment_lower_bound(alignment_report(*inst))),
}
DEFAULT_SWEEP_CHECKS = tuple(SWEEP_CHECKS)[:5]


def check_names(names) -> tuple:
    """``names`` as a tuple of SWEEP_CHECKS keys; ValueError names the first unknown one."""
    names = tuple(names)
    for name in names:
        if name not in SWEEP_CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(SWEEP_CHECKS)}")
    return names


def _run_check(name: str, seed: int) -> CheckReport:
    build, check = SWEEP_CHECKS[name]
    return check(*build(seed))


def run_inequality_sweeps(
    num_instances: int = 500,
    base_seed: int = 0,
    checks=DEFAULT_SWEEP_CHECKS,
) -> dict:
    """Run each named check over fresh random instances; count violations.

    Deterministic given base_seed: instances are pure functions of their
    seed.  Every name is checked against SWEEP_CHECKS before any sweep runs.
    """
    checks = check_names(checks)
    results = {}
    for name in checks:
        seeds = [base_seed + i for i in range(num_instances)]
        reports = [_run_check(name, sd) for sd in seeds]
        results[name] = _sweep(name, reports, seeds)
    return results


@dataclass(frozen=True)
class OptimalitySweepResult:
    num_instances: int
    best_value: float
    max_excess: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def optimality_sweep(
    num_instances: int = 1000,
    seed: int = 0,
    num_taps: int = 2,
    max_nodes: int = 8,
    max_samples: int = 6,
    alpha: float = 1.0,
    eta: float = 1.0,
) -> OptimalitySweepResult:
    """No boundary-feasible S beats the closed-form optimum of A_L.

    Draws random symmetric S, rescales sum_k S^k onto the Frobenius budget
    sphere, and compares A_L against the solution of sum_k (S*)^k = mu C.
    Exact for K = 2, where the power sum is affine in S.
    """
    if num_taps != 2:
        raise ValueError("boundary rescaling is exact only for K = 2")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_samples + 1))
    data = Dataset(rng.standard_normal((n, m)), rng.standard_normal((n, m))).normalized()
    c = cross_covariance_matrix(data.x, data.y)
    budget = frobenius_budget(alpha, eta, m)
    s_star = solve_optimal_gso(c, num_taps, mu_from_budget(alpha, eta, m, np.linalg.norm(c)))
    best = alignment_lower_bound(s_star.operator, data, num_taps)
    max_excess = -math.inf
    for _ in range(num_instances):
        a = rng.standard_normal((n, n))
        t = np.eye(n) + (a + a.T) / 2.0
        t *= budget / np.linalg.norm(t)
        candidate = ShiftOperator(t - np.eye(n))
        value = alignment_lower_bound(candidate, data, num_taps)
        max_excess = max(max_excess, value - best)
    return OptimalitySweepResult(
        num_instances=num_instances,
        best_value=best,
        max_excess=max_excess,
        passed=max_excess <= SWEEP_TOL,
    )
