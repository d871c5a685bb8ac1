"""Alignment functionals, their lower bounds, and inequality checkers.

Alignment A = y~^T Theta~ y~ measures how much kernel mass sits along the
targets; larger alignment means faster kernel gradient descent and a
smaller generalization bound.  For graph filters and linear GNNs the
alignment has closed trace forms in S, X, Y, which admit Cauchy-Schwarz
lower bounds whose maximizers over a Frobenius ball are functions of the
symmetrized cross-covariance C_XY.  They are read off the tap stacks Z, Zy
of X and Y as C = Zy^T Z (K x K): A_filt = ||C[0]||^2, A_lin = ||C||_F^2.
For tanh GNNs each layer's A = tr(Q E) is bounded below by c_data A_lin,
with a factor c_data certified on the instance itself from the degree-1
term of E's Hermite series and its truncation residual (Cauchy-Schwarz on
the rest), so the A_lin that the closed-form GSO maximizes controls A
wherever c_data > 0.

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

from .core import Dataset, ShiftOperator
from .hermite import BETA_SATURATION, ExpansionConstants, coeff_g, expansion_constants, sigma_hat
from .ntk import (  # the quadrature references stay bound here for perfbench/tracer.py
    TapStack,
    expectation_E_first_layer,
    expectation_E_quadrature,
    expectation_series,
    filter_ntk,
    z_vectors,
)
from .shiftops import (
    constraint_lhs,
    cross_covariance_matrix,
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
    """A_L' = ((1/K) tr((sum_k S^k)^2 C_XY))^2, a lower bound on tr(Q B_lin).

    (sum_k S^k)^2 is the double power sum of K^2 terms, so the tight
    Cauchy-Schwarz constant is 1/K (the bound meets A_lin when all power
    traces coincide); at K = 1 it reduces to the filter bound.
    """
    c = cross_covariance_matrix(data.x, data.y)
    p = power_sum(s.matrix, num_taps)
    return float((np.sum((p @ p) * c) / num_taps) ** 2)


def _q_norm(zy: np.ndarray) -> float:
    """||Q||_F = ||Zy^T Zy||_F: K x K, not nM x nM."""
    return float(np.linalg.norm(zy.T @ zy))


def _xi(a_lin: float, q_norm: float, z: np.ndarray) -> float:
    """A_lin / (||Q||_F ||B_lin||_F): A_lin as a fraction of its Cauchy-Schwarz ceiling."""
    denom = q_norm * np.linalg.norm(z.T @ z)  # ||B_lin||_F = ||Z^T Z||_F
    return 0.0 if denom == 0.0 else a_lin / denom


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check: passes when lhs >= rhs - tol.

    A vacuous check (its bound asserts nothing) does not pass, but it is no
    violation either.
    """

    name: str
    passed: bool
    lhs: float
    rhs: float
    margin: float
    details: dict = field(default_factory=dict)
    vacuous: bool = False

    @property
    def verdict(self) -> str:
        """'vacuous', 'passed' or 'failed'."""
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
    s: ShiftOperator, data: Dataset, num_taps: int
) -> CheckReport:
    """Frobenius budget on sum_k S^k caps the kernel operator norm.

    Sets alpha so the budget is exactly tight for this S, then checks
    ||Theta~||_op <= alpha; a learning rate would scale both sides alike.
    Needs ||x_i|| <= 1 and a shift with nonnegative spectrum: per
    eigenvalue the even-power sum is capped by the squared power sum only
    when the cross terms are nonnegative, and an indefinite shift with
    data on a negative eigenvector violates the conclusion outright (see
    the tests for a two-node example).
    """
    if data.max_column_norm > 1.0 + 1e-12:
        raise ValueError("inputs must satisfy ||x_i|| <= 1")
    lhs_budget = constraint_lhs(s, num_taps)
    alpha = data.num_samples * lhs_budget**2
    theta = filter_ntk(s, data.x, num_taps)
    return _verdict("budget_implies_kernel_bound", alpha, theta.operator_norm, budget=lhs_budget)


def _leading_term(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """B = c c' * rho, the degree-1 term of a layer's odd Mehler series.

    c is the layer's leading column, which by Stein's identity is g_1(|z|)
    for both: the first layer's tau_0(|z|^2) |z| equals it, and its B,
    tau_0 tau_0' <z_a, z_b>, is the second layer's g_1 g_1' * rho.
    """
    b = np.outer(c, c)
    b *= rho
    return b


def check_first_term_lower_bound(s: ShiftOperator, data: Dataset, num_taps: int) -> CheckReport:
    """tr(Q B) >= rho A_lin for the leading Hermite term B = g_1 g_1' * rho.

    B is the leading term of both layers (``_leading_term``), and rho the
    squared coefficient floor of both over the bounded norm domain
    |z_a|^2 <= K, taken at spectral bound 1: the operator norm of S must
    not exceed 1, and every input must satisfy ||x_i|| <= 1.

    B is B_lin conjugated by a diagonal D with entries in [sqrt(rho), 1],
    and pinching the quadratic form by min(D)^2 is only sound when the
    shift and signals are entrywise nonnegative (then y'Dy-type products
    are coordinatewise monotone); mixed-sign instances can dip below the
    bound and the sweeps draw from the nonnegative domain accordingly.
    """
    if data.max_column_norm > 1.0 + 1e-12:
        raise ValueError("inputs must satisfy ||x_i|| <= 1")
    op_norm = float(np.abs(np.linalg.eigvalsh(s.matrix)).max())
    if op_norm > 1.0 + 1e-12:
        raise ValueError(f"operator norm {op_norm:.6f} exceeds spectral bound 1")
    z, zy, c = _tap_stacks(s, data, num_taps)
    rho = sigma_hat(num_taps) ** 2
    norms, corr, _ = z.correlations
    return _verdict(
        "first_term_lower_bound",
        _trace_q(zy.matrix, _leading_term(coeff_g(1, norms), corr)),
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
    e = expectation_series(z, "second")
    b = _leading_term(e.leading, z.correlations[1])
    delta = e.matrix - b
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


@dataclass(frozen=True)
class AlignmentReport:
    """All alignment functionals, bounds and constants for one (S, X, Y, K).

    ``a`` and ``a_first_layer`` are tr(Q E) and tr(Q E1) for the two GNN
    layers, and ``c_data`` and ``c_data_first_layer`` their certified
    factors (``_layer_terms``): A >= c_data A_lin per layer.
    ``layers`` holds each expectation's diagnostics (method, degree,
    residual); ``constants`` the Hermite constants at the record's K.
    Every field is a function of (S, X, Y, K) alone.
    """

    a: float
    a_filt: float
    a_lin: float
    a_lower: float
    a_lin_lower: float
    constraint_lhs: float
    xi_observed: float
    a_first_layer: float
    c_data: float
    c_data_first_layer: float
    constants: ExpansionConstants
    layers: dict

    def to_dict(self) -> dict:
        c = self.constants
        return {
            **{k: v for k, v in asdict(self).items()
               if k not in ("constants", "layers")},
            "rho": c.rho,
            "beta": c.beta,
            "beta_first_layer": c.beta_first,
        }


def _layer_terms(z: TapStack, layer: str, zy, q_norm: float, a_lin: float):
    """A = tr(Q E), c_data and the diagnostics of one layer's series E, freed on return.

    c_data = (tr(Q B) - ||Q||_F (||E - B||_F + nM r_E)) / A_lin, with
    B = c_0 c_0' * rho the series' degree-1 term and r_E its truncation
    residual, which bounds every entry of the untruncated E minus E, so
    that difference is at most nM r_E in Frobenius norm.  By Cauchy-Schwarz
    on tr(Q (E - B)), A >= c_data A_lin for the untruncated E and for its
    truncation alike.  NaN when A_lin = 0.
    """
    e = expectation_series(z, layer)
    b = _leading_term(e.leading, z.correlations[1])
    lower = _trace_q(zy, b)
    np.subtract(e.matrix, b, out=b)
    tail = float(np.linalg.norm(b)) + b.shape[0] * e.info["truncation_residual"]
    c_data = (lower - q_norm * tail) / a_lin if a_lin > 0 else math.nan
    return _trace_q(zy, e.matrix), c_data, e.info


def alignment_report(s: ShiftOperator, data: Dataset, num_taps: int) -> AlignmentReport:
    """Build z, Zy, C, E, E1 and the constants of one instance (S, X, Y, K) once.

    E and E1 come from the certified Hermite series, one held at a time;
    the quadrature references stay available as ``expectation_E_quadrature``
    and ``expectation_E_first_layer``.  Q = Zy Zy^T and B_lin = Z Z^T are
    used only through their factors, and A_filt and A_lin through C.
    """
    z, zy, c = _tap_stacks(s, data, num_taps)
    a_lin = float(np.sum(c * c))
    q_norm = _q_norm(zy.matrix)
    (a, c_data, second), (a_first, c_data_first, first) = (
        _layer_terms(z, layer, zy.matrix, q_norm, a_lin) for layer in ("second", "first"))
    return AlignmentReport(
        a=a,
        a_first_layer=a_first,
        c_data=c_data,
        c_data_first_layer=c_data_first,
        a_filt=float(c[0] @ c[0]),
        a_lin=a_lin,
        xi_observed=_xi(a_lin, q_norm, z.matrix),
        constants=expansion_constants(num_taps),
        layers={"second": second, "first": first},
        a_lower=alignment_lower_bound(s, data, num_taps),
        a_lin_lower=alignment_lin_lower_bound(s, data, num_taps),
        constraint_lhs=constraint_lhs(s, num_taps),
    )


def _certified_check(name: str, a_value: float, c_data: float, a_lin: float) -> CheckReport:
    report = _verdict(name, a_value, c_data * a_lin, c_data=c_data)
    if not c_data > 0:  # NaN included: the right side is <= 0 <= A or undefined
        return replace(report, passed=False, vacuous=True)
    return report


def check_gnn_alignment_lower_bound(report: AlignmentReport) -> CheckReport:
    """A >= c_data A_lin for the infinite-width tanh GNN's second layer.

    It holds on every instance, so a failure is a bug; a c_data <= 0 (or
    NaN, at A_lin = 0) makes the bound vacuous.
    """
    return _certified_check("gnn_alignment_lower_bound", report.a, report.c_data, report.a_lin)


def check_first_layer_alignment_lower_bound(report: AlignmentReport) -> CheckReport:
    """A_first_layer >= c_data_first_layer A_lin, the first layer's analog."""
    return _certified_check(
        "first_layer_alignment_lower_bound",
        report.a_first_layer,
        report.c_data_first_layer,
        report.a_lin,
    )


def _draw_sizes(rng) -> tuple:
    """The sweeps' instance sizes: n in 2..8 nodes, then M in 1..6 samples."""
    return int(rng.integers(2, 9)), int(rng.integers(1, 7))


def random_instance(seed: int, spectrum: str = "any", entries: str = "any"):
    """Normalized random instance: unit-Frobenius GOE shift, unit-ball data, K in 1..4.

    ``spectrum='nonnegative'`` draws a Gram-matrix shift, for checks whose
    derivation needs a PSD operator.  ``entries='nonnegative'`` makes the
    shift and both signal blocks entrywise nonnegative (adjacency-like),
    the domain on which the diagonal-rescaling sandwich behind the
    first-term bound actually holds.
    """
    rng = np.random.default_rng(seed)
    n, m = _draw_sizes(rng)
    num_taps = int(rng.integers(1, 5))
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


def planted_instance(seed: int):
    """High-alignment instance: targets are a noise-free filter output, K in 1..3."""
    rng = np.random.default_rng(seed)
    n, m = _draw_sizes(rng)
    num_taps = int(rng.integers(1, 4))
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
    vacuous: int
    worst_margin: float
    failing_seeds: tuple

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "failing_seeds": list(self.failing_seeds)}


def _sweep(name, reports, seeds) -> SweepResult:
    violations, vacuous, failing = 0, 0, []
    worst = math.inf
    for seed, report in zip(seeds, reports):
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
        vacuous=vacuous,
        worst_margin=worst if math.isfinite(worst) else float("nan"),
        failing_seeds=tuple(failing),
    )


# sweep name -> (instance builder: seed -> (s, data, num_taps), check of that instance);
# the first five are the default sweeps
SWEEP_CHECKS = {
    "filter_lower_bound": (random_instance, check_filter_lower_bound),
    "linear_lower_bound": (random_instance, check_linear_lower_bound),
    "budget_implies_kernel_bound": (functools.partial(random_instance, spectrum="nonnegative"),
                                    check_budget_implies_kernel_bound),
    "first_term_lower_bound": (functools.partial(random_instance, entries="nonnegative"),
                               check_first_term_lower_bound),
    "series_tail_domination": (random_instance, lambda s, data, num_taps:
                               check_series_tail_domination(z_vectors(s, data.x, num_taps))),
    "gnn_alignment_lower_bound": (
        planted_instance, lambda *inst: check_gnn_alignment_lower_bound(alignment_report(*inst))),
    "first_layer_alignment_lower_bound": (
        planted_instance,
        lambda *inst: check_first_layer_alignment_lower_bound(alignment_report(*inst))),
}
DEFAULT_SWEEP_CHECKS = tuple(SWEEP_CHECKS)[:5]


def check_names(names) -> tuple:
    """``names`` as a tuple of distinct SWEEP_CHECKS keys; ValueError names the
    first unknown or repeated one."""
    names = tuple(names)
    for i, name in enumerate(names):
        if name not in SWEEP_CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(SWEEP_CHECKS)}")
        if name in names[:i]:
            raise ValueError(f"check {name!r} is named twice")
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


def optimality_sweep(num_instances: int = 1000, seed: int = 0) -> OptimalitySweepResult:
    """No boundary-feasible S beats the closed-form optimum of A_L at K = 2.

    Draws random symmetric S, rescales sum_k S^k onto the Frobenius budget
    sphere of radius sqrt(1 / M), and compares A_L against the solution of
    sum_k (S*)^k = mu C.  K is fixed at 2, where the power sum I + S is
    affine in S and the rescaling lands exactly on the boundary.  A_L is
    homogeneous of degree 2 in the budget, so every budget gives this verdict.
    """
    num_taps = 2
    rng = np.random.default_rng(seed)
    n, m = _draw_sizes(rng)
    data = Dataset(rng.standard_normal((n, m)), rng.standard_normal((n, m))).normalized()
    c = ShiftOperator(cross_covariance_matrix(data.x, data.y))
    budget = math.sqrt(1.0 / m)  # sqrt(alpha / (eta M)) at alpha = eta = 1
    mu = mu_from_budget(1.0, 1.0, m, np.linalg.norm(c.matrix))  # budget / ||C||_F
    s_star = solve_optimal_gso(c, num_taps, mu)
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
