"""Alignment functionals, their lower bounds, and inequality checkers.

Alignment A = y~^T Theta~ y~ measures how much kernel mass sits along the
targets; larger alignment means faster kernel gradient descent and a
smaller generalization bound.  For graph filters and linear GNNs the
alignment has closed trace forms in S, X, Y, which admit Cauchy-Schwarz
lower bounds whose maximizers over a Frobenius ball are functions of the
symmetrized cross-covariance C_XY.  For tanh GNNs the bounds become
conditional: they hold when the linear alignment is a large enough
fraction xi of its Cauchy-Schwarz ceiling, with constants from the
Hermite expansion of tanh.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, NtkMatrix, ShiftOperator, as_stacked
from .hermite import BETA_SATURATION, ExpansionConstants, coeff_g, coeff_tau, expansion_constants
from .ntk import (  # the quadrature references stay bound here for perfbench/tracer.py
    ZVectors,
    expectation_E_first_layer,
    expectation_E_first_layer_series,
    expectation_E_quadrature,
    expectation_E_series,
    expectation_info,
    filter_ntk,
    z_vectors,
)
from .shiftops import (
    GsoSolution,
    _checked_system,
    _gso_solution,
    constraint_lhs,
    power_sum,
    power_sum_root,
)

SWEEP_TOL = 1e-9
SIGN_ZERO_ATOL = 1e-12
TAIL_SLACK = 1e-12


class NegativeEigenvalueError(ValueError):
    """The squared power sum cannot match a negative eigenvalue."""

    def __init__(self, gamma: float):
        self.gamma = gamma
        super().__init__(f"(sum_k s^k)^2 = {gamma!r} has no real solution")


def require_positive_finite(name: str, value: float) -> None:
    """The budget and xi rule: ValueError unless ``value`` is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def symmetrized_cross_covariance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(X Y^T + Y X^T) / 2 without normalization, as the bounds use it."""
    c = x @ y.T
    return (c + c.T) / 2.0


def q_matrix(s: ShiftOperator, y: np.ndarray, num_taps: int) -> np.ndarray:
    """Q = sum_k S~^k y~ y~^T S~^k; symmetric PSD with rank at most K.

    The dense reference: the alignment terms use its factor Zy instead.
    """
    zy = z_vectors(s, np.asarray(y, dtype=float), num_taps).matrix
    return zy @ zy.T


def alignment(theta, y) -> float:
    """Quadratic form y~^T Theta~ y~; a factored kernel stays factored."""
    y_st = as_stacked(y)
    size = theta.size if isinstance(theta, NtkMatrix) else np.shape(theta)[0]
    if y_st.shape[0] != size:
        raise ValueError(f"target length {y_st.shape[0]} does not match kernel size {size}")
    if isinstance(theta, NtkMatrix):
        return theta.quadratic_form(y_st)
    return float(y_st @ (np.asarray(theta, dtype=float) @ y_st))


def _trace_q(zy: np.ndarray, e: np.ndarray) -> float:
    """tr(Q E) with Q = Zy Zy^T left factored: sum(Zy * (E Zy))."""
    return float(np.sum(zy * (e @ zy)))


def _power_traces(s: ShiftOperator, x: np.ndarray, y: np.ndarray, num_powers: int) -> np.ndarray:
    """tr(Y^T S^j X) for j = 0 .. num_powers-1."""
    powers = s.powers_applied(x, num_powers)  # (J, n, M)
    return np.einsum("nm,jnm->j", y, powers)


def alignment_filt(s: ShiftOperator, data: Dataset, num_taps: int) -> float:
    """sum_k tr(Y^T S^k X)^2 without materializing the kernel."""
    traces = _power_traces(s, data.x, data.y, num_taps)
    return float(traces @ traces)


def _multiplicities(num_taps: int) -> np.ndarray:
    # number of (k, k') pairs with k + k' = j
    j = np.arange(2 * num_taps - 1)
    return (num_taps - np.abs(j - (num_taps - 1))).astype(float)


def alignment_lin(s: ShiftOperator, data: Dataset, num_taps: int) -> float:
    """tr(Q B_lin) via the multiplicity-weighted power traces."""
    traces = _power_traces(s, data.x, data.y, 2 * num_taps - 1)
    return float(_multiplicities(num_taps) @ (traces * traces))


@dataclass(frozen=True)
class AlignmentBound:
    value: float
    c_xy: np.ndarray


def alignment_lower_bound(s: ShiftOperator, data: Dataset, num_taps: int) -> AlignmentBound:
    """A_L = ((1/sqrt(K)) tr((sum_k S^k) C_XY))^2, a lower bound on A_filt."""
    c = symmetrized_cross_covariance(data.x, data.y)
    acc = power_sum(s.matrix, num_taps)
    value = (np.sum(acc * c) / math.sqrt(num_taps)) ** 2
    return AlignmentBound(float(value), c)


def alignment_lin_lower_bound(s: ShiftOperator, data: Dataset, num_taps: int) -> AlignmentBound:
    """Lower bound on tr(Q B_lin) with the Cauchy-Schwarz constant 1/K.

    The double power sum has K^2 terms, so the tight constant is 1/K (the
    bound meets A_lin when all power traces coincide); at K = 1 it reduces
    to the filter bound.
    """
    c = symmetrized_cross_covariance(data.x, data.y)
    powers = s.powers_applied(np.eye(s.num_nodes), 2 * num_taps - 1)
    traces = np.einsum("jab,ab->j", powers, c)
    value = (float(_multiplicities(num_taps) @ traces) / num_taps) ** 2
    return AlignmentBound(float(value), c)


def _xi(a_lin: float, zy: np.ndarray, z: np.ndarray) -> float:
    # ||Q||_F = ||Zy^T Zy||_F and ||B_lin||_F = ||Z^T Z||_F: K x K, not nM x nM
    denom = np.linalg.norm(zy.T @ zy) * np.linalg.norm(z.T @ z)
    return 0.0 if denom == 0.0 else a_lin / denom


def xi_observed(s: ShiftOperator, data: Dataset, num_taps: int) -> float:
    """A_lin / (||Q||_F ||B_lin||_F), the measured assumption level."""
    return _xi(
        alignment_lin(s, data, num_taps),
        z_vectors(s, data.y, num_taps).matrix,
        z_vectors(s, data.x, num_taps).matrix,
    )


def solve_optimal_gso_linear_gnn(
    c: np.ndarray, num_taps: int, mu: float = 1.0, normalize: bool = False
) -> GsoSolution:
    """Solve (sum_k S^k)^2 = mu C for a symmetric S, per eigenvalue.

    Each eigenvalue gamma of mu C needs (sum_k s^k)^2 = gamma, so gamma
    must be nonnegative; the nonnegative square-root branch is taken and
    the scalar power-sum solve picks the smallest-magnitude real root.
    """
    c = _checked_system(c, num_taps)
    target = mu * c
    gammas, vecs = np.linalg.eigh(target)
    roots = np.empty_like(gammas)
    for i, gamma in enumerate(gammas):
        if gamma < -1e-12:
            raise NegativeEigenvalueError(float(gamma))
        roots[i] = power_sum_root(math.sqrt(max(gamma, 0.0)), num_taps)
    return _gso_solution(
        (vecs * roots) @ vecs.T, target, gammas, roots, mu, num_taps, normalize,
        lift=lambda acc: acc @ acc,
    )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check: passes when lhs >= rhs - tol."""

    name: str
    passed: bool
    lhs: float
    rhs: float
    margin: float
    skipped: bool = False
    reason: str = ""
    details: dict = field(default_factory=dict)


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
        alignment_lower_bound(s, data, num_taps).value,
    )


def check_linear_lower_bound(s: ShiftOperator, data: Dataset, num_taps: int) -> CheckReport:
    """A_lin >= A_L' (with the 1/K constant)."""
    return _verdict(
        "linear_lower_bound",
        alignment_lin(s, data, num_taps),
        alignment_lin_lower_bound(s, data, num_taps).value,
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


def _leading_term(z: ZVectors) -> np.ndarray:
    """B = g_1 g_1' * rho, the degree-1 term of the second layer's E."""
    g1 = coeff_g(1, z.norms)
    return np.outer(g1, g1) * z.correlations[1]


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
    op_norm = float(np.abs(np.linalg.eigvalsh(s.matrix)).max())
    if op_norm > spectral_bound + 1e-12:
        raise ValueError(f"operator norm {op_norm:.6f} exceeds spectral bound {spectral_bound}")
    z = z_vectors(s, data.x, num_taps)
    zy = z_vectors(s, data.y, num_taps).matrix
    consts = expansion_constants(num_taps, spectral_bound)
    if layer == "second":
        b = _leading_term(z)
        rho = consts.rho
    elif layer == "first":
        tau0 = np.asarray(coeff_tau(0, z.norms**2))
        b = np.outer(tau0, tau0) * z.gram()
        rho = consts.rho_first_layer
    else:
        raise ValueError(f"layer must be 'first' or 'second', got {layer!r}")
    return _verdict(
        f"first_term_lower_bound_{layer}",
        _trace_q(zy, b),
        rho * alignment_lin(s, data, num_taps),
        rho=rho,
    )


def check_series_tail_domination(z: ZVectors) -> CheckReport:
    """Tail entries share the sign of the leading term and |dB| <= beta |B|.

    dB = E - B takes the whole certified series past degree 1; every tail
    term has the sign of B, so a shorter partial tail could only be
    smaller.  beta is the exact closed-form series ratio at the saturation
    limit.
    """
    b = _leading_term(z)
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
            passed=True,
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
            passed=True,
            lhs=a_value,
            rhs=float("nan"),
            margin=float("nan"),
            skipped=True,
            reason="xi is zero; bound undefined",
            details={"xi_observed": xi_obs},
        )
    factor = gain - penalty / xi_used
    report = _verdict(name, a_value, factor * a_lin, xi_observed=xi_obs, factor=factor)
    if factor <= 0:
        report.details["vacuous"] = True
    return report


@dataclass(frozen=True)
class GnnAlignmentTerms:
    """Per-instance quantities shared by the alignment report and both checks.

    ``a`` and ``a_first_layer`` are tr(Q E) and tr(Q E1); ``layers`` holds
    each expectation matrix's diagnostics (method, degree, residual).
    """

    a: float
    a_first_layer: float
    a_lin: float
    xi_observed: float
    constants: ExpansionConstants
    layers: dict


def gnn_alignment_terms(
    s: ShiftOperator, data: Dataset, num_taps: int, spectral_bound: float = 1.0
) -> GnnAlignmentTerms:
    """Build z, Zy, E, E1 and the constants of one instance once.

    E and E1 come from the certified Hermite series; the quadrature
    references stay available as ``expectation_E_quadrature`` and
    ``expectation_E_first_layer``.  Q = Zy Zy^T and B_lin = Z Z^T are
    used only through their factors.
    """
    z = z_vectors(s, data.x, num_taps)
    zy = z_vectors(s, data.y, num_taps).matrix
    e, e1 = expectation_E_series(z), expectation_E_first_layer_series(z)
    a_lin = alignment_lin(s, data, num_taps)
    return GnnAlignmentTerms(
        a=_trace_q(zy, e.matrix),
        a_first_layer=_trace_q(zy, e1.matrix),
        a_lin=a_lin,
        xi_observed=_xi(a_lin, zy, z.matrix),
        constants=expansion_constants(num_taps, spectral_bound),
        layers={"second": expectation_info(e), "first": expectation_info(e1)},
    )


def _instance_terms(s, data, num_taps, spectral_bound, terms) -> GnnAlignmentTerms:
    """``terms`` if given and built for num_taps and spectral_bound, else fresh ones."""
    if terms is None:
        return gnn_alignment_terms(s, data, num_taps, spectral_bound)
    built_for = (terms.constants.num_taps, terms.constants.spectral_bound)
    if built_for != (num_taps, spectral_bound):
        raise ValueError(
            f"terms were built for (num_taps, spectral_bound) = {built_for}, "
            f"not {(num_taps, spectral_bound)}"
        )
    return terms


def check_gnn_alignment_lower_bound(
    s: ShiftOperator,
    data: Dataset,
    num_taps: int,
    spectral_bound: float = 1.0,
    xi: float | None = None,
    terms: GnnAlignmentTerms | None = None,
) -> CheckReport:
    """A >= (c - d/xi) A_lin for the infinite-width tanh GNN second layer.

    xi=None measures xi on the instance; a requested xi below the observed
    level skips the instance (reported, not failed).  When the factor
    c - d/xi is nonpositive the bound is vacuous and passes trivially.
    ``terms`` from ``gnn_alignment_terms`` for the same instance, num_taps
    and spectral_bound replaces their computation.
    """
    terms = _instance_terms(s, data, num_taps, spectral_bound, terms)
    return _conditional_alignment_check(
        "gnn_alignment_lower_bound",
        terms.a,
        terms.a_lin,
        terms.xi_observed,
        terms.constants.gain_second_layer,
        terms.constants.penalty_second_layer,
        xi,
    )


def check_first_layer_alignment_lower_bound(
    s: ShiftOperator,
    data: Dataset,
    num_taps: int,
    spectral_bound: float = 1.0,
    xi: float | None = None,
    terms: GnnAlignmentTerms | None = None,
) -> CheckReport:
    """First-layer analog with tau-based constants."""
    terms = _instance_terms(s, data, num_taps, spectral_bound, terms)
    return _conditional_alignment_check(
        "first_layer_alignment_lower_bound",
        terms.a_first_layer,
        terms.a_lin,
        terms.xi_observed,
        terms.constants.gain_first_layer,
        terms.constants.penalty_first_layer,
        xi,
    )


@dataclass(frozen=True)
class AlignmentReport:
    """All alignment functionals and constants for one (S, X, Y, K)."""

    a: float
    a_filt: float
    a_lin: float
    a_lower: float
    a_lin_lower: float
    constraint_lhs: float
    budget: float
    xi_observed: float
    constants: ExpansionConstants

    def to_dict(self) -> dict:
        out = {
            "a": self.a,
            "a_filt": self.a_filt,
            "a_lin": self.a_lin,
            "a_lower": self.a_lower,
            "a_lin_lower": self.a_lin_lower,
            "constraint_lhs": self.constraint_lhs,
            "budget": self.budget,
            "xi_observed": self.xi_observed,
        }
        out.update(
            {
                "rho": self.constants.rho,
                "rho_first_layer": self.constants.rho_first_layer,
                "beta": self.constants.beta,
                "beta_first_layer": self.constants.beta_first,
                "gain_second_layer": self.constants.gain_second_layer,
                "penalty_second_layer": self.constants.penalty_second_layer,
                "gain_first_layer": self.constants.gain_first_layer,
                "penalty_first_layer": self.constants.penalty_first_layer,
            }
        )
        return out


def alignment_report(
    s: ShiftOperator,
    data: Dataset,
    num_taps: int,
    eta: float = 1.0,
    alpha: float = 1.0,
    spectral_bound: float = 1.0,
    terms: GnnAlignmentTerms | None = None,
) -> AlignmentReport:
    """All alignment functionals; ``terms`` as in the conditional checks."""
    require_positive_finite("eta", eta)
    require_positive_finite("alpha", alpha)
    terms = _instance_terms(s, data, num_taps, spectral_bound, terms)
    return AlignmentReport(
        a=terms.a,
        a_filt=alignment_filt(s, data, num_taps),
        a_lin=terms.a_lin,
        a_lower=alignment_lower_bound(s, data, num_taps).value,
        a_lin_lower=alignment_lin_lower_bound(s, data, num_taps).value,
        constraint_lhs=constraint_lhs(s, num_taps),
        budget=math.sqrt(alpha / (eta * data.num_samples)),
        xi_observed=terms.xi_observed,
        constants=terms.constants,
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
    s = ShiftOperator(sym / np.linalg.norm(sym), frobenius_unit=True)
    return s, Dataset(x, y).normalized(), num_taps


def planted_instance(seed: int, max_nodes: int = 8, max_samples: int = 6, max_taps: int = 3):
    """High-alignment instance: targets are a noise-free filter output."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_samples + 1))
    num_taps = int(rng.integers(1, max_taps + 1))
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2.0
    s = ShiftOperator(sym / np.linalg.norm(sym), frobenius_unit=True)
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
    worst_margin: float
    failing_seeds: tuple

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "num_instances": self.num_instances,
            "violations": self.violations,
            "skipped": self.skipped,
            "worst_margin": self.worst_margin,
            "failing_seeds": list(self.failing_seeds),
        }


def _sweep(name, reports, seeds) -> SweepResult:
    violations, skipped, failing = 0, 0, []
    worst = math.inf
    for seed, report in zip(seeds, reports):
        if report.skipped:
            skipped += 1
            continue
        if math.isfinite(report.margin):
            worst = min(worst, report.margin)
        if not report.passed:
            violations += 1
            failing.append(seed)
    return SweepResult(
        name=name,
        num_instances=len(seeds),
        violations=violations,
        skipped=skipped,
        worst_margin=worst if math.isfinite(worst) else float("nan"),
        failing_seeds=tuple(failing),
    )


def _run_check(name: str, seed: int) -> CheckReport:
    if name in ("gnn_alignment_lower_bound", "first_layer_alignment_lower_bound"):
        s, data, num_taps = planted_instance(seed)
    elif name == "budget_implies_kernel_bound":
        s, data, num_taps = random_instance(seed, spectrum="nonnegative")
    elif name in ("first_term_lower_bound", "first_term_lower_bound_first_layer"):
        s, data, num_taps = random_instance(seed, entries="nonnegative")
    else:
        s, data, num_taps = random_instance(seed)
    if name == "filter_lower_bound":
        return check_filter_lower_bound(s, data, num_taps)
    if name == "linear_lower_bound":
        return check_linear_lower_bound(s, data, num_taps)
    if name == "budget_implies_kernel_bound":
        return check_budget_implies_kernel_bound(s, data, num_taps)
    if name == "first_term_lower_bound":
        return check_first_term_lower_bound(s, data, num_taps)
    if name == "first_term_lower_bound_first_layer":
        return check_first_term_lower_bound(s, data, num_taps, layer="first")
    if name == "series_tail_domination":
        return check_series_tail_domination(z_vectors(s, data.x, num_taps))
    if name == "gnn_alignment_lower_bound":
        return check_gnn_alignment_lower_bound(s, data, num_taps)
    if name == "first_layer_alignment_lower_bound":
        return check_first_layer_alignment_lower_bound(s, data, num_taps)
    raise ValueError(f"unknown check {name!r}")


DEFAULT_SWEEP_CHECKS = (
    "filter_lower_bound",
    "linear_lower_bound",
    "budget_implies_kernel_bound",
    "first_term_lower_bound",
    "series_tail_domination",
)


def run_inequality_sweeps(
    num_instances: int = 500,
    base_seed: int = 0,
    checks=DEFAULT_SWEEP_CHECKS,
) -> dict:
    """Run each named check over fresh random instances; count violations.

    Deterministic given base_seed: instances are pure functions of their
    seed.
    """
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
        return {
            "num_instances": self.num_instances,
            "best_value": self.best_value,
            "max_excess": self.max_excess,
            "passed": self.passed,
        }


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
    c = symmetrized_cross_covariance(data.x, data.y)
    budget = math.sqrt(alpha / (eta * m))
    mu = budget / np.linalg.norm(c)
    s_star = ShiftOperator(mu * c - np.eye(n))
    best = alignment_lower_bound(s_star, data, num_taps).value
    max_excess = -math.inf
    for _ in range(num_instances):
        a = rng.standard_normal((n, n))
        t = np.eye(n) + (a + a.T) / 2.0
        t *= budget / np.linalg.norm(t)
        candidate = ShiftOperator(t - np.eye(n))
        value = alignment_lower_bound(candidate, data, num_taps).value
        max_excess = max(max_excess, value - best)
    return OptimalitySweepResult(
        num_instances=num_instances,
        best_value=best,
        max_excess=max_excess,
        passed=max_excess <= SWEEP_TOL,
    )
