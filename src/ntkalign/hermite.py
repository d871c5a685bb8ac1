"""Hermite-coefficient machinery for the tanh expectation kernels.

Everything here is stated against the standard Gaussian *probability*
measure.  The orthonormal probabilists' polynomials ``p_0 = 1``, ``p_1 = u``,
``p_2 = (u^2 - 1)/sqrt(2)``, ... satisfy ``E[p_j p_k] = delta_jk`` and, for a
rho-correlated standard Gaussian pair, ``E[p_j(u) p_j(u')] = rho^j``.

Coefficients defined against the bare weight ``exp(-u^2/2)`` (no
``1/sqrt(2 pi)``) are larger by ``sqrt(2 pi)``; every ratio-type constant
(tail ratios, expectation-matrix entries relative to the linear term) is
identical under both conventions.  ``sigma_hat`` has supremum 1 here;
``sqrt(2 pi) = 2.5066...`` rescales it to the bare-weight convention.

Quadrature rules are built by Golub-Welsch on the Jacobi matrix rather than
``numpy.polynomial.hermite_e.hermegauss``, whose weight computation
overflows near 512 nodes.  ``hermite_values`` evaluates f(y u) on one
rule's nodes, with E[f(y u)^2] on the same rule, and
``hermite_coefficients``, the one projection, projects those values with
the Jacobi eigenvectors themselves (see ``hermite_projection``).  Forming
w_i p_j(x_i) from separately computed weights and polynomial values
instead multiplies tiny, inaccurate extreme-node weights into huge
polynomial values, and the 512-point rule's Gram residual reaches 9e7 at
degree 20 that way.

Rule policy: coefficient tables and the constants built on them use the
MAX_POINTS-point rule.  Truncated series (the kernels E and E1 in ``ntk``
and ``beta_first_layer``) all go through ``hermite_series``, which tries
SERIES_RULES in turn, each up to half its size, and stops at the first
degree whose same-rule tail meets the caller's target.  Each rule's values
are evaluated once and projected SERIES_BLOCK degrees at a time, and
projection stops with the first block that holds such a degree.  Two
checks keep the tails honest: ``series_tails`` rejects a tail below
round-off at every projected degree, and ``bessel_excess``, once per rule,
bounds the energy of all degrees up to half the rule's size, the ones not
projected included.  Fixed rules degrade for arguments beyond y ~ 5, so
limit constants are evaluated through closed-form sign-function
coefficients and Parseval identities instead of brute large-y quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_POINTS = 64
MAX_POINTS = 512
# Rules tried in turn by hermite_series; the largest reaches row norm ~4.5
# for E and ~3.45 for E1.  Against a 4096-point rule the residual each one
# certifies bounds the observed error up to those norms.
SERIES_RULES = (512, 1024, 2048)
# The kernels' series stop at the first degree whose certified residual is
# at most this fraction of the expectation matrix's largest entry.
SERIES_RTOL = 1e-10
# beta_first_layer stops at the first degree whose certified residual is at
# most this fraction of tau_0^2.
BETA_FIRST_RTOL = 1e-6
# Coefficients hermite_series projects at a time: E needs one block and E1
# two on data normalized to unit columns at K = 2 (degrees 29-31 and 38-40).
SERIES_BLOCK = 16

SQRT_2PI = math.sqrt(2.0 * math.pi)
SIGMA_HAT_SUP = 1.0
TAU_SUP = 1.0
# beta_constant's closed form, (pi - 2) / 2: the tail ratio in the saturation limit.
BETA_SATURATION = (1.0 - 2.0 / math.pi) / (2.0 / math.pi)


# A series tail below -TAIL_ROUNDOFF times the largest total is not round-off.
TAIL_ROUNDOFF = 1e-12


class TruncationError(RuntimeError):
    """A series evaluation could not reach or certify the requested residual."""


@lru_cache(maxsize=16)
def _jacobi_eigensystem(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and sign-fixed eigenvectors of the n-point Hermite Jacobi matrix.

    Column i is sqrt(w_i) [p_0(x_i), ..., p_{n-1}(x_i)]: the signs are fixed
    so that row 0 is nonnegative, and p_0 = 1.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    off = np.sqrt(np.arange(1.0, n_points))
    jacobi = np.zeros((n_points, n_points))
    idx = np.arange(n_points - 1)
    jacobi[idx, idx + 1] = off
    jacobi[idx + 1, idx] = off
    nodes, vecs = np.linalg.eigh(jacobi)
    vecs *= np.where(vecs[0] < 0.0, -1.0, 1.0)
    nodes.setflags(write=False)
    vecs.setflags(write=False)
    return nodes, vecs


@lru_cache(maxsize=16)
def gauss_hermite_rule(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights for E_{u~N(0,1)}[f(u)] ~ sum w_i f(x_i)."""
    nodes, vecs = _jacobi_eigensystem(n_points)
    weights = vecs[0] ** 2
    weights = weights / weights.sum()
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=16)
def hermite_projection(n_points: int = MAX_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and the projection P with c_j = sum_i P[j, i] f(x_i) ~ E[f p_j].

    P[j, i] = V[0, i] V[j, i] = w_i p_j(x_i) from the sign-fixed Jacobi
    eigenvectors V, so every factor is bounded by 1 and a coefficient of a
    bounded f carries absolute error of order machine epsilon at any degree
    up to n_points - 1.  Row 0 is the weights w_i = V[0, i]^2.  The rows of
    V are orthonormal, so sum_j c_j^2 = sum_i w_i f(x_i)^2 exactly for the
    rule: tails taken against that total are discrete Bessel gaps.
    """
    nodes, vecs = _jacobi_eigensystem(n_points)
    proj = vecs * vecs[0]
    proj.setflags(write=False)
    return nodes, proj


@lru_cache(maxsize=16)
def bessel_excess(n_points: int) -> float:
    """Gershgorin excess of the n-point rule's projection rows 0..n/2.

    With V_D the first n/2 + 1 rows of the sign-fixed Jacobi eigenvectors,
    the coefficients of any f are c = V_D g with g_i = sqrt(w_i) f(x_i), so
    sum_{d <= n/2} c_d^2 <= (1 + gamma) sum_i w_i f(x_i)^2 for
    gamma = max_i sum_j |(V_D V_D')_ij| - 1, which bounds the largest
    eigenvalue of V_D V_D' minus 1.  A gamma of at most TAIL_ROUNDOFF makes
    every tail up to degree n/2 at least -TAIL_ROUNDOFF times the total,
    the round-off that ``series_tails`` allows, without projecting them.
    """
    _, vecs = _jacobi_eigensystem(n_points)
    head = vecs[: n_points // 2 + 1]
    return float(np.abs(head @ head.T).sum(axis=1).max()) - 1.0


def series_tails(coeffs: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """totals minus the running sum of squared coefficients along the last axis.

    Both must come from one rule (``hermite_projection``), which makes each
    tail a nonnegative Bessel gap up to round-off.  A tail below
    -TAIL_ROUNDOFF times the largest total means the coefficients are not a
    projection of the totals' function; it raises TruncationError rather
    than being clamped to zero.
    """
    totals = np.asarray(totals, dtype=float)
    tails = totals[..., None] - np.cumsum(coeffs * coeffs, axis=-1)
    floor = -TAIL_ROUNDOFF * max(float(np.abs(totals).max(initial=0.0)), 1e-300)
    worst = float(tails.min(initial=0.0))
    if worst < floor:
        raise TruncationError(
            f"series tail {worst:.3e} is below round-off {floor:.1e}: "
            "the coefficients are not a projection of the function"
        )
    return tails


def hermite_eval_upto(max_degree: int, u: np.ndarray) -> np.ndarray:
    """Evaluate p_0..p_max_degree at u, stacked along axis 0.

    Three-term recurrence on the orthonormal family:
    p_{k+1} = (u p_k - sqrt(k) p_{k-1}) / sqrt(k+1).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    u = np.asarray(u, dtype=float)
    out = np.empty((max_degree + 1,) + u.shape, dtype=float)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = u
    for k in range(1, max_degree):
        out[k + 1] = (u * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    return out


def hermite_eval(degree: int, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return hermite_eval_upto(degree, u)[degree]


def sech2(x: np.ndarray) -> np.ndarray:
    """sech^2 = tanh' as 1 - tanh^2, the form the GNN's derivative takes."""
    t = np.tanh(x)
    t *= t  # in place for arrays: a series' values are one array, not three
    return np.subtract(1.0, t, out=t) if isinstance(t, np.ndarray) else 1.0 - t


def hermite_values(fn, y, n_points: int = MAX_POINTS):
    """fn(y u) at the n-point rule's nodes, and the rule's E[fn(y u)^2].

    Returns the values, shape ``y.shape + (n_points,)``, for
    ``hermite_coefficients``, and the totals, shape ``y.shape``.
    """
    nodes, proj = hermite_projection(n_points)
    grid = np.multiply.outer(y, nodes)
    vals = fn(grid)
    # the squares go into the argument grid's buffer unless fn's values live there
    squares = np.multiply(vals, vals, out=None if np.shares_memory(vals, grid) else grid)
    return vals, squares @ proj[0]


def hermite_coefficients(values: np.ndarray, degrees: slice) -> np.ndarray:
    """Coefficients E[fn(y u) p_j(u)] for j in ``degrees``, from ``hermite_values``.

    The values are projected with ``hermite_projection`` of the rule they
    were taken on, so the coefficients and the totals of the same call to
    ``hermite_values`` come from one rule and ``series_tails`` of the pair
    is a discrete Bessel gap.  Shape ``y.shape + (number of degrees,)``.
    """
    n_points = values.shape[-1]
    if not 0 < degrees.stop <= n_points:
        raise ValueError(f"degrees must lie in [0, {n_points})")
    return values @ hermite_projection(n_points)[1][degrees].T


def hermite_series(fn, y, parity, target=None, row_weight=None):
    """Coefficients of u -> fn(y_a u) in the degrees of one parity, truncated.

    Returns the coefficient columns for degrees parity, parity + 2, ...,
    the rule's totals E[fn(y_a u)^2], the last degree kept, its residual
    (the largest row_weight-scaled tail) and the rule's size.  The last
    degree is the smallest one whose residual is at most
    ``target(coeffs, totals)``, by default SERIES_RTOL times the largest
    scaled total (the largest entry of the kernel E or E1 built from the
    coefficients); each rule of SERIES_RULES is tried in turn until one
    reaches it, else TruncationError.  Degrees stop at half a rule's size:
    beyond it aliasing from degrees past the rule's exactness makes the
    same-rule tail an underestimate (a 2048-point rule shows the 512-point
    rule's sech^2 tail off by 9% at degree 338 and 2.7x at 402).

    fn is evaluated once per rule, and its values are projected
    SERIES_BLOCK degrees at a time, up to the first block holding a degree
    that meets the target; ``target`` sees the coefficients projected so
    far.  ``series_tails`` checks the tails of every projected degree, and
    the rule's ``bessel_excess`` those of the degrees up to half its size
    that were not projected.
    """
    weight = np.ones_like(y) if row_weight is None else row_weight
    for n_points in SERIES_RULES:
        excess = bessel_excess(n_points)
        if excess > TAIL_ROUNDOFF:
            raise TruncationError(
                f"the {n_points}-point rule's Bessel excess {excess:.3e} is above "
                f"round-off {TAIL_ROUNDOFF:.1e}: its projection rows are not orthonormal"
            )
        values, totals = hermite_values(fn, y, n_points)
        degrees = range(parity, n_points // 2 + 1, 2)
        blocks = []
        for start in range(0, len(degrees), SERIES_BLOCK):
            block = degrees[start : start + SERIES_BLOCK]
            blocks.append(hermite_coefficients(values, slice(block.start, block.stop, 2)))
            coeffs = np.concatenate(blocks, axis=-1)
            tails = series_tails(coeffs, totals) * weight[:, None]
            residuals = np.abs(tails).max(axis=0, initial=0.0)
            if target is None:
                goal = SERIES_RTOL * float((totals * weight).max(initial=0.0))
            else:
                goal = target(coeffs, totals)
            met = np.flatnonzero(residuals <= goal)
            if met.size:
                keep = int(met[0]) + 1
                degree = parity + 2 * (keep - 1)
                return coeffs[:, :keep], totals, degree, float(residuals[keep - 1]), n_points
    raise TruncationError(
        f"series residual {residuals[-1]:.3e} still above {goal:.1e} at degree "
        f"{parity + 2 * (coeffs.shape[1] - 1)}: row norm {y.max():.3f} is beyond "
        f"the reach of the {n_points}-point rule"
    )


def coeff_g_table(max_degree: int, y) -> np.ndarray:
    """Hermite coefficients of u -> tanh(y u) for degrees 0..max_degree.

    Returns shape ``y.shape + (max_degree + 1,)``.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be >= 0")
    return hermite_coefficients(hermite_values(np.tanh, y)[0], slice(0, max_degree + 1))


def coeff_tau_table(max_degree: int, z_sq) -> np.ndarray:
    """Hermite coefficients of u -> sech^2(sqrt(z_sq) u), degrees 0..max_degree."""
    z_sq = np.asarray(z_sq, dtype=float)
    if np.any(z_sq < 0):
        raise ValueError("z_sq must be >= 0")
    return hermite_coefficients(hermite_values(sech2, np.sqrt(z_sq))[0], slice(0, max_degree + 1))


def coeff_g(degree: int, y):
    """g_degree(y) = E[tanh(y u) p_degree(u)]."""
    out = coeff_g_table(degree, y)[..., degree]
    return float(out) if out.ndim == 0 else out


def coeff_tau(degree: int, z_sq):
    """tau_degree(z_sq) = E[sech^2(sqrt(z_sq) u) p_degree(u)]."""
    out = coeff_tau_table(degree, z_sq)[..., degree]
    return float(out) if out.ndim == 0 else out


def sigma_hat(z_sq):
    """sigma_hat(z_sq) = g_1(sqrt(z_sq)) / sqrt(z_sq), continuously extended to 1 at 0.

    Non-increasing in z_sq; supremum 1 under the probability-measure
    convention (sqrt(2 pi) times smaller than the bare-weight value).
    """
    z_sq = np.asarray(z_sq, dtype=float)
    if np.any(z_sq < 0):
        raise ValueError("z_sq must be >= 0")
    y = np.sqrt(z_sq)
    flat = np.atleast_1d(y)
    out = np.ones_like(flat)
    pos = flat > 0
    if np.any(pos):
        out[pos] = coeff_g(1, flat[pos]) / flat[pos]
    out = out.reshape(y.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BetaResult:
    """Tail-ratio constant sum_{i>=1} g_{2i+1}^2 / g_1^2 in the saturation limit."""

    value: float
    partial_sum: float
    num_terms: int
    truncation_residual: float


def beta_constant(max_terms: int = 1000) -> BetaResult:
    """Tail-ratio constant of tanh via its saturation (sign-function) limit.

    The limit's coefficient ratios are t_i = ((2i-1)!!)^2 / (2i+1)!, and
    Parseval for the sign function (E[sign^2] = 1, g_1 = sqrt(2/pi)) sums
    the whole series to (1 - 2/pi) / (2/pi) = (pi - 2)/2 exactly.  The raw
    partial sums converge like i^{-1/2}, so `value` uses the closed form;
    the partial sum is reported for diagnostics.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    exact = BETA_SATURATION
    partial = 0.0
    term = 1.0  # t_0, the g_1 term itself (excluded from the sum)
    for i in range(1, max_terms + 1):
        term *= (2 * i - 1) ** 2 / ((2 * i) * (2 * i + 1))
        partial += term
    return BetaResult(exact, partial, max_terms, exact - partial)


@dataclass(frozen=True)
class FirstLayerBetaResult:
    """Tail-ratio constant sum_{i>=1} tau_{2i}(b)^2 / tau_0(b)^2."""

    value: float
    parseval_value: float
    norm_sq_bound: float
    num_pairs: int
    truncation_residual: float


def beta_first_layer(norm_sq_bound: float) -> FirstLayerBetaResult:
    """Even-coefficient tail ratio of sech^2 at squared-norm bound b.

    For a K-tap filter with unit-Frobenius shift the feature rows satisfy
    ||z||^2 <= K, so the constant is evaluated at b = K.  ``hermite_series``
    truncates the even series at the first degree whose certified residual
    is at most BETA_FIRST_RTOL tau_0^2, the same rule escalation and
    half-rule cap as the kernels E and E1; the total sum_{i>=0} tau_{2i}^2
    equals E[sech^4(sqrt(b) u)] because odd coefficients vanish.
    """
    if not (norm_sq_bound > 0 and math.isfinite(norm_sq_bound)):
        raise ValueError("norm_sq_bound must be positive and finite")
    taus, totals, degree, residual, _ = hermite_series(
        sech2, np.sqrt([norm_sq_bound]), 0, lambda c, _: BETA_FIRST_RTOL * c[0, 0] ** 2
    )
    tau0_sq = taus[0, 0] ** 2
    return FirstLayerBetaResult(
        value=float(np.sum(taus[0, 1:] ** 2)) / tau0_sq,
        parseval_value=(float(totals[0]) - tau0_sq) / tau0_sq,
        norm_sq_bound=float(norm_sq_bound),
        num_pairs=degree // 2,
        truncation_residual=residual / tau0_sq,
    )


def correlated_pair_expectation(f, g, rho: float, n_points: int = DEFAULT_POINTS) -> float:
    """E[f(u) g(u')] for rho-correlated standard Gaussians, by a tensor rule.

    Uses u' = rho u + sqrt(1 - rho^2) v with independent u, v.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    nodes, weights = gauss_hermite_rule(n_points)
    u = nodes[:, None]
    v = nodes[None, :]
    uprime = rho * u + math.sqrt(max(0.0, 1.0 - rho * rho)) * v
    vals = np.asarray(f(u * np.ones_like(uprime))) * np.asarray(g(uprime))
    return float(weights @ vals @ weights)


def parseval_gap(y: float, max_degree: int) -> float:
    """E[tanh(y u)^2] minus the energy captured by degrees <= max_degree.

    Computed end to end with one rule, so the gap is a discrete Bessel gap:
    nonnegative up to round-off and non-increasing in max_degree.
    """
    y = np.asarray(y, dtype=float)
    values, total = hermite_values(np.tanh, y)
    coeffs = hermite_coefficients(values, slice(0, max_degree + 1))
    return float(total) - float(coeffs @ coeffs)


@dataclass(frozen=True)
class GridCheckResult:
    kind: str
    degrees: tuple[int, ...]
    grid: np.ndarray
    violations: tuple[tuple[int, float], ...]
    worst_margin: float

    @property
    def passed(self) -> bool:
        return not self.violations


# grid-check kind -> its coefficient table and the base degree of its ratios
_GRID_KINDS = {"tanh_odd": (coeff_g_table, 1), "sech2_even": (coeff_tau_table, 0)}


def _grid_table(kind: str, degrees, grid):
    """The grid (default 40 points geometric on [0.1, 10]), kind's table on it, its base degree."""
    grid = np.geomspace(0.1, 10.0, 40) if grid is None else np.asarray(grid, dtype=float)
    if kind not in _GRID_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    table, base = _GRID_KINDS[kind]
    return grid, table(max(degrees), grid), base


def verify_sign_constancy(
    kind: str = "tanh_odd",
    degrees: tuple[int, ...] = (1, 3, 5, 7, 9),
    grid: np.ndarray | None = None,
) -> GridCheckResult:
    """Check each coefficient keeps one strict sign across a y grid.

    ``tanh_odd`` checks g_degree over y in the grid, ``sech2_even`` checks
    tau_degree with the grid read as squared norms.
    """
    grid, table, _ = _grid_table(kind, degrees, grid)
    violations = []
    worst = math.inf
    for deg in degrees:
        vals = table[:, deg]
        ref_sign = math.copysign(1.0, vals[np.argmax(np.abs(vals))])
        margin = float(np.min(ref_sign * vals))
        worst = min(worst, margin)
        if margin <= 0.0:
            violations.append((deg, margin))
    return GridCheckResult(kind, tuple(degrees), grid, tuple(violations), worst)


def verify_ratio_monotonicity(
    kind: str = "tanh_odd",
    degrees: tuple[int, ...] = (3, 5, 7, 9),
    grid: np.ndarray | None = None,
    tol: float = 1e-7,
) -> GridCheckResult:
    """Check |coeff_degree / coeff_base| is non-decreasing along the grid.

    Base degree is 1 for ``tanh_odd`` and 0 for ``sech2_even``.  Steps may
    regress by at most ``tol``.
    """
    grid, table, base = _grid_table(kind, degrees, grid)
    violations = []
    worst = math.inf
    for deg in degrees:
        ratio = np.abs(table[:, deg] / table[:, base])
        steps = np.diff(ratio)
        margin = float(steps.min())
        worst = min(worst, margin)
        if margin < -tol:
            violations.append((deg, margin))
    return GridCheckResult(kind, tuple(degrees), grid, tuple(violations), worst)


@dataclass(frozen=True)
class ExpansionConstants:
    """Constants entering the alignment lower bounds for a K-tap architecture.

    ``rho`` is sigma_hat(sum_k nu^{2k})^2 and bounds the squared smallest
    diagonal rescaling of the linear kernel; ``rho_first_layer`` is the
    tau_0 analogue.  The guarantee/penalty pairs assemble the conditional
    bound A >= (gain - penalty / xi) A_lin for each layer.
    """

    num_taps: int
    spectral_bound: float
    norm_sq_bound: float
    rho: float
    rho_first_layer: float
    beta: float
    beta_first: float
    gain_second_layer: float
    penalty_second_layer: float
    gain_first_layer: float
    penalty_first_layer: float

    # the bound's factor gain - penalty / xi is positive only for xi above
    # penalty / gain; xi <= 1 by Cauchy-Schwarz, so a threshold >= 1 makes
    # that layer's bound vacuous on every instance
    @property
    def xi_threshold_second_layer(self) -> float:
        return self.penalty_second_layer / self.gain_second_layer

    @property
    def xi_threshold_first_layer(self) -> float:
        return self.penalty_first_layer / self.gain_first_layer


def expansion_constants(num_taps: int, spectral_bound: float = 1.0) -> ExpansionConstants:
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    if not (spectral_bound > 0 and math.isfinite(spectral_bound)):
        raise ValueError("spectral_bound must be positive and finite")
    norm_sq = float(np.sum(spectral_bound ** (2.0 * np.arange(num_taps))))
    rho = float(sigma_hat(norm_sq)) ** 2
    rho1 = float(coeff_tau(0, norm_sq)) ** 2
    beta = BETA_SATURATION
    beta1 = beta_first_layer(norm_sq).value
    return ExpansionConstants(
        num_taps=num_taps,
        spectral_bound=spectral_bound,
        norm_sq_bound=norm_sq,
        rho=rho,
        rho_first_layer=rho1,
        beta=beta,
        beta_first=beta1,
        gain_second_layer=rho * (1.0 + beta / 2.0),
        penalty_second_layer=(beta / 2.0) * (SIGMA_HAT_SUP / rho) ** 2,
        gain_first_layer=rho1 * (1.0 + beta1 / 2.0),
        penalty_first_layer=(beta1 / 2.0) * (TAU_SUP / rho1) ** 2,
    )


# Degrees of the self-check's Parseval gaps: up to half the largest rule,
# the highest degree the series kernels use.
PARSEVAL_CHECK_DEGREES = (5, 11, 21, 41, 101, MAX_POINTS // 2 - 1)


def self_check() -> dict:
    """Full self-verification of the Hermite layer; payload for the CLI.

    Returns a JSON-ready report; ``violations`` counts failed checks.
    """
    report: dict = {"schema_version": 1}
    violations = 0

    nodes, weights = gauss_hermite_rule(DEFAULT_POINTS)
    p = hermite_eval_upto(10, nodes)
    gram = (p * weights) @ p.T
    ortho_residual = float(np.abs(gram - np.eye(11)).max())
    # the family the coefficients are projected on: sqrt(w_i) p_j(x_i) for
    # every degree the largest rule carries
    _, vecs = _jacobi_eigensystem(MAX_POINTS)
    proj_residual = float(np.abs(vecs @ vecs.T - np.eye(MAX_POINTS)).max())
    ortho_ok = ortho_residual < 1e-8 and proj_residual < 1e-12
    violations += not ortho_ok
    report["orthonormality"] = {
        "max_residual": ortho_residual,
        "projection_max_residual": proj_residual,
        "projection_max_degree": MAX_POINTS - 1,
        "passed": ortho_ok,
    }

    # what certifies hermite_series' tails at the degrees it does not project
    excess = bessel_excess(MAX_POINTS)
    excess_ok = excess <= TAIL_ROUNDOFF
    violations += not excess_ok
    report["bessel_excess"] = {
        "n_points": MAX_POINTS,
        "value": excess,
        "bound": TAIL_ROUNDOFF,
        "passed": excess_ok,
    }

    pair_worst = 0.0
    for rho in (-0.9, -0.3, 0.0, 0.5, 0.99):
        for j in range(7):
            for k in range(7):
                got = correlated_pair_expectation(
                    lambda u, j=j: hermite_eval(j, u),
                    lambda u, k=k: hermite_eval(k, u),
                    rho,
                )
                want = rho**j if j == k else 0.0
                pair_worst = max(pair_worst, abs(got - want))
    pair_ok = pair_worst < 1e-6
    violations += not pair_ok
    report["correlated_pair_identity"] = {"max_residual": pair_worst, "passed": pair_ok}

    gaps_ok = True
    gaps = {}
    for y in (0.5, 2.0, 8.0):
        series = [parseval_gap(y, L) for L in PARSEVAL_CHECK_DEGREES]
        gaps[str(y)] = series
        gaps_ok &= all(g >= -TAIL_ROUNDOFF for g in series)
        gaps_ok &= all(a >= b - TAIL_ROUNDOFF for a, b in zip(series, series[1:]))
    violations += not gaps_ok
    report["parseval_gaps"] = {"by_scale": gaps, "passed": gaps_ok}

    # each term C(2i, i) / (4^i (2i + 1)) is below 1 / (2 sqrt(pi) i^1.5), so
    # the tail past N terms is below 1 / sqrt(pi N)
    beta = beta_constant()
    beta_gap = beta.value - beta.partial_sum
    beta_ok = 0.0 < beta_gap <= 1.0 / math.sqrt(math.pi * beta.num_terms)
    violations += not beta_ok
    report["beta"] = {
        "value": beta.value,
        "partial_sum": beta.partial_sum,
        "num_terms": beta.num_terms,
        "passed": beta_ok,
    }

    try:
        b1 = beta_first_layer(3.0)
    except TruncationError as exc:  # a rule the series cannot certify
        report["beta_first_layer_3"] = {"error": str(exc), "passed": False}
        violations += 1
    else:
        b1_ok = abs(b1.value - 0.732) < 2e-2
        violations += not b1_ok
        report["beta_first_layer_3"] = {
            "value": b1.value,
            "parseval_value": b1.parseval_value,
            "num_pairs": b1.num_pairs,
            "truncation_residual": b1.truncation_residual,
            "passed": b1_ok,
        }

    # sigma_hat is non-increasing, at most its supremum, and reaches it at 0
    sig = sigma_hat(np.geomspace(1e-14, 10.0, 61))
    bounded = np.all(np.diff(sig) <= 0.0) and sig.max() <= SIGMA_HAT_SUP
    sup_ok = bool(bounded and abs(sig[0] - SIGMA_HAT_SUP) <= 1e-12)
    violations += not sup_ok
    report["sigma_hat_sup"] = {
        "value": float(sig[0]),
        "unnormalized": float(sig[0]) * SQRT_2PI,
        "passed": sup_ok,
    }

    for name, check in (
        ("sign_constancy_odd", verify_sign_constancy("tanh_odd", (1, 3, 5, 7, 9))),
        ("sign_constancy_even", verify_sign_constancy("sech2_even", (0, 2, 4, 6, 8))),
        ("ratio_monotonicity_odd", verify_ratio_monotonicity("tanh_odd", (3, 5, 7, 9))),
        ("ratio_monotonicity_even", verify_ratio_monotonicity("sech2_even", (2, 4, 6, 8))),
    ):
        violations += not check.passed
        report[name] = {
            "violating_degrees": [d for d, _ in check.violations],
            "worst_margin": check.worst_margin,
            "passed": check.passed,
        }

    report["violations"] = violations
    return report
