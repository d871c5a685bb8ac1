"""Covariance-based shift operators and the alignment-optimal solver.

The optimal shift operator maximizing the filter-alignment lower bound under
a Frobenius budget solves sum_{k=0}^{K-1} S^k = mu C for the (symmetrized)
cross-covariance C, with mu = sqrt(alpha / (eta M)) / ||C||_F.  For K = 2
this is the closed form S = mu C - I; for K > 2 it reduces, through the
eigendecomposition of mu C, to one scalar polynomial root per eigenvalue.
The scalar equation can lack a real root when K is odd (even-degree
polynomial), which is surfaced rather than papered over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ShiftOperator, _MatrixShift

RESIDUAL_RTOL = 1e-8
REAL_ROOT_IMAG_TOL = 1e-8


class NoRealRootError(ValueError):
    """The per-eigenvalue power-sum equation has no real solution."""

    def __init__(self, gamma: float, num_taps: int):
        self.gamma = gamma
        self.num_taps = num_taps
        super().__init__(
            f"sum_k s^k = {gamma!r} has no real root for K = {num_taps}"
        )


def covariance(x: np.ndarray) -> ShiftOperator:
    """Input covariance X X^T, rescaled to unit Frobenius norm."""
    x = np.asarray(x, dtype=float)
    c = x @ x.T
    fro = np.linalg.norm(c)
    if fro == 0.0:
        raise ValueError("covariance is the zero matrix")
    return ShiftOperator(c / fro, frobenius_unit=True)


@dataclass(frozen=True)
class AsymmetricShift(_MatrixShift):
    """Square matrix standing in for a shift operator in training runs only.

    Forward passes and Jacobians just diffuse signals, so they accept this
    type; the kernel and bound routines are stated for symmetric operators
    and must be given a real ShiftOperator.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"shift matrix must be square, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CrossCovariance:
    """Unit-Frobenius cross-covariance, symmetrized unless raw is requested."""

    matrix: np.ndarray
    symmetrized: bool

    def as_shift_operator(self) -> ShiftOperator:
        if not self.symmetrized:
            raise ValueError("raw cross-covariance is not symmetric; cannot be a shift operator")
        return ShiftOperator(self.matrix, frobenius_unit=True)

    def as_experiment_operator(self):
        """ShiftOperator when symmetrized, AsymmetricShift otherwise."""
        if self.symmetrized:
            return self.as_shift_operator()
        return AsymmetricShift(self.matrix)


def cross_covariance(x: np.ndarray, y: np.ndarray, symmetrize: bool = True) -> CrossCovariance:
    """Cross-covariance between inputs and targets, unit Frobenius norm.

    Default is the symmetrized form (X Y^T + Y X^T)/2 under which the
    alignment lower bounds are stated; ``symmetrize=False`` keeps the raw
    X Y^T product (flagged, usable only for replication-style experiments).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    c = x @ y.T
    if symmetrize:
        c = (c + c.T) / 2.0
    fro = np.linalg.norm(c)
    if fro == 0.0:
        raise ValueError("cross-covariance is the zero matrix")
    out = np.array(c / fro)
    out.setflags(write=False)
    return CrossCovariance(out, symmetrized=symmetrize)


def power_sum(matrix: np.ndarray, num_taps: int) -> np.ndarray:
    """sum_{k=0}^{K-1} S^k as a dense matrix."""
    acc = np.eye(matrix.shape[0])
    power = np.eye(matrix.shape[0])
    for _ in range(1, num_taps):
        power = power @ matrix
        acc += power
    return acc


def constraint_lhs(s: ShiftOperator | np.ndarray, num_taps: int) -> float:
    """Frobenius norm of sum_{k=0}^{K-1} S^k, the budget side of the constraint."""
    m = s.matrix if isinstance(s, ShiftOperator) else np.asarray(s, dtype=float)
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    return float(np.linalg.norm(power_sum(m, num_taps)))


def mu_from_budget(alpha: float, eta: float, num_samples: int, c_norm: float = 1.0) -> float:
    """mu = sqrt(alpha / (eta M)) / ||C||_F."""
    if alpha <= 0 or eta <= 0 or num_samples < 1 or c_norm <= 0:
        raise ValueError("alpha, eta, num_samples and c_norm must be positive")
    return math.sqrt(alpha / (eta * num_samples)) / c_norm


def _poly_eval(coeffs_high_to_low: np.ndarray, s: float) -> float:
    out = 0.0
    for c in coeffs_high_to_low:
        out = out * s + c
    return out


def power_sum_root(gamma: float, num_taps: int) -> float:
    """Smallest-magnitude real s with sum_{k=0}^{K-1} s^k = gamma.

    Raises NoRealRootError when every root is complex (possible for odd K,
    where the polynomial has even degree).
    """
    if num_taps < 2:
        raise ValueError("num_taps must be >= 2")
    if num_taps == 2:
        return float(gamma) - 1.0
    coeffs = np.ones(num_taps)
    coeffs[-1] = 1.0 - gamma
    roots = np.roots(coeffs)
    real_mask = np.abs(roots.imag) <= REAL_ROOT_IMAG_TOL * np.maximum(1.0, np.abs(roots.real))
    candidates = roots.real[real_mask]
    if candidates.size == 0:
        raise NoRealRootError(float(gamma), num_taps)
    s = float(candidates[np.argmin(np.abs(candidates))])
    # Newton polish; np.roots is eigenvalue-based and can drift a few ulp
    deriv = np.polyder(np.poly1d(coeffs))
    for _ in range(3):
        f = _poly_eval(coeffs, s)
        df = deriv(s)
        if df == 0.0:
            break
        s -= f / df
    return s


@dataclass(frozen=True)
class GsoSolution:
    operator: ShiftOperator
    mu: float
    num_taps: int
    eigenvalues: np.ndarray  # of mu C
    roots: np.ndarray  # per-eigenvalue solution s_i
    residual: float  # relative, pre-normalization
    scale: float  # 1.0 unless unit-Frobenius normalization was applied


def _checked_system(c, num_taps: int) -> np.ndarray:
    """Validate the right-hand side C and the tap count of a power-sum solve."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected square matrix, got shape {c.shape}")
    if np.abs(c - c.T).max(initial=0.0) > 1e-10:
        raise ValueError("cross-covariance must be symmetric")
    if num_taps < 2:
        raise ValueError("num_taps must be >= 2; K = 1 leaves no taps to solve for")
    return c


def _gso_solution(
    s_matrix: np.ndarray,
    target: np.ndarray,
    gammas: np.ndarray,
    roots: np.ndarray,
    mu: float,
    num_taps: int,
    normalize: bool,
    lift,
) -> GsoSolution:
    """Symmetrize a solved S, check it against the target, package it.

    ``lift`` maps the power sum sum_k S^k to the matrix that must equal the
    target mu C; the relative residual must stay below RESIDUAL_RTOL.
    ``normalize`` rescales S to unit Frobenius norm after that check.
    """
    s_matrix = (s_matrix + s_matrix.T) / 2.0
    scale_ref = max(np.linalg.norm(target), 1e-300)
    residual = float(np.linalg.norm(lift(power_sum(s_matrix, num_taps)) - target) / scale_ref)
    if residual > RESIDUAL_RTOL:
        raise RuntimeError(
            f"reconstructed power sum misses the target: relative residual {residual:.3e}"
        )

    scale = 1.0
    if normalize:
        fro = np.linalg.norm(s_matrix)
        if fro == 0.0:
            raise ValueError("cannot normalize the zero solution")
        scale = 1.0 / fro
        operator = ShiftOperator(s_matrix * scale, frobenius_unit=True)
    else:
        operator = ShiftOperator(s_matrix)
    return GsoSolution(
        operator=operator,
        mu=float(mu),
        num_taps=num_taps,
        eigenvalues=gammas,
        roots=roots,
        residual=residual,
        scale=scale,
    )


def solve_optimal_gso(
    c: np.ndarray | CrossCovariance,
    num_taps: int,
    mu: float = 1.0,
    method: str = "auto",
    normalize: bool = False,
) -> GsoSolution:
    """Solve sum_{k=0}^{K-1} S^k = mu C for a symmetric S.

    ``method='closed_form'`` is the K = 2 shortcut S = mu C - I;
    ``method='eigen'`` goes through the eigendecomposition and works for any
    K >= 2; ``'auto'`` picks the shortcut when available.  ``normalize``
    rescales the result to unit Frobenius norm after the residual check,
    for use where only the direction of the operator matters.
    """
    if isinstance(c, CrossCovariance):
        if not c.symmetrized:
            raise ValueError("optimal-shift solve requires the symmetrized cross-covariance")
        c = c.matrix
    c = _checked_system(c, num_taps)
    if method not in ("auto", "closed_form", "eigen"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed_form" and num_taps != 2:
        raise ValueError("closed form only exists for K = 2")

    target = mu * c
    gammas, vecs = np.linalg.eigh(target)
    if method == "eigen" or (method == "auto" and num_taps > 2):
        roots = np.array([power_sum_root(g, num_taps) for g in gammas])
        s_matrix = (vecs * roots) @ vecs.T
    else:
        s_matrix = target - np.eye(c.shape[0])
        roots = gammas - 1.0
    return _gso_solution(
        s_matrix, target, gammas, roots, mu, num_taps, normalize, lift=lambda acc: acc
    )
