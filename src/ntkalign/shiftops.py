"""Data-derived shift operators and the alignment-optimal solvers.

``covariance(x)`` and ``cross_covariance(x, y)`` return unit-Frobenius
ShiftOperator values that the kernels, bounds and training take as they
are; ``cross_covariance(x, y, symmetrize=False)`` returns the raw X Y^T as
an AsymmetricShift, for training runs only.  ``cross_covariance_matrix``
is the one (unnormalised) C_XY formula, which the bounds also use.

The optimal shift operator maximizing the filter-alignment lower bound under
a Frobenius budget solves sum_{k=0}^{K-1} S^k = mu C for the (symmetrized)
cross-covariance C, a ShiftOperator, with mu = sqrt(alpha / (eta M)) /
||C||_F.  For K = 2 this is the closed form S = mu C - I; for K > 2 it
reduces, through the eigendecomposition of mu C, to one scalar polynomial
root per eigenvalue.  The scalar equation can lack a real root when K is
odd (even-degree polynomial), which is surfaced rather than papered over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ShiftOperator, _MatrixShift, require_positive_finite

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


@dataclass(frozen=True)
class AsymmetricShift(_MatrixShift):
    """Square matrix standing in for a shift operator in training runs only.

    Forward passes and Jacobians just diffuse signals, so they accept this
    type; the kernel and bound routines are stated for symmetric operators
    and must be given a real ShiftOperator.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"shift matrix must be square, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def covariance(x: np.ndarray) -> ShiftOperator:
    """Input covariance X X^T, rescaled to unit Frobenius norm."""
    x = np.asarray(x, dtype=float)
    return ShiftOperator(x @ x.T).normalized()


def cross_covariance_matrix(x: np.ndarray, y: np.ndarray, symmetrize: bool = True) -> np.ndarray:
    """C_XY = (X Y^T + Y X^T) / 2, or the raw X Y^T; not normalized."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    c = x @ y.T
    return (c + c.T) / 2.0 if symmetrize else c


def cross_covariance(x: np.ndarray, y: np.ndarray, symmetrize: bool = True):
    """Cross-covariance operator between inputs and targets, unit Frobenius norm.

    The default is the symmetrized C_XY as a ShiftOperator, under which the
    alignment lower bounds are stated; ``symmetrize=False`` keeps the raw
    X Y^T as an AsymmetricShift, usable for replication-style training only.
    """
    shift = ShiftOperator if symmetrize else AsymmetricShift
    return shift(cross_covariance_matrix(x, y, symmetrize)).normalized()


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
    """mu = sqrt(alpha / (eta M)) / ||C||_F, for the Frobenius budget sqrt(alpha / (eta M))."""
    require_positive_finite("c_norm", c_norm)
    require_positive_finite("alpha", alpha)
    require_positive_finite("eta", eta)
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    return math.sqrt(alpha / (eta * num_samples)) / c_norm


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
    deriv = np.polyder(coeffs)
    for _ in range(3):
        df = np.polyval(deriv, s)
        if df == 0.0:
            break
        s -= np.polyval(coeffs, s) / df
    return float(s)


@dataclass(frozen=True)
class GsoSolution:
    operator: ShiftOperator
    mu: float
    residual: float  # relative


def solve_optimal_gso(c: ShiftOperator, num_taps: int, mu: float = 1.0) -> GsoSolution:
    """Solve sum_{k=0}^{K-1} S^k = mu C for a symmetric S, given C as a ShiftOperator.

    K = 2 has the closed form S = mu C - I, which keeps the off-diagonal
    entries exact however small mu is; larger K goes through the
    eigendecomposition of mu C, one scalar power-sum root per eigenvalue.
    The relative residual of the power sum against mu C must stay below
    RESIDUAL_RTOL, else ValueError: mu C is beyond the solver's reach, as
    a budget so small that I swamps it is; one whose squared norm
    overflows is refused before anything is computed.  Where only the
    direction of S matters, take ``operator.normalized()``.
    """
    if not isinstance(c, ShiftOperator):
        raise TypeError(f"C must be a ShiftOperator, got {type(c).__name__}")
    require_positive_finite("mu", mu)
    if num_taps < 2:
        raise ValueError("num_taps must be >= 2; K = 1 leaves no taps to solve for")
    fro = mu * float(np.linalg.norm(c.matrix))
    if not math.isfinite(fro * fro):  # the residual's norms square it
        raise ValueError(
            f"||mu C||_F = {fro:.3e} is beyond the solver's reach: its square overflows"
        )
    target = mu * c.matrix
    if num_taps == 2:
        s_matrix = target - np.eye(target.shape[0])
    else:
        gammas, vecs = np.linalg.eigh(target)
        roots = np.array([power_sum_root(g, num_taps) for g in gammas])
        s_matrix = (vecs * roots) @ vecs.T
    s_matrix = (s_matrix + s_matrix.T) / 2.0
    scale_ref = max(np.linalg.norm(target), 1e-300)
    residual = float(np.linalg.norm(power_sum(s_matrix, num_taps) - target) / scale_ref)
    residual = residual if math.isfinite(scale_ref) else math.nan  # an infinite scale hides any error
    if not residual <= RESIDUAL_RTOL:  # NaN included
        raise ValueError(
            f"reconstructed power sum misses the target: relative residual {residual:.3e}"
        )
    return GsoSolution(operator=ShiftOperator(s_matrix), mu=float(mu), residual=residual)
