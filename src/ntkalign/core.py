"""Core containers for graph signal datasets, shift operators and kernels.

Stacking convention used everywhere in this package: a dataset of M graph
signals ``X`` (shape n x M, one signal per column) is flattened sample-major,

    x_stacked[i * n + a] = X[a, i],

i.e. ``X.ravel(order="F")``.  The M-fold block-diagonal lift of a shift
operator S acts on stacked vectors block by block and is never materialised
as an (nM x nM) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

SYMMETRY_ATOL = 1e-10
NTK_SYMMETRY_RTOL = 1e-8
NTK_PSD_RTOL = 1e-8


def require_positive_finite(name: str, value: float) -> None:
    """The one rule for a positive real (mu, alpha, eta, kappa, noise and
    ``beta_first_layer``'s norm bound): ValueError unless positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _frozen_array(a, ndim: int) -> np.ndarray:
    """A checked read-only float64 array: ``a`` itself when it already is one
    whose data no array can write, else a copy, so a caller's array is never frozen."""
    owner = a.base if type(a) is np.ndarray and a.base is not None else a
    kept = (type(a) is type(owner) is np.ndarray and a.dtype == np.float64 and owner.flags.owndata
            and not (a.flags.writeable or owner.flags.writeable))
    return _frozen(a if kept else np.array(a, dtype=float), ndim)


def _frozen(out: np.ndarray, ndim: int) -> np.ndarray:
    """``out`` itself, made read-only once it is checked to be ``ndim``-d and finite."""
    if out.ndim != ndim:
        raise ValueError(f"expected {ndim}-d array, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("array contains non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Paired input/target graph signals, one sample per column."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x, 2))
        object.__setattr__(self, "y", _frozen_array(self.y, 2))
        if self.x.shape != self.y.shape:
            raise ValueError(
                f"x and y must have matching shapes, got {self.x.shape} vs {self.y.shape}"
            )

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_samples(self) -> int:
        return self.x.shape[1]

    @property
    def max_column_norm(self) -> float:
        nx = np.linalg.norm(self.x, axis=0)
        ny = np.linalg.norm(self.y, axis=0)
        return float(max(nx.max(initial=0.0), ny.max(initial=0.0)))

    def normalized(self) -> "Dataset":
        """Globally rescale so the largest column norm is exactly 1."""
        scale = self.max_column_norm
        if scale == 0.0:
            raise ValueError("cannot normalize an all-zero dataset")
        return Dataset(self.x / scale, self.y / scale)


def stack(signals: np.ndarray) -> np.ndarray:
    """Flatten an (n x M) signal matrix into a length-nM vector, sample-major."""
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 2:
        raise ValueError(f"expected 2-d signal matrix, got shape {signals.shape}")
    return signals.ravel(order="F")


def as_stacked(v) -> np.ndarray:
    """Stack an (n x M) signal matrix; pass an already stacked vector through."""
    v = np.asarray(v, dtype=float)
    return stack(v) if v.ndim == 2 else v


def krylov_sequence(matrix: np.ndarray, signals: np.ndarray, num_taps: int) -> np.ndarray:
    """Return [signals, A signals, ..., A^{K-1} signals] stacked on axis 0."""
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    out = np.empty((num_taps,) + np.shape(signals), dtype=float)
    out[0] = signals
    for k in range(1, num_taps):
        out[k] = matrix @ out[k - 1]
    return out


class _MatrixShift:
    """Diffusion by a square ``matrix`` attribute, shared by every shift type."""

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    def powers_applied(self, signals: np.ndarray, num_taps: int) -> np.ndarray:
        """Return [signals, S signals, ..., S^{K-1} signals] stacked on axis 0."""
        return krylov_sequence(self.matrix, signals, num_taps)

    def normalized(self):
        """The same kind of operator rescaled to unit Frobenius norm."""
        fro = np.linalg.norm(self.matrix)
        if fro == 0.0:
            raise ValueError("cannot normalize the zero operator")
        return type(self)(self.matrix / fro)


@dataclass(frozen=True)
class ShiftOperator(_MatrixShift):
    """Symmetric graph shift operator; ``normalized()`` gives it unit Frobenius norm."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_array(self.matrix, 2)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"shift operator must be square, got {m.shape}")
        asym = np.abs(m - m.T).max(initial=0.0)
        if asym > SYMMETRY_ATOL:
            raise ValueError(f"shift operator not symmetric: max |S - S^T| = {asym:.3e}")
        object.__setattr__(self, "matrix", m)


# A loss above this multiple of its starting value counts as divergence.
DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Training loss blew up; records the step at which it happened."""

    def __init__(self, step: int, loss: float):
        self.step = step
        self.loss = loss
        super().__init__(f"training diverged at step {step} (loss {loss:.3e})")


class NtkMatrix:
    """Stacked tangent-kernel matrix, dense or factored.

    ``info`` records how the kernel was built (model, layer, taps, seeds,
    truncation diagnostics); each constructor in ``ntk`` fills it in.

    Exactly one of ``matrix`` and ``factor`` is set; the other is None.

    Dense (the default): ``matrix`` is the nM x nM kernel.  Construction
    validates symmetry (relative Frobenius) and positive semidefiniteness
    (smallest eigenvalue above -1e-8 times the operator norm).  Both the
    validation and ``eigenpairs`` read the lower triangle, so their
    eigenvalues agree.

    Factored (``factored=True``): ``factor`` is F of size nM x r and the
    kernel is F F', symmetric PSD by construction, so only F's shape and
    finiteness are checked.  The spectrum comes from the thin SVD of F,
    and the nM x nM kernel is never formed.

    Each kernel holds one eigendecomposition, computed when first needed
    (a factored kernel's SVD, or a dense kernel's eigh), which every
    spectral quantity reads.
    """

    def __init__(self, matrix, info: Mapping | None = None, *, factored: bool = False):
        m = _frozen_array(matrix, 2)
        self.info = dict(info or {})
        if factored:
            self.matrix, self.factor, self._eigenvalues = None, m, None
            return
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {m.shape}")
        fro = np.linalg.norm(m)
        if fro > 0:
            asym = np.linalg.norm(m - m.T) / fro
            if asym > NTK_SYMMETRY_RTOL:
                raise ValueError(f"kernel not symmetric: relative asymmetry {asym:.3e}")
        eigs = np.linalg.eigvalsh(m)
        op_norm = float(np.abs(eigs).max(initial=0.0))
        if eigs.size and eigs[0] < -NTK_PSD_RTOL * max(op_norm, 1e-300):
            raise ValueError(
                f"kernel not PSD: min eigenvalue {eigs[0]:.3e} vs scale {op_norm:.3e}"
            )
        eigs.setflags(write=False)
        self.matrix, self.factor, self._eigenvalues = m, None, eigs

    @property
    def size(self) -> int:
        return (self.matrix if self.factor is None else self.factor).shape[0]

    @cached_property
    def eigenpairs(self) -> tuple:
        """(eigenvalues ascending, orthonormal eigenvectors as columns).

        A dense kernel gives all nM pairs; a factored kernel gives the
        min(nM, r) pairs spanning F's columns, and its other eigenvalues
        are 0.
        """
        if self.factor is None:
            evals, vecs = np.linalg.eigh(self.matrix)
        else:
            u, sv, _ = np.linalg.svd(self.factor, full_matrices=False)
            evals, vecs = sv[::-1] ** 2, u[:, ::-1]
        evals.setflags(write=False)
        vecs.setflags(write=False)
        return evals, vecs

    @property
    def eigenvalues(self) -> np.ndarray:
        """All nM eigenvalues in ascending order.

        A dense kernel's come from its validation at construction; a
        factored kernel's are the squared singular values of F, padded
        with zeros.
        """
        if self._eigenvalues is None:
            evals = self.eigenpairs[0]
            padded = np.concatenate((np.zeros(self.size - evals.size), evals))
            padded.setflags(write=False)
            self._eigenvalues = padded
        return self._eigenvalues

    @property
    def operator_norm(self) -> float:
        return float(np.abs(self.eigenvalues).max(initial=0.0))

    def rank_estimate(self) -> int:
        """The number of eigenvalues above 1e-10 times the operator norm."""
        cutoff = 1e-10 * max(self.operator_norm, 1e-300)
        return int(np.count_nonzero(self.eigenvalues > cutoff))

    def quadratic_form(self, v: np.ndarray) -> float:
        """v' Theta~ v; for a factored kernel ||F' v||^2."""
        v = np.asarray(v, dtype=float)
        if self.factor is None:
            return float(v @ self.matrix @ v)
        w = self.factor.T @ v
        return float(w @ w)
