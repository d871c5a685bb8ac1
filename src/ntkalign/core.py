"""Core containers for graph signal datasets, shift operators and kernels.

Stacking convention used everywhere in this package: a dataset of M graph
signals ``X`` (shape n x M, one signal per column) is flattened sample-major,

    x_stacked[i * n + a] = X[a, i],

i.e. ``X.ravel(order="F")``.  The M-fold block-diagonal lift of a shift
operator S acts on stacked vectors block by block and is never materialised
as an (nM x nM) matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

SYMMETRY_ATOL = 1e-10
UNIT_FRO_ATOL = 1e-10
NTK_SYMMETRY_RTOL = 1e-8
NTK_PSD_RTOL = 1e-8


def _frozen_array(a, dtype=float, ndim=None) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    if ndim is not None and out.ndim != ndim:
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
        object.__setattr__(self, "x", _frozen_array(self.x, ndim=2))
        object.__setattr__(self, "y", _frozen_array(self.y, ndim=2))
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

    def is_normalized(self, atol: float = 1e-12) -> bool:
        return self.max_column_norm <= 1.0 + atol

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


def unstack(v: np.ndarray, num_nodes: int, num_samples: int) -> np.ndarray:
    """Inverse of :func:`stack`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (num_nodes * num_samples,):
        raise ValueError(
            f"expected vector of length {num_nodes * num_samples}, got shape {v.shape}"
        )
    return v.reshape(num_nodes, num_samples, order="F")


def matrix_powers_applied(matrix: np.ndarray, signals: np.ndarray, num_taps: int) -> np.ndarray:
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
        return matrix_powers_applied(self.matrix, signals, num_taps)


@dataclass(frozen=True)
class ShiftOperator(_MatrixShift):
    """Symmetric graph shift operator.

    ``frobenius_unit=True`` additionally pins the Frobenius norm to 1, the
    normalization under which the alignment bounds and sweeps are stated.
    """

    matrix: np.ndarray
    frobenius_unit: bool = False

    def __post_init__(self):
        m = _frozen_array(self.matrix, ndim=2)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"shift operator must be square, got {m.shape}")
        asym = np.abs(m - m.T).max(initial=0.0)
        if asym > SYMMETRY_ATOL:
            raise ValueError(f"shift operator not symmetric: max |S - S^T| = {asym:.3e}")
        if self.frobenius_unit:
            fro = np.linalg.norm(m)
            if abs(fro - 1.0) > UNIT_FRO_ATOL:
                raise ValueError(f"frobenius_unit requested but ||S||_F = {fro!r}")
        object.__setattr__(self, "matrix", m)

    def normalized(self) -> "ShiftOperator":
        fro = np.linalg.norm(self.matrix)
        if fro == 0.0:
            raise ValueError("cannot normalize the zero operator")
        return ShiftOperator(self.matrix / fro, frobenius_unit=True)


class NtkKind(enum.Enum):
    """How a tangent-kernel matrix was produced."""

    FILTER_ANALYTIC = "filter_analytic"
    EMPIRICAL = "empirical"
    GNN_INFINITE_SERIES = "gnn_infinite_series"
    GNN_MONTE_CARLO = "gnn_monte_carlo"


# A loss above this multiple of its starting value counts as divergence.
DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Training loss blew up; records the step at which it happened."""

    def __init__(self, step: int, loss: float):
        self.step = step
        self.loss = loss
        super().__init__(f"training diverged at step {step} (loss {loss:.3e})")


class NtkMatrix:
    """Stacked tangent-kernel matrix with provenance, dense or factored.

    Dense (the default): ``matrix`` is the nM x nM kernel.  Construction
    validates symmetry (relative Frobenius) and positive semidefiniteness
    (smallest eigenvalue above -1e-8 times the operator norm).

    Factored (``factored=True``): ``matrix`` is a factor F of size nM x r
    and the kernel is F F', symmetric PSD by construction, so only F's
    shape and finiteness are checked.  The spectrum comes from the thin
    SVD of F, and the nM x nM kernel is formed only when ``.matrix`` is
    read.

    Each kernel holds one eigendecomposition, computed when first needed
    (a factored kernel's SVD, or a dense kernel's eigh), which every
    spectral quantity reads.
    """

    def __init__(
        self, matrix, kind: NtkKind, info: Mapping | None = None, *, factored: bool = False
    ):
        m = _frozen_array(matrix, ndim=2)
        self.kind = kind
        self.info = dict(info or {})
        if factored:
            self.factor, self._dense, self._eigenvalues = m, None, None
            return
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {m.shape}")
        fro = np.linalg.norm(m)
        if fro > 0:
            asym = np.linalg.norm(m - m.T) / fro
            if asym > NTK_SYMMETRY_RTOL:
                raise ValueError(f"kernel not symmetric: relative asymmetry {asym:.3e}")
        eigs = np.linalg.eigvalsh((m + m.T) / 2.0)
        op_norm = float(np.abs(eigs).max(initial=0.0))
        if eigs.size and eigs[0] < -NTK_PSD_RTOL * max(op_norm, 1e-300):
            raise ValueError(
                f"kernel not PSD: min eigenvalue {eigs[0]:.3e} vs scale {op_norm:.3e}"
            )
        eigs.setflags(write=False)
        self.factor, self._dense, self._eigenvalues = None, m, eigs

    @property
    def matrix(self) -> np.ndarray:
        """The nM x nM kernel; a factored kernel forms F F' on first read."""
        if self._dense is None:
            dense = self.factor @ self.factor.T
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    @property
    def size(self) -> int:
        return (self._dense if self.factor is None else self.factor).shape[0]

    @cached_property
    def eigenpairs(self) -> tuple:
        """(eigenvalues ascending, orthonormal eigenvectors as columns).

        A dense kernel gives all nM pairs; a factored kernel gives the
        min(nM, r) pairs spanning F's columns, and its other eigenvalues
        are 0.
        """
        if self.factor is None:
            evals, vecs = np.linalg.eigh(self._dense)
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

    @property
    def frobenius_norm(self) -> float:
        """||Theta~||_F; for a factored kernel ||F' F||_F, which is equal."""
        if self.factor is None:
            return float(np.linalg.norm(self._dense))
        return float(np.linalg.norm(self.factor.T @ self.factor))

    def rank_estimate(self, rtol: float = 1e-10) -> int:
        cutoff = rtol * max(self.operator_norm, 1e-300)
        return int(np.count_nonzero(self.eigenvalues > cutoff))

    def quadratic_form(self, v: np.ndarray) -> float:
        """v' Theta~ v; for a factored kernel ||F' v||^2."""
        v = np.asarray(v, dtype=float)
        if self.factor is None:
            return float(v @ self.matrix @ v)
        w = self.factor.T @ v
        return float(w @ w)
