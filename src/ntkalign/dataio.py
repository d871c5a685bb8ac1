r"""Synthetic time series with planted cross-covariance structure, plus CSV I/O.

The generator is a first-order vector autoregression.  Its transition
matrix controls the lag cross-covariance directly, which is what the
shift-operator comparison experiments exploit: a transition with one
dominant eigendirection plants that direction as the top eigenvector of
the symmetrized cross-covariance of (input, lagged-output) pairs.

Normalization of extracted pairs is a single global scalar over the
train and test columns together, so covariance and cross-covariance
directions are untouched and every column norm is at most 1.

CSV files carry every float at 17 significant digits, so a float64 reads
back exactly.  ``save_csv`` formats blocks of rows with one ``%``
operation each and writes the bytes ``np.savetxt(fmt="%.17g")`` would;
``format_rows`` is the one row formatter, which ``models.save_params``
shares.  ``load_csv`` reads the text once and splits it on ``\n``,
``\r\n`` and ``\r`` line ends and on commas; only a text holding a quote
character goes through ``csv.reader``.  Either way the cells, and so the
header detection, blank-row handling and error messages, are those
``csv.reader`` gives.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset

BURN_IN_STEPS = 100
BLOCK_CELLS = 1024  # cells formatted per % operation in save_csv


class UnstableProcessError(ValueError):
    """Transition matrix has spectral radius at least 1."""


class EmptyInputError(ValueError):
    """CSV file holds no data rows."""


class CsvFormatError(ValueError):
    """Ragged or non-numeric CSV content; the message names row and column."""


def spectral_radius(matrix: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(matrix)).max())


@dataclass(frozen=True)
class VarProcessConfig:
    """z_{t+1} = transition z_t + noise_scale w_t with standard normal w."""

    num_nodes: int
    num_steps: int
    transition: np.ndarray
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        a = np.asarray(self.transition, dtype=float)
        if a.shape != (self.num_nodes, self.num_nodes):
            raise ValueError(
                f"transition must be {self.num_nodes} x {self.num_nodes}, got {a.shape}"
            )
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if not (self.noise_scale > 0 and math.isfinite(self.noise_scale)):
            raise ValueError("noise_scale must be positive and finite")
        radius = spectral_radius(a)
        if radius >= 1.0:
            raise UnstableProcessError(
                f"spectral radius {radius:.4f} >= 1; the process is not stationary"
            )
        object.__setattr__(self, "transition", a)


def generate_var(cfg: VarProcessConfig) -> np.ndarray:
    """Simulate the process and return the (num_nodes, num_steps) series.

    Starts from zero, discards a fixed burn-in, deterministic per seed.
    """
    rng = np.random.default_rng(cfg.seed)
    series = np.empty((cfg.num_nodes, cfg.num_steps))
    z = np.zeros(cfg.num_nodes)
    for t in range(-BURN_IN_STEPS, cfg.num_steps):
        z = cfg.transition @ z + cfg.noise_scale * rng.standard_normal(cfg.num_nodes)
        if t >= 0:
            series[:, t] = z
    return series


def planted_transition(
    num_nodes: int, seed: int = 0, strength: float = 0.9, background: float = 0.2
) -> tuple:
    """Symmetric stable transition with one dominant eigendirection.

    Returns (A, u) with A u = strength u; the remaining eigenvalues are
    spread evenly over [-background, background], so the gap makes u
    recoverable from the lag cross-covariance.  The sign-mixed background
    spectrum is deliberate: the covariance of the stationary series is even
    in these eigenvalues while the lag cross-covariance is odd, so only the
    latter retains the map's directional information.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not 0.0 <= background < strength < 1.0:
        raise ValueError("need 0 <= background < strength < 1")
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((num_nodes, num_nodes)))[0]
    u = basis[:, 0]
    if num_nodes == 1:
        return strength * np.eye(1), u
    rest = np.linspace(-background, background, num_nodes - 1)
    a = strength * np.outer(u, u) + (basis[:, 1:] * rest) @ basis[:, 1:].T
    return a, u


@dataclass(frozen=True)
class PairExtractionConfig:
    """Input/output pairs (z_t, z_{t+horizon}) at sampled time points."""

    horizon: int
    num_train: int
    num_test: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.num_train < 1:
            raise ValueError("num_train must be >= 1")
        if self.num_test < 0:
            raise ValueError("num_test must be >= 0")


def extract_pairs(series: np.ndarray, cfg: PairExtractionConfig):
    """Sample pair indices without replacement and split train/test.

    Index sets are disjoint.  Both splits are scaled by one global scalar
    chosen so the largest column norm across all extracted columns is
    exactly 1.  Returns (train, test) with test None when num_test is 0.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ValueError(f"expected a 2-d series, got shape {series.shape}")
    available = series.shape[1] - cfg.horizon
    needed = cfg.num_train + cfg.num_test
    if needed > available:
        raise ValueError(
            f"need {needed} pair indices but only {available} fit the horizon"
        )
    rng = np.random.default_rng(cfg.seed)
    idx = rng.choice(available, size=needed, replace=False)
    idx_train, idx_test = idx[: cfg.num_train], idx[cfg.num_train :]

    x_train = series[:, idx_train]
    y_train = series[:, idx_train + cfg.horizon]
    x_test = series[:, idx_test]
    y_test = series[:, idx_test + cfg.horizon]

    scale = max(
        float(np.linalg.norm(block, axis=0).max(initial=0.0))
        for block in (x_train, y_train, x_test, y_test)
    )
    if scale == 0.0:
        raise ValueError("all extracted columns are zero; cannot normalize")
    train = Dataset(x_train / scale, y_train / scale)
    test = Dataset(x_test / scale, y_test / scale) if cfg.num_test else None
    return train, test


def format_rows(block: np.ndarray) -> str:
    """CSV lines of a 2-d float array, 17 significant digits, in one ``%`` operation."""
    rows, cols = block.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    return (line * rows) % tuple(block.ravel().tolist())


def save_csv(matrix: np.ndarray, path, header=None) -> None:
    """Write a 2-d array as CSV at full float precision (17 digits).

    A 1-d array is one row.  The header line is written only when the
    joined header is non-empty.  Rows are formatted BLOCK_CELLS cells at a
    time (one row at a time when a row is longer); the file is
    byte-identical to ``np.savetxt(..., delimiter=",", fmt="%.17g")``.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.ndim > 2:
        raise ValueError(f"Expected 1D or 2D array, got {matrix.ndim}D array instead")
    head = ",".join(header) if header is not None else ""
    step = max(1, BLOCK_CELLS // max(matrix.shape[1], 1))
    with open(path, "w") as fh:
        if head:
            fh.write(head + "\n")
        for start in range(0, matrix.shape[0], step):
            fh.write(format_rows(matrix[start : start + step]))


def _split_rows(text: str) -> list:
    r"""Cells of each line, as ``csv.reader`` gives them for this text.

    Lines end at ``\r\n``, ``\r`` or ``\n`` only (``str.splitlines`` would
    also split on ``\x0c``, ``\x85`` and U+2028, which ``csv.reader`` keeps
    in a cell), and an empty line has no cells.  Quoted cells need
    ``csv.reader`` itself, so a text holding ``"`` goes through it.
    """
    if '"' in text:
        return list(csv.reader(io.StringIO(text, newline="")))
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [line.split(",") if line else [] for line in text.split("\n")]


def load_csv(path) -> np.ndarray:
    """Read a rectangular numeric CSV; a non-numeric first row is a header."""
    with open(path, newline="") as fh:
        rows = _split_rows(fh.read())
    while rows and not any(cell.strip() for cell in rows[-1]):
        rows.pop()
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")

    first_row = 1
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        rows, first_row = rows[1:], 2  # header row
        if not rows:
            raise EmptyInputError(f"{path}: header only, no data rows") from None

    width = len(rows[0])
    for number, cells in enumerate(rows, first_row):
        if len(cells) != width:
            raise CsvFormatError(f"row {number}: expected {width} columns, got {len(cells)}")
    try:
        return np.array(rows, dtype=float)  # numpy parses str cells by float()'s rules
    except ValueError:  # find the cell to name
        for number, cells in enumerate(rows, first_row):
            for j, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"row {number}, column {j + 1}: not numeric: {cell.strip()!r}"
                    ) from None
        raise
