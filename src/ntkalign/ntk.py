"""Tangent-kernel construction for graph filters and two-layer GNNs.

Three routes to the stacked nM x nM kernel:

* empirical: Jacobian product J J^T of a concrete model; for a random
  two-layer GNN (``init_gnn2``) this is the finite-width kernel that width
  studies compare with the infinite-width limit;
* analytic graph filter: sum_k S~^k x~ x~^T S~^k, parameter-free;
* infinite-width GNN: conjugated expectation matrix E (or the first-layer
  E1) of the tanh network, each one odd Mehler series sum_i c_i c_i'
  rho^(2i+1) truncated at a certified residual (c_i the odd tanh
  coefficients for E, the even sech^2 ones times |z_a| for E1), built by
  ``expectation_series`` from the per-layer table ``hermite.LAYERS``, with
  pair quadrature kept as the reference; the full kernel sums E + E1 in
  one Mehler pass over both layers' coefficient columns.

The analytic filter and empirical kernels are returned in factored form
(F = Z or F = J, kernel F F^T), so their spectra come from a thin SVD and
their nM x nM kernel is never formed.  The infinite-width kernel is dense;
intended for nM up to a few thousand.
Kernels, training and alignment read the tap stack [S~^k x~]_k from one
``TapStack`` per (S, x, K), one sample-major (K, M, n) array of which Z
(nM x K) is a view.  Row ell of Z is [x~_ell, (S~ x~)_ell, ...], so
Z Z^T is the linear kernel B_lin; row norms feed the Hermite series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Dataset,
    NtkMatrix,
    ShiftOperator,
    _frozen,
    _frozen_array,
)
from .hermite import DEFAULT_POINTS, LAYERS, gauss_hermite_rule, hermite_series, sech2
from .models import FilterParams, TwoLayerGnnParams, filter_jacobian, gnn2_jacobian

RHO_OVERSHOOT_TOL = 1e-9
# Entries per row block of the Mehler sum: 512 KB per block array, so the
# block's accumulator, rho^2 and term stay in a 2 MB L2 cache across degrees.
MEHLER_BLOCK = 65536
# Rows of n per chunk of the power sum's right product: 640 KB at n = 20.
POWER_SUM_CHUNK = 4096
# Pairs per block of the quadrature references.
QUADRATURE_CHUNK = 512


class CorrelationOvershootError(RuntimeError):
    """Row correlations exceed 1 by more than round-off."""


def _signals(data) -> np.ndarray:
    return data.x if isinstance(data, Dataset) else data


@dataclass(frozen=True)
class TapStack:
    """The tap stack [S~^k x~]_k of one (S, x, K), built by ``z_vectors``.

    ``powers`` is its one array, read-only: X[k, m, a] = (S^k x_m)_a of
    ``models.tap_powers``, (K, M, n), which the GNN pass reads as is.
    ``matrix`` is Z (nM x K), the filter Jacobian, in Fortran order, and
    ``blocks`` is Z per sample, (M, n, K); both are views of X.
    """

    powers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "powers", _frozen_array(self.powers, 3))

    @property
    def num_taps(self) -> int:
        return self.powers.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self.powers.reshape(self.num_taps, -1).T

    @property
    def blocks(self) -> np.ndarray:
        return self.powers.transpose(1, 2, 0)

    @property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=1)

    def gram(self) -> np.ndarray:
        return self.matrix @ self.matrix.T

    def kernel(self) -> NtkMatrix:
        """The analytic graph-filter NTK Z Z^T, factored as F = Z; rank at most K."""
        return NtkMatrix(self.matrix, info={"num_taps": self.num_taps}, factored=True)

    @cached_property
    def correlations(self):
        """Row norms, clamped correlation matrix, and zero-norm row indices.

        Computed once per instance and shared by every expectation matrix
        built from it.  Correlations are clamped to [-1, 1]; an overshoot
        beyond round-off scale raises instead of being hidden.
        """
        norms = self.norms
        zero_rows = np.flatnonzero(norms == 0.0)
        safe = np.where(norms == 0.0, 1.0, norms)
        rho = self.gram() / np.outer(safe, safe)
        overshoot = np.abs(rho).max(initial=0.0) - 1.0
        if overshoot > RHO_OVERSHOOT_TOL:
            raise CorrelationOvershootError(
                f"correlation overshoot {overshoot:.3e} exceeds round-off budget"
            )
        rho = np.clip(rho, -1.0, 1.0)
        rho[zero_rows, :] = 0.0
        rho[:, zero_rows] = 0.0
        np.fill_diagonal(rho, 1.0)
        rho[zero_rows, zero_rows] = 0.0
        rho.setflags(write=False)
        return norms, rho, tuple(int(i) for i in zero_rows)


def z_vectors(s: ShiftOperator, data, num_taps: int) -> TapStack:
    """The tap stack of (s, x, K): X as ``filter_jacobian`` builds it, with no copy."""
    z = filter_jacobian(s, _signals(data), num_taps)  # a view of X
    return TapStack(z.T.reshape(num_taps, -1, s.num_nodes))


def filter_ntk(s: ShiftOperator, data, num_taps: int) -> NtkMatrix:
    """Analytic graph-filter NTK of (s, x, K): ``TapStack.kernel``.

    Independent of the taps.
    """
    return z_vectors(s, data, num_taps).kernel()


def empirical_ntk(s: ShiftOperator, params, data) -> NtkMatrix:
    """Jacobian-product NTK J J^T of a concrete model, factored as F = J.

    A filter's J is the tap stack Z, so its kernel is ``filter_ntk``.
    """
    if isinstance(params, FilterParams):
        return filter_ntk(s, data, params.num_taps)
    if not isinstance(params, TwoLayerGnnParams):
        raise TypeError(f"no Jacobian route for {type(params).__name__}")
    info = {"model": "gnn2", "width": params.width, "num_taps": params.num_taps}
    return NtkMatrix(gnn2_jacobian(s, params, _signals(data)), info=info, factored=True)


@dataclass(frozen=True)
class ExpectationMatrix:
    """Hidden-feature second-moment matrix E (or its first-layer analog).

    ``info`` is its diagnostics as a report carries them: ``method``,
    ``n_points``, for the series ``max_degree`` and ``truncation_residual``
    (a bound on the entrywise error against the untruncated series), and
    ``zero_rows``, the stacked indices whose shift profile vanishes (their
    rows and columns are 0), when there are any.  ``leading`` is a series'
    degree-1 column c_0 (B = c_0 c_0' * rho), copied so the coefficient
    table is freed; by Stein's identity it is g_1(|z|) for either layer
    (tau_0(|z|^2) |z| for E1), up to each series' projection round-off.
    ``matrix`` is the builder's fresh array, kept read-only.
    """

    matrix: np.ndarray
    info: dict
    leading: np.ndarray | None = None

    def __post_init__(self):
        _frozen(self.matrix, 2)


def _report_info(method: str, zero_rows: tuple, **diagnostics) -> dict:
    return {"method": method, **diagnostics, **({"zero_rows": zero_rows} if zero_rows else {})}


def _pair_quadrature(fn, norms, rho, n_points) -> np.ndarray:
    """E[fn(|z_a| u) fn(|z_b| u')] over rho-correlated pairs, upper triangle."""
    nm = norms.shape[0]
    nodes, weights = gauss_hermite_rule(n_points)
    w2 = np.outer(weights, weights)
    u = nodes[None, :, None]
    v = nodes[None, None, :]
    ii, jj = np.triu_indices(nm)
    out = np.zeros((nm, nm))
    for start in range(0, ii.size, QUADRATURE_CHUNK):
        a = ii[start : start + QUADRATURE_CHUNK]
        b = jj[start : start + QUADRATURE_CHUNK]
        r = rho[a, b][:, None, None]
        uprime = r * u + np.sqrt(1.0 - r * r) * v
        vals = fn(norms[a][:, None, None] * u) * fn(norms[b][:, None, None] * uprime)
        e = (vals * w2[None]).sum(axis=(1, 2))
        out[a, b] = e
        out[b, a] = e
    return out


def _zero_out(matrix: np.ndarray, zero_rows) -> np.ndarray:
    if zero_rows:
        idx = list(zero_rows)
        matrix[idx, :] = 0.0
        matrix[:, idx] = 0.0
    return matrix


def expectation_E_quadrature(
    z: TapStack, n_points: int = DEFAULT_POINTS
) -> ExpectationMatrix:
    """E_ab = E[tanh(|z_a| u) tanh(|z_b| u')] by tensor Gauss-Hermite.

    u' = rho_ab u + sqrt(1 - rho_ab^2) v reduces each pair to a 2D rule.
    It has no error estimate; it is kept as the reference for the series.
    """
    norms, rho, zero_rows = z.correlations
    e = _zero_out(_pair_quadrature(np.tanh, norms, rho, n_points), zero_rows)
    return ExpectationMatrix(e, _report_info("quadrature", zero_rows, n_points=n_points))


def _mehler_sum(columns: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_i C_i C_i' * rho^(2i+1) over the (L, nM, r) column blocks C_i of columns.

    E[f(u) g(u')] for rho-correlated standard Gaussians is sum_d f_d g_d
    rho^d (Mehler); both layers' matrices are odd series in rho, and C_i
    holds r layers' degree-i columns, so r = 2 sums both in one pass.
    Horner in rho^2 takes three passes over the matrix per degree, one
    ``np.dot`` for C_i C_i' (BLAS even at r = 1, where ``np.matmul`` is
    slower than an outer product), and one last product with rho.  The
    passes run one block of max(1, MEHLER_BLOCK // nM) rows at a time,
    every degree on a block before the next, so the block stays in cache;
    each entry gets the same operations in the same order at any block
    size.  At r = 1 each term is one vector's outer product times a power
    of the symmetric rho, so the sum is symmetric entry for entry.
    """
    out = np.empty_like(rho)
    step = max(1, MEHLER_BLOCK // rho.shape[1])
    for start in range(0, rho.shape[0], step):
        rows = slice(start, start + step)
        rho_sq = rho[rows] * rho[rows]
        acc = out[rows]
        acc[...] = 0.0
        term = np.empty_like(acc)
        for c in columns[::-1]:
            acc *= rho_sq
            np.dot(c[rows], c.T, out=term)
            acc += term
        acc *= rho[rows]
    return out


def _layer_series(z: TapStack, layer: str):
    """A layer's Mehler coefficient columns (nM x degrees) and report-form info.

    ``hermite_series`` truncates at the first degree whose certified
    residual meets hermite.SERIES_RTOL; Cauchy-Schwarz over the dropped
    degrees bounds each entry's error by sqrt(tail_a tail_b), and
    ``truncation_residual`` is the largest bound.  The first layer's even
    sech^2 series times <z_a, z_b> = rho_ab |z_a| |z_b| is odd in rho, its
    coefficients tau_2i(|z_a|) scaled by |z_a|; with its tails scaled by
    |z_a|^2 the bound holds, as |rho| <= 1.  No matrix is formed here.
    """
    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r}; the layers are 'second' and 'first'")
    fn, parity, method = LAYERS[layer]
    norms, _, zero_rows = z.correlations
    scale = norms if parity == 0 else np.ones_like(norms)
    coeffs, _, degree, residual, n_points = hermite_series(
        fn, norms, parity, row_weight=scale * scale
    )
    coeffs *= scale[:, None]
    info = _report_info(method, zero_rows, max_degree=degree, n_points=n_points,
                        truncation_residual=residual)
    return coeffs, info


def expectation_series(z: TapStack, layer: str) -> ExpectationMatrix:
    """E (``layer='second'``) or E1 (``'first'``) as sum_i c_i c_i' rho^(2i+1).

    c_i are the odd tanh coefficients g_(2i+1)(|z_a|) for E and the even
    sech^2 ones times the row norm, tau_2i(|z_a|) |z_a|, for E1, the series
    counterpart of ``expectation_E_first_layer``.  Both are exactly
    symmetric and exactly 0 on zero rows, where rho is 0.
    """
    coeffs, info = _layer_series(z, layer)
    matrix = _mehler_sum(coeffs.T[:, :, None], z.correlations[1])
    return ExpectationMatrix(matrix, info, coeffs[:, 0].copy())


def expectation_E_first_layer(
    z: TapStack, n_points: int = DEFAULT_POINTS
) -> ExpectationMatrix:
    """First-layer analog: E[sech^2(|z_a| u) sech^2(|z_b| u')] <z_a, z_b>.

    The derivative pair expectation multiplies the Gram matrix entrywise.
    """
    norms, rho, zero_rows = z.correlations
    e1 = _zero_out(_pair_quadrature(sech2, norms, rho, n_points) * z.gram(), zero_rows)
    info = _report_info("first_layer_quadrature", zero_rows, n_points=n_points)
    return ExpectationMatrix(e1, info)


def conjugated_power_sum(
    s: ShiftOperator, matrix: np.ndarray, num_taps: int, num_samples: int
) -> np.ndarray:
    """sum_k S~^k A S~^k for a symmetric A, without the block-diagonal lift.

    Horner in the conjugation, acc <- S~ acc S~ + A, on the result's own
    buffer: S~ is applied from the left one sample block at a time and from
    the right in chunks of POWER_SUM_CHUNK rows of n, so no nM x nM array
    but the result is allocated.  The row and column products round
    differently, so the result's upper triangle is copied onto its lower
    one, one block row at a time: the sum is then exactly symmetric, as it
    is in exact arithmetic.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = s.num_nodes
    if matrix.shape != (n * num_samples, n * num_samples):
        raise ValueError(f"matrix shape {matrix.shape} does not match lift size")
    acc = matrix.copy()
    by_node = acc.reshape(-1, n)  # row r holds one sample's n columns of one row of acc
    for _ in range(1, num_taps):
        for i in range(num_samples):
            rows = acc[i * n : (i + 1) * n]
            np.matmul(s.matrix, rows, out=rows)
        for start in range(0, by_node.shape[0], POWER_SUM_CHUNK):
            chunk = by_node[start : start + POWER_SUM_CHUNK]
            np.matmul(chunk, s.matrix, out=chunk)
        acc += matrix
    lower = np.tril_indices(n, -1)
    for i in range(num_samples):
        rows = slice(i * n, (i + 1) * n)
        acc[rows, : i * n] = acc[: i * n, rows].T
        diagonal = acc[rows, rows]
        diagonal[lower] = diagonal.T[lower]
    return acc


def gnn_infinite_ntk(
    s: ShiftOperator,
    data,
    num_taps: int,
    layer: str = "second",
) -> NtkMatrix:
    """Infinite-width GNN NTK contribution: sum_k S~^k E S~^k.

    ``layer='second'`` uses the tanh second-moment matrix E,
    ``layer='first'`` the derivative-weighted Gram E1, and ``layer='both'``
    their sum, the full kernel, with each layer's diagnostics under
    ``info['layers']``.  Each layer's Hermite series is truncated at a
    certified residual.  One Mehler pass sums the layers' coefficient
    columns side by side, the shorter series padded with zero columns, and
    the tap stack's correlation matrix is released before the conjugated
    power sum (the map is linear, so one sum serves both layers).
    """
    layers = ("second", "first") if layer == "both" else (layer,)
    z = z_vectors(s, data, num_taps)
    series = [_layer_series(z, name) for name in layers]
    columns = np.zeros((max(c.shape[1] for c, _ in series), z.matrix.shape[0], len(series)))
    for j, (coeffs, _) in enumerate(series):
        columns[: coeffs.shape[1], :, j] = coeffs.T
    theta, num_samples = _mehler_sum(columns, z.correlations[1]), z.powers.shape[1]
    del z  # and with it the correlation matrix
    theta = conjugated_power_sum(s, theta, num_taps, num_samples)
    infos = {name: info for name, (_, info) in zip(layers, series)}
    info = {"layers": infos} if layer == "both" else infos[layer]
    theta.setflags(write=False)  # so NtkMatrix keeps it rather than a copy
    return NtkMatrix(theta, info={"layer": layer, "num_taps": num_taps, **info})
