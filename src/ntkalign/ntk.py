"""Tangent-kernel construction for graph filters and two-layer GNNs.

Four routes to the stacked nM x nM kernel:

* empirical: Jacobian product of a concrete finite-width model;
* analytic graph filter: sum_k S~^k x~ x~^T S~^k, parameter-free;
* infinite-width GNN: conjugated expectation matrix E (or the first-layer
  E1) of the tanh network, each one odd Mehler series sum_i c_i c_i'
  rho^(2i+1) truncated at a certified residual (c_i the odd tanh
  coefficients for E, the even sech^2 ones times |z_a| for E1), with pair
  quadrature kept as the reference;
* Monte Carlo: the empirical kernel of a random network with a finite
  number of hidden features, for width studies.

The analytic filter, empirical and Monte Carlo kernels are returned in
factored form (F = Z or F = J, kernel F F^T), so their spectra come from a
thin SVD and nothing nM x nM is formed unless ``.matrix`` is read.  The
infinite-width kernel is dense; intended for nM up to a few thousand.
Kernels, training and alignment read the tap stack [S~^k x~]_k from one
``TapStack`` per (S, x, K).  Row ell of its Z is [x~_ell, (S~ x~)_ell, ...],
so Z Z^T is the linear kernel B_lin; row norms feed the Hermite series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    Dataset,
    NtkMatrix,
    ShiftOperator,
    _frozen_array,
)
from .hermite import gauss_hermite_rule, hermite_series, sech2
from .models import FilterParams, TwoLayerGnnParams, filter_jacobian, gnn2_jacobian

DEFAULT_QUADRATURE_POINTS = 64
RHO_OVERSHOOT_TOL = 1e-9
# Entries per row block of the Mehler sum: 512 KB per block array, so the
# block's accumulator, rho^2 and term stay in a 2 MB L2 cache across degrees.
MEHLER_BLOCK = 65536


class CorrelationOvershootError(RuntimeError):
    """Row correlations exceed 1 by more than round-off."""


def _signals(data) -> np.ndarray:
    x = data.x if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected (nodes, samples) signals, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class TapStack:
    """The tap stack [S~^k x~]_k of one (S, x, K) in three layouts, built by ``z_vectors``.

    ``matrix`` is Z (nM x K), the filter Jacobian; ``blocks`` views it per
    sample (M, n, K); ``x_powers`` is X (K, n, M) for the GNN pass, cached.
    """

    matrix: np.ndarray
    num_nodes: int
    num_samples: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, ndim=2))
        if self.matrix.shape[0] != self.num_nodes * self.num_samples:
            raise ValueError("row count must be num_nodes * num_samples")

    @property
    def num_taps(self) -> int:
        return self.matrix.shape[1]

    @property
    def blocks(self) -> np.ndarray:
        return self.matrix.reshape(self.num_samples, self.num_nodes, self.num_taps)

    @cached_property
    def x_powers(self) -> np.ndarray:
        x = np.ascontiguousarray(self.blocks.transpose(2, 1, 0))  # s.powers_applied's layout
        x.setflags(write=False)
        return x

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
    """The tap stack of (s, x, K): Z is ``filter_jacobian``, sample-major."""
    x = _signals(data)
    return TapStack(filter_jacobian(s, x, num_taps), num_nodes=x.shape[0], num_samples=x.shape[1])


def filter_ntk(s: ShiftOperator, data, num_taps: int) -> NtkMatrix:
    """Analytic graph-filter NTK of (s, x, K): ``TapStack.kernel``.

    Independent of the taps.
    """
    return z_vectors(s, data, num_taps).kernel()


def empirical_ntk(s: ShiftOperator, params, data) -> NtkMatrix:
    """Jacobian-product NTK J J^T of a concrete model, factored as F = J."""
    x = _signals(data)
    if isinstance(params, FilterParams):
        jac = filter_jacobian(s, x, params.num_taps)
        info = {"model": "filter", "num_taps": params.num_taps}
    elif isinstance(params, TwoLayerGnnParams):
        jac = gnn2_jacobian(s, params, x)
        info = {
            "model": "gnn2",
            "width": params.width,
            "num_taps": params.num_taps,
        }
    else:
        raise TypeError(f"no Jacobian route for {type(params).__name__}")
    return NtkMatrix(jac, info=info, factored=True)


@dataclass(frozen=True)
class ExpectationMatrix:
    """Hidden-feature second-moment matrix E (or its first-layer analog).

    ``zero_rows`` lists stacked indices whose shift profile vanishes; their
    rows and columns are defined as 0.  For the series methods
    ``truncation_residual`` bounds the entrywise error against the
    untruncated series.
    """

    matrix: np.ndarray
    method: str
    zero_rows: tuple = ()
    truncation_residual: float | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, ndim=2))


def _pair_quadrature(fn, norms, rho, n_points, chunk=512) -> np.ndarray:
    """E[fn(|z_a| u) fn(|z_b| u')] over rho-correlated pairs, upper triangle."""
    nm = norms.shape[0]
    nodes, weights = gauss_hermite_rule(n_points)
    w2 = np.outer(weights, weights)
    u = nodes[None, :, None]
    v = nodes[None, None, :]
    ii, jj = np.triu_indices(nm)
    out = np.zeros((nm, nm))
    for start in range(0, ii.size, chunk):
        a = ii[start : start + chunk]
        b = jj[start : start + chunk]
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
    z: TapStack, n_points: int = DEFAULT_QUADRATURE_POINTS
) -> ExpectationMatrix:
    """E_ab = E[tanh(|z_a| u) tanh(|z_b| u')] by tensor Gauss-Hermite.

    u' = rho_ab u + sqrt(1 - rho_ab^2) v reduces each pair to a 2D rule.
    It has no error estimate; it is kept as the reference for the series.
    """
    norms, rho, zero_rows = z.correlations
    e = _zero_out(_pair_quadrature(np.tanh, norms, rho, n_points), zero_rows)
    return ExpectationMatrix(e, "quadrature", zero_rows=zero_rows, info={"n_points": n_points})


def _mehler_sum(coeffs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_i c_i c_i' * rho^(2i+1), c_i the column i of coeffs.

    E[f(u) g(u')] for rho-correlated standard Gaussians is sum_d f_d g_d
    rho^d (Mehler), and both layers' matrices are odd series in rho; Horner
    in rho^2 keeps it to three passes over the matrix per degree, and one
    last product with rho.  The passes run one block of
    max(1, MEHLER_BLOCK // nM) rows at a time, every degree on a block
    before the next, so the block stays in cache; each entry gets the same
    operations in the same order at any block size.  Every term is an
    outer product of one vector times a power of the symmetric rho, so the
    sum is symmetric entry for entry.
    """
    out = np.empty_like(rho)
    step = max(1, MEHLER_BLOCK // rho.shape[1])
    for start in range(0, rho.shape[0], step):
        rows = slice(start, start + step)
        rho_sq = rho[rows] * rho[rows]
        acc = out[rows]
        acc[...] = 0.0
        term = np.empty_like(acc)
        for c in coeffs.T[::-1]:
            acc *= rho_sq
            np.multiply.outer(c[rows], c, out=term)
            acc += term
        acc *= rho[rows]
    return out


def expectation_E_series(z: TapStack) -> ExpectationMatrix:
    """E_ab = sum_d g_d(|z_a|) g_d(|z_b|) rho_ab^d over the odd degrees of tanh.

    ``hermite_series`` truncates the coefficients at the first degree whose
    certified residual meets hermite.SERIES_RTOL; Cauchy-Schwarz over the
    dropped degrees bounds each entry's error by sqrt(tail_a tail_b), and
    ``truncation_residual`` is the largest bound.  Zero rows come out
    exactly 0, because rho is 0 there.
    """
    norms, rho, zero_rows = z.correlations
    coeffs, _, degree, residual, n_points = hermite_series(np.tanh, norms, 1)
    info = {"max_degree": degree, "n_points": n_points}
    return ExpectationMatrix(_mehler_sum(coeffs, rho), "series", zero_rows, residual, info)


def expectation_E_first_layer_series(z: TapStack) -> ExpectationMatrix:
    """E1 = sum_i t_i t_i' rho^(2i+1), t_i = tau_2i(|z_a|) |z_a|, over the even sech^2 degrees.

    The series counterpart of ``expectation_E_first_layer``: with <z_a, z_b>
    = rho_ab |z_a| |z_b|, its term tau tau' rho^(2i) <z_a, z_b> is the odd
    term t_i t_i' rho^(2i+1), so E1 is the same odd Mehler sum as E.  Each
    row's tail is scaled by |z_a|^2 and |rho| <= 1, so sqrt(tail_a tail_b)
    |z_a| |z_b| still bounds the entrywise error.  E1 is exactly symmetric,
    as every Mehler sum is, and zero rows are exactly 0 (rho is 0 there).
    """
    norms, rho, zero_rows = z.correlations
    coeffs, _, degree, residual, n_points = hermite_series(
        sech2, norms, 0, row_weight=norms * norms
    )
    info = {"max_degree": degree, "n_points": n_points}
    e1 = _mehler_sum(coeffs * norms[:, None], rho)
    return ExpectationMatrix(e1, "first_layer_series", zero_rows, residual, info)


def expectation_E_first_layer(
    z: TapStack, n_points: int = DEFAULT_QUADRATURE_POINTS
) -> ExpectationMatrix:
    """First-layer analog: E[sech^2(|z_a| u) sech^2(|z_b| u')] <z_a, z_b>.

    The derivative pair expectation multiplies the Gram matrix entrywise.
    """
    norms, rho, zero_rows = z.correlations
    e1 = _zero_out(_pair_quadrature(sech2, norms, rho, n_points) * z.gram(), zero_rows)
    return ExpectationMatrix(
        e1, "first_layer_quadrature", zero_rows=zero_rows, info={"n_points": n_points}
    )


def conjugated_power_sum(
    s: ShiftOperator, matrix: np.ndarray, num_taps: int, num_samples: int
) -> np.ndarray:
    """sum_k S~^k A S~^k for a symmetric A, without the block-diagonal lift.

    The row and column products round differently, so the result's upper
    triangle is copied onto its lower one, one block row at a time: the
    sum is then exactly symmetric, as it is in exact arithmetic.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = s.num_nodes
    if matrix.shape != (n * num_samples, n * num_samples):
        raise ValueError(f"matrix shape {matrix.shape} does not match lift size")
    # apply S to the row blocks then the column blocks, once per power
    blk = matrix.reshape(num_samples, n, num_samples, n)
    acc = matrix.copy()
    for _ in range(1, num_taps):
        blk = np.einsum("ab,ibjc->iajc", s.matrix, blk)
        blk = np.einsum("ibjd,dc->ibjc", blk, s.matrix)
        acc += blk.reshape(matrix.shape)
    lower = np.tril_indices(n, -1)
    for i in range(num_samples):
        rows = slice(i * n, (i + 1) * n)
        acc[rows, : i * n] = acc[: i * n, rows].T
        diagonal = acc[rows, rows]
        diagonal[lower] = diagonal.T[lower]
    return acc


_LAYER_SERIES = {"second": expectation_E_series, "first": expectation_E_first_layer_series}


def expectation_info(e: ExpectationMatrix) -> dict:
    """The diagnostics of one expectation matrix, as a report carries them."""
    info = {"method": e.method, **e.info}
    if e.truncation_residual is not None:
        info["truncation_residual"] = e.truncation_residual
    if e.zero_rows:
        info["zero_rows"] = e.zero_rows
    return info


def gnn_infinite_ntk(
    s: ShiftOperator,
    data,
    num_taps: int,
    layer: str = "second",
) -> NtkMatrix:
    """Infinite-width GNN NTK contribution: sum_k S~^k E S~^k.

    ``layer='second'`` uses the tanh second-moment matrix E,
    ``layer='first'`` the derivative-weighted Gram E1, and ``layer='both'``
    their sum, the full kernel: one ``z_vectors``, one set of correlations
    and one conjugated power sum (the map is linear), with each layer's
    diagnostics under ``info['layers']``.  Each layer's Hermite series is
    truncated at a certified residual.
    """
    layers = ("second", "first") if layer == "both" else (layer,)
    if any(name not in _LAYER_SERIES for name in layers):
        raise ValueError(f"layer must be 'first', 'second' or 'both', got {layer!r}")
    z = z_vectors(s, data, num_taps)
    parts = {name: _LAYER_SERIES[name](z) for name in layers}
    total = sum(e.matrix for e in parts.values())
    theta = conjugated_power_sum(s, total, num_taps, z.num_samples)
    if layer == "both":
        info = {name: expectation_info(e) for name, e in parts.items()}
        info = {"layer": layer, "num_taps": num_taps, "layers": info}
    else:
        info = {"layer": layer, "num_taps": num_taps, **expectation_info(parts[layer])}
    return NtkMatrix(theta, info=info)


def gnn_monte_carlo_ntk(
    s: ShiftOperator,
    data,
    num_taps: int,
    num_features: int,
    seed: int,
    which_layer: str = "second",
) -> NtkMatrix:
    """Finite random-feature estimate of the infinite-width NTK layer terms.

    The estimate is the empirical kernel J J' of a random width-F tanh network
    with taps g, h ~ N(0, I_K) per feature, kept factored as F = J.  The
    second layer's block has columns S~^k sigma(Z g_f) / sqrt(F); the first
    layer's has H_f(S~)[sigma'(Z g_f) * S~^k x~] / sqrt(F), the readout
    taps h_f giving the polynomial in front of the derivative.  Each block
    is ``gnn2_jacobian`` of that layer.  ``which_layer='both'`` stacks them
    as [J_second, J_first] into one kernel, the second layer drawn from
    ``seed`` and the first from ``seed + 1``, with each layer's info under
    ``info['layers']``.  Each layer draws g, then h, from
    ``np.random.default_rng`` of its seed.
    """
    if num_features < 1:
        raise ValueError("num_features must be >= 1")
    seeds = {"second": seed, "first": seed + 1} if which_layer == "both" else {which_layer: seed}
    if any(name not in ("second", "first") for name in seeds):
        raise ValueError(f"which_layer must be 'first', 'second' or 'both', got {which_layer!r}")
    x = _signals(data)
    blocks = []
    infos = {}
    for name, layer_seed in seeds.items():
        rng = np.random.default_rng(layer_seed)
        g = rng.standard_normal((num_features, num_taps))
        h = rng.standard_normal((num_features, num_taps))
        blocks.append(gnn2_jacobian(s, TwoLayerGnnParams(g, h), x, name))
        infos[name] = {
            "layer": name,
            "num_features": num_features,
            "seed": layer_seed,
            "num_taps": num_taps,
        }
    info = {"layers": infos} if which_layer == "both" else infos[which_layer]
    return NtkMatrix(np.hstack(blocks), info=info, factored=True)
