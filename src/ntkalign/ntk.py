"""Tangent-kernel construction for graph filters and two-layer GNNs.

Four routes to the stacked nM x nM kernel:

* empirical: Jacobian product of a concrete finite-width model;
* analytic graph filter: sum_k S~^k x~ x~^T S~^k, parameter-free;
* infinite-width GNN: conjugated expectation matrix E (or the first-layer
  E1), each a Mehler sum of Hermite coefficients truncated at a certified
  residual (odd tanh degrees for E, even sech^2 degrees for E1), with
  pair quadrature kept as the reference;
* Monte Carlo: the empirical kernel of a random network with a finite
  number of hidden features, for width studies.

The analytic filter, empirical and Monte Carlo kernels are returned in
factored form (F = Z or F = J, kernel F F^T), so their spectra come from a
thin SVD and nothing nM x nM is formed unless ``.matrix`` is read.  The
infinite-width kernel is dense; intended for nM up to a few thousand.
Row ell of the Z matrix is the per-entry vector [x~_ell, (S~ x~)_ell, ...],
so Z Z^T is the linear kernel B_lin and row norms feed the Hermite
coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    Dataset,
    NtkKind,
    NtkMatrix,
    ShiftOperator,
    _frozen_array,
)
from .hermite import gauss_hermite_rule, hermite_series
from .models import (
    FilterParams,
    TwoLayerGnnParams,
    filter_jacobian,
    get_activation,
    gnn2_jacobian,
)

DEFAULT_QUADRATURE_POINTS = 64
RHO_OVERSHOOT_TOL = 1e-9
SERIES_WARNING_FACTOR = 1e-4


class CorrelationOvershootError(RuntimeError):
    """Row correlations exceed 1 by more than round-off."""


def _signals(data) -> np.ndarray:
    x = data.x if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected (nodes, samples) signals, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ZVectors:
    """Per-entry shift profiles: row ell is [x~_ell, (S~ x~)_ell, ...]."""

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
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=1)

    def gram(self) -> np.ndarray:
        return self.matrix @ self.matrix.T

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


def z_vectors(s: ShiftOperator, data, num_taps: int) -> ZVectors:
    x = _signals(data)
    powers = s.powers_applied(x, num_taps)  # (K, n, M)
    z = powers.transpose(2, 1, 0).reshape(-1, num_taps)
    return ZVectors(z, num_nodes=x.shape[0], num_samples=x.shape[1])


def b_lin(s: ShiftOperator, data, num_taps: int) -> np.ndarray:
    """Linear kernel sum_k S~^k x~ x~^T S~^k as a plain matrix.

    The dense reference for ``filter_ntk``, which keeps it factored.
    """
    z = z_vectors(s, data, num_taps).matrix
    return z @ z.T


def filter_ntk(s: ShiftOperator, data, num_taps: int) -> NtkMatrix:
    """Analytic graph-filter NTK Z Z^T, factored as F = Z; rank at most K.

    Independent of the taps.
    """
    return NtkMatrix(
        z_vectors(s, data, num_taps).matrix,
        NtkKind.FILTER_ANALYTIC,
        info={"num_taps": num_taps},
        factored=True,
    )


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
    return NtkMatrix(jac, NtkKind.EMPIRICAL, info=info, factored=True)


@dataclass(frozen=True)
class ExpectationMatrix:
    """Hidden-feature second-moment matrix E (or its first-layer analog).

    ``zero_rows`` lists stacked indices whose shift profile vanishes; their
    rows and columns are defined as 0.  For the series methods
    ``truncation_residual`` bounds the entrywise error against the
    untruncated series; the second-layer series also keeps its (B,
    delta_B) split.
    """

    matrix: np.ndarray
    method: str
    zero_rows: tuple = ()
    b: np.ndarray | None = None
    delta_b: np.ndarray | None = None
    truncation_residual: float | None = None
    truncation_warning: bool = False
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


def _analytic_activation(name: str):
    act = get_activation(name)
    if not act.analytic_ntk:
        raise ValueError(f"no infinite-width path for activation {name!r}")
    return act


def expectation_E_quadrature(
    z: ZVectors, activation: str = "tanh", n_points: int = DEFAULT_QUADRATURE_POINTS
) -> ExpectationMatrix:
    """E_ab = E[sigma(|z_a| u) sigma(|z_b| u')] by tensor Gauss-Hermite.

    u' = rho_ab u + sqrt(1 - rho_ab^2) v reduces each pair to a 2D rule.
    It has no error estimate; it is kept as the reference for the series.
    """
    act = _analytic_activation(activation)
    norms, rho, zero_rows = z.correlations
    e = _pair_quadrature(act.fn, norms, rho, n_points)
    e = _zero_out(e, zero_rows)
    return ExpectationMatrix(
        e, "quadrature", zero_rows=zero_rows, info={"n_points": n_points, "activation": activation}
    )


def _mehler_sum(coeffs: np.ndarray, rho: np.ndarray, first_degree: int) -> np.ndarray:
    """sum_d c_d c_d' * rho^d, column i of coeffs holding degree first_degree + 2i.

    E[f(u) g(u')] for rho-correlated standard Gaussians is sum_d f_d g_d
    rho^d (Mehler), so one sum serves both layers; Horner in rho^2 keeps
    it to three passes over the matrix per degree.
    """
    rho_sq = rho * rho
    acc = np.zeros_like(rho)
    term = np.empty_like(rho)
    for c in coeffs.T[::-1]:
        acc *= rho_sq
        np.multiply.outer(c, c, out=term)
        acc += term
    if first_degree:
        acc *= rho**first_degree
    return acc


def _symmetric(matrix: np.ndarray, zero_rows) -> np.ndarray:
    return _zero_out((matrix + matrix.T) / 2.0, zero_rows)


def _series_matrix(matrix, method, zero_rows, degree, residual, info, **split) -> ExpectationMatrix:
    warning = residual > SERIES_WARNING_FACTOR * max(np.abs(matrix).max(initial=0.0), 1e-300)
    return ExpectationMatrix(
        matrix,
        method,
        zero_rows=zero_rows,
        truncation_residual=residual,
        truncation_warning=bool(warning),
        info={"max_degree": degree, **info},
        **split,
    )


def expectation_E_series(
    z: ZVectors, max_degree: int | None = None, activation: str = "tanh"
) -> ExpectationMatrix:
    """E = B + delta_B from the odd-degree Hermite expansion of tanh.

    B keeps the degree-1 term; delta_B sums degrees 3, 5, ..., up to
    max_degree, or by default up to the first degree whose certified
    residual meets hermite.SERIES_RTOL (TruncationError when no degree the
    largest rule resolves does).  ``truncation_residual`` bounds the
    entrywise error: Cauchy-Schwarz over the dropped degrees gives
    sqrt(tail_a tail_b), with the per-row tails taken against the same
    rule as the coefficients.  Identity activation has only the degree-1
    term, so E reduces to the linear kernel exactly.
    """
    if max_degree is not None and (max_degree < 3 or max_degree % 2 == 0):
        raise ValueError("max_degree must be odd and >= 3")
    act = _analytic_activation(activation)
    norms, rho, zero_rows = z.correlations
    if activation == "identity":
        b = z.gram()
        delta = np.zeros_like(b)
        degree, residual, n_points = 1, 0.0, None
    else:
        coeffs, _, degree, residual, n_points = hermite_series(
            act.fn, norms, 1, max_degree=max_degree
        )
        b = _mehler_sum(coeffs[:, :1], rho, 1)
        delta = _mehler_sum(coeffs[:, 1:], rho, 3)
    b = _symmetric(b, zero_rows)
    delta = _symmetric(delta, zero_rows)
    return _series_matrix(
        b + delta, "series", zero_rows, degree, residual,
        {"n_points": n_points, "activation": activation}, b=b, delta_b=delta,
    )  # fmt: skip


def expectation_E_first_layer_series(z: ZVectors, activation: str = "tanh") -> ExpectationMatrix:
    """E1 = (sum_d tau_d tau_d' rho^d) * <z_a, z_b> over the even degrees of sech^2.

    The series counterpart of ``expectation_E_first_layer``, truncated at
    the first degree whose certified residual meets SERIES_RTOL like
    ``expectation_E_series``; each row's tail is scaled by |z_a|^2, so
    sqrt(tail_a tail_b) |z_a| |z_b| bounds the entrywise error and
    ``truncation_residual`` is its largest value.  Identity activation has
    derivative 1, so E1 is the linear kernel exactly.
    """
    act = _analytic_activation(activation)
    norms, rho, zero_rows = z.correlations
    if activation == "identity":
        pair, degree, residual, n_points = np.ones_like(rho), 0, 0.0, None
    else:
        coeffs, _, degree, residual, n_points = hermite_series(
            act.deriv, norms, 0, row_weight=norms * norms
        )
        pair = _mehler_sum(coeffs, rho, 0)
    e1 = _symmetric(pair * z.gram(), zero_rows)
    return _series_matrix(
        e1, "first_layer_series", zero_rows, degree, residual,
        {"n_points": n_points, "activation": activation},
    )  # fmt: skip


def expectation_E_first_layer(
    z: ZVectors, activation: str = "tanh", n_points: int = DEFAULT_QUADRATURE_POINTS
) -> ExpectationMatrix:
    """First-layer analog: E[sigma'(|z_a| u) sigma'(|z_b| u')] <z_a, z_b>.

    The derivative pair expectation multiplies the Gram matrix entrywise;
    identity activation makes the derivative factor 1 and recovers the
    linear kernel.
    """
    act = _analytic_activation(activation)
    norms, rho, zero_rows = z.correlations
    pair = _pair_quadrature(act.deriv, norms, rho, n_points)
    e1 = _zero_out(pair * z.gram(), zero_rows)
    return ExpectationMatrix(
        e1,
        "first_layer_quadrature",
        zero_rows=zero_rows,
        info={"n_points": n_points, "activation": activation},
    )


def conjugated_power_sum(
    s: ShiftOperator, matrix: np.ndarray, num_taps: int, num_samples: int
) -> np.ndarray:
    """sum_k S~^k A S~^k without materializing the block-diagonal lift."""
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
    return acc


_LAYER_SERIES = {"second": expectation_E_series, "first": expectation_E_first_layer_series}


def expectation_info(e: ExpectationMatrix) -> dict:
    """The diagnostics of one expectation matrix, as a report carries them."""
    info = {"method": e.method, **e.info}
    if e.truncation_residual is not None:
        info["truncation_residual"] = e.truncation_residual
        info["truncation_warning"] = e.truncation_warning
    if e.zero_rows:
        info["zero_rows"] = e.zero_rows
    return info


def gnn_infinite_ntk(
    s: ShiftOperator,
    data,
    num_taps: int,
    layer: str = "second",
    activation: str = "tanh",
) -> NtkMatrix:
    """Infinite-width GNN NTK contribution: sum_k S~^k E S~^k.

    ``layer='second'`` uses the activation second-moment matrix E,
    ``layer='first'`` the derivative-weighted Gram E1, and ``layer='both'``
    their sum, the full kernel: one ``z_vectors``, one set of correlations
    and one conjugated power sum (the map is linear), with each layer's
    diagnostics under ``info['layers']``.  Each layer's Hermite series is
    truncated at a certified residual.
    """
    layers = ("second", "first") if layer == "both" else (layer,)
    if any(name not in _LAYER_SERIES for name in layers):
        raise ValueError(f"layer must be 'first', 'second' or 'both', got {layer!r}")
    x = _signals(data)
    z = z_vectors(s, x, num_taps)
    parts = {name: _LAYER_SERIES[name](z, activation=activation) for name in layers}
    total = sum(e.matrix for e in parts.values())
    theta = conjugated_power_sum(s, total, num_taps, x.shape[1])
    if layer == "both":
        info = {name: expectation_info(e) for name, e in parts.items()}
        info = {"layer": layer, "num_taps": num_taps, "layers": info}
    else:
        info = {"layer": layer, "num_taps": num_taps, **expectation_info(parts[layer])}
    return NtkMatrix(theta, NtkKind.GNN_INFINITE_SERIES, info=info)


def gnn_monte_carlo_ntk(
    s: ShiftOperator,
    data,
    num_taps: int,
    num_features: int,
    seed: int,
    which_layer: str = "second",
    activation: str = "tanh",
    draws: tuple | None = None,
) -> NtkMatrix:
    """Finite random-feature estimate of the infinite-width NTK layer terms.

    The estimate is the empirical kernel J J' of a random width-F network
    with taps g, h ~ N(0, I_K) per feature, kept factored as F = J.  The
    second layer's block has columns S~^k sigma(Z g_f) / sqrt(F); the first
    layer's has H_f(S~)[sigma'(Z g_f) * S~^k x~] / sqrt(F), the readout
    taps h_f giving the polynomial in front of the derivative.  Each block
    is ``gnn2_jacobian`` of that layer.  ``which_layer='both'`` stacks them
    as [J_second, J_first] into one kernel, the second layer drawn from
    ``seed`` and the first from ``seed + 1``, with each layer's info under
    ``info['layers']``.  ``draws=(g, h)`` overrides the random draws
    (shapes (F, K)) of every layer, which pins down degenerate cases in
    tests.
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
        if draws is None:
            rng = np.random.default_rng(layer_seed)
            g = rng.standard_normal((num_features, num_taps))
            h = rng.standard_normal((num_features, num_taps))
        else:
            g, h = (np.asarray(d, dtype=float) for d in draws)
            if g.shape != (num_features, num_taps) or h.shape != (num_features, num_taps):
                raise ValueError("draws must have shape (num_features, num_taps)")
        blocks.append(gnn2_jacobian(s, TwoLayerGnnParams(g, h, activation), x, name))
        infos[name] = {
            "layer": name,
            "num_features": num_features,
            "seed": layer_seed,
            "num_taps": num_taps,
            "activation": activation,
        }
    info = {"layers": infos} if which_layer == "both" else infos[which_layer]
    return NtkMatrix(np.hstack(blocks), NtkKind.GNN_MONTE_CARLO, info=info, factored=True)
