"""Graph-filter and GNN predictors: forward passes, Jacobians, initialization.

All predictors share one parameter layout, fixed project-wide: parameters are
flattened in (layer, feature, tap) order, layer 1 first.  Jacobian columns
follow the same order, so a flattened gradient maps onto flattened parameters
without bookkeeping.

The two-layer GNN's nonlinearity is tanh, the activation whose Hermite
expansion (``hermite``) the infinite-width kernels and alignment bounds
are built on; its derivative is taken from its value, sigma' = 1 - t^2.

Signals are (n, M) matrices of sample columns.  Forward passes return that
shape; Jacobians return the sample-major stacked (n*M, P), matching the
stacking convention in core.  The tap stack ``tap_powers`` and the fused
GNN pass hold samples as rows instead, (K, M, n) and (M, n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import ShiftOperator, _frozen_array, krylov_sequence, require_positive_finite
from .dataio import format_rows

PARAMS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InitConfig:
    kappa: float
    seed: int

    def __post_init__(self):
        require_positive_finite("kappa", self.kappa)


@dataclass(frozen=True)
class FilterParams:
    """Taps h_0 .. h_{K-1} of a single graph filter."""

    taps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taps", _frozen_array(self.taps, 1))
        if self.taps.shape[0] < 1:
            raise ValueError(f"num_taps must be >= 1, got {self.taps.shape[0]}")

    @property
    def num_taps(self) -> int:
        return self.taps.shape[0]


@dataclass(frozen=True)
class TwoLayerGnnParams:
    """Width-F two-layer GNN: F parallel filters, tanh, readout filters.

    g holds the layer-1 taps (row f = filter feeding feature f), h the
    layer-2 taps.  The forward pass carries the 1/sqrt(F) readout scaling.
    """

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _frozen_array(self.g, 2))
        object.__setattr__(self, "h", _frozen_array(self.h, 2))
        if self.g.shape != self.h.shape:
            raise ValueError(f"layer shapes differ: {self.g.shape} vs {self.h.shape}")
        if self.g.shape[0] < 1:
            raise ValueError(f"width must be >= 1, got {self.g.shape[0]}")

    @property
    def width(self) -> int:
        return self.g.shape[0]

    @property
    def num_taps(self) -> int:
        return self.g.shape[1]


def init_filter(num_taps: int, cfg: InitConfig) -> FilterParams:
    rng = np.random.default_rng(cfg.seed)
    return FilterParams(rng.normal(0.0, cfg.kappa, size=num_taps))


def init_gnn2(width: int, num_taps: int, cfg: InitConfig) -> TwoLayerGnnParams:
    rng = np.random.default_rng(cfg.seed)
    g = rng.normal(0.0, cfg.kappa, size=(width, num_taps))
    h = rng.normal(0.0, cfg.kappa, size=(width, num_taps))
    return TwoLayerGnnParams(g, h)


def _check_signal(s: ShiftOperator, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != s.num_nodes:
        raise ValueError(f"signal shape {x.shape} does not fit {s.num_nodes} nodes")
    return x


def filter_forward(s: ShiftOperator, params: FilterParams, x: np.ndarray) -> np.ndarray:
    """sum_k h_k S^k x by iterated shift; never materializes S^k."""
    x = _check_signal(s, x)
    taps = params.taps
    out = taps[0] * x
    shifted = x
    for k in range(1, taps.shape[0]):
        shifted = s.matrix @ shifted
        out = out + taps[k] * shifted
    return out


def tap_powers(s: ShiftOperator, x: np.ndarray, num_taps: int) -> np.ndarray:
    """The sample-major tap stack X[k, m, a] = (S^k x_m)_a, (K, M, n), read-only:
    the one array of a ``ntk.TapStack``, which Z (``filter_jacobian``) views."""
    x = _check_signal(s, x)
    out = np.ascontiguousarray(s.powers_applied(x, num_taps).transpose(0, 2, 1))
    out.setflags(write=False)
    return out


def filter_jacobian(s: ShiftOperator, x: np.ndarray, num_taps: int) -> np.ndarray:
    """Columns S^k x for k < K, rows stacked sample-major: Z = X.reshape(K, nM)',
    a read-only Fortran-ordered view of X = ``tap_powers(s, x, K)``."""
    return tap_powers(s, x, num_taps).reshape(num_taps, -1).T


def gnn2_forward_pullback(s: ShiftOperator, g: np.ndarray, h: np.ndarray, powers: np.ndarray):
    """The GNN's output on the tap stack X = ``tap_powers(s, x, K)``, and its pullback r -> J' r.

    ``g`` and ``h`` are the layers' (F, K) taps, unchecked, so a training
    step passes views of its flat vector (non-finite taps give a non-finite
    output); the pullback reads ``h`` when it runs.  X is (K, M, n), and the
    output and the residual r are (M, n), one sample per row (gnn2_forward's
    transpose).  Adjoint (Horner) form: with u1 = g X, the output is
    sum_k v_k (S')^k / sqrt(F) with v_k = sum_f h_{f,k} sigma(u1_f), summed
    on (n, M) views; no feature is ever shifted.  The pullback returns
    ``gnn2_jacobian(s, TwoLayerGnnParams(g, h), x).T @ stack(r.T)``, in
    flatten_params order, without forming J:

        grad_h[f, k] = (1/sqrt(F)) <sigma(u1_f), r S^k>
        grad_g[f, k] = (1/sqrt(F)) sum_j h_{f,j} <sigma'(u1_f), r S^j * X_k>

    The inner products of the last line are one product of sigma'(u1)
    with the K^2 stacked arrays r S^j * X_k.  sigma' = 1 - t^2 is taken in
    place from t = tanh(u1), in the pass's one (F, nM) buffer, after grad_h
    has read it: tanh runs once per pass, and the pullback may run once (a
    second call raises RuntimeError).  S may be asymmetric: out S' shifts, r S adjoins.
    """
    powers = np.asarray(powers, dtype=float)
    width, num_taps = g.shape
    if powers.ndim != 3 or powers.shape[::2] != (num_taps, s.num_nodes):
        raise ValueError(f"tap stack of shape {powers.shape} for a {num_taps}-tap GNN on "
                         f"{s.num_nodes} nodes; it must be (K, M, n)")
    scale = math.sqrt(width)

    x_cols = powers.reshape(num_taps, -1)  # (K, M*n)
    q1 = g @ x_cols  # u1, (F, M*n), overwritten by tanh(u1), then by sigma'
    np.tanh(q1, out=q1)
    v = (h.T @ q1).reshape(powers.shape)  # (K, M, n)
    out = v[-1].T  # (n, M) views: S @ out, where out @ S' raised compare's peak RSS
    for k in range(num_taps - 2, -1, -1):
        out = s.matrix @ out + v[k].T
    out = (out / scale).T
    spent = False

    def pullback(resid: np.ndarray) -> np.ndarray:
        nonlocal spent
        if spent:
            raise RuntimeError("this pass's pullback has run: sigma(u1) is overwritten")
        r = np.asarray(resid, dtype=float)
        if r.shape != out.shape:
            raise ValueError(f"residual shape {r.shape} does not match output {out.shape}")
        spent = True
        r_powers = krylov_sequence(s.matrix.T, r.T, num_taps)  # (S')^j r', (K, n, M)
        r_powers = r_powers.transpose(0, 2, 1).reshape(num_taps, -1)  # r S^j, as X's rows
        grad_h = q1 @ r_powers.T
        mixed = (r_powers[:, None, :] * x_cols[None, :, :]).reshape(num_taps * num_taps, -1)
        np.subtract(1.0, np.multiply(q1, q1, out=q1), out=q1)  # sigma' = 1 - tanh^2
        inner = q1 @ mixed.T  # (F, K^2)
        grad_g = np.einsum("fj,fjk->fk", h, inner.reshape(width, num_taps, num_taps))
        return np.concatenate([grad_g.ravel(), grad_h.ravel()]) / scale

    return out, pullback


def gnn2_forward(s: ShiftOperator, params: TwoLayerGnnParams, x: np.ndarray) -> np.ndarray:
    """(1/sqrt(F)) sum_f sum_k h_{f,k} S^k tanh(sum_k g_{f,k} S^k x).

    The final layer is linear; no output nonlinearity is applied.
    """
    return gnn2_forward_pullback(s, params.g, params.h, tap_powers(s, x, params.num_taps))[0].T


def gnn2_jacobian(s: ShiftOperator, params: TwoLayerGnnParams, x: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of gnn2_forward with respect to the taps, [first | second].

    Column (f, k) of the second-layer block is (1/sqrt(F)) S^k sigma(u1_f);
    of the first-layer block, (1/sqrt(F)) H_f(S) [sigma'(u1_f) * S^k x]
    with H_f(S) = sum_j h_{f,j} S^j, sigma = tanh and sigma' = 1 - tanh^2.
    Column order matches flatten_params: layer 1 first, feature-major, so
    columns [:F*K] are the first layer's block and [F*K:] the second's.
    Every column is formed from the dense powers S^j: J is the reference
    for gnn2_forward_pullback and the factor of empirical_ntk and ntk_drift.
    """
    x = _check_signal(s, x)
    powers = s.powers_applied(x, params.num_taps)  # S^k x, (K, n, M)
    s_powers = s.powers_applied(np.eye(s.num_nodes), params.num_taps)  # S^j, (K, n, n)
    q1 = np.tanh(np.einsum("fk,knm->fnm", params.g, powers))  # sigma(u1), (F, n, M)
    w = (1.0 - q1 * q1)[:, None] * powers  # sigma'(u1_f) * S^k x, (F, K, n, M)
    # each block (M, n, F, K): sample-major rows, (feature, tap) columns
    first = np.einsum("fj,jab,fkbm->mafk", params.h, s_powers, w, optimize=True)
    second = np.einsum("kab,fbm->mafk", s_powers, q1, optimize=True)
    return np.hstack([b.reshape(x.size, -1) for b in (first, second)]) / math.sqrt(params.width)


def flatten_params(params) -> np.ndarray:
    """Flat vector in (layer, feature, tap) order."""
    if isinstance(params, FilterParams):
        return params.taps.copy()
    if isinstance(params, TwoLayerGnnParams):
        return np.concatenate([params.g.ravel(), params.h.ravel()])
    raise TypeError(f"unsupported params type {type(params).__name__}")


def unflatten_params(flat: np.ndarray, like):
    """Rebuild a params object of the same shape as ``like`` from a flat vector."""
    flat = np.asarray(flat, dtype=float)
    if isinstance(like, FilterParams):
        expected = like.num_taps
        if flat.shape != (expected,):
            raise ValueError(f"expected {expected} entries, got {flat.shape}")
        return FilterParams(flat)
    if isinstance(like, TwoLayerGnnParams):
        size = like.g.size
        if flat.shape != (2 * size,):
            raise ValueError(f"expected {2 * size} entries, got {flat.shape}")
        return TwoLayerGnnParams(
            flat[:size].reshape(like.g.shape),
            flat[size:].reshape(like.h.shape),
        )
    raise TypeError(f"unsupported params type {type(like).__name__}")


def _shape_header(params) -> dict:
    if isinstance(params, FilterParams):
        return {"kind": "filter", "num_taps": params.num_taps}
    if isinstance(params, TwoLayerGnnParams):
        return {
            "kind": "gnn2",
            "width": params.width,
            "num_taps": params.num_taps,
            "activation": "tanh",
        }
    raise TypeError(f"unsupported params type {type(params).__name__}")


def save_params(path, params) -> None:
    """Write params as a JSON shape header line plus a flat CSV vector line."""
    header = {"schema_version": PARAMS_SCHEMA_VERSION, **_shape_header(params)}
    flat = flatten_params(params)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(format_rows(flat[None, :]))

