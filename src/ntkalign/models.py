"""Graph-filter and GNN predictors: forward passes, Jacobians, initialization.

All predictors share one parameter layout, fixed project-wide: parameters are
flattened in (layer, feature, tap) order, layer 1 first.  Jacobian columns
follow the same order, so a flattened gradient maps onto flattened parameters
without bookkeeping.

Signals may be a single vector (n,) or a matrix (n, M) of sample columns.
Forward passes preserve that shape; Jacobians return (n, P) for a vector and
the sample-major stacked (n*M, P) for a matrix, matching the stacking
convention in core.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import ShiftOperator, _frozen_array, matrix_powers_applied

PARAMS_SCHEMA_VERSION = 1
# Entries of sigma'(u1) a GNN pullback holds at once (64 KB), so it builds
# no temporary of the features' size.
PULLBACK_BLOCK = 8192


def _sigmoid(u, out=None):
    out = np.empty_like(u, dtype=float) if out is None else out
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class Activation:
    """Pointwise nonlinearity with its derivative, taken from its value.

    ``fn(u, out=None)`` may write into ``out``, which may be ``u`` itself.
    ``deriv_from_value(q)`` is sigma'(u) given q = sigma(u), so a pass that
    holds sigma(u) never evaluates the activation a second time.  relu and
    leaky_relu derivatives are defined almost everywhere; the value at 0
    (0 and the leaky slope respectively) is a convention, not a claim.
    analytic_ntk marks activations with a closed infinite-width NTK path.
    """

    name: str
    fn: object
    deriv_from_value: object
    analytic_ntk: bool

    def deriv(self, u):
        return self.deriv_from_value(self.fn(u))


ACTIVATIONS = {
    "tanh": Activation("tanh", np.tanh, lambda t: 1.0 - t * t, analytic_ntk=True),
    "identity": Activation("identity", lambda u, out=None: np.positive(u, out=out, dtype=float),
                           lambda q: np.ones_like(q, dtype=float), analytic_ntk=True),
    "sigmoid": Activation("sigmoid", _sigmoid, lambda q: q * (1.0 - q), analytic_ntk=False),
    "relu": Activation("relu", lambda u, out=None: np.maximum(u, 0.0, out=out),
                       lambda q: (q > 0).astype(float), analytic_ntk=False),
    "leaky_relu": Activation("leaky_relu",
                             lambda u, out=None: np.multiply(
                                 u, np.where(u > 0, 1.0, LEAKY_SLOPE), out=out),
                             lambda q: np.where(q > 0, 1.0, LEAKY_SLOPE),
                             analytic_ntk=False),
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}") from None


@dataclass(frozen=True)
class InitConfig:
    kappa: float
    seed: int

    def __post_init__(self):
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be positive and finite")


@dataclass(frozen=True)
class FilterParams:
    """Taps h_0 .. h_{K-1} of a single graph filter."""

    taps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taps", _frozen_array(self.taps, ndim=1))
        if self.taps.shape[0] < 1:
            raise ValueError(f"num_taps must be >= 1, got {self.taps.shape[0]}")

    @property
    def num_taps(self) -> int:
        return self.taps.shape[0]


@dataclass(frozen=True)
class TwoLayerGnnParams:
    """Width-F two-layer GNN: F parallel filters, nonlinearity, readout filters.

    g holds the layer-1 taps (row f = filter feeding feature f), h the
    layer-2 taps.  The forward pass carries the 1/sqrt(F) readout scaling.
    """

    g: np.ndarray
    h: np.ndarray
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "g", _frozen_array(self.g, ndim=2))
        object.__setattr__(self, "h", _frozen_array(self.h, ndim=2))
        if self.g.shape != self.h.shape:
            raise ValueError(f"layer shapes differ: {self.g.shape} vs {self.h.shape}")
        if self.g.shape[0] < 1:
            raise ValueError(f"width must be >= 1, got {self.g.shape[0]}")
        get_activation(self.activation)

    @property
    def width(self) -> int:
        return self.g.shape[0]

    @property
    def num_taps(self) -> int:
        return self.g.shape[1]


def init_filter(num_taps: int, cfg: InitConfig) -> FilterParams:
    rng = np.random.default_rng(cfg.seed)
    return FilterParams(rng.normal(0.0, cfg.kappa, size=num_taps))


def init_gnn2(width: int, num_taps: int, cfg: InitConfig, activation: str = "tanh") -> TwoLayerGnnParams:
    rng = np.random.default_rng(cfg.seed)
    g = rng.normal(0.0, cfg.kappa, size=(width, num_taps))
    h = rng.normal(0.0, cfg.kappa, size=(width, num_taps))
    return TwoLayerGnnParams(g, h, activation)


def _check_signal(s: ShiftOperator, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != s.num_nodes:
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


def filter_jacobian(s: ShiftOperator, x: np.ndarray, num_taps: int) -> np.ndarray:
    """Columns S^k x for k < K; rows stacked sample-major when x is a matrix."""
    x = _check_signal(s, x)
    powers = s.powers_applied(x, num_taps)  # (K, n) or (K, n, M)
    if x.ndim == 1:
        return powers.T.copy()
    # (K, n, M) -> (M, n, K) -> (n*M, K), sample-major rows
    return powers.transpose(2, 1, 0).reshape(-1, num_taps)


def gnn2_forward_pullback(s: ShiftOperator, params: TwoLayerGnnParams, x: np.ndarray):
    """gnn2_forward's output together with its pullback r -> J' r.

    Adjoint (Horner) form: with X = [S^k x]_k and u1 = g X, the output is
    sum_k S^k v_k / sqrt(F) with v_k = sum_f h_{f,k} sigma(u1_f), summed
    by Horner's rule; no feature is ever shifted.  The pullback takes a
    residual r of the output's shape and returns the flat gradient in
    flatten_params order, the same vector as
    ``gnn2_jacobian(s, params, x).T @ r`` (stacked) without forming J:

        grad_h[f, k] = (1/sqrt(F)) <sigma(u1_f), (S')^k r>
        grad_g[f, k] = (1/sqrt(F)) sum_j h_{f,j} <sigma'(u1_f), (S')^j r * S^k x>

    The inner products of the last line are the product of sigma'(u1)
    with the K^2 stacked vectors (S')^j r * S^k x, taken PULLBACK_BLOCK
    entries of sigma' at a time.  sigma' comes from sigma(u1), so the
    activation is evaluated once per pass.  Powers of S' give an
    asymmetric shift the transpose it needs.
    """
    x = _check_signal(s, x)
    xm = x[:, None] if x.ndim == 1 else x
    width, num_taps = params.g.shape
    act = get_activation(params.activation)
    scale = math.sqrt(width)

    x_powers = s.powers_applied(xm, num_taps).reshape(num_taps, -1)  # (K, n*M)
    q1 = params.g @ x_powers  # u1, (F, n*M), overwritten by sigma(u1)
    act.fn(q1, out=q1)
    v = (params.h.T @ q1).reshape((num_taps,) + xm.shape)  # (K, n, M)
    out = v[-1]
    for k in range(num_taps - 2, -1, -1):
        out = s.matrix @ out + v[k]
    out = (out / scale).reshape(x.shape)

    def pullback(resid: np.ndarray) -> np.ndarray:
        r = np.asarray(resid, dtype=float)
        if r.shape != out.shape:
            raise ValueError(f"residual shape {r.shape} does not match output {out.shape}")
        r_powers = matrix_powers_applied(s.matrix.T, r.reshape(xm.shape), num_taps)
        r_powers = r_powers.reshape(num_taps, -1)  # (S')^j r, (K, n*M)
        grad_h = q1 @ r_powers.T
        mixed = (r_powers[:, None, :] * x_powers[None, :, :]).reshape(num_taps * num_taps, -1)
        inner = np.zeros((width, num_taps * num_taps))
        step = max(1, PULLBACK_BLOCK // width)
        for lo in range(0, q1.shape[1], step):
            cols = slice(lo, lo + step)
            inner += act.deriv_from_value(q1[:, cols]) @ mixed[:, cols].T
        grad_g = np.einsum("fj,fjk->fk", params.h, inner.reshape(width, num_taps, num_taps))
        return np.concatenate([grad_g.ravel(), grad_h.ravel()]) / scale

    return out, pullback


def gnn2_forward(s: ShiftOperator, params: TwoLayerGnnParams, x: np.ndarray) -> np.ndarray:
    """(1/sqrt(F)) sum_f sum_k h_{f,k} S^k sigma(sum_k g_{f,k} S^k x).

    The final layer is linear; no output nonlinearity is applied.
    """
    return gnn2_forward_pullback(s, params, x)[0]


def gnn2_jacobian(
    s: ShiftOperator,
    params: TwoLayerGnnParams,
    x: np.ndarray,
    which_layer: str = "both",
) -> np.ndarray:
    """Analytic Jacobian of gnn2_forward with respect to the taps.

    Column (f, k) of the second-layer block is (1/sqrt(F)) S^k sigma(u1_f);
    of the first-layer block, (1/sqrt(F)) H_f(S) [sigma'(u1_f) * S^k x]
    with H_f(S) = sum_j h_{f,j} S^j.  Column order matches flatten_params:
    layer 1 first, feature-major.  With relu the result is the a.e.
    derivative; kinks contribute 0.  Every column is formed from the dense
    powers S^j: J is the reference for gnn2_forward_pullback and the factor
    of empirical_ntk, the Monte Carlo kernel and ntk_drift.
    """
    if which_layer not in ("first", "second", "both"):
        raise ValueError(f"which_layer must be first/second/both, got {which_layer!r}")
    x = _check_signal(s, x)
    xm = x[:, None] if x.ndim == 1 else x
    act = get_activation(params.activation)
    x_powers = s.powers_applied(xm, params.num_taps)  # (K, n, M)
    s_powers = s.powers_applied(np.eye(s.num_nodes), params.num_taps)  # S^j, (K, n, n)
    q1 = act.fn(np.einsum("fk,knm->fnm", params.g, x_powers))  # sigma(u1), (F, n, M)
    blocks = []  # each (M, n, F, K): sample-major rows, (feature, tap) columns
    if which_layer in ("first", "both"):
        w = act.deriv_from_value(q1)[:, None] * x_powers  # sigma'(u1_f) * S^k x, (F, K, n, M)
        blocks.append(np.einsum("fj,jab,fkbm->mafk", params.h, s_powers, w, optimize=True))
    if which_layer in ("second", "both"):
        blocks.append(np.einsum("kab,fbm->mafk", s_powers, q1, optimize=True))
    return np.hstack([b.reshape(xm.size, -1) for b in blocks]) / math.sqrt(params.width)


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
            like.activation,
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
            "activation": params.activation,
        }
    raise TypeError(f"unsupported params type {type(params).__name__}")


def save_params(path, params) -> None:
    """Write params as a JSON shape header line plus a flat CSV vector line."""
    header = {"schema_version": PARAMS_SCHEMA_VERSION, **_shape_header(params)}
    flat = flatten_params(params)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(",".join(f"{v:.17g}" for v in flat) + "\n")


def load_params(path):
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        values = np.array([float(v) for v in fh.readline().strip().split(",")])
    if header.get("schema_version") != PARAMS_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {header.get('schema_version')!r}")
    kind = header["kind"]
    if kind == "filter":
        like = FilterParams(np.zeros(header["num_taps"]))
    elif kind == "gnn2":
        shape = (header["width"], header["num_taps"])
        like = TwoLayerGnnParams(np.zeros(shape), np.zeros(shape), header["activation"])
    else:
        raise ValueError(f"unknown params kind {kind!r}")
    return unflatten_params(values, like)
