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

from .core import ShiftOperator, _frozen_array
from .shiftops import AsymmetricShift

PARAMS_SCHEMA_VERSION = 1


def _tanh_deriv(u):
    t = np.tanh(u)
    return 1.0 - t * t


def _sigmoid(u):
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _sigmoid_deriv(u):
    s = _sigmoid(u)
    return s * (1.0 - s)


LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class Activation:
    """Pointwise nonlinearity with its derivative.

    relu and leaky_relu derivatives are defined almost everywhere; the value
    at 0 (0 and the leaky slope respectively) is a convention, not a claim.
    analytic_ntk marks activations with a closed infinite-width NTK path.
    """

    name: str
    fn: object
    deriv: object
    analytic_ntk: bool


ACTIVATIONS = {
    "tanh": Activation("tanh", np.tanh, _tanh_deriv, analytic_ntk=True),
    "identity": Activation("identity", lambda u: np.asarray(u, dtype=float),
                           lambda u: np.ones_like(u, dtype=float), analytic_ntk=True),
    "sigmoid": Activation("sigmoid", _sigmoid, _sigmoid_deriv, analytic_ntk=False),
    "relu": Activation("relu", lambda u: np.maximum(u, 0.0),
                       lambda u: (u > 0).astype(float), analytic_ntk=False),
    "leaky_relu": Activation("leaky_relu",
                             lambda u: np.where(u > 0, u, LEAKY_SLOPE * u),
                             lambda u: np.where(u > 0, 1.0, LEAKY_SLOPE),
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


def _gnn2_internals(s: ShiftOperator, params: TwoLayerGnnParams, x: np.ndarray):
    """Shared forward computation: shifted inputs, pre-activations, features.

    Returns (x_powers (K,n,M), u1 (F,n,M), q_powers (K,n,F,M)) with a
    trailing sample axis even for vector input.
    """
    squeeze = x.ndim == 1
    xm = x[:, None] if squeeze else x
    num_samples = xm.shape[1]
    width, num_taps = params.g.shape
    act = get_activation(params.activation)

    x_powers = s.powers_applied(xm, num_taps)  # (K, n, M)
    u1 = np.einsum("fk,knm->fnm", params.g, x_powers)
    q1 = act.fn(u1)  # (F, n, M)
    # shift every feature at once: fold (F, M) into one trailing axis
    q_flat = q1.transpose(1, 0, 2).reshape(s.num_nodes, width * num_samples)
    q_powers = s.powers_applied(q_flat, num_taps).reshape(
        num_taps, s.num_nodes, width, num_samples
    )
    return squeeze, x_powers, u1, q_powers


def gnn2_forward_pullback(s: ShiftOperator, params: TwoLayerGnnParams, x: np.ndarray):
    """gnn2_forward's output together with its pullback r -> J' r.

    The pullback takes a residual of the output's shape and returns the
    flat gradient in flatten_params order, the same vector as
    ``gnn2_jacobian(s, params, x).T @ r`` (stacked) without forming J:

        grad_h[f, k] = (1/sqrt(F)) <S^k sigma(u1_f), r>
        grad_g[f, k] = (1/sqrt(F)) <sigma'(u1_f) * H_f(S)' r, S^k x>

    with H_f(S)' = sum_j h_{f,j} (S^j)'.  The adjoint uses powers of S',
    so an asymmetric shift gets the transpose it needs.
    """
    x = _check_signal(s, x)
    squeeze, x_powers, u1, q_powers = _gnn2_internals(s, params, x)
    scale = math.sqrt(params.width)
    out = np.einsum("fk,knfm->nm", params.h, q_powers) / scale
    if squeeze:
        out = out[:, 0]

    def pullback(resid: np.ndarray) -> np.ndarray:
        r = np.asarray(resid, dtype=float)
        if r.shape != out.shape:
            raise ValueError(f"residual shape {r.shape} does not match output {out.shape}")
        r = r.reshape(x_powers.shape[1:])
        grad_h = np.einsum("knfm,nm->fk", q_powers, r)
        num_taps = params.num_taps
        # (S^j)' r for j < K, flattened to (K, n*M)
        r_powers = AsymmetricShift(s.matrix.T).powers_applied(r, num_taps).reshape(num_taps, -1)
        back = params.h @ r_powers  # (F, n*M): H_f(S)' r per feature
        act = get_activation(params.activation)
        weighted = act.deriv(u1).reshape(back.shape) * back
        grad_g = weighted @ x_powers.reshape(num_taps, -1).T
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
    of the first-layer block, (1/sqrt(F)) H_f(S) [sigma'(u1_f) * S^k x].
    Column order matches flatten_params: layer 1 first, feature-major.
    With relu the result is the a.e. derivative; kinks contribute 0.
    """
    if which_layer not in ("first", "second", "both"):
        raise ValueError(f"which_layer must be first/second/both, got {which_layer!r}")
    x = _check_signal(s, x)
    squeeze, x_powers, u1, q_powers = _gnn2_internals(s, params, x)
    width, num_taps = params.g.shape
    n = s.num_nodes
    num_samples = x_powers.shape[2]
    scale = 1.0 / math.sqrt(width)
    act = get_activation(params.activation)

    blocks = []
    if which_layer in ("first", "both"):
        d1 = act.deriv(u1)  # (F, n, M)
        j1 = np.empty((num_samples, n, width, num_taps))
        for k in range(num_taps):
            w = d1 * x_powers[k][None, :, :]  # (F, n, M)
            w_flat = w.transpose(1, 0, 2).reshape(n, width * num_samples)
            w_powers = s.powers_applied(w_flat, num_taps).reshape(
                num_taps, n, width, num_samples
            )
            # H_f(S) w_f = sum_{k'} h_{f,k'} S^{k'} w_f
            j1[:, :, :, k] = scale * np.einsum("fj,jnfm->mnf", params.h, w_powers)
        blocks.append(j1.reshape(num_samples * n, width * num_taps))
    if which_layer in ("second", "both"):
        # (K, n, F, M) -> (M, n, F, K)
        j2 = scale * q_powers.transpose(3, 1, 2, 0)
        blocks.append(j2.reshape(num_samples * n, width * num_taps))
    jac = np.hstack(blocks) if len(blocks) > 1 else blocks[0]
    return jac[:n] if squeeze else jac


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
