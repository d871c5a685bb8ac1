"""Reference computations for the benchmark's output checks.

Each oracle recomputes a workload's outputs in plain numpy from the
generated inputs, without calling ntkalign: numpy's ``hermegauss`` rule in
place of the package's Golub-Welsch rule, an explicit block-diagonal lift
in place of ``conjugated_power_sum``, and the analytic gradient in place of
a materialised Jacobian.  Initial parameters follow the package's
documented scheme (``default_rng(seed).normal(0, kappa)``, layer 1 first).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
GNN_ETA = 0.0125  # the CLI's default Adam rate for gnn2
FILTER_ETA = 0.625  # and for filters (50x)
QUADRATURE_POINTS = 64


def stack(signals: np.ndarray) -> np.ndarray:
    """(n, M) signals -> length-nM vector, sample-major."""
    return signals.ravel(order="F")


def cross_covariance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c = x @ y.T
    c = (c + c.T) / 2.0
    return c / np.linalg.norm(c)


def covariance(x: np.ndarray) -> np.ndarray:
    c = x @ x.T
    return c / np.linalg.norm(c)


def _powers(s: np.ndarray, x: np.ndarray, taps: int) -> list:
    out = [x]
    for _ in range(1, taps):
        out.append(s @ out[-1])
    return out


# --- infinite-width GNN kernel -------------------------------------------------


def _pair_expectation(fn, norms, rho, chunk=256) -> np.ndarray:
    """E[fn(|z_a| u) fn(|z_b| (rho u + sqrt(1 - rho^2) v))] for all pairs."""
    nodes, weights = hermegauss(QUADRATURE_POINTS)
    weights = weights / weights.sum()
    w2 = np.outer(weights, weights)
    u, v = nodes[None, :, None], nodes[None, None, :]
    ii, jj = np.triu_indices(norms.size)
    out = np.empty((norms.size, norms.size))
    for start in range(0, ii.size, chunk):
        a, b = ii[start : start + chunk], jj[start : start + chunk]
        r = rho[a, b][:, None, None]
        second = norms[b][:, None, None] * (r * u + np.sqrt(1.0 - r * r) * v)
        e = np.einsum("pij,ij->p", fn(norms[a][:, None, None] * u) * fn(second), w2)
        out[a, b] = e
        out[b, a] = e
    return out


def gnn_kernel_layers(x: np.ndarray, y: np.ndarray, taps: int) -> tuple:
    """(second-layer, first-layer) infinite-width tanh NTK on the cxy shift."""
    s = cross_covariance(x, y)
    z = np.column_stack([stack(p) for p in _powers(s, x, taps)])
    gram = z @ z.T
    norms = np.sqrt(np.diag(gram))
    safe = np.where(norms == 0.0, 1.0, norms)
    rho = np.clip(gram / np.outer(safe, safe), -1.0, 1.0)
    e = _pair_expectation(np.tanh, norms, rho)
    e1 = _pair_expectation(lambda t: 1.0 / np.cosh(t) ** 2, norms, rho) * gram
    lift = np.kron(np.eye(x.shape[1]), s)
    lift_powers = [np.linalg.matrix_power(lift, k) for k in range(taps)]
    return tuple(sum(p @ a @ p for p in lift_powers) for a in (e, e1))


# --- training ------------------------------------------------------------------


def _adam(flat, grad_fn, eta: float, epochs: int) -> np.ndarray:
    """Full-batch Adam as the package runs it; returns the final parameters."""
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    for step in range(1, epochs + 1):
        grad = grad_fn(flat)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**step)
        v_hat = v / (1.0 - ADAM_BETA2**step)
        flat = flat - eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return flat


def train_filter(x, y, taps: int, seed: int, epochs: int, kappa: float = 1.0) -> dict:
    """Final train loss and parameter movement of ``train --model filter``."""
    s = cross_covariance(x, y)
    powers = _powers(s, x, taps)

    def resid(h):
        return sum(hk * p for hk, p in zip(h, powers)) - y

    def loss(h):
        r = resid(h)
        return 0.5 * float(np.sum(r * r))

    def grad(h):
        r = resid(h)
        return np.array([np.sum(p * r) for p in powers])

    h0 = np.random.default_rng(seed).normal(0.0, kappa, size=taps)
    h = _adam(h0, grad, FILTER_ETA, epochs)
    return {"final_train_loss": loss(h), "param_movement": float(np.linalg.norm(h - h0))}


def _gnn2_pieces(s, flat, x, width, taps):
    g, h = flat[: width * taps].reshape(width, taps), flat[width * taps :].reshape(width, taps)
    xp = np.stack(_powers(s, x, taps))  # (K, n, M)
    q = np.tanh(np.einsum("fk,knm->fnm", g, xp))  # (F, n, M)
    qp = [q]
    for _ in range(1, taps):
        qp.append(np.einsum("ab,fbm->fam", s, qp[-1]))
    qp = np.stack(qp)  # (K, F, n, M)
    out = np.einsum("fk,kfnm->nm", h, qp) / math.sqrt(width)
    return h, xp, q, qp, out


def train_gnn2(s, x, y, x_test, y_test, width, taps, seed, epochs, kappa=1.0) -> tuple:
    """(final train loss, final test loss) of one ``compare`` repetition."""

    def loss(flat, xs, ys):
        r = _gnn2_pieces(s, flat, xs, width, taps)[-1] - ys
        return 0.5 * float(np.sum(r * r))

    def grad(flat):
        h, xp, q, qp, out = _gnn2_pieces(s, flat, x, width, taps)
        r = out - y
        grad_h = np.einsum("kfnm,nm->fk", qp, r)
        rp = np.stack(_powers(s, r, taps))  # S symmetric: (S^j)' r = S^j r
        back = np.einsum("fj,jnm->fnm", h, rp)
        grad_g = np.einsum("fnm,knm,fnm->fk", 1.0 - q * q, xp, back)
        return np.concatenate([grad_g.ravel(), grad_h.ravel()]) / math.sqrt(width)

    rng = np.random.default_rng(seed)
    g = rng.normal(0.0, kappa, size=(width, taps))
    h = rng.normal(0.0, kappa, size=(width, taps))
    flat = _adam(np.concatenate([g.ravel(), h.ravel()]), grad, GNN_ETA, epochs)
    return loss(flat, x, y), loss(flat, x_test, y_test)
