"""Diagonal-covariance Gaussian mixture models: density evaluation and EM.

Used both as the per-state observation model of unit HMMs and as the
codebook for Fisher-Vector encoding.  All probability arithmetic is done in
natural-log space.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .util import child_rng

# Variance floor: this fraction of the global per-dimension variance of the
# training sample (plus a tiny absolute term so constant dimensions stay
# non-singular).
VAR_FLOOR_FRACTION = 1e-4
VAR_FLOOR_ABS = 1e-12


@dataclass(eq=False)
class Gmm:
    """Mixture of K diagonal Gaussians in m dimensions."""

    weights: np.ndarray   # (K,), sums to 1
    means: np.ndarray     # (K, m)
    variances: np.ndarray  # (K, m), strictly positive

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if self.means.shape != self.variances.shape:
            raise ValueError("means and variances must have the same shape")
        if self.means.shape[0] != self.weights.shape[0]:
            raise ValueError("component count mismatch between weights and means")
        if not np.isclose(self.weights.sum(), 1.0, atol=1e-9):
            raise ValueError(f"weights sum to {self.weights.sum()}, expected 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be strictly positive")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def log_prob(self, X: np.ndarray) -> np.ndarray:
        """Log mixture density for each row of X; X is (N, m) or (m,)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        lp = _logsumexp(self._component_log_prob(X), axis=1)
        return lp

    def _component_log_prob(self, X: np.ndarray) -> np.ndarray:
        """(N, K) array of log w_k + log N(x | mu_k, var_k)."""
        _check_dim(X, self.dim)
        return _component_log_prob(X, self.weights, self.means, self.variances)

    def responsibilities(self, X: np.ndarray) -> np.ndarray:
        """(N, K) posterior component probabilities for each row of X."""
        clp = self._component_log_prob(np.atleast_2d(X))
        return np.exp(clp - _logsumexp(clp, axis=1, keepdims=True))

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "means": [[float(v) for v in row] for row in self.means],
            "variances": [[float(v) for v in row] for row in self.variances],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Gmm":
        return cls(
            weights=np.array(d["weights"], dtype=np.float64),
            means=np.array(d["means"], dtype=np.float64),
            variances=np.array(d["variances"], dtype=np.float64),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gmm):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and np.array_equal(self.means, other.means)
            and np.array_equal(self.variances, other.variances)
        )


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis of a real array.

    The arithmetic is that of scipy.special.logsumexp, step for step, so
    results match it bit for bit: the maxima are taken out of the sum
    (m tied maxima give log1p(s / m) + log(m) + max), and rows whose
    result is not finite fall back to the direct log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        ties = a == a_max
        m = np.sum(ties, axis=axis, keepdims=True, dtype=np.float64)
        shifted = np.where(ties, -np.inf, a)
        np.subtract(shifted, a_max, out=shifted)
        np.exp(shifted, out=shifted)
        s = np.sum(shifted, axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    return out if keepdims else np.squeeze(out, axis=axis)


def _check_dim(X: np.ndarray, dim: int) -> None:
    if X.shape[1] != dim:
        raise ValueError(f"input dim {X.shape[1]} != model dim {dim}")


def _component_log_prob(
    X: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """log w_k + log N(x | mu_k, var_k) for the rows of X (N, m) against
    components stacked as (..., K, m); returns (N, ..., K).

    Every entry is computed by the same elementwise steps and last-axis
    sums whatever the leading stack shape, so a stacked evaluation equals
    the one-mixture evaluation bit for bit.
    """
    m = X.shape[1]
    diff = X.reshape(X.shape[0], *(1,) * (means.ndim - 1), m) - means   # (N, ..., K, m)
    np.multiply(diff, diff, out=diff)
    np.divide(diff, variances, out=diff)
    quad = np.sum(diff, axis=-1)
    logdet = np.sum(np.log(variances), axis=-1)                         # (..., K)
    const = m * np.log(2.0 * np.pi)
    return np.log(weights) - 0.5 * (const + logdet + quad)


# Doubles of temporaries per row block in GmmBank.log_prob: a block's
# (rows, states, K, m) differences plus up to eight (rows, states, K)
# arrays inside _logsumexp stay near this size, which keeps blocks large
# enough to amortize the per-call overhead and small enough that peak
# memory does not grow.
_BLOCK_ELEMS = 1 << 16


class GmmBank:
    """Many mixtures of one dimension, evaluated in one call.

    log_prob(X)[:, s] equals gmms[s].log_prob(X) bit for bit.  Mixtures
    are stacked by component count, and frames are taken in row blocks so
    the broadcast temporaries stay bounded; neither changes any row's
    arithmetic.
    """

    def __init__(self, gmms: Sequence[Gmm]):
        self.size = len(gmms)
        self.dim = gmms[0].dim
        by_k: dict[int, list[int]] = {}
        for s, g in enumerate(gmms):
            if g.dim != self.dim:
                raise ValueError(f"mixture {s} has dim {g.dim}, expected {self.dim}")
            by_k.setdefault(g.n_components, []).append(s)
        self._groups = [
            (
                np.array(cols),
                np.stack([gmms[s].weights for s in cols]),
                np.stack([gmms[s].means for s in cols]),
                np.stack([gmms[s].variances for s in cols]),
            )
            for _, cols in sorted(by_k.items())
        ]

    def log_prob(self, X: np.ndarray) -> np.ndarray:
        """(N, size) log mixture densities for the rows of X (N, m)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        _check_dim(X, self.dim)
        N = X.shape[0]
        out = np.empty((N, self.size))
        for cols, weights, means, variances in self._groups:
            rows = max(1, _BLOCK_ELEMS // (means.size + 8 * weights.size))
            for r in range(0, N, rows):
                clp = _component_log_prob(X[r : r + rows], weights, means, variances)
                out[r : r + rows, cols] = _logsumexp(clp, axis=-1)
        return out


def log_gaussian(x: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Log density of a diagonal-covariance normal at x."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if x.shape != mean.shape or x.shape != variance.shape:
        raise ValueError(
            f"dimension mismatch: x {x.shape}, mean {mean.shape}, variance {variance.shape}"
        )
    diff = x - mean
    return float(
        -0.5 * (x.size * np.log(2.0 * np.pi) + np.sum(np.log(variance)) + np.sum(diff * diff / variance))
    )


def log_mixture(gmm: Gmm, x: np.ndarray) -> float:
    """Log mixture density at a single vector x (log-sum-exp over components)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("log_mixture expects a single vector")
    return float(gmm.log_prob(x[None, :])[0])


def variance_floor(samples: np.ndarray) -> np.ndarray:
    """Per-dimension variance floor derived from the sample's global variance."""
    global_var = np.var(np.asarray(samples, dtype=np.float64), axis=0)
    return VAR_FLOOR_FRACTION * global_var + VAR_FLOOR_ABS


def _kmeanspp_centers(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, then distance^2 weighting."""
    N = X.shape[0]
    centers = np.empty((K, X.shape[1]), dtype=np.float64)
    idx = int(rng.integers(N))
    centers[0] = X[idx]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0:
            # Remaining points coincide with chosen centers; pick any.
            idx = int(rng.integers(N))
        else:
            idx = int(rng.choice(N, p=d2 / total))
        centers[k] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[k]) ** 2, axis=1))
    return centers


def fit_em(
    samples: np.ndarray,
    K: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
    history: list[float] | None = None,
    floor: np.ndarray | None = None,
) -> Gmm:
    """Fit a K-component diagonal GMM by EM from a seeded k-means++ init.

    Stops when the per-sample log-likelihood gain drops below ``tol`` or
    after ``max_iter`` iterations.  The log-likelihood is non-decreasing
    across iterations; if ``history`` is given, the per-iteration values
    are appended to it.  ``floor`` overrides the variance floor (otherwise
    derived from the samples themselves).
    """
    X = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    N = X.shape[0]
    if K < 1:
        raise ValueError("K must be at least 1")
    if N < K:
        raise ValueError(f"need at least K={K} samples, got {N}")
    n_distinct = np.unique(X, axis=0).shape[0]
    if n_distinct < K:
        raise ValueError(
            f"samples collapse onto {n_distinct} distinct points; cannot fit K={K} components"
        )
    if floor is None:
        floor = variance_floor(X)
    rng = child_rng(seed, "kmeanspp")
    centers = _kmeanspp_centers(X, K, rng)

    # Hard-assign to the seeded centers for the initial parameters.
    d2 = np.sum((X[:, None, :] - centers[None]) ** 2, axis=2)
    assign = np.argmin(d2, axis=1)
    weights = np.empty(K)
    means = np.empty_like(centers)
    variances = np.empty_like(centers)
    for k in range(K):
        members = X[assign == k]
        if members.shape[0] == 0:
            members = centers[k : k + 1]
        weights[k] = max(members.shape[0], 1) / N
        means[k] = members.mean(axis=0)
        variances[k] = np.maximum(members.var(axis=0), floor)
    weights /= weights.sum()

    gmm = Gmm(weights=weights, means=means, variances=variances)
    prev_ll = -np.inf
    for _ in range(max_iter):
        gmm, ll = em_step(gmm, X, floor)
        if history is not None:
            history.append(ll)
        if ll - prev_ll < tol:
            break
        prev_ll = ll
    return gmm


def em_step(
    gmm: Gmm,
    X: np.ndarray,
    floor: np.ndarray,
    sample_weights: np.ndarray | None = None,
) -> tuple[Gmm, float]:
    """One (optionally weighted) EM update; returns the new model and the
    per-sample average log-likelihood of X under the *input* model."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    clp = gmm._component_log_prob(X)                       # (N, K)
    row_ll = _logsumexp(clp, axis=1)
    resp = np.exp(clp - row_ll[:, None])                   # (N, K)
    if sample_weights is not None:
        w = np.asarray(sample_weights, dtype=np.float64)
        resp = resp * w[:, None]
        total = w.sum()
        ll = float(np.dot(row_ll, w) / max(total, 1e-300))
    else:
        total = float(X.shape[0])
        ll = float(row_ll.mean())

    Nk = resp.sum(axis=0)                                  # (K,)
    new_w = gmm.weights.copy()
    new_mu = gmm.means.copy()
    new_var = gmm.variances.copy()
    alive = Nk > 1e-12
    new_w[alive] = Nk[alive] / total
    # Starved components keep their parameters at a tiny weight.
    new_w[~alive] = 1e-12
    new_w /= new_w.sum()
    for k in np.flatnonzero(alive):
        mu = resp[:, k] @ X / Nk[k]
        sq = resp[:, k] @ (X * X) / Nk[k]
        new_mu[k] = mu
        new_var[k] = np.maximum(sq - mu * mu, floor)
    return Gmm(weights=new_w, means=new_mu, variances=new_var), ll
