"""Diagonal-covariance Gaussian mixture models: density evaluation and EM.

Used both as the per-state observation model of unit HMMs and as the
codebook for Fisher-Vector encoding.  All probability arithmetic is done in
natural-log space.

Short axes.  The density sum over the m feature dimensions and the
log-sum-exp over the K components are the innermost reductions of every
evaluation, and on a short axis a numpy reduction costs one small
inner-loop call per output element.  So when the reduced axis is shorter
than _SHORT_AXIS (8), both kernels take one slice of the axis at a time
and combine the slices with elementwise operations, adding them left to
right.  That is the order in which np.sum adds fewer than eight terms (its
pairwise summation only splits longer runs), so both forms give the same
bits; tests/test_gmm.py pins this numpy behaviour.  Longer axes keep the
np.sum and np.max reductions.

Two terms, the CLI's default component count, take a shorter form still:
log1p(exp(lo - hi)) + hi, from their maximum hi and minimum lo.  On a
row whose terms differ and whose result is finite, the slice form adds
exp(-inf - hi) = +0.0 to exp(lo - hi), divides it by its one maximum and
adds log(1.0) = +0.0 to a log1p that is at least +0.0: three steps that
change no bit (tests/test_gmm.py pins the +0.0s).  Tied rows and rows
with a result that is not finite (infinite or NaN terms) are redone by the
slice form.
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
        if not (self.weights >= 0).all():  # first: summing inf and -inf warns
            raise ValueError("weights must be non-negative numbers")
        total = self.weights.sum()
        if not abs(total - 1.0) <= 1e-9 + 1e-5:  # np.isclose(total, 1, atol=1e-9)
            raise ValueError(f"weights sum to {total}, expected 1")
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


# Reduced axes shorter than this are combined slice by slice, left to right,
# which is the order np.sum uses below its pairwise-summation block size.
_SHORT_AXIS = 8


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis of a real array.

    The arithmetic is that of scipy.special.logsumexp, step for step, so
    results match it bit for bit: the maxima are taken out of the sum
    (m tied maxima give log1p(s / m) + log(m) + max), and rows whose
    result is not finite fall back to the direct log(sum(exp(a))).  Axes
    shorter than _SHORT_AXIS are reduced slice by slice, and axes of two
    by a two-term form (see the module docstring); both give the same
    values.
    """
    n = a.shape[axis]
    if not 0 < n < _SHORT_AXIS:
        return _logsumexp_reduce(a, axis, keepdims)
    head = (slice(None),) * (axis % a.ndim)
    parts = [a[head + (k,)] for k in range(n)]
    if n == 2:
        out, ok = _logsumexp_pair(*parts)
        if not ok.all():
            redo = ~ok
            rows = np.moveaxis(a, axis, -1)[redo]
            out[redo] = _logsumexp_slices([rows[:, 0], rows[:, 1]])
    else:
        out = _logsumexp_slices(parts)
    return np.expand_dims(out, axis) if keepdims else out


def _logsumexp_pair(p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """log(exp(p0) + exp(p1)) as log1p(exp(lo - hi)) + hi, and where that
    equals _logsumexp_slices([p0, p1]): the untied rows whose result is
    finite.  The other rows are left for the slice path."""
    with np.errstate(invalid="ignore", over="ignore"):
        hi = np.maximum(p0, p1)
        out = np.minimum(p0, p1, out=np.empty(np.shape(hi)))  # an array even for one row
        out -= hi
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += hi
        ok = np.isfinite(out)
        ok &= p0 != p1
    return out, ok


def _logsumexp_slices(parts: list) -> np.ndarray:
    """_logsumexp over the slices of a short axis, combined left to right."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = parts[0]
        for p in parts[1:]:
            a_max = np.maximum(a_max, p)
        ties = parts[0] == a_max
        m = ties.astype(np.float64)
        s = np.exp(np.where(ties, -np.inf, parts[0]) - a_max)
        for p in parts[1:]:
            ties = p == a_max
            m += ties
            s += np.exp(np.where(ties, -np.inf, p) - a_max)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.exp(parts[0])
            for p in parts[1:]:
                direct += np.exp(p)
            out = np.where(finite, out, np.log(direct))
    return out


def _logsumexp_reduce(a: np.ndarray, axis: int, keepdims: bool) -> np.ndarray:
    """_logsumexp by numpy reductions over the axis, for long axes."""
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

    Every entry is computed by the same elementwise steps and the same
    order of additions over the m dimensions whatever the leading stack
    shape, so a stacked evaluation equals the one-mixture evaluation bit
    for bit.  A frame far enough from a component overflows its quadratic
    term to inf, which is the right limit (log-density -inf), so that
    overflow is not reported.
    """
    N, m = X.shape
    lead = (N,) + (1,) * (means.ndim - 1)
    with np.errstate(over="ignore"):
        if 0 < m < _SHORT_AXIS:
            quad = None
            for j in range(m):
                d = X[:, j].reshape(lead) - means[..., j]                   # (N, ..., K)
                np.multiply(d, d, out=d)
                np.divide(d, variances[..., j], out=d)
                quad = d if quad is None else np.add(quad, d, out=quad)
        else:
            diff = X.reshape(*lead, m) - means                              # (N, ..., K, m)
            np.multiply(diff, diff, out=diff)
            np.divide(diff, variances, out=diff)
            quad = np.sum(diff, axis=-1)
        logdet = np.sum(np.log(variances), axis=-1)                         # (..., K)
        const = m * np.log(2.0 * np.pi)
        np.add(quad, const + logdet, out=quad)
        np.multiply(quad, 0.5, out=quad)
        return np.subtract(np.log(weights), quad, out=quad)


# Doubles of temporaries per row block in GmmBank.log_prob (see
# _row_doubles): blocks near this size amortize the per-call overhead,
# and peak memory does not grow with the frame count.
_BLOCK_ELEMS = 1 << 17


def _row_doubles(S: int, K: int, m: int) -> int:
    """Doubles GmmBank.log_prob holds per frame row while it evaluates S
    mixtures of K components in m dimensions: the (S, K) component
    log-densities, with _component_log_prob's temporaries and then with
    _logsumexp's."""
    clp = S * K
    # the (S, K, m) differences of a long feature axis, or up to three
    # (S, K) slices, the running sum among them, of a short one
    kernel = clp * (m + 1) if m >= _SHORT_AXIS else clp * min(m, 3)
    # two (S,) arrays and two masks for two terms, about six (S,) arrays
    # for other short axes, a shifted (S, K) copy, a mask and a few (S,)
    # arrays for long ones
    lse = 3 * S if K == 2 else 6 * S if K < _SHORT_AXIS else 2 * clp
    return max(kernel, clp + lse)


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
            rows = max(1, _BLOCK_ELEMS // _row_doubles(*means.shape))
            for r in range(0, N, rows):
                clp = _component_log_prob(X[r : r + rows], weights, means, variances)
                out[r : r + rows, cols] = _logsumexp(clp, axis=-1)
        return out


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


def em_step(gmm: Gmm, X: np.ndarray, floor: np.ndarray) -> tuple[Gmm, float]:
    """One EM update; returns the new model and the per-sample average
    log-likelihood of X under the *input* model."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    clp = gmm._component_log_prob(X)                       # (N, K)
    row_ll = _logsumexp(clp, axis=1)
    resp = np.exp(clp - row_ll[:, None])                   # (N, K)
    return gmm_from_resp(gmm, resp, X, X * X, floor), float(row_ll.mean())


def gmm_from_resp(
    prev: Gmm, resp: np.ndarray, X: np.ndarray, XX: np.ndarray, floor: np.ndarray
) -> Gmm:
    """The M-step: the mixture implied by the (N, K) component
    responsibilities resp of the frames X (N, m), whose squares are XX.
    Weights are the responsibility masses over their sum; variances are
    floored.  Starved components keep prev's parameters at a tiny weight.

    Each statistic is one sum over all N rows: the masses by resp.sum(0),
    the weighted sums of X and XX by np.einsum.  einsum never calls BLAS,
    so the model's bits do not depend on which BLAS kernel is loaded.
    """
    Nk = resp.sum(axis=0)
    Sx = np.einsum("nk,nm->km", resp, X)
    Sxx = np.einsum("nk,nm->km", resp, XX)
    new_w = prev.weights.copy()
    new_mu = prev.means.copy()
    new_var = prev.variances.copy()
    alive = Nk > 1e-12
    new_w[alive] = Nk[alive] / Nk.sum()
    new_w[~alive] = 1e-12
    new_w /= new_w.sum()
    mu = Sx[alive] / Nk[alive, None]
    new_mu[alive] = mu
    new_var[alive] = np.maximum(Sxx[alive] / Nk[alive, None] - mu * mu, floor)
    return Gmm(weights=new_w, means=new_mu, variances=new_var)
