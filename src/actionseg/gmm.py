"""Diagonal-covariance Gaussian mixture models: density evaluation and EM.

Used both as the per-state observation model of unit HMMs and as the
codebook for Fisher-Vector encoding.  All probability arithmetic is done in
natural-log space.

Short axes.  The density sum over the m feature dimensions is the
innermost reduction of every evaluation, and on a short axis a numpy
reduction costs one small inner-loop call per output element.  So below
_SHORT_AXIS (8) dimensions the density kernel takes one dimension at a
time and adds the slices left to right with elementwise operations.  That
is the order in which np.sum adds fewer than eight terms (its pairwise
summation only splits longer runs), so the slices give np.sum's bits;
tests/test_gmm.py pins this numpy behaviour.

Long axes.  From _SHORT_AXIS dimensions on, a mixture's component
log-densities take the standard form for diagonal Gaussians (Kaldi's
DiagGmm; Povey et al., ASRU 2011):

    log w_k + log N(x | mu_k, var_k)
        = xs^2 . (-1/(2 var_k)) + xs . (mus_k / var_k) + c_k,
    c_k = log w_k - (m log 2pi + sum log var_k + sum mus_k^2 / var_k) / 2,

two np.einsum contractions over the m dimensions of the centred frame
xs = x - shift and means mus_k = mu_k - shift.  einsum never calls BLAS, so
the bits do not depend on which BLAS kernel is loaded.  The shift is the
mean of the mixture's own K means.  Without it the expansion cancels: its
terms grow with x^2 / var while their sum is the much smaller
(x - mu)^2 / var, and on means near 1e3 with variances of 1e-12 it kept
no correct digit.  Each mixture takes its own shift, so each mixture of
a GmmBank gets the bits it gets alone.  The error of an entry is at
most about m eps (1 + sum xs^2/var + sum mus^2/var + sum |log var|)
(tests/test_gmm.py checks this bound): as accurate as the direct form
while frame and components lie within a few standard deviations of the
shift.  Accuracy degrades where they do not.  In a mixture whose
components lie many standard deviations apart, a frame that sits on one
of them scores with an absolute error of about m eps mus^2/var, where the
direct form's error is about m eps.

Log-sum-exp.  The sum over the K components is the shifted form
hi + log1p(sum over k other than the first argmax of exp(a_k - hi)), with
hi the maximum, which Blanchard, Higham & Higham analyse and recommend
(IMA J. Numer. Anal. 2021).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .util import child_rng, json_numbers

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
            weights=np.array(json_numbers("weight", d["weights"]), dtype=np.float64),
            means=np.array(json_numbers("mean", d["means"]), dtype=np.float64),
            variances=np.array(json_numbers("variance", d["variances"]), dtype=np.float64),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gmm):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and np.array_equal(self.means, other.means)
            and np.array_equal(self.variances, other.variances)
        )


# Feature axes shorter than this are summed slice by slice, left to right,
# which is the order np.sum uses below its pairwise-summation block size.
_SHORT_AXIS = 8


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis of a real array, as
    hi + log1p(sum of exp(a_k - hi) over every k but the first argmax),
    with hi the maximum; a row whose hi is not finite gives hi.  Two
    terms take log1p(exp(lo - hi)) + hi from their minimum lo, which is
    the same arithmetic on the same bits (a tie gives log1p(1) = log 2)."""
    with np.errstate(invalid="ignore", over="ignore"):
        if a.shape[axis] == 2:
            head = (slice(None),) * (axis % a.ndim)
            p0, p1 = a[head + (slice(0, 1),)], a[head + (slice(1, 2),)]
            hi = np.maximum(p0, p1)
            out = np.minimum(p0, p1)
            out -= hi
            np.exp(out, out=out)
        else:
            hi = np.max(a, axis=axis, keepdims=True)
            shifted = np.subtract(a, hi)
            np.put_along_axis(shifted, np.argmax(a, axis=axis, keepdims=True), -np.inf, axis=axis)
            np.exp(shifted, out=shifted)
            out = np.sum(shifted, axis=axis, keepdims=True)
        np.log1p(out, out=out)
        out += hi
        np.copyto(out, hi, where=~np.isfinite(hi))
    return out if keepdims else np.squeeze(out, axis=axis)


def _check_dim(X: np.ndarray, dim: int) -> None:
    if X.shape[1] != dim:
        raise ValueError(f"input dim {X.shape[1]} != model dim {dim}")


def _component_log_prob(
    X: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """log w_k + log N(x | mu_k, var_k) for the rows of X (N, m).

    On a short feature axis the components may be stacked as (..., K, m),
    and the result is (N, ..., K).  Every entry is computed by the same
    elementwise steps and the same order of additions over the m
    dimensions whatever the leading stack shape, so a stacked evaluation
    equals the one-mixture evaluation bit for bit.  A long axis takes one
    (K, m) mixture, scored by _contract in row blocks of about
    _BLOCK_ELEMS doubles of temporaries; GmmBank contracts its mixtures
    one at a time itself.  A frame far enough from a component overflows
    its quadratic term to inf, and a zero weight has log -inf: both are
    the right limit (log-density -inf), so neither is reported.
    """
    N, m = X.shape
    if not 0 < m < _SHORT_AXIS:
        terms = _long_axis_terms(weights, means, variances)
        K = weights.shape[0]
        out = np.empty((N, K))
        rows = max(1, _BLOCK_ELEMS // (m + 2 * K))  # a centred row and two (K,) contractions
        for r in range(0, N, rows):
            _contract(X[r : r + rows], terms, out=out[r : r + rows])
        return out
    lead = (N,) + (1,) * (means.ndim - 1)
    with np.errstate(over="ignore", divide="ignore"):
        quad = None
        for j in range(m):
            d = X[:, j].reshape(lead) - means[..., j]                       # (N, ..., K)
            np.multiply(d, d, out=d)
            np.divide(d, variances[..., j], out=d)
            quad = d if quad is None else np.add(quad, d, out=quad)
        logdet = np.sum(np.log(variances), axis=-1)                         # (..., K)
        const = m * np.log(2.0 * np.pi)
        np.add(quad, const + logdet, out=quad)
        np.multiply(quad, 0.5, out=quad)
        return np.subtract(np.log(weights), quad, out=quad)


def _long_axis_terms(weights: np.ndarray, means: np.ndarray, variances: np.ndarray) -> tuple:
    """The constants of one mixture's long-axis form (see the module
    docstring): its shift, the mean of its K means (m,); -1/(2 var) and
    (mu - shift)/var, both (K, m) and C-ordered; and the (K,) constant
    log w - (m log 2pi + sum log var + sum (mu - shift)^2/var) / 2."""
    means = np.ascontiguousarray(means)
    variances = np.ascontiguousarray(variances)
    shift = means.mean(axis=0)
    centred = means - shift
    prec = 1.0 / variances
    lin = centred * prec
    const = np.sum(centred * lin, axis=-1)
    const += np.sum(np.log(variances), axis=-1)
    const += means.shape[1] * np.log(2.0 * np.pi)
    const *= -0.5
    with np.errstate(divide="ignore"):  # a zero weight: the -inf limit
        const += np.log(weights)
    return shift, prec * -0.5, lin, const


def _contract(X: np.ndarray, terms: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """The (N, K) component log-densities of one mixture, from its
    _long_axis_terms, for the rows of X (N, m): two contractions over the
    centred frames.  Each entry is a dot product over m taken by einsum's
    contiguous inner loop, whatever N or the layout of X, so row blocks
    give the bits of the whole.  NaN, from a linear term that overflows
    against an infinite quadratic one, is the -inf limit."""
    shift, quad, lin, const = terms
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.subtract(X, shift, order="C")                              # (N, m)
        acc = np.einsum("nm,km->nk", xs, lin)
        np.multiply(xs, xs, out=xs)
        acc += np.einsum("nm,km->nk", xs, quad)
        acc += const
        return np.fmax(acc, -np.inf, out=out)


# Doubles of temporaries per row block in GmmBank.log_prob (see
# _row_doubles) and in _component_log_prob's long-axis branch: blocks near
# this size amortize the per-call overhead, and peak memory does not grow
# with the frame count.
_BLOCK_ELEMS = 1 << 17


def _row_doubles(S: int, K: int, m: int) -> int:
    """Doubles GmmBank.log_prob holds per frame row while it evaluates S
    mixtures of K components in m dimensions: the (S, K) component
    log-densities, with the density kernel's temporaries and then with
    _logsumexp's.  numpy's ufunc buffers, up to two of np.getbufsize()
    doubles whatever the rows, come on top; GmmBank.log_prob reserves
    them out of _BLOCK_ELEMS."""
    clp = S * K
    # a long feature axis: beside the (S, K) table, one mixture's centred
    # row and its two (K,) contractions; a short one: up to three (S, K)
    # slices, the running sum among them
    kernel = clp + m + 2 * K if m >= _SHORT_AXIS else clp * min(m, 3)
    # two terms: the (S,) maxima and result, and a one-byte (S,) mask;
    # any other count: a shifted (S, K) copy, and beside the maxima the
    # argmax indices and put_along_axis's index arrays, then the result
    lse = 2 * S + S // 8 + 1 if K == 2 else clp + 3 * S
    return max(kernel, clp + lse)


class GmmBank:
    """Many mixtures of one dimension, evaluated in one call.

    log_prob(X)[:, s] equals gmms[s].log_prob(X) bit for bit.  Mixtures
    are grouped by component count, and frames are taken in row blocks so
    the temporaries stay bounded; neither changes any row's arithmetic.
    On a long feature axis each mixture keeps its _long_axis_terms and is
    contracted on its own; on a short one each group is one stack for
    _component_log_prob.  Each block's log-sum-exp is one _logsumexp call
    over the group.
    """

    def __init__(self, gmms: Sequence[Gmm]):
        self.size = len(gmms)
        self.dim = gmms[0].dim
        by_k: dict[int, list[int]] = {}
        for s, g in enumerate(gmms):
            if g.dim != self.dim:
                raise ValueError(f"mixture {s} has dim {g.dim}, expected {self.dim}")
            by_k.setdefault(g.n_components, []).append(s)
        self._long = self.dim >= _SHORT_AXIS
        self._groups = []
        for K, cols in sorted(by_k.items()):
            mix = [gmms[s] for s in cols]
            if self._long:
                params = [_long_axis_terms(g.weights, g.means, g.variances) for g in mix]
            else:
                params = [
                    np.stack([getattr(g, a) for g in mix]) for a in ("weights", "means", "variances")
                ]
            self._groups.append((np.array(cols), K, params))

    def log_prob(self, X: np.ndarray) -> np.ndarray:
        """(N, size) log mixture densities for the rows of X (N, m)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        _check_dim(X, self.dim)
        N = X.shape[0]
        out = np.empty((N, self.size))
        for cols, K, params in self._groups:
            spare = _BLOCK_ELEMS - 2 * np.getbufsize()  # less the ufunc buffers
            rows = max(1, spare // _row_doubles(len(cols), K, self.dim))
            for r in range(0, N, rows):
                block = X[r : r + rows]
                if self._long:
                    clp = np.empty((block.shape[0], len(cols), K))
                    for i, terms in enumerate(params):
                        _contract(block, terms, out=clp[:, i])
                else:
                    clp = _component_log_prob(block, *params)
                out[r : r + rows, cols] = _logsumexp(clp, axis=-1)
                del clp  # not alive while the next block's table is built
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


def _nearest_center(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each row's nearest center, the first of tied ones.  Each
    center's squared distances are one (N,) column, summed over the m
    dimensions as np.sum does along a contiguous axis, so the (N, K)
    table holds the bits of a broadcast (N, K, m) sum without its size."""
    d2 = np.empty((X.shape[0], centers.shape[0]))
    for k, c in enumerate(centers):
        diff = X - c
        np.multiply(diff, diff, out=diff)
        d2[:, k] = np.sum(diff, axis=1)
    return np.argmin(d2, axis=1)


def _distinct_rows(X: np.ndarray, cap: int) -> int:
    """min(cap, the number of distinct rows of X (N, m)), counted as
    np.unique(X, axis=0) counts them (-0.0 equals 0.0; a row holding NaN
    equals no other), without sorting a copy of X: each of at most cap
    passes takes the first row not yet matched and masks out every row
    equal to it."""
    unmatched = np.ones(X.shape[0], dtype=bool)
    for count in range(cap):
        if not unmatched.any():
            return count
        first = int(np.argmax(unmatched))
        unmatched[first] = False
        unmatched &= (X != X[first]).any(axis=1)
    return cap


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
    n_distinct = _distinct_rows(X, K)
    if n_distinct < K:
        raise ValueError(
            f"samples collapse onto {n_distinct} distinct points; cannot fit K={K} components"
        )
    if floor is None:
        floor = variance_floor(X)
    rng = child_rng(seed, "kmeanspp")
    centers = _kmeanspp_centers(X, K, rng)

    # Hard-assign to the seeded centers for the initial parameters.
    assign = _nearest_center(X, centers)
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
