"""Frame feature encoding: PCA, sliding-window Fisher Vectors, a second
PCA, and per-clip L2 normalization of each output dimension.

The full chain, a FrameEncoder, turns precomputed per-frame base
descriptors into the frame features the unit models observe.  Every stage
is optional so the chain also covers reduced setups (PCA only, or raw
features).  save_encoder writes the fitted chain as a JSON record; no
command reads it back.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import lapack_lite

from .data import FeatureSequence
from .errors import DataError
from .gmm import Gmm, fit_em
from .util import child_rng, derive_seed, write_json

DEFAULT_FV_WINDOW = 20
FV_SAMPLE_CAP = 200_000

ENCODER_FORMAT = "frame-encoder"
ENCODER_VERSION = 1


# ---------------------------------------------------------------------------
# PCA


@dataclass(eq=False)
class PcaModel:
    """Orthonormal projection onto the top principal directions.

    basis is (d, D') with columns ordered by descending eigenvalue.
    """

    mean: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        if mean.ndim != 1 or basis.ndim != 2 or basis.shape[0] != mean.size:
            raise DataError("PCA mean and basis shapes are inconsistent")
        if basis.shape[1] > basis.shape[0]:
            raise DataError("cannot keep more dimensions than the input has")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-6):
            raise DataError("PCA basis columns are not orthonormal")
        self.mean = mean
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def out_dim(self) -> int:
        return self.basis.shape[1]

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "basis": [[float(v) for v in row] for row in self.basis],
        }


def _pool_rows(blocks: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """Pool (n_i, d) row blocks, centred, into a new C-ordered (d, N)
    array: the (N, d) pool in Fortran order.  Returns it and the mean.

    Each block fills one column range, so the (N, d) concatenation is
    never formed.  The mean keeps the bits of `X.mean(axis=0)` on that
    C-ordered concatenation: for d >= 2 numpy adds its rows in order, so
    the running sum is carried as the first row of each block's sum, with
    every block taken in C order (a Fortran-ordered one is copied), so the
    bits do not depend on the blocks' layout; for d = 1 the pool's one row
    is the concatenation, summed pairwise.
    """
    arrays = []
    for block in blocks:
        arr = np.atleast_2d(np.asarray(block, dtype=np.float64, order="C"))
        if arrays and arr.shape[1] != arrays[0].shape[1]:
            raise DataError(
                f"PCA input block {len(arrays)} has width {arr.shape[1]}, "
                f"earlier blocks have width {arrays[0].shape[1]}"
            )
        arrays.append(arr)
    N = sum(arr.shape[0] for arr in arrays)
    if N == 0:
        raise DataError("PCA input has no rows")
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise DataError("PCA input contains non-finite values")
    d = arrays[0].shape[1]
    pool = np.empty((d, N))
    total = None
    start = 0
    for arr in arrays:
        pool[:, start : start + arr.shape[0]] = arr.T
        start += arr.shape[0]
        if d > 1 and arr.shape[0]:
            total = np.add.reduce(np.vstack([arr] if total is None else [total, arr]), axis=0)
    mean = pool.T.mean(axis=0) if d == 1 else total / N
    pool -= mean[:, None]
    return pool, mean


def _qr_r(pool: np.ndarray) -> np.ndarray:
    """The (d, d) factor R of the Fortran (N, d) matrix held by the
    C-ordered (d, N) pool, which LAPACK's dgeqrf overwrites in place.

    This is the call `np.linalg.qr(X, mode="r")` makes on its own Fortran
    copy of X, with the workspace sized as numpy sizes it, max(1, d, the
    size dgeqrf asks for), so the blocking and R's bits are the same.
    """
    d, N = pool.shape
    tau = np.empty(d)
    work = np.empty(1)
    info = lapack_lite.dgeqrf(N, d, pool, N, tau, work, -1, 0)["info"]
    if info == 0:
        lwork = max(1, d, int(work[0]))
        work = np.empty(lwork)
        info = lapack_lite.dgeqrf(N, d, pool, N, tau, work, lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info {info}")
    return np.triu(pool[:, :d].T)


def fit_pca(blocks: Iterable, target_dim: int) -> PcaModel:
    """Principal directions of the sample covariance of the pooled row
    blocks, from the SVD of the centered (N, d) pool.

    The pool is built once, centred, in Fortran order (see _pool_rows).
    The singular vectors U are never formed.  When N >= 11d/6 (LAPACK
    dgesdd's MNTHR = INT(MINMN*11/6)), dgesdd itself first QR-factors its
    input and takes the SVD of the (d, d) factor R (Chan's R-SVD, ACM
    TOMS 1982).  Here dgeqrf factors the pool in place and the SVD runs on
    its R, so S and Vt keep the bits of the direct thin SVD, while neither
    the (N, d) U that dgesdd would build nor the two pool copies that
    `np.linalg.qr` makes (its own, then its Fortran buffer) exist.  Below
    the threshold dgesdd never forms R, so the direct call stays.

    Peak memory is the blocks plus one pool: numpy asks for huge pages
    for large arrays, so the whole pool is resident from its first column
    write, while the blocks are still held.  Building a C-ordered pool
    and copying it to Fortran order would add a copy at the peak.

    The sign of each basis column is fixed so its largest-magnitude entry
    is positive.  Raises when the centered data's numerical rank cannot
    support target_dim directions.
    """
    pool, mean = _pool_rows(blocks)
    d, N = pool.shape
    if target_dim < 1:
        raise DataError("target dimension must be at least 1")
    if target_dim > d:
        raise DataError(f"cannot keep {target_dim} of {d} dimensions")
    X = _qr_r(pool) if N >= d * 11 // 6 else pool.T
    _, S, Vt = np.linalg.svd(X, full_matrices=False)
    tol = (S.max(initial=0.0)) * max(N, d) * np.finfo(np.float64).eps
    rank = int(np.sum(S > tol))
    if rank < target_dim:
        raise DataError(
            f"data rank {rank} cannot support {target_dim} principal directions"
        )
    basis = Vt[:target_dim].T.copy()
    for j in range(target_dim):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return PcaModel(mean=mean, basis=basis)


def apply_pca(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project one vector (d,) or a batch (T, d) onto the retained basis."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != model.dim:
        raise DataError(
            f"input dimension {arr.shape[-1]} does not match PCA dimension {model.dim}"
        )
    return (arr - model.mean) @ model.basis


# ---------------------------------------------------------------------------
# Fisher Vectors


@dataclass(eq=False)
class FvEncoderConfig:
    """Sliding-window Fisher Vector encoder settings over a fixed codebook."""

    gmm: Gmm
    window: int = DEFAULT_FV_WINDOW
    signed_sqrt: bool = False

    def __post_init__(self):
        if int(self.window) < 1:
            raise DataError("window must span at least one frame")
        self.window = int(self.window)

    @property
    def out_dim(self) -> int:
        return 2 * self.gmm.n_components * self.gmm.dim


def _frame_stats(X: np.ndarray, gmm: Gmm) -> np.ndarray:
    """Single-frame Fisher Vector rows, shape (T, 2Kd).

    The FV of any window is the mean of these rows over the window, so
    sliding windows reduce to running sums.  Layout per component k:
    mean-gradient block (d values) then variance-gradient block.
    """
    resp = gmm.responsibilities(X)
    K, d = gmm.n_components, gmm.dim
    sigma = np.sqrt(gmm.variances)
    out = np.empty((X.shape[0], 2 * K * d))
    for k in range(K):
        z = (X - gmm.means[k]) / sigma[k]
        rk = resp[:, k : k + 1]
        out[:, 2 * k * d : (2 * k + 1) * d] = rk * z / np.sqrt(gmm.weights[k])
        out[:, (2 * k + 1) * d : (2 * k + 2) * d] = (
            rk * (z * z - 1.0) / np.sqrt(2.0 * gmm.weights[k])
        )
    return out


def _signed_sqrt(v: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.sqrt(np.abs(v))


def _window_bounds(T: int, window: int, t: np.ndarray | int):
    lo = np.maximum(0, t - window // 2)
    hi = np.minimum(T - 1, t - window // 2 + window - 1)
    return lo, hi


def _l2_normalize_columns(X: np.ndarray) -> np.ndarray:
    """Scale each column to unit L2 norm; all-zero columns stay zero."""
    norms = np.sqrt(np.sum(X * X, axis=0))
    out = X.copy()
    nz = norms > 0
    out[:, nz] /= norms[nz]
    return out


def window_fv_matrix(
    frames,
    pca1: PcaModel | None,
    cfg: FvEncoderConfig | None,
) -> np.ndarray:
    """First two encoding stages for one clip: PCA then per-frame windowed
    Fisher Vectors, shape (T, 2Kd).

    This is the matrix a second PCA should be fit on.  With cfg None the
    (possibly projected) frames come back unchanged.  Each window's FV is
    the mean of the single-frame rows inside it, so all windows are read
    off one cumulative sum.
    """
    if isinstance(frames, FeatureSequence):
        X = frames.frames
    else:
        X = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if pca1 is not None:
        X = apply_pca(pca1, X)
    if cfg is None:
        return X
    T = X.shape[0]
    csum = np.cumsum(_frame_stats(X, cfg.gmm), axis=0)
    idx = np.arange(T)
    lo, hi = _window_bounds(T, cfg.window, idx)
    upper = csum[hi]
    lower = np.zeros_like(upper)
    inner = lo > 0
    lower[inner] = csum[lo[inner] - 1]
    out = (upper - lower) / (hi - lo + 1)[:, None]
    return _signed_sqrt(out) if cfg.signed_sqrt else out


def fit_fv_codebook(frame_arrays: Sequence[np.ndarray], K: int, seed: int = 0) -> Gmm:
    """Fit the FV codebook GMM on a random subsample of the pooled frames.

    At most FV_SAMPLE_CAP frames are drawn without replacement; the draw
    is a pure function of the seed, which callers should record alongside
    the model.
    """
    X = np.concatenate([np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in frame_arrays])
    if X.shape[0] > FV_SAMPLE_CAP:
        rng = child_rng(seed, "fv-codebook-sample")
        idx = rng.choice(X.shape[0], size=FV_SAMPLE_CAP, replace=False)
        idx.sort()
        X = X[idx]
    return fit_em(X, K, seed=derive_seed(seed, "fv-codebook-em"))


# ---------------------------------------------------------------------------
# the full chain as one serializable object


@dataclass(eq=False)
class FrameEncoder:
    """The clip encoding chain plus the seed its codebook was sampled with."""

    pca1: PcaModel | None = None
    fv: FvEncoderConfig | None = None
    pca2: PcaModel | None = None
    codebook_seed: int = 0

    def encode(self, frames) -> FeatureSequence:
        """Encode one clip: first PCA, per-frame windowed FV, second PCA,
        then L2-normalize each output dimension over the clip.

        Stages set to None are skipped; the final per-dimension
        normalization always runs.
        """
        clip_id = frames.clip_id if isinstance(frames, FeatureSequence) else ""
        X = window_fv_matrix(frames, self.pca1, self.fv)
        if self.pca2 is not None:
            X = apply_pca(self.pca2, X)
        return FeatureSequence(_l2_normalize_columns(np.atleast_2d(X)), clip_id=clip_id)


def save_encoder(path, enc: FrameEncoder) -> None:
    doc = {
        "format": ENCODER_FORMAT,
        "version": ENCODER_VERSION,
        "codebook_seed": int(enc.codebook_seed),
        "pca1": enc.pca1.to_dict() if enc.pca1 is not None else None,
        "fv": None
        if enc.fv is None
        else {
            "window": enc.fv.window,
            "signed_sqrt": bool(enc.fv.signed_sqrt),
            "gmm": enc.fv.gmm.to_dict(),
        },
        "pca2": enc.pca2.to_dict() if enc.pca2 is not None else None,
    }
    write_json(path, doc)
