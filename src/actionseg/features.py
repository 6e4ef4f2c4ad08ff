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


_QR_ROWS = 1024  # rows per fold of fit_pca's streaming QR


def _fold(R: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """R factor of R stacked on the rows, each with a leading 1."""
    return np.linalg.qr(np.vstack([R, np.hstack([np.ones((len(rows), 1)), rows])]), mode="r")


def fit_pca(blocks: Iterable, target_dim: int) -> PcaModel:
    """Principal directions of the sample covariance of the pooled row
    blocks, from the SVD of the R factor of the centered (N, d) rows.

    The blocks are read in one pass and none is held.  Each row is
    shifted by the first input row and given a leading 1, and the rows
    are folded into the running R factor _QR_ROWS at a time, by one QR of
    R stacked on them (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J.
    Sci. Comput. 2012).  The groups do not depend on how the caller cuts
    the rows, so neither do the bits.  With the column of ones first,
    R[0, 1:] / R[0, 0] is the shifted rows' mean and R[1:, 1:] is the R
    factor of the centered rows, which has their singular values and
    right singular vectors.  The shift keeps a constant column exactly
    zero, so it has rank 0 as under exact centring.

    The sign of each basis column is fixed so its largest-magnitude entry
    is positive.  Raises when the centered data's numerical rank cannot
    support target_dim directions.
    """
    d = R = shift = None
    waiting, n_waiting, N, finite = [], 0, 0, True
    for i, block in enumerate(blocks):
        arr = np.atleast_2d(np.asarray(block, dtype=np.float64))
        if d is None:
            d, R = arr.shape[1], np.empty((0, arr.shape[1] + 1))
        if arr.shape[1] != d:
            raise DataError(
                f"PCA input block {i} has width {arr.shape[1]}, earlier blocks have width {d}"
            )
        N += len(arr)
        finite = finite and bool(np.isfinite(arr).all())
        if not finite or not len(arr):
            continue  # a bad input is only marked, so every width is checked
        shift = arr[0].copy() if shift is None else shift
        waiting.append(arr - shift)
        n_waiting += len(arr)
        if n_waiting >= _QR_ROWS:
            rows = np.vstack(waiting)
            cut = n_waiting - n_waiting % _QR_ROWS
            for start in range(0, cut, _QR_ROWS):
                R = _fold(R, rows[start : start + _QR_ROWS])
            waiting, n_waiting = [rows[cut:].copy()], n_waiting - cut
    if N == 0:
        raise DataError("PCA input has no rows")
    if not finite:
        raise DataError("PCA input contains non-finite values")
    if target_dim < 1:
        raise DataError("target dimension must be at least 1")
    if target_dim > d:
        raise DataError(f"cannot keep {target_dim} of {d} dimensions")
    if n_waiting:
        R = _fold(R, np.vstack(waiting))
    _, S, Vt = np.linalg.svd(R[1:, 1:], full_matrices=False)
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
    return PcaModel(mean=shift + R[0, 1:] / R[0, 0], basis=basis)


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
    the model.  The drawn rows are gathered from each array in turn, so
    the pool is never concatenated whole.
    """
    arrays = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in frame_arrays]
    starts = np.cumsum([0] + [a.shape[0] for a in arrays])
    if starts[-1] > FV_SAMPLE_CAP:
        rng = child_rng(seed, "fv-codebook-sample")
        idx = rng.choice(int(starts[-1]), size=FV_SAMPLE_CAP, replace=False)
        idx.sort()
        cuts = np.searchsorted(idx, starts)
        arrays = [a[idx[lo:hi] - s] for a, s, lo, hi in zip(arrays, starts, cuts, cuts[1:])]
    return fit_em(np.concatenate(arrays), K, seed=derive_seed(seed, "fv-codebook-em"))


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
