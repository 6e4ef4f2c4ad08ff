import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from actionseg import features
from actionseg.data import FeatureSequence
from actionseg.errors import DataError
from actionseg.features import (
    FrameEncoder,
    FvEncoderConfig,
    PcaModel,
    apply_pca,
    fit_fv_codebook,
    fit_pca,
    save_encoder,
    window_fv_matrix,
)
from helpers import encode_fv, fisher_vector, random_gmm, reference_fit_pca


def manual_fisher_vector(X: np.ndarray, gmm) -> np.ndarray:
    """Reference FV computed from the textbook formulas, one frame at a
    time, with responsibilities evaluated from scratch."""
    K, d = gmm.n_components, gmm.dim
    log_comp = np.empty((X.shape[0], K))
    for k in range(K):
        diff = X - gmm.means[k]
        log_comp[:, k] = (
            np.log(gmm.weights[k])
            - 0.5 * np.sum(np.log(2.0 * np.pi * gmm.variances[k]))
            - 0.5 * np.sum(diff * diff / gmm.variances[k], axis=1)
        )
    shift = log_comp.max(axis=1, keepdims=True)
    gamma = np.exp(log_comp - shift)
    gamma /= gamma.sum(axis=1, keepdims=True)
    fv = np.zeros(2 * K * d)
    for k in range(K):
        z = (X - gmm.means[k]) / np.sqrt(gmm.variances[k])
        g_mu = (gamma[:, k : k + 1] * z).mean(axis=0) / np.sqrt(gmm.weights[k])
        g_var = (gamma[:, k : k + 1] * (z * z - 1.0)).mean(axis=0) / np.sqrt(
            2.0 * gmm.weights[k]
        )
        fv[2 * k * d : (2 * k + 1) * d] = g_mu
        fv[(2 * k + 1) * d : (2 * k + 2) * d] = g_var
    return fv


def test_fit_pca_matches_eigendecomposition():
    rng = np.random.default_rng(50)
    X = rng.normal(size=(200, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
    model = fit_pca([X], 2)
    assert model.out_dim == 2
    proj = apply_pca(model, X)
    evals = np.sort(np.linalg.eigvalsh(np.cov(X.T, bias=True)))[::-1]
    assert proj.var(axis=0, ddof=0) == pytest.approx(evals[:2], rel=1e-8)
    # retained directions are uncorrelated and ordered by variance
    cov = np.cov(proj.T, bias=True)
    assert abs(cov[0, 1]) < 1e-8
    assert cov[0, 0] >= cov[1, 1]


def test_fit_pca_full_dimension_reconstructs():
    rng = np.random.default_rng(51)
    X = rng.normal(size=(40, 3))
    model = fit_pca([X], 3)
    proj = apply_pca(model, X)
    back = proj @ model.basis.T + model.mean
    np.testing.assert_allclose(back, X, atol=1e-9)


def test_fit_pca_sign_convention_and_determinism():
    rng = np.random.default_rng(52)
    X = rng.normal(size=(60, 5))
    a = fit_pca([X], 3)
    b = fit_pca([X.copy()], 3)
    np.testing.assert_array_equal(a.basis, b.basis)
    for j in range(a.out_dim):
        col = a.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_fit_pca_rank_and_argument_errors():
    rng = np.random.default_rng(53)
    line = np.outer(rng.normal(size=30), np.array([1.0, 2.0, -1.0]))
    with pytest.raises(DataError):
        fit_pca([line], 2)
    X = rng.normal(size=(10, 2))
    with pytest.raises(DataError):
        fit_pca([X], 3)
    with pytest.raises(DataError):
        fit_pca([X], 0)
    for target in (0, 1, 3):  # values are checked before the target
        with pytest.raises(DataError, match="^PCA input contains non-finite values$"):
            fit_pca([X, np.array([[1.0, np.nan]])], target)
    # zero variance: fit_pca shifts every row by the first one, so a constant
    # column stays exactly zero, as under the direct SVD's exact centring.
    # One row leaves R[1:, 1:] with no rows, and its SVD with no values
    constant = np.full((5, 3), 2.0)
    steady = rng.normal(size=(40, 3)) * 1e-3
    steady[:, 1] = 2.0
    row = np.array([[1.5, -2.0, 3.0]])
    for X, target, rank in ((constant, 1, 0), (steady, 3, 2), (row, 1, 0)):
        msg = f"data rank {rank} cannot support {target} principal directions"
        assert _fit_or_error(reference_fit_pca, X, target) == msg
        for blocks in ([X], list(X)):
            assert _fit_or_error(fit_pca, blocks, target) == msg


def _uneven_blocks(X: np.ndarray, rng) -> list[np.ndarray]:
    """X cut into row blocks of uneven sizes, the first two one row each."""
    cuts = {1, 2, *rng.integers(1, X.shape[0], size=3).tolist()}
    return np.split(X, sorted(c for c in cuts if c < X.shape[0]))


def _fit_or_error(fit, blocks, target_dim):
    try:
        return fit(blocks, target_dim)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 48, 128])
@pytest.mark.parametrize("offset", [-1, 0, 1, "10d"])
def test_fit_pca_matches_the_direct_svd_bit_for_bit(d, offset):
    # fit_pca folds its rows into a QR _QR_ROWS at a time, so every cut of
    # the same rows gives the same bits; against the direct SVD the mean
    # agrees to 1e-12 of its scale and each basis column to 1e-12 of
    # S[0] / gap, the Davis-Kahan bound for a backward-stable SVD.  N runs
    # round 11d/6, where the direct SVD was kept, and "10d" spans more
    # than three folds
    Q = features._QR_ROWS
    if d == 1:
        N = {-1: 2, 0: 10, 1: 129}.get(offset, 3 * Q + 10)
    else:
        N = 3 * Q + 10 * d if offset == "10d" else d * 11 // 6 + offset
    rng = np.random.default_rng(1000 * d + N)
    scales = np.geomspace(1e-3, 1e3, d)
    cases = [
        (rng.normal(size=(N, d)) * scales, min(d, N - 1), False),
        (rng.normal(size=(N, 1)) * rng.normal(size=(1, d)) * scales, 2, True),  # rank 1
    ]
    for X, target, deficient in cases[: 1 if d == 1 else 2]:
        want = _fit_or_error(reference_fit_pca, X, target)
        assert isinstance(want, str) == deficient
        if deficient:
            assert want == "data rank 1 cannot support 2 principal directions"
        cuts = [_uneven_blocks(X, rng), [X], [np.asfortranarray(X)], list(X)]
        cuts += [[X[i : i + n] for i in range(0, N, n)] for n in (Q - 1, Q, Q + 1)]
        fits = []
        for blocks in cuts:
            kept = [b.copy() for b in blocks]
            gen = (b for b in blocks)
            fits.append(_fit_or_error(fit_pca, gen, target))
            assert next(gen, None) is None  # read through, in one pass
            for b, k in zip(blocks, kept):  # the rows are shifted, not the blocks
                assert np.array_equal(b, k)
        if deficient:
            assert fits == [want] * len(cuts)
            continue
        for got in fits[1:]:
            assert np.array_equal(got.mean, fits[0].mean)
            assert np.array_equal(got.basis, fits[0].basis)
        got = fits[0]
        assert np.all(np.abs(got.mean - want.mean) <= 1e-12 * (np.abs(want.mean) + scales))
        S = np.append(np.linalg.svd(X - X.mean(axis=0), compute_uv=False), 0.0)
        gap = [np.delete(np.abs(S - S[j]), j).min() for j in range(target)]
        err = np.abs(got.basis - want.basis).max(axis=0)
        assert np.all(err * gap <= 1e-12 * S[0]), err * gap / S[0]


def test_fit_pca_rejects_empty_input_and_mixed_widths():
    for blocks in ([], [np.empty((0, 3))], [np.empty((0, 3)), np.empty((0, 3))]):
        with pytest.raises(DataError, match="^PCA input has no rows$"):
            fit_pca(blocks, 1)
    with pytest.raises(DataError, match="^PCA input block 2 has width 5, earlier blocks have width 3$"):
        fit_pca([np.zeros((4, 3)), np.ones((1, 3)), np.zeros((2, 5))], 1)
    # every block's width is checked before any value
    with pytest.raises(DataError, match="^PCA input block 1 has width 3, earlier blocks have width 2$"):
        fit_pca([np.array([[np.nan, 1.0]]), np.zeros((2, 3))], 1)


def test_fit_pca_peak_memory_stays_under_three_quarters_of_a_copy_of_the_pool():
    # the rows are folded into a QR _QR_ROWS at a time and no block is
    # held, so the pool never exists; pooling the rows alone reads a copy.
    # Measured in a fresh single-threaded interpreter.  ru_maxrss survives
    # exec, so a child exec'd from this large process would start at its
    # high-water mark: a small launcher in between resets it.  glibc's
    # mmap threshold is fixed at its default: left dynamic, it depends on
    # what the interpreter freed before the fit (it differs with and
    # without cached bytecode), and moved the reading by a copy.
    pytest.importorskip("resource")
    N, d, n_blocks = 20000, 128, 100
    code = f"""
import resource
import numpy as np
from actionseg.features import fit_pca
rng = np.random.default_rng(0)
blocks = (rng.normal(size=({N // n_blocks}, {d})) for _ in range({n_blocks}))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
fit_pca(blocks, 4)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MALLOC_MMAP_THRESHOLD_="131072",
    )
    launch = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
    out = subprocess.run(
        [sys.executable, "-c", launch, code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    grown = int(out.stdout) * 1024  # ru_maxrss counts KiB on Linux
    assert grown < 0.75 * N * d * 8, grown / (N * d * 8)


def test_pca_model_validation_and_round_trip():
    with pytest.raises(DataError):
        PcaModel(mean=np.zeros(2), basis=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DataError):
        PcaModel(mean=np.zeros(2), basis=np.eye(3))
    model = fit_pca([np.random.default_rng(54).normal(size=(30, 3))], 2)
    back = PcaModel(**model.to_dict())
    np.testing.assert_array_equal(back.mean, model.mean)
    np.testing.assert_array_equal(back.basis, model.basis)
    with pytest.raises(DataError):
        apply_pca(model, np.zeros((4, 5)))


def test_fisher_vector_matches_manual_formula():
    rng = np.random.default_rng(55)
    for _ in range(10):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        gmm = random_gmm(rng, K, d)
        X = rng.normal(size=(int(rng.integers(1, 12)), d))
        want = manual_fisher_vector(X, gmm)
        np.testing.assert_allclose(fisher_vector(X, gmm), want, atol=1e-10)
        np.testing.assert_allclose(
            fisher_vector(X, gmm, signed_sqrt=True),
            np.sign(want) * np.sqrt(np.abs(want)),
            atol=1e-10,
        )


def test_fisher_vector_empty_input():
    gmm = random_gmm(np.random.default_rng(56), 2, 2)
    with pytest.raises(DataError):
        fisher_vector(np.zeros((0, 2)), gmm)


def test_encode_fv_window_clamps_to_clip():
    rng = np.random.default_rng(57)
    gmm = random_gmm(rng, 2, 2)
    X = rng.normal(size=(10, 2))
    cfg = FvEncoderConfig(gmm=gmm, window=4)
    # the window starts two frames before t and is cut at the clip edges
    for t, lo, hi in [(0, 0, 1), (2, 0, 3), (5, 3, 6), (9, 7, 9)]:
        want = fisher_vector(X[lo : hi + 1], gmm)
        np.testing.assert_allclose(encode_fv(X, cfg, t), want, atol=1e-12)
    with pytest.raises(DataError):
        encode_fv(X, cfg, 10)
    with pytest.raises(DataError):
        encode_fv(X, cfg, -1)
    with pytest.raises(DataError):
        FvEncoderConfig(gmm=gmm, window=0)


def test_window_fv_matrix_equals_per_frame_encoding():
    rng = np.random.default_rng(58)
    gmm = random_gmm(rng, 3, 2)
    X = rng.normal(size=(17, 2))
    for signed in (False, True):
        cfg = FvEncoderConfig(gmm=gmm, window=5, signed_sqrt=signed)
        mat = window_fv_matrix(X, None, cfg)
        assert mat.shape == (17, cfg.out_dim)
        for t in range(17):
            np.testing.assert_allclose(mat[t], encode_fv(X, cfg, t), atol=1e-10)


def test_window_fv_matrix_with_pca_and_none_stages():
    rng = np.random.default_rng(59)
    X = rng.normal(size=(20, 4))
    pca = fit_pca([X], 2)
    np.testing.assert_array_equal(window_fv_matrix(X, None, None), X)
    np.testing.assert_allclose(window_fv_matrix(X, pca, None), apply_pca(pca, X))
    gmm = random_gmm(rng, 2, 2)
    cfg = FvEncoderConfig(gmm=gmm, window=3)
    proj = apply_pca(pca, X)
    np.testing.assert_allclose(
        window_fv_matrix(X, pca, cfg), window_fv_matrix(proj, None, cfg), atol=1e-12
    )


def test_encode_clip_full_chain():
    rng = np.random.default_rng(60)
    seq = FeatureSequence(rng.normal(size=(25, 4)), clip_id="c9")
    pca1 = fit_pca([seq.frames], 3)
    gmm = random_gmm(rng, 2, 3)
    cfg = FvEncoderConfig(gmm=gmm, window=6)
    mid = window_fv_matrix(seq.frames, pca1, cfg)
    pca2 = fit_pca([mid], 4)
    out = FrameEncoder(pca1=pca1, fv=cfg, pca2=pca2).encode(seq)
    assert out.clip_id == "c9"
    want = apply_pca(pca2, mid)
    want = want / np.sqrt(np.sum(want * want, axis=0))
    np.testing.assert_allclose(out.frames, want, atol=1e-12)
    norms = np.sqrt(np.sum(out.frames ** 2, axis=0))
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_encode_clip_normalizes_even_without_stages():
    frames = np.array([[3.0, 0.0], [4.0, 0.0]])
    out = FrameEncoder().encode(frames)
    np.testing.assert_allclose(out.frames[:, 0], [0.6, 0.8], atol=1e-12)
    # an all-zero dimension is left at zero rather than dividing by zero
    np.testing.assert_array_equal(out.frames[:, 1], [0.0, 0.0])


def test_fit_fv_codebook_deterministic_and_capped(monkeypatch):
    rng = np.random.default_rng(61)
    arrays = [rng.normal(size=(80, 2)), rng.normal(size=(70, 2)) + 3.0]
    full = fit_fv_codebook(arrays, K=2, seed=5)
    assert full.n_components == 2
    monkeypatch.setattr(features, "FV_SAMPLE_CAP", 100)
    a = fit_fv_codebook(arrays, K=2, seed=5)
    b = fit_fv_codebook([x.copy() for x in arrays], K=2, seed=5)
    assert a == b
    assert a != full  # the cap is read at call time
    c = fit_fv_codebook(arrays, K=2, seed=6)
    assert a != c


def test_save_encoder_records_the_chain(tmp_path):
    rng = np.random.default_rng(62)
    X = rng.normal(size=(40, 3))
    pca1 = fit_pca([X], 2)
    gmm = random_gmm(rng, 2, 2)
    enc = FrameEncoder(
        pca1=pca1,
        fv=FvEncoderConfig(gmm=gmm, window=7, signed_sqrt=True),
        pca2=None,
        codebook_seed=11,
    )
    p = tmp_path / "encoder.json"
    save_encoder(p, enc)
    doc = json.loads(p.read_text(encoding="utf-8"))
    assert doc["format"] == "frame-encoder" and doc["version"] == 1
    assert doc["codebook_seed"] == 11
    assert doc["fv"]["window"] == 7 and doc["fv"]["signed_sqrt"] is True
    assert doc["pca2"] is None
    assert doc["pca1"] == pca1.to_dict()
    assert doc["fv"]["gmm"] == gmm.to_dict()
