import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import multivariate_normal

from actionseg import gmm as gmm_module
from actionseg.gmm import (
    Gmm,
    GmmBank,
    em_step,
    fit_em,
    log_gaussian,
    log_mixture,
    variance_floor,
)
from helpers import random_gmm


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def test_logsumexp_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(14)
    cases = 0
    for trial in range(600):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 9)))
        a = rng.normal(0.0, 30.0, shape)
        if trial % 2:
            a = np.round(a)  # ties between the largest terms
        if trial % 3 == 0:
            a[rng.random(shape) < 0.3] = -np.inf
        if trial % 5 == 0:
            a[0, 0] = -np.inf  # a row of nothing but -inf
        if trial % 7 == 0:
            a[-1, -1, 0] = np.inf
        flat = a.reshape(-1, shape[2])
        for arr, axis, keepdims in (
            (flat, 1, False), (flat, 1, True), (a, -1, False), (a, 2, True),
        ):
            got = gmm_module._logsumexp(arr, axis=axis, keepdims=keepdims)
            want = scipy_logsumexp(arr, axis=axis, keepdims=keepdims)
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want)), (trial, axis, keepdims)
            cases += 1
    assert cases == 2400


def test_import_leaves_scipy_unloaded():
    src = Path(gmm_module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, actionseg, actionseg.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_log_gaussian_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        x = rng.normal(size=m)
        mean = rng.normal(size=m)
        var = rng.uniform(0.1, 2.0, m)
        want = multivariate_normal.logpdf(x, mean=mean, cov=np.diag(var))
        assert log_gaussian(x, mean, var) == pytest.approx(want, abs=1e-10)


def test_log_mixture_matches_manual_logsumexp():
    rng = np.random.default_rng(12)
    gmm = random_gmm(rng, 3, 2)
    x = rng.normal(size=2)
    parts = [
        np.log(gmm.weights[k]) + log_gaussian(x, gmm.means[k], gmm.variances[k])
        for k in range(3)
    ]
    peak = max(parts)
    want = peak + np.log(sum(np.exp(p - peak) for p in parts))
    assert log_mixture(gmm, x) == pytest.approx(want, abs=1e-10)
    batch = gmm.log_prob(np.stack([x, x + 1.0]))
    assert batch[0] == pytest.approx(want, abs=1e-10)


def test_responsibilities_normalized():
    rng = np.random.default_rng(13)
    gmm = random_gmm(rng, 4, 3)
    X = rng.normal(size=(50, 3))
    r = gmm.responsibilities(X)
    assert r.shape == (50, 4)
    assert np.all(r >= 0)
    assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)


def test_gmm_validation():
    with pytest.raises(ValueError):
        Gmm(weights=np.array([0.5, 0.4]), means=np.zeros((2, 1)), variances=np.ones((2, 1)))
    with pytest.raises(ValueError):
        Gmm(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        Gmm(weights=np.array([1.0]), means=np.zeros((2, 1)), variances=np.ones((2, 1)))


def test_gmm_dict_round_trip_exact():
    rng = np.random.default_rng(14)
    gmm = random_gmm(rng, 2, 3)
    assert Gmm.from_dict(gmm.to_dict()) == gmm


def test_variance_floor_formula():
    X = np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 10.0]])
    floor = variance_floor(X)
    want = 1e-4 * X.var(axis=0) + 1e-12
    assert np.allclose(floor, want, rtol=0, atol=0)
    assert floor[1] == 1e-12


def test_fit_em_single_component_moments():
    rng = np.random.default_rng(15)
    X = rng.normal(2.0, 1.5, size=(400, 2))
    gmm = fit_em(X, 1, seed=0)
    assert np.allclose(gmm.means[0], X.mean(axis=0), atol=1e-8)
    assert np.allclose(gmm.variances[0], X.var(axis=0), atol=1e-8)
    assert gmm.weights[0] == 1.0


def test_fit_em_recovers_separated_clusters():
    rng = np.random.default_rng(16)
    a = rng.normal(-4.0, 0.5, size=(300, 2))
    b = rng.normal(4.0, 0.5, size=(700, 2))
    gmm = fit_em(np.concatenate([a, b]), 2, seed=3)
    order = np.argsort(gmm.means[:, 0])
    assert np.allclose(gmm.means[order][0], [-4.0, -4.0], atol=0.15)
    assert np.allclose(gmm.means[order][1], [4.0, 4.0], atol=0.15)
    assert np.allclose(np.sort(gmm.weights), [0.3, 0.7], atol=0.03)


def test_fit_em_loglik_nondecreasing():
    rng = np.random.default_rng(17)
    for trial in range(5):
        X = rng.normal(size=(80, 2)) + rng.integers(0, 3, size=(80, 1))
        history: list[float] = []
        fit_em(X, 3, seed=trial, history=history)
        diffs = np.diff(history)
        scale = np.maximum(1.0, np.abs(history[:-1]))
        assert np.all(diffs >= -1e-9 * scale)


def test_fit_em_deterministic_for_seed():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(120, 2))
    a = fit_em(X, 3, seed=9)
    b = fit_em(X, 3, seed=9)
    assert a == b


def test_fit_em_input_errors():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError):
        fit_em(np.ones((3, 1)), 0)
    with pytest.raises(ValueError):
        fit_em(np.ones((1, 2)), 2)
    with pytest.raises(ValueError):
        fit_em(X, 2)  # five copies of one point cannot support two components


def test_em_step_reports_input_model_loglik():
    rng = np.random.default_rng(19)
    gmm = random_gmm(rng, 2, 2)
    X = rng.normal(size=(60, 2))
    _, ll = em_step(gmm, X, floor=np.full(2, 1e-8))
    assert ll == pytest.approx(float(gmm.log_prob(X).mean()), abs=1e-12)


def test_em_step_starved_component_keeps_parameters():
    X = np.random.default_rng(20).normal(0.0, 0.5, size=(100, 1))
    far = Gmm(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [1e8]]),
        variances=np.array([[1.0], [1.0]]),
    )
    new, _ = em_step(far, X, floor=np.full(1, 1e-8))
    assert new.means[1, 0] == 1e8
    assert new.variances[1, 0] == 1.0
    assert new.weights[1] == pytest.approx(1e-12, rel=1e-6)
    assert new.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_em_step_sample_weights_match_replication():
    rng = np.random.default_rng(21)
    gmm = random_gmm(rng, 2, 1)
    X = rng.normal(size=(6, 1))
    weighted, _ = em_step(gmm, X, floor=np.full(1, 1e-10), sample_weights=np.full(6, 3.0))
    replicated, _ = em_step(gmm, np.tile(X, (3, 1)), floor=np.full(1, 1e-10))
    assert np.allclose(weighted.means, replicated.means, atol=1e-10)
    assert np.allclose(weighted.variances, replicated.variances, atol=1e-10)
    assert np.allclose(weighted.weights, replicated.weights, atol=1e-10)


def test_bank_equals_column_stacked_log_prob():
    rng = np.random.default_rng(19)
    m = 9  # numpy's pairwise summation starts at 8 elements
    gmms = [random_gmm(rng, int(rng.integers(1, 5)), m) for _ in range(12)]
    N = gmm_module._BLOCK_ELEMS // m + 5  # more than one row block in every group
    X = rng.normal(0.0, 2.0, size=(N, m))
    X[::3] = np.round(X[::3])
    want = np.column_stack([g.log_prob(X) for g in gmms])
    assert np.array_equal(GmmBank(gmms).log_prob(X), want)
    with pytest.raises(ValueError, match="input dim 2 != model dim 9"):
        GmmBank(gmms).log_prob(X[:, :2])
