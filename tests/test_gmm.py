import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import multivariate_normal

from actionseg import gmm as gmm_module
from actionseg.gmm import (
    Gmm,
    GmmBank,
    em_step,
    fit_em,
    variance_floor,
)
from helpers import (
    log_gaussian,
    random_gmm,
    reference_component_log_prob,
    reference_distinct_rows,
    reference_em_step,
    reference_gmm_log_prob,
    reference_kernel_log_prob,
    reference_logsumexp,
    reference_nearest_center,
)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


# scipy.special.logsumexp took the shifted log1p form in a later release
# than the oldest that pyproject.toml admits; before, it took
# log(sum(exp(a - max))) + max, and log(1 + e^-40) rounds to 0.
_SCIPY_SHIFTED = float(scipy_logsumexp([0.0, -40.0])) > 0.0


def _assert_agrees_with_scipy(got, a, axis, keepdims):
    """scipy's bits on rows with one maximum, where its shifted form is
    ours; within 4 ulp of max(1, |max|, |result|) on the other rows, where
    scipy divides the sum by the count of tied maxima, and on every row
    under a scipy without the shifted form.  Non-finite rows are equal."""
    with np.errstate(all="ignore"):  # scipy does not silence its overflow
        want = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
        hi = np.max(a, axis=axis, keepdims=keepdims)
        single = np.sum(a == np.max(a, axis=axis, keepdims=True), axis=axis, keepdims=keepdims) == 1
        scale = np.spacing(np.maximum(np.maximum(np.abs(hi), np.abs(want)), 1.0))
        near = np.abs(got - want) <= 4 * scale
    assert np.shape(got) == np.shape(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert ((got == want) | near | nan).all()
    if _SCIPY_SHIFTED:
        exact = single & ~nan
        assert np.array_equal(_bits(got)[exact], _bits(want)[exact])


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
            _assert_agrees_with_scipy(got, arr, axis, keepdims)
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


def test_gmm_log_prob_matches_manual_logsumexp():
    rng = np.random.default_rng(12)
    gmm = random_gmm(rng, 3, 2)
    x = rng.normal(size=2)
    parts = [
        np.log(gmm.weights[k]) + log_gaussian(x, gmm.means[k], gmm.variances[k])
        for k in range(3)
    ]
    peak = max(parts)
    want = peak + np.log(sum(np.exp(p - peak) for p in parts))
    assert gmm.log_prob(x)[0] == pytest.approx(want, abs=1e-10)
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
    for weights in ([1.5, -0.5], [np.nan, 1.0], [np.inf, -np.inf]):
        with pytest.raises(ValueError):
            Gmm(weights=np.array(weights), means=np.zeros((2, 1)), variances=np.ones((2, 1)))
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


def test_em_step_equals_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    cases = 0
    for K in range(1, 9):
        for m in range(1, 13):
            gmm = random_gmm(rng, K, m)
            N = int(rng.integers(K, 60))
            X = rng.normal(0.0, 2.0, size=(N, m))
            floor = variance_floor(X)
            inputs = [(gmm, X, floor)]
            # integer frames
            inputs.append((gmm, np.round(X), floor))
            # a starved component, far from every frame
            far = Gmm(gmm.weights, gmm.means.copy(), gmm.variances)
            far.means[K - 1] = 1e8
            inputs.append((far, X, floor))
            # variances at the floor: the frames sit on a few repeated points
            points = X[: min(N, 3)]
            inputs.append((gmm, points[rng.integers(len(points), size=N)], np.full(m, 0.5)))
            for g, x, fl in inputs:
                got, got_ll = em_step(g, x, fl)
                want, want_ll = reference_em_step(g, x, fl)
                assert got_ll == want_ll
                for name in ("weights", "means", "variances"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (K, m, name)
                cases += 1
    assert cases == 8 * 12 * 4


def test_bank_equals_column_stacked_log_prob():
    rng = np.random.default_rng(19)
    # 9: numpy's pairwise summation starts at 8 elements; 2: the short-axis path
    for m in (9, 2):
        gmms = [random_gmm(rng, int(rng.integers(1, 5)), m) for _ in range(12)]
        N = gmm_module._BLOCK_ELEMS // m + 5  # more than one row block in every group
        X = rng.normal(0.0, 2.0, size=(N, m))
        X[::3] = np.round(X[::3])
        want = np.column_stack([g.log_prob(X) for g in gmms])
        assert np.array_equal(GmmBank(gmms).log_prob(X), want)
        assert np.array_equal(GmmBank(gmms).log_prob(np.asfortranarray(X)), want)
        with pytest.raises(ValueError, match=f"input dim 1 != model dim {m}"):
            GmmBank(gmms).log_prob(X[:, :1])


def test_numpy_sums_short_axes_left_to_right():
    # The short-axis density kernel adds slices left to right because
    # np.sum does exactly that below eight terms.  If a numpy release
    # changes it, the kernel would silently change output bytes; this
    # fails instead.
    rng = np.random.default_rng(22)
    for n in range(1, gmm_module._SHORT_AXIS):
        a = rng.random((4000, 3, n)) * 10.0 ** rng.uniform(-8, 8, (4000, 3, n))
        acc = a[..., 0].copy()
        for j in range(1, n):
            acc += a[..., j]
        assert np.array_equal(_bits(np.sum(a, axis=-1)), _bits(acc)), n
        assert np.array_equal(_bits(np.sum(a[..., None], axis=-2)[..., 0]), _bits(acc)), n


def test_numpy_log_of_one_and_exp_of_minus_inf_are_plus_zero():
    # The two-term log-sum-exp leaves out the general branch's
    # exp(-inf - hi) for the first argmax, and scipy adds log(1.0) on a
    # row with one maximum; neither changes a bit because both give +0.0
    # (not -0.0) on arrays, where numpy's SIMD loops run.  This fails if
    # a release changes that.
    for n in (1, 3, 8, 17, 1001):
        assert not _bits(np.log(np.ones(n))).any(), n
        assert not _bits(np.exp(np.full(n, -np.inf))).any(), n
        assert not _bits(np.exp(-np.inf - np.linspace(-1e300, 1e300, n))).any(), n


def _exp_inputs() -> list[np.ndarray]:
    """Arrays for _exp: a grid over [-800, 0], thickest where np.exp
    underflows to subnormals, [-746, -708]; the values about _EXP_ZERO and
    ln 2^-1075; -inf, NaN and both zeros; arrays with no entry below
    _EXP_ZERO; and a strided 2-D view."""
    edge = [gmm_module._EXP_ZERO, -745.1332191019412, -745.1332191019411, -708.3964185322641]
    near = np.concatenate([np.nextafter(np.array(edge), v) for v in (-np.inf, np.inf)])
    specials = np.array([-np.inf, np.nan, -0.0, 0.0, -np.nan, 1.0, 709.0, -1e308])
    grid = np.concatenate(
        [np.linspace(-800.0, 0.0, 8001), np.linspace(-746.0, -708.0, 38001), edge, near, specials]
    )
    rng = np.random.default_rng(41)
    shuffled = rng.permutation(grid)
    return [
        grid,
        shuffled,
        specials,
        np.linspace(-745.0, 0.0, 1001),  # no entry below _EXP_ZERO
        np.array([-3.0]),
        shuffled[:40000].reshape(200, 200)[:, ::3],
        np.array([-900.0]),
        np.empty(0),
    ]


@pytest.mark.parametrize("i", range(8))
def test_exp_equals_numpy_exp_bit_for_bit(i):
    # _exp zeroes the entries below _EXP_ZERO before the exp and sets them
    # to +0.0 after it: np.exp's bits, in place, into out or into a new array.
    a = _exp_inputs()[i]
    want = _bits(np.exp(a))
    before = a.copy()
    got = gmm_module._exp(a)
    assert got is not a and np.array_equal(_bits(a), _bits(before))
    assert np.array_equal(_bits(got), want)
    out = np.full_like(a, 7.0)
    assert gmm_module._exp(a, out=out) is out
    assert np.array_equal(_bits(out), want) and np.array_equal(_bits(a), _bits(before))
    inplace = a.copy()
    assert gmm_module._exp(inplace, out=inplace) is inplace
    assert np.array_equal(_bits(inplace), want)


_MAX_POOL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, -745.5, -800.0, 5e-324, -5e-324]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    shape=st.lists(st.integers(1, 5), max_size=2),
    position=st.integers(0, 2),
    K=st.integers(1, 9),
    special=st.floats(0.0, 1.0),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_maximum_chain_equals_the_np_max_reference_bit_for_bit(
    shape, position, K, special, zeros, seed
):
    # _logsumexp takes hi as a chain of np.maximum over the K slices; np.max
    # may keep the other zero of a +-0.0 tie, whose sign cannot reach the
    # result.  Ties of signed zeros, NaN and infinities on any axis.
    rng = np.random.default_rng(seed)
    axis = min(position, len(shape))
    full = (*shape[:axis], K, *shape[axis:])
    a = np.round(rng.normal(0.0, 400.0, full), int(rng.integers(0, 2)))
    pick = rng.random(full) < special
    a[pick] = rng.choice(_MAX_POOL, size=int(pick.sum()))
    if zeros:
        a[rng.random(full) < 0.5] = rng.choice([0.0, -0.0])
    got = gmm_module._logsumexp(a, axis=axis)
    want = reference_logsumexp(a, axis=axis)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])


# Values that stress the two-term log-sum-exp: signed zeros, the
# infinities, NaN, subnormals, the extremes and values whose sums overflow.
_LSE_POOL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
    1e308, -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0, -745.5,
]


_TWO_TERMS = dict(
    others=st.lists(st.integers(1, 6), max_size=2),
    position=st.sampled_from([0, 1, -1]),
    keepdims=st.booleans(),
    special=st.floats(0.0, 1.0),
    tied=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


def _two_terms(others, position, special, tied, seed):
    """An array with an axis of two, and that axis."""
    rng = np.random.default_rng(seed)
    at = len(others) if position == -1 or position > len(others) else position
    shape = (*others[:at], 2, *others[at:])
    a = np.round(rng.normal(0.0, 30.0, shape), int(rng.integers(0, 3)))
    pick = rng.random(shape) < special
    a[pick] = rng.choice(_LSE_POOL, size=int(pick.sum()))
    # copy the first term onto the second in some rows: exact ties
    lead = (slice(None),) * at
    copy = rng.random(a[lead + (0,)].shape) < tied
    a[lead + (1,)] = np.where(copy, a[lead + (0,)], a[lead + (1,)])
    return a, at if position != -1 else -1


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(**_TWO_TERMS)
def test_two_term_logsumexp_equals_references_bit_for_bit(
    others, position, keepdims, special, tied, seed
):
    a, axis = _two_terms(others, position, special, tied, seed)
    got = gmm_module._logsumexp(a, axis=axis, keepdims=keepdims)
    want = reference_logsumexp(a, axis=axis, keepdims=keepdims)
    assert np.shape(got) == np.shape(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])
    _assert_agrees_with_scipy(got, a, axis, keepdims)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(**_TWO_TERMS)
def test_two_term_branch_equals_the_general_branch_bit_for_bit(
    others, position, keepdims, special, tied, seed
):
    # A third term of -inf sends the rows down the general branch, and it
    # adds exp(-inf - hi) = +0.0 to their sums: no bit moves.
    a, axis = _two_terms(others, position, special, tied, seed)
    pad = list(a.shape)
    pad[axis] = 1
    padded = np.concatenate([a, np.full(pad, -np.inf)], axis=axis)
    got = gmm_module._logsumexp(a, axis=axis, keepdims=keepdims)
    general = gmm_module._logsumexp(padded, axis=axis, keepdims=keepdims)
    assert np.shape(got) == np.shape(general)
    assert np.array_equal(_bits(got), _bits(general))


def _fsum_logsumexp(row) -> float:
    """log(sum(exp(row))) with the sum of the shifted exponentials exact."""
    if any(math.isnan(x) for x in row):
        return math.nan
    hi = max(row)
    if math.isinf(hi):
        return hi
    return hi + math.log(math.fsum(math.exp(x - hi) for x in row))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    axis=st.integers(-3, 2),
    scale=st.sampled_from([1.0, 30.0, 1e4, 1e300]),
    special=st.floats(0.0, 0.3),
    tied=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_logsumexp_stays_within_its_error_bound_of_fsum(shape, axis, scale, special, tied, seed):
    # Each row's error against fsum's is at most eps (|result| + 2K): the
    # shift, exp and log1p each round once, and K - 2 additions round
    # terms of at most 1.  Tied maxima, infinities and NaN on every axis.
    rng = np.random.default_rng(seed)
    axis %= len(shape)
    a = np.round(rng.normal(0.0, scale, shape), int(rng.integers(0, 3)))
    pick = rng.random(shape) < special
    a[pick] = rng.choice(_LSE_POOL, size=int(pick.sum()))
    with np.errstate(invalid="ignore"):
        a = np.where(rng.random(shape) < tied, np.max(a, axis=axis, keepdims=True), a)
    got = gmm_module._logsumexp(a, axis=axis)
    K = a.shape[axis]
    rows = np.moveaxis(a, axis, -1).reshape(-1, K)
    want = np.array([_fsum_logsumexp(r) for r in rows.tolist()]).reshape(got.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite & ~nan], want[~finite & ~nan])
    err = np.abs(got[finite] - want[finite])
    assert (err <= np.finfo(np.float64).eps * (np.abs(want[finite]) + 2 * K)).all()


def _mixture_stack(rng, stack, K, m, ties, tiny_weight, floor_var, integer):
    means = rng.normal(0.0, 2.0, (*stack, K, m))
    variances = rng.uniform(0.2, 1.5, (*stack, K, m))
    weights = rng.uniform(0.2, 1.0, (*stack, K))
    if integer:
        means = np.round(means)
    if floor_var:
        variances[rng.random(variances.shape) < 0.3] = gmm_module.VAR_FLOOR_ABS
    if tiny_weight:
        weights[..., 0] = 1e-12
    if ties and K > 1:
        # copies of component 0 tie with it exactly, whatever the frame
        copies = rng.random(K) < 0.5
        means[..., copies, :] = means[..., :1, :]
        variances[..., copies, :] = variances[..., :1, :]
        weights[..., copies] = weights[..., :1]
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights, means, variances


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 12),
    K=st.integers(1, 10),
    stack=st.sampled_from([(), (1,), (3,), (5,)]),
    N=st.integers(1, 40),
    ties=st.booleans(),
    tiny_weight=st.booleans(),
    floor_var=st.booleans(),
    integer=st.booleans(),
    huge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_equal_reference_bit_for_bit(
    m, K, stack, N, ties, tiny_weight, floor_var, integer, huge, seed
):
    rng = np.random.default_rng(seed)
    if m >= gmm_module._SHORT_AXIS:
        stack = ()  # a long axis takes one mixture; GmmBank stacks none
    weights, means, variances = _mixture_stack(
        rng, stack, K, m, ties, tiny_weight, floor_var, integer
    )
    X = rng.normal(0.0, 3.0, (N, m))
    if integer:
        X = np.round(X).astype(np.int64)
    if huge:
        X = X.astype(np.float64)
        X[0] = 1e300  # overflows the quadratic term: log-density -inf
    got = gmm_module._component_log_prob(X, weights, means, variances)
    want = reference_kernel_log_prob(X, weights, means, variances)
    assert got.shape == want.shape == (N, *stack, K)
    assert np.array_equal(_bits(got), _bits(want))
    for axis in range(-1, -got.ndim - 1, -1):
        for keepdims in (False, True):
            lse = gmm_module._logsumexp(want, axis=axis, keepdims=keepdims)
            ref = reference_logsumexp(want, axis=axis, keepdims=keepdims)
            assert lse.shape == ref.shape
            assert np.array_equal(_bits(lse), _bits(ref)), (axis, keepdims)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 12),
    Ks=st.lists(st.integers(1, 10), min_size=1, max_size=6),
    N=st.integers(1, 60),
    ties=st.booleans(),
    tiny_weight=st.booleans(),
    floor_var=st.booleans(),
    integer=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bank_and_log_prob_equal_reference_bit_for_bit(
    m, Ks, N, ties, tiny_weight, floor_var, integer, seed
):
    rng = np.random.default_rng(seed)
    gmms = []
    for K in Ks:
        weights, means, variances = _mixture_stack(
            rng, (), K, m, ties, tiny_weight, floor_var, integer
        )
        gmms.append(Gmm(weights=weights, means=means, variances=variances))
    X = rng.normal(0.0, 3.0, (N, m))
    if integer:
        X = np.round(X).astype(np.int64)
    want = np.column_stack([reference_gmm_log_prob(g, X) for g in gmms])
    assert np.array_equal(_bits(GmmBank(gmms).log_prob(X)), _bits(want))
    for s, g in enumerate(gmms):
        assert np.array_equal(_bits(g.log_prob(X)), _bits(want[:, s]))


def _contraction_error_bound(X, means, variances) -> np.ndarray:
    """(N, K) bound on |contraction - direct kernel| for one mixture:
    m eps (1 + sum xs^2/var + sum mus^2/var + sum |log var|), with frames
    and means centred on the mean of the K means."""
    shift = means.mean(axis=0)
    xs, mus = X - shift, means - shift
    terms = np.einsum("nm,km->nk", xs * xs, 1.0 / variances)
    terms += np.sum(mus * mus / variances, axis=1) + np.sum(np.abs(np.log(variances)), axis=1)
    return X.shape[1] * np.finfo(np.float64).eps * (1.0 + terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(8, 64),
    K=st.integers(1, 10),
    N=st.integers(1, 30),
    offset=st.sampled_from([0.0, 1.0, -1.0, 1e3, -1e3, 1e4]),
    log_var=st.floats(-12.0, 2.0),
    spread=st.sampled_from([0.0, 1.0, 10.0, 1e3]),
    far=st.sampled_from([1.0, 30.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_contraction_stays_within_its_error_bound(m, K, N, offset, log_var, spread, far, seed):
    # The direct kernel is the accuracy reference; variances reach the
    # floor, means sit at offsets where the uncentred expansion cancels,
    # and frames lie up to 1e4 standard deviations from every mean.
    rng = np.random.default_rng(seed)
    variances = np.maximum(10.0 ** (log_var + rng.uniform(-1.0, 1.0, (K, m))), 1e-12)
    sigma = np.sqrt(variances.max(axis=0))
    centre = offset * rng.uniform(0.5, 1.5, m)
    means = centre + spread * sigma * rng.normal(size=(K, m))
    X = centre + far * sigma * rng.normal(size=(N, m))
    weights = rng.uniform(0.2, 1.0, K)
    weights /= weights.sum()
    got = gmm_module._component_log_prob(X, weights, means, variances)
    want = reference_component_log_prob(X, weights, means, variances)
    assert np.isfinite(got).all()
    assert (np.abs(got - want) <= _contraction_error_bound(X, means, variances)).all()


def test_contraction_centres_each_mixture():
    # Means near 1e3 at the variance floor: the plain expansion's terms
    # reach x^2/var = 1e18, so without the shift no digit survives.
    rng = np.random.default_rng(24)
    K, m, N = 8, 48, 200
    variances = np.full((K, m), gmm_module.VAR_FLOOR_ABS)
    means = 1e3 + 1e-6 * rng.normal(size=(K, m))
    X = 1e3 + 3e-6 * rng.normal(size=(N, m))
    weights = np.full(K, 1.0 / K)
    want = reference_component_log_prob(X, weights, means, variances)
    got = Gmm(weights, means, variances)._component_log_prob(X)
    assert (np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want))).all()
    # the same contraction without the shift
    prec = 1.0 / variances
    const = np.log(weights) - 0.5 * (
        m * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=1) + np.sum(means**2 * prec, axis=1)
    )
    plain = gmm_module._contract(X, (np.zeros(m), -0.5 * prec, means * prec, const))
    assert (np.abs(plain - want) > 1e-9 * (1.0 + np.abs(want))).any()


@pytest.mark.parametrize("m", [2, 8], ids=["short-axis", "long-axis"])
def test_zero_weight_scores_minus_inf_without_a_warning(m):
    # Gmm accepts a zero weight; its component's log-density is the -inf
    # limit, and the log of that weight must not warn
    rng = np.random.default_rng(25)
    gmm = Gmm(np.array([1.0, 0.0]), rng.normal(size=(2, m)), rng.uniform(0.5, 1.5, (2, m)))
    X = rng.normal(size=(30, m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clp = gmm._component_log_prob(X)
        lp = gmm.log_prob(X)
        bank = GmmBank([gmm]).log_prob(X)
    assert np.isfinite(clp[:, 0]).all() and np.isneginf(clp[:, 1]).all()
    assert np.array_equal(_bits(lp), _bits(clp[:, 0]))
    assert np.array_equal(_bits(bank[:, 0]), _bits(lp))


@pytest.mark.parametrize(
    "S,K,m",
    [(22, 8, 48), (92, 2, 2), (40, 4, 2), (50, 2, 5), (20, 2, 7), (30, 2, 3)],
    ids=["encoded-fv", "wide-grammar", "reduce", "kernel-m5", "kernel-m7", "kernel-m3"],
)
def test_bank_temporaries_stay_within_the_row_budget(S, K, m):
    # Beyond its (N, size) output, GmmBank.log_prob holds one row block's
    # temporaries at a time: at most _BLOCK_ELEMS doubles, whatever N.
    rng = np.random.default_rng(23)
    bank = GmmBank([random_gmm(rng, K, m) for _ in range(S)])
    extra = {}
    for N in (2000, 8000):
        X = rng.normal(0.0, 2.0, (N, m))
        tracemalloc.start()
        try:
            out = bank.log_prob(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra[N] = peak - out.nbytes
        assert extra[N] <= 8 * gmm_module._BLOCK_ELEMS, (N, extra[N])
    assert extra[8000] <= extra[2000] + 1024, extra


@pytest.mark.parametrize("m", [1, 7, 8, 48])
@pytest.mark.parametrize("K", [1, 2, 8])
def test_assignment_and_fit_em_equal_the_broadcast_oracle_bit_for_bit(monkeypatch, K, m):
    # Integer frames and centres tie exactly; a repeated centre ties on
    # every row.  The first tied centre wins, as np.argmin does over the
    # broadcast (N, K, m) table.  Centres 1e-15 apart leave real frames
    # to rounding, so a sum over the m dimensions in another order would
    # move some assignment.
    rng = np.random.default_rng(31)
    X = rng.integers(-6, 7, size=(300, m)).astype(np.float64)
    centers = X[rng.choice(len(X), K, replace=False)].copy()
    centers[-1] = centers[0]
    got = gmm_module._nearest_center(X, centers)
    assert np.array_equal(got, reference_nearest_center(X, centers))
    assert K == 1 or not (got == K - 1).any()
    real = rng.normal(size=(4000, m))
    near = real[0] + 1e-15 * rng.normal(size=(K, m))
    assert np.array_equal(gmm_module._nearest_center(real, near), reference_nearest_center(real, near))
    frames = X + (np.random.default_rng(32).integers(0, 2, size=X.shape) if m > 1 else 0)
    fits = [fit_em(frames, K, seed=5, max_iter=3)]
    monkeypatch.setattr(gmm_module, "_nearest_center", reference_nearest_center)
    fits.append(fit_em(frames, K, seed=5, max_iter=3))
    for name in ("weights", "means", "variances"):
        assert np.array_equal(_bits(getattr(fits[0], name)), _bits(getattr(fits[1], name))), name


@pytest.mark.parametrize("m", [1, 7, 8, 48])
@pytest.mark.parametrize("K", [1, 2, 8])
def test_component_log_prob_equals_the_unblocked_oracle_across_row_blocks(monkeypatch, K, m):
    # a small budget, so N = 1500 rows span at least three row blocks on
    # every long axis; a short axis takes no contraction at all
    monkeypatch.setattr(gmm_module, "_BLOCK_ELEMS", 4096)
    blocks = []
    contract = gmm_module._contract

    def counted(X, terms, out=None):
        blocks.append(len(X))
        return contract(X, terms, out=out)

    monkeypatch.setattr(gmm_module, "_contract", counted)
    rng = np.random.default_rng(37)
    gmm = random_gmm(rng, K, m)
    X = rng.normal(0.0, 2.0, (1500, m))
    X[-1] = 1e300  # a last-block row whose quadratic term overflows: -inf
    got = gmm._component_log_prob(X)
    want = reference_kernel_log_prob(X, gmm.weights, gmm.means, gmm.variances)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.isneginf(got[-1]).all()
    if m >= gmm_module._SHORT_AXIS:
        assert len(blocks) >= 3 and sum(blocks) == len(X), blocks
    else:
        assert blocks == []


def test_fit_em_holds_no_frames_by_centres_by_dimensions_array():
    # The initial hard assignment takes one (N,) distance column per
    # centre.  A broadcast (N, K, m) table alone would take N K m doubles,
    # twice the bound at this shape.
    N, K, m = 20000, 16, 16
    X = np.random.default_rng(41).normal(size=(N, m))
    tracemalloc.start()
    try:
        fit_em(X, K, seed=1, max_iter=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * N * (K + m) * 8, peak


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    N=st.integers(1, 40),
    m=st.integers(1, 4),
    pool=st.integers(1, 6),
    cap=st.integers(1, 12),
    signed_zero=st.booleans(),
    nan=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_distinct_rows_equals_the_unique_oracle(N, m, pool, cap, signed_zero, nan, seed):
    # Rows drawn from a small pool repeat, and cap runs past the count of
    # distinct rows; -0.0 equals 0.0, and a row holding NaN equals no row.
    rng = np.random.default_rng(seed)
    X = rng.integers(-1, 2, (pool, m)).astype(np.float64)[rng.integers(0, pool, N)]
    if signed_zero:
        X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0
    if nan:
        X[rng.integers(0, N, 2), rng.integers(0, m, 2)] = np.nan
    assert gmm_module._distinct_rows(X, cap) == reference_distinct_rows(X, cap)
