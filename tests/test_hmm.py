import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import actionseg.hmm as hmm_module
from actionseg.data import FeatureSequence, UnitLexicon
from actionseg.decoder import _first_dead, decode
from actionseg.errors import DataError, NoPathError
from actionseg.gmm import Gmm
from actionseg.hmm import (
    StatePath,
    UnitHmm,
    _chain_paths,
    _max_product,
    _Segments,
    baum_welch,
    init_hmm,
    load_hmm_set,
    save_hmm_set,
    unit_log_priors,
    viterbi_align,
    viterbi_train,
)
from helpers import (
    chain_graph,
    forward_loglik,
    oracle_forward,
    oracle_viterbi,
    random_unit_hmm,
    reference_backward,
    reference_baum_welch,
    reference_forward,
    reference_forward_loglik,
    reference_viterbi,
    reference_viterbi_align,
    reference_viterbi_train,
)


def constant_obs_hmm(n: int, p_self: float = 0.5) -> UnitHmm:
    """All states emit the same density, so every path scores alike when
    transitions are uniform."""
    return UnitHmm(
        unit_id=0,
        log_self=np.full(n, np.log(p_self)),
        log_next=np.full(n, np.log(1.0 - p_self)),
        obs=[
            Gmm(weights=np.array([1.0]), means=np.zeros((1, 1)), variances=np.ones((1, 1)))
            for _ in range(n)
        ],
    )


def test_unit_hmm_validation():
    good = constant_obs_hmm(2)
    assert good.n == 2 and good.dim == 1

    def rebuilt(**change):
        parts = dict(unit_id=0, log_self=good.log_self, log_next=good.log_next, obs=good.obs)
        return UnitHmm(**{**parts, **change})

    assert rebuilt() == good
    ls = good.log_self.copy()
    ls[1] = np.log(0.6)  # row no longer sums to one
    with pytest.raises(DataError, match="transition row 1 does not sum to 1"):
        rebuilt(log_self=ls)
    ls = good.log_self.copy()
    ls[0] = np.nan
    with pytest.raises(DataError, match="numbers <= 0"):
        rebuilt(log_self=ls)
    with pytest.raises(DataError, match="numbers <= 0"):
        rebuilt(log_next=np.array([0.5, np.log(0.5)]))  # a probability above 1
    with pytest.raises(DataError, match="shape"):
        rebuilt(log_next=np.log([0.5, 0.5, 0.5]))  # one state too many
    with pytest.raises(DataError):
        rebuilt(obs=[])
    with pytest.raises(DataError):
        rebuilt(obs=list(good.obs[:1]))


def test_state_path_validation():
    StatePath(states=np.array([0, 0, 1, 2]), log_prob=-1.0)
    with pytest.raises(DataError):
        StatePath(states=np.array([1, 2]), log_prob=0.0)
    with pytest.raises(DataError):
        StatePath(states=np.array([0, 2]), log_prob=0.0)
    with pytest.raises(DataError):
        StatePath(states=np.array([0, 1, 0]), log_prob=0.0)


def test_init_hmm_state_count_and_start_transitions():
    rng = np.random.default_rng(31)
    seqs = [FeatureSequence(rng.normal(size=(50, 2))) for _ in range(4)]
    hmm = init_hmm(3, seqs, K=1, seed=0)
    assert hmm.unit_id == 3
    assert hmm.n == 5
    for j in range(hmm.n):
        assert np.exp(hmm.log_self[j]) == 0.9
        assert hmm.log_next[j] == np.log(0.1)


def test_init_hmm_rounds_half_up_and_clamps():
    rng = np.random.default_rng(32)
    # mean length 25 would give 3 states (2.5 rounds up), but one sequence
    # has only 2 frames, so the model shrinks to fit it
    seqs = [
        FeatureSequence(rng.normal(size=(48, 1))),
        FeatureSequence(rng.normal(size=(2, 1))),
    ]
    assert init_hmm(0, seqs, K=1).n == 2
    assert init_hmm(0, [FeatureSequence(rng.normal(size=(25, 1)))], K=1).n == 3
    assert init_hmm(0, [FeatureSequence(rng.normal(size=(4, 1)))], K=1).n == 1


def test_init_hmm_shrinks_mixture_for_degenerate_slices():
    frames = np.vstack([np.zeros((6, 2)), np.ones((6, 2))])
    hmm = init_hmm(0, [FeatureSequence(frames)], K=4, seed=0)
    assert hmm.n == 1
    assert hmm.obs[0].n_components == 2


def test_init_hmm_empty_input():
    with pytest.raises(DataError):
        init_hmm(0, [], K=1)


def test_unit_models_reject_frames_of_another_dim():
    rng = np.random.default_rng(29)
    hmm = random_unit_hmm(rng, 0, 2, 1, 2)
    wide = rng.normal(size=(6, 3))
    for fn in (viterbi_align, forward_loglik):
        with pytest.raises(DataError, match="input dim 3 != model dim 2"):
            fn(hmm, wide)
    for fn in (viterbi_train, baum_welch):
        with pytest.raises(DataError, match="input dim 3 != model dim 2"):
            fn(hmm, [rng.normal(size=(6, 2)), wide])
    with pytest.raises(DataError, match="input dim 3 != model dim 2"):
        init_hmm(0, [rng.normal(size=(6, 2)), wide], K=1)


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(33)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        T = int(rng.integers(n, 9))
        hmm = random_unit_hmm(rng, 0, n, int(rng.integers(1, 3)), m)
        frames = rng.normal(size=(T, m))
        want_path, want_lp = oracle_viterbi(hmm, frames)
        got = viterbi_align(hmm, frames)
        assert tuple(got.states) == want_path, f"trial {trial}"
        assert got.log_prob == pytest.approx(want_lp, abs=1e-9)


def test_viterbi_tie_break_prefers_lowest_states():
    hmm = constant_obs_hmm(3)
    frames = np.zeros((5, 1))
    path = viterbi_align(hmm, frames)
    assert tuple(path.states) == (0, 0, 0, 1, 2)


def test_viterbi_single_state_closed_form():
    hmm = constant_obs_hmm(1, p_self=0.7)
    frames = np.zeros((6, 1))
    obs = hmm.obs[0].log_prob(frames).sum()
    want = obs + 5 * np.log(0.7) + np.log(0.3)
    assert viterbi_align(hmm, frames).log_prob == pytest.approx(want, abs=1e-12)


def test_viterbi_too_short_raises():
    hmm = constant_obs_hmm(3)
    with pytest.raises(NoPathError):
        viterbi_align(hmm, np.zeros((2, 1)))


def test_forward_matches_brute_force_and_dominates_viterbi():
    rng = np.random.default_rng(34)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        T = int(rng.integers(n, 8))
        hmm = random_unit_hmm(rng, 0, n, 1, 2)
        frames = rng.normal(size=(T, 2))
        fwd = forward_loglik(hmm, frames)
        assert fwd == pytest.approx(oracle_forward(hmm, frames), abs=1e-9)
        assert fwd >= viterbi_align(hmm, frames).log_prob - 1e-12


def test_forward_short_sequence_is_minus_inf():
    hmm = constant_obs_hmm(4)
    assert forward_loglik(hmm, np.zeros((3, 1))) == -np.inf


def test_forward_single_state_equals_viterbi():
    hmm = constant_obs_hmm(1, p_self=0.4)
    frames = np.random.default_rng(35).normal(size=(7, 1))
    assert forward_loglik(hmm, frames) == pytest.approx(
        viterbi_align(hmm, frames).log_prob, abs=1e-12
    )


def test_viterbi_train_total_path_loglik_nondecreasing():
    rng = np.random.default_rng(36)
    for trial in range(8):
        seqs = [
            FeatureSequence(rng.normal(size=(int(rng.integers(8, 20)), 2)) + trial)
            for _ in range(4)
        ]
        hmm = init_hmm(0, seqs, K=1, seed=trial)
        history: list[float] = []
        viterbi_train(hmm, seqs, max_iter=8, history=history)
        diffs = np.diff(history)
        scale = np.maximum(1.0, np.abs(history[:-1]))
        assert np.all(diffs >= -1e-8 * scale), f"trial {trial}: {history}"


def test_viterbi_train_skips_short_sequences():
    rng = np.random.default_rng(37)
    long = [FeatureSequence(rng.normal(size=(30, 1))) for _ in range(3)]
    hmm = init_hmm(0, long, K=1)
    assert hmm.n == 3
    with pytest.warns(UserWarning):
        viterbi_train(hmm, long + [FeatureSequence(rng.normal(size=(2, 1)))], max_iter=2)
    with pytest.warns(UserWarning), pytest.raises(DataError):
        viterbi_train(hmm, [FeatureSequence(rng.normal(size=(2, 1)))])


def test_baum_welch_forward_loglik_nondecreasing():
    rng = np.random.default_rng(38)
    for trial in range(6):
        seqs = [FeatureSequence(rng.normal(size=(int(rng.integers(6, 15)), 1))) for _ in range(3)]
        hmm = init_hmm(0, seqs, K=2, seed=trial)
        history: list[float] = []
        baum_welch(hmm, seqs, max_iter=8, tol=0.0, history=history)
        diffs = np.diff(history)
        scale = np.maximum(1.0, np.abs(history[:-1]))
        assert np.all(diffs >= -1e-8 * scale), f"trial {trial}: {history}"


def _recording_kernel(mp: pytest.MonkeyPatch) -> list[np.ndarray]:
    """Patch hmm's _max_product to record each lattice it computes."""
    lattices = []

    def record(S, *args):
        _max_product(S, *args)
        lattices.append(S)

    mp.setattr(hmm_module, "_max_product", record)
    return lattices


def test_baum_welch_runs_no_backward_pass_on_the_iteration_that_converges(monkeypatch):
    # the posteriors are lazy: the converging iteration needs only the total,
    # so two iterations run the forward, the backward, then the forward pass
    passes = _recording_kernel(monkeypatch)
    rng = np.random.default_rng(39)
    seqs = [FeatureSequence(rng.normal(size=(12, 2))) for _ in range(3)]
    history: list[float] = []
    baum_welch(init_hmm(0, seqs, K=1), seqs, max_iter=5, tol=np.inf, history=history)
    assert len(history) == 2 and len(passes) == 3


def test_baum_welch_zero_iterations_returns_unchanged_copy():
    rng = np.random.default_rng(39)
    seqs = [FeatureSequence(rng.normal(size=(12, 2)))]
    hmm = init_hmm(0, seqs, K=1)
    out = baum_welch(hmm, seqs, max_iter=0)
    assert out == hmm
    assert out is not hmm


def test_baum_welch_keeps_topology():
    rng = np.random.default_rng(40)
    seqs = [FeatureSequence(rng.normal(size=(14, 1))) for _ in range(3)]
    hmm = init_hmm(0, seqs, K=1)
    out = baum_welch(hmm, seqs, max_iter=4)
    assert out.log_self.shape == out.log_next.shape == (hmm.n,)
    for j in range(out.n):
        assert np.exp(out.log_self[j]) + np.exp(out.log_next[j]) == pytest.approx(1.0, abs=1e-9)


def test_baum_welch_re_estimates_a_state_whose_density_is_zero_on_a_frame():
    # state 1's density is -inf on the first frame; there its responsibility
    # is 0, not the NaN of -inf - -inf that used to leave its mixture unchanged
    def gaussian(var):
        return Gmm(weights=np.array([1.0]), means=np.zeros((1, 1)), variances=np.array([[var]]))

    half = np.log([0.5, 0.5])
    hmm = UnitHmm(0, half, half, [gaussian(1e300), gaussian(1e-10)])
    frames = np.array([[1e150], [1e-5], [-2e-5], [3e-5]])
    assert hmm.obs_log_prob(frames)[0, 1] == -np.inf
    out = baum_welch(hmm, [frames], max_iter=2)
    assert out.obs[1].means[0, 0] == pytest.approx(2e-5 / 3)
    assert out == reference_baum_welch(hmm, [frames], max_iter=2)


def test_baum_welch_improves_mismatched_model():
    rng = np.random.default_rng(41)
    # two clearly separated emission regimes, model initialized off-center
    seqs = [
        FeatureSequence(
            np.concatenate([rng.normal(-3.0, 0.3, (8, 1)), rng.normal(3.0, 0.3, (8, 1))])
        )
        for _ in range(4)
    ]
    hmm = init_hmm(0, seqs, K=1, seed=0)
    before = sum(forward_loglik(hmm, s) for s in seqs)
    out = baum_welch(hmm, seqs, max_iter=10)
    after = sum(forward_loglik(out, s) for s in seqs)
    assert after > before


def _outcome(fn, *args, **kwargs):
    """What a call returns or raises, with the messages of the UserWarnings
    it emits (the skipped short sequences)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # compared by type and message
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught if w.category is UserWarning]


def _tied_hmm(n: int, m: int) -> UnitHmm:
    """Identical states and even transitions: on integer frames, many
    paths tie and only the tie-break decides."""
    gmm = Gmm(weights=np.array([1.0]), means=np.zeros((1, m)), variances=np.ones((1, m)))
    half = np.full(n, np.log(0.5))
    return UnitHmm(unit_id=4, log_self=half, log_next=half, obs=[gmm] * n)


def _random_segments(rng, n, m, count, short=0):
    """count sequences of n .. n + 7 frames (one of exactly n), then the
    same with `short` sequences too short for an n-state model mixed in."""
    lengths = [n] + [int(rng.integers(n, n + 8)) for _ in range(count - 1)]
    rng.shuffle(lengths)
    seqs = [rng.normal(size=(T, m)) + rng.normal(0.0, 2.0, m) for T in lengths]
    seqs = [FeatureSequence(a) if rng.random() < 0.5 else a for a in seqs]
    mixed = list(seqs)
    for _ in range(short):
        mixed.insert(int(rng.integers(len(mixed) + 1)), rng.normal(size=(int(rng.integers(1, n)), m)))
    return seqs, mixed


def test_alignment_and_forward_match_reference_exactly():
    rng = np.random.default_rng(50)
    for trial in range(150):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        hmm = random_unit_hmm(rng, 0, n, int(rng.integers(1, 4)), m)
        T = int(rng.integers(max(1, n - 1), n + 9))
        frames = rng.normal(size=(T, m)) * 2.0
        if trial % 4 == 1:
            hmm, frames = _tied_hmm(n, m), np.round(frames / 4.0)
        if trial % 10 == 0:
            frames[int(rng.integers(T))] = np.inf  # no path of finite probability
        got, got_warn = _outcome(viterbi_align, hmm, frames)
        want, want_warn = _outcome(reference_viterbi_align, hmm, frames)
        assert got_warn == want_warn
        if isinstance(want, StatePath):
            assert np.array_equal(got.states, want.states), f"trial {trial}"
            assert got.states.dtype == want.states.dtype
            assert repr(got.log_prob) == repr(want.log_prob), f"trial {trial}"
        else:
            assert got == want, f"trial {trial}"
        got_f = forward_loglik(hmm, frames)
        want_f = reference_forward_loglik(hmm, frames)
        assert repr(got_f) == repr(want_f), f"trial {trial}"


@pytest.mark.parametrize("fn, ref", [
    (viterbi_train, reference_viterbi_train),
    (baum_welch, reference_baum_welch),
])
def test_training_matches_reference_exactly(fn, ref):
    rng = np.random.default_rng(51 if fn is viterbi_train else 52)
    for trial in range(52):
        # from trial 40 on, long feature axes (encoded-fv trains at m = 48)
        long_axis = trial >= 40
        n = int(rng.integers(1, 5))
        m = [8, 48][trial % 2] if long_axis else int(rng.integers(1, 4))
        K = int(rng.integers(1, 9 if long_axis else 4))
        short = int(rng.integers(0, 3)) if n > 1 else 0
        long, seqs = _random_segments(rng, n, m, int(rng.integers(1, 7)), short)
        if trial % 5 == 1:
            hmm = _tied_hmm(n, m)
            seqs = [np.round(np.asarray(getattr(a, "frames", a)) / 4.0) for a in seqs]
        elif trial % 3 == 0:
            hmm = random_unit_hmm(rng, 4, n, K, m)
        else:
            hmm = init_hmm(4, long, K=K, seed=trial)
        max_iter = [0, 1, 2, 4][trial % 4]
        tol = [0.0, 1e-4][trial % 2]
        hist_got: list[float] = []
        hist_want: list[float] = []
        got, got_warn = _outcome(fn, hmm, seqs, max_iter=max_iter, tol=tol, history=hist_got)
        want, want_warn = _outcome(ref, hmm, seqs, max_iter=max_iter, tol=tol, history=hist_want)
        assert got_warn == want_warn, f"trial {trial}"
        assert [repr(v) for v in hist_got] == [repr(v) for v in hist_want], f"trial {trial}"
        assert got.to_dict() == want.to_dict(), f"trial {trial}"
        assert got == want
        # a warm start from the trained model
        got2, _ = _outcome(fn, got, seqs[::-1], max_iter=2, tol=0.0)
        want2, _ = _outcome(ref, want, seqs[::-1], max_iter=2, tol=0.0)
        assert got2.to_dict() == want2.to_dict(), f"trial {trial}"


@pytest.mark.parametrize("fn, ref", [
    (viterbi_train, reference_viterbi_train),
    (baum_welch, reference_baum_welch),
])
def test_training_failures_match_reference(fn, ref):
    rng = np.random.default_rng(53)
    hmm = random_unit_hmm(rng, 0, 3, 2, 2)
    cases = [
        [rng.normal(size=(2, 2)), rng.normal(size=(1, 2))],   # nothing usable
        [rng.normal(size=(6, 2)), rng.normal(size=(5, 3))],   # another dim
        [],
    ]
    unreachable = rng.normal(size=(7, 2))
    unreachable[3] = np.inf
    cases.append([rng.normal(size=(6, 2)), unreachable])  # no finite path
    for seqs in cases:
        got = _outcome(fn, hmm, seqs, max_iter=2)
        want = _outcome(ref, hmm, seqs, max_iter=2)
        assert isinstance(got[0], tuple) and got == want


def test_training_reports_a_sequence_with_no_finite_path():
    # an inf frame has density 0 under every state, so no path reaches
    # the exit.  Both trainers raise before any statistic, so no NaN
    # posterior reaches the M-step, and before the variance floor, which
    # would warn on the inf frame
    rng = np.random.default_rng(53)
    hmm = random_unit_hmm(rng, 0, 3, 2, 2)
    unreachable = rng.normal(size=(7, 2))
    unreachable[3] = np.inf
    seqs = [rng.normal(size=(6, 2)), unreachable]
    for fn in (viterbi_train, baum_welch):
        history = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoPathError, match="^no path of finite probability reaches the final state$"):
                fn(hmm, seqs, max_iter=2, history=history)
        assert history == []


def test_unit_log_priors_inverse_frequency():
    lex = UnitLexicon.from_names(["SIL", "a", "b"], counts={"SIL": 4, "a": 1, "b": 0})
    priors = unit_log_priors(lex)
    # weights 1/4 and 1 normalize to 0.2 and 0.8
    assert priors[0] == pytest.approx(np.log(0.2))
    assert priors[1] == pytest.approx(np.log(0.8))
    assert priors[2] == -np.inf
    empty = unit_log_priors(UnitLexicon.from_names(["SIL", "a"]))
    assert empty == {0: 0.0, 1: 0.0}


def test_hmm_set_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    lex = UnitLexicon.from_names(["SIL", "a"], counts={"SIL": 2, "a": 3})
    hmms = {
        0: random_unit_hmm(rng, 0, 2, 2, 2),
        1: random_unit_hmm(rng, 1, 1, 1, 2),
    }
    p = tmp_path / "hmms.json"
    save_hmm_set(p, hmms, lex)
    back, lex2 = load_hmm_set(p)
    assert lex2 == lex
    assert back == hmms
    with pytest.raises(OSError):
        load_hmm_set(tmp_path / "nowhere.json")
    (tmp_path / "junk.json").write_text("{}\n")
    with pytest.raises(DataError):
        load_hmm_set(tmp_path / "junk.json")


@st.composite
def chain_batches(draw):
    """A (T, B, n) padded observation table of B sequences of mixed lengths
    (some shorter than n), transitions, and a beam of None or 1..n.  Scores
    may be rounded so that paths tie, and some real cells are -inf or NaN."""
    n, B = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    lengths = np.array(draw(st.lists(st.integers(1, n + 8), min_size=B, max_size=B)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obs = np.zeros((int(lengths.max()), B, n))
    for b, T in enumerate(lengths):
        obs[:T, b] = rng.normal(0.0, 3.0, (T, n))
    p_self = rng.uniform(0.05, 0.95, n)
    ls, ln = np.log(p_self), np.log1p(-p_self)
    if draw(st.booleans()):  # ties
        obs, ls, ln = np.round(obs), np.full(n, np.log(0.5)), np.full(n, np.log(0.5))
    for value, most in ((-np.inf, 6), (np.nan, 2)):
        for _ in range(draw(st.integers(0, most))):
            b = int(rng.integers(B))
            obs[int(rng.integers(lengths[b])), b, int(rng.integers(n))] = value
    beam = draw(st.one_of(st.none(), st.integers(1, n)))
    return obs, ls, ln, lengths, beam


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(chain_batches())
def test_chain_kernel_matches_the_retired_recursion(case):
    obs, ls, ln, lengths, beam = case
    n = obs.shape[2]
    want_states, want_totals, want_dead = reference_viterbi(obs.copy(), ls, ln, lengths, beam)
    lattice = obs.copy()
    states, totals = _chain_paths(lattice, ls, ln, lengths, beam)
    starts = np.append(0, np.cumsum(lengths))
    for b, T in enumerate(lengths.tolist()):
        if beam is not None:  # a NaN frame is dead on both sides, whichever way NaN flows
            assert _first_dead(lattice[:T, b]) == want_dead[b], b
        # NaN flows into every state an advance or stay can reach, where the
        # oracle's comparison kept the stay: the total is NaN exactly when a
        # NaN observation can still reach the exit.
        t, s = np.nonzero(np.isnan(obs[:T, b]))
        reaches = bool(np.any(n - 1 - s <= T - 1 - t))
        assert np.isnan(totals[b]) == reaches, b
        if np.isnan(obs[:T, b]).any() and (reaches or beam is not None):
            continue  # a beam ranks NaN cells, which differ, against the rest
        assert repr(totals[b]) == repr(want_totals[b]), b
        if np.isfinite(totals[b]):
            np.testing.assert_array_equal(states[starts[b] : starts[b + 1]], want_states[:T, b])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_viterbi_align_scores_as_decoding_its_one_unit_graph(n, extra, seed):
    rng = np.random.default_rng(seed)
    hmm = random_unit_hmm(rng, 3, n, int(rng.integers(1, 3)), 2)
    frames = rng.normal(0.0, 2.0, (n + extra, 2))
    got = viterbi_align(hmm, frames).log_prob
    want = decode(chain_graph({3: hmm}, (3,)), frames).log_prob
    assert repr(got) == repr(want)


@st.composite
def forward_batches(draw):
    """Concatenated (N, n) observation rows of B sequences of mixed lengths
    (some shorter than n), and transitions.  Scores may be rounded so that
    terms tie, and some cells are -inf."""
    n, B = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, n + 8), min_size=B, max_size=B))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obs = rng.normal(0.0, 3.0, (sum(lengths), n))
    p_self = rng.uniform(0.05, 0.95, n)
    ls, ln = np.log(p_self), np.log1p(-p_self)
    if draw(st.booleans()):  # ties; + 0.0 turns a rounded -0.0 into 0.0
        obs, ls, ln = np.round(obs) + 0.0, np.full(n, np.log(0.5)), np.full(n, np.log(0.5))
    for _ in range(draw(st.integers(0, 6))):
        obs[int(rng.integers(obs.shape[0])), int(rng.integers(n))] = -np.inf
    return np.split(obs, np.cumsum(lengths)[:-1]), ls, ln


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(forward_batches())
def test_forward_and_backward_passes_match_the_retired_recursions(case):
    # The lattices that Baum-Welch's posteriors run through the kernel: the
    # forward pass, and the backward pass over the reverse-padded sequences
    # with their states reversed, which holds beta + obs.
    seqs, ls, ln = case
    segs = _Segments(seqs)
    obs = segs.frames
    B, n = segs.count, obs.shape[1]
    model = UnitHmm(0, ls, ln, constant_obs_hmm(n).obs)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        lattices = _recording_kernel(mp)
        list(hmm_module._forward_backward(model, segs, obs))
    forward, backward = (S.reshape(-1, B, n) for S in lattices)
    alpha = segs.unpad(forward)
    assert alpha.tobytes() == segs.unpad(reference_forward(segs.pad(obs), ls, ln)).tobytes()
    # The backward pass sums its terms in another order than the retired
    # recursion, so finite cells agree to rounding; the rest exactly.
    beta_obs = segs.unpad(backward, reverse=True)[:, ::-1]
    want = segs.unpad(reference_backward(segs.pad(obs), ls, ln, segs.lengths)) + obs
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(beta_obs), finite)
    assert np.array_equal(beta_obs[~finite], want[~finite])
    np.testing.assert_allclose(beta_obs[finite], want[finite], rtol=1e-13, atol=1e-13)
