import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionseg import decoder, hmm
from actionseg.data import Transcript, UnitLexicon, frame_labels
from actionseg.decoder import decode, force_align, majority_vote
from actionseg.errors import BeamPrunedError, DataError, DecodeError, NoPathError
from actionseg.grammar import (
    DecodingGraph,
    Grammar,
    GraphNode,
    build_grammar,
    compose,
    unconstrained_graph,
)
from actionseg.hmm import UnitHmm, _max_product
from helpers import (
    arena_decode,
    chain_graph,
    compose_random_graph,
    csr_decode,
    oracle_decode_best,
    random_gmm,
    random_unit_hmm,
    reference_decode,
    reference_force_align,
    reference_max_product,
)


def fixed_obs_hmm(unit_id: int, n: int, mean: float, p_self: float = 0.6) -> UnitHmm:
    from actionseg.gmm import Gmm

    return UnitHmm(
        unit_id=unit_id,
        log_self=np.full(n, np.log(p_self)),
        log_next=np.full(n, np.log(1.0 - p_self)),
        obs=[
            Gmm(
                weights=np.array([1.0]),
                means=np.full((1, 1), mean),
                variances=np.ones((1, 1)),
            )
            for _ in range(n)
        ],
    )


def oracle_unit_frames(graph, labels) -> list[int]:
    return [graph.nodes[i].unit_id for i in labels]


def test_decode_matches_oracle_on_random_grammar_graphs():
    rng = np.random.default_rng(80)
    names = ["a", "b"]
    for trial in range(60):
        n_states = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        hmms = {u: random_unit_hmm(rng, u, n_states, 1, m) for u in range(3)}
        graph, lex = compose_random_graph(
            rng, names, hmms, n_sentences=2, max_inner=2
        )
        T = int(rng.integers(3, 7))
        frames = rng.normal(size=(T, m))
        want_lp, want_labels = oracle_decode_best(graph, frames)
        if want_lp == -np.inf:
            with pytest.raises(NoPathError):
                decode(graph, frames)
            continue
        got = decode(graph, frames)
        assert got.log_prob == pytest.approx(want_lp, abs=1e-9), f"trial {trial}"
        assert frame_labels(got.segmentation, T) == oracle_unit_frames(
            graph, want_labels
        ), f"trial {trial}"
        assert got.segmentation.num_frames == T
        # the transcript is the segment-order unit list
        assert got.transcript.units == tuple(u for u, _, _ in got.segmentation.segments)


def test_decode_matches_oracle_with_priors():
    rng = np.random.default_rng(81)
    names = ["a", "b", "c"]
    for trial in range(20):
        hmms = {u: random_unit_hmm(rng, u, 1, 1, 2) for u in range(4)}
        graph, lex = compose_random_graph(rng, names, hmms, n_sentences=3, max_inner=2)
        T = int(rng.integers(3, 6))
        frames = rng.normal(size=(T, 2))
        priors = {u: -abs(float(rng.normal(0.0, 2.0))) for u in range(4)}  # log-probabilities
        want_lp, want_labels = oracle_decode_best(graph, frames, priors=priors)
        if want_lp == -np.inf:
            continue
        got = decode(graph, frames, priors=priors)
        assert got.log_prob == pytest.approx(want_lp, abs=1e-9), f"trial {trial}"
        assert frame_labels(got.segmentation, T) == oracle_unit_frames(
            graph, want_labels
        )


def test_decode_matches_oracle_on_unconstrained_graph():
    rng = np.random.default_rng(82)
    for trial in range(15):
        hmms = {u: random_unit_hmm(rng, u, 1, 1, 1) for u in range(3)}
        graph = unconstrained_graph(hmms)
        T = int(rng.integers(1, 6))
        frames = rng.normal(size=(T, 1))
        want_lp, want_labels = oracle_decode_best(graph, frames)
        got = decode(graph, frames)
        assert got.log_prob == pytest.approx(want_lp, abs=1e-9), f"trial {trial}"
        assert frame_labels(got.segmentation, T) == oracle_unit_frames(
            graph, want_labels
        )
        assert got.activity is None


def test_decode_deterministic():
    rng = np.random.default_rng(83)
    hmms = {u: random_unit_hmm(rng, u, 2, 2, 2) for u in range(3)}
    graph, lex = compose_random_graph(rng, ["a", "b"], hmms, n_sentences=3, max_inner=3)
    frames = rng.normal(size=(40, 2))
    a = decode(graph, frames)
    b = decode(graph, frames)
    assert a.to_dict(lex) == b.to_dict(lex)


def test_wide_beam_equals_exact():
    rng = np.random.default_rng(84)
    hmms = {u: random_unit_hmm(rng, u, 2, 1, 2) for u in range(3)}
    graph, lex = compose_random_graph(rng, ["a", "b"], hmms, n_sentences=3, max_inner=3)
    frames = rng.normal(size=(30, 2))
    exact = decode(graph, frames)
    beamed = decode(graph, frames, beam=10_000)
    assert beamed.to_dict(lex) == exact.to_dict(lex)


def test_tight_beam_raises_beam_pruned():
    # the decoy unit matches the frames, the mandatory one does not; a
    # one-state beam follows the decoy and strands the forced path
    lex = UnitLexicon.from_names(["SIL", "good", "bad"])
    hmms = {
        0: fixed_obs_hmm(0, 1, 0.0),
        1: fixed_obs_hmm(1, 2, 0.0),
        2: fixed_obs_hmm(2, 2, 9.0),
    }
    g = build_grammar([("act", (0, 1, 2, 0))], lex)
    graph = compose(g, hmms)
    frames = np.zeros((8, 1))
    decode(graph, frames)
    with pytest.raises(BeamPrunedError):
        decode(graph, frames, beam=1)
    with pytest.raises(ValueError):
        decode(graph, frames, beam=0)


def test_no_path_when_sequence_too_short():
    lex = UnitLexicon.from_names(["SIL", "a"])
    hmms = {0: fixed_obs_hmm(0, 2, 0.0), 1: fixed_obs_hmm(1, 3, 0.0)}
    g = build_grammar([("act", (0, 1, 0))], lex)
    graph = compose(g, hmms)
    # the single sentence needs 2 + 3 + 2 = 7 states
    decode(graph, np.zeros((7, 1)))
    with pytest.raises(NoPathError):
        decode(graph, np.zeros((6, 1)))


def test_force_align_matches_chain_oracle():
    rng = np.random.default_rng(85)
    for trial in range(15):
        hmms = {u: random_unit_hmm(rng, u, int(rng.integers(1, 3)), 1, 2) for u in range(3)}
        units = (0, 1, 0, 2)
        need = sum(hmms[u].n for u in units)
        T = need + int(rng.integers(0, 4))
        frames = rng.normal(size=(T, 2))
        [seg] = force_align(hmms, [Transcript(units)], [frames])
        assert tuple(u for u, _, _ in seg.segments) == units
        assert seg.num_frames == T
        # enumerate the paths of the same chain graph
        graph = chain_graph(hmms, units)
        _, want_labels = oracle_decode_best(graph, frames)
        assert frame_labels(seg, T) == oracle_unit_frames(graph, want_labels)


def test_force_align_errors():
    rng = np.random.default_rng(86)
    hmms = {0: random_unit_hmm(rng, 0, 2, 1, 1)}
    frames = rng.normal(size=(10, 1))
    with pytest.raises(DataError):
        force_align(hmms, [Transcript((0, 1, 0))], [frames])
    with pytest.raises(DataError):
        force_align(hmms, [()], [frames])
    with pytest.raises(NoPathError):
        force_align(hmms, [(0, 0, 0)], [rng.normal(size=(5, 1))])
    assert force_align(hmms, [], []) == []


@st.composite
def align_batches(draw):
    """Models, a batch of (transcript, frames) clips and a beam.  Clips
    share a few transcripts (units may repeat), run from below their
    transcript's state count to a few frames above it, and some are made
    to fail: a frame far from every mean, features of the wrong dim, a
    unit without a model, an empty transcript.  Tied models copy one state
    everywhere and see integer frames."""
    n_units = draw(st.integers(1, 3))
    states = draw(st.lists(st.integers(1, 3), min_size=n_units, max_size=n_units))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    hmms = {u: random_unit_hmm(rng, u, n, int(rng.integers(1, 3)), 2) for u, n in enumerate(states)}
    if tied:
        hmms = {
            u: UnitHmm(u, np.full(n, np.log(0.5)), np.full(n, np.log(0.5)), [hmms[0].obs[0]] * n)
            for u, n in enumerate(states)
        }
    unit_lists = st.lists(st.integers(0, n_units - 1), min_size=1, max_size=4).map(tuple)
    pool = draw(st.lists(unit_lists, min_size=1, max_size=3))
    spec = st.tuples(st.sampled_from(pool), st.integers(-2, 6), st.integers(0, 11))
    clips = []
    for units, extra, kind in draw(st.lists(spec, min_size=1, max_size=8)):
        T = max(1, sum(hmms[u].n for u in units) + extra)
        frames = rng.integers(-2, 3, size=(T, 2)).astype(float) if tied else rng.normal(size=(T, 2))
        if kind == 0:
            frames[int(rng.integers(T))] = 1e200
        elif kind == 1:
            frames = frames[:, :1]
        elif kind == 2:
            units = units + (n_units,)
        elif kind == 3:
            units = ()
        clips.append((units, frames))
    beam = draw(st.one_of(st.none(), st.integers(1, 6), st.just(40)))
    return hmms, clips, beam


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(align_batches())
def test_force_align_batch_matches_graph_oracle(batch):
    hmms, clips, beam = batch
    want = [_result_or_error(reference_force_align, hmms, u, f, beam) for u, f in clips]
    got = _result_or_error(force_align, hmms, [u for u, _ in clips], [f for _, f in clips], beam)
    failures = [w for w in want if isinstance(w, tuple)]
    # the first clip that cannot be aligned reports, as if aligned alone
    assert got == (failures[0] if failures else want)
    good = [clip for clip, w in zip(clips, want) if not isinstance(w, tuple)]
    assert force_align(hmms, [u for u, _ in good], [f for _, f in good], beam) == [
        w for w in want if not isinstance(w, tuple)
    ]


def test_force_align_fails_on_nan_as_a_chain_decode_does():
    # reference_decode does not model NaN scores, so compare with decode
    rng = np.random.default_rng(93)
    hmms = {u: random_unit_hmm(rng, u, 2, 1, 2) for u in range(2)}
    bad_mean = hmms[1].copy()
    bad_mean.obs[1].means[0, 0] = np.nan
    units = (0, 1, 0)
    for models in (hmms, {0: hmms[0], 1: bad_mean}):
        for t in (None, 0, 3, 8):
            frames = rng.normal(size=(9, 2))
            if t is not None:
                frames[t, 1] = np.nan
            for beam in (None, 1, 2, 50):
                want = _result_or_error(
                    lambda: decode(chain_graph(models, units), frames, beam=beam).segmentation
                )
                got = _result_or_error(force_align, models, [units], [frames], beam)
                assert got == (want if isinstance(want, tuple) else [want]), (t, beam)


def test_classify_union_and_mapping_agree():
    rng = np.random.default_rng(87)
    lex = UnitLexicon.from_names(["SIL", "a", "b"])
    hmms = {u: random_unit_hmm(rng, u, 1, 1, 2) for u in range(3)}
    g = build_grammar(
        [("first", (0, 1, 0)), ("first", (0, 1, 1, 0)), ("second", (0, 2, 0))],
        lex,
    )
    union = compose(g, hmms)
    per_act = {
        act: compose(Grammar(lexicon=lex, sentences={act: g.sentences[act]}), hmms)
        for act in g.activities
    }
    for trial in range(10):
        frames = rng.normal(size=(int(rng.integers(3, 8)), 2))
        res_u = decode(union, frames)
        by_act = {act: decode(per_act[act], frames) for act in sorted(per_act)}
        act_m = max(by_act, key=lambda act: by_act[act].log_prob)
        assert res_u.activity == act_m, f"trial {trial}"
        assert res_u.log_prob == pytest.approx(by_act[act_m].log_prob, abs=1e-9)


def test_classify_skips_impossible_activities():
    lex = UnitLexicon.from_names(["SIL", "short", "long"])
    hmms = {0: fixed_obs_hmm(0, 1, 0.0), 1: fixed_obs_hmm(1, 1, 0.0), 2: fixed_obs_hmm(2, 8, 0.0)}
    union = compose(build_grammar([("fits", (0, 1, 0)), ("needs10", (0, 2, 0))], lex), hmms)
    assert decode(union, np.zeros((4, 1))).activity == "fits"
    only_long = compose(build_grammar([("needs10", (0, 2, 0))], lex), hmms)
    with pytest.raises(DecodeError):
        decode(only_long, np.zeros((4, 1)))


def test_majority_vote_rules():
    assert majority_vote([["a", "b"], ["a", "c"], ["d", "c"]]) == ["a", "c"]
    # two-way tie goes to the smallest label
    assert majority_vote([["b"], ["a"]]) == ["a"]
    assert majority_vote([[3, 1], [3, 2]]) == [3, 1]
    assert majority_vote([["x", "y", "z"]]) == ["x", "y", "z"]
    with pytest.raises(DataError):
        majority_vote([])
    with pytest.raises(DataError):
        majority_vote([["a"], ["a", "b"]])


def test_decode_result_to_dict_names():
    rng = np.random.default_rng(89)
    lex = UnitLexicon.from_names(["SIL", "a"])
    hmms = {0: random_unit_hmm(rng, 0, 1, 1, 1), 1: random_unit_hmm(rng, 1, 1, 1, 1)}
    g = build_grammar([("act", (0, 1, 0))], lex)
    res = decode(compose(g, hmms), rng.normal(size=(5, 1)))
    named = res.to_dict(lex)
    assert named["activity"] == "act"
    assert [row[2] for row in named["segments"]] == ["SIL", "a", "SIL"]
    raw = res.to_dict()
    assert [row[2] for row in raw["segments"]] == [0, 1, 0]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DecodeError as exc:
        return exc


def tie_prone_hmm(rng, unit_id: int, n: int, pool) -> UnitHmm:
    """States drawn from a small shared pool of mixtures (so units and
    states repeat, with different K), and self-loops of 1/2 half the time
    (so stay and advance tie)."""
    p_self = np.where(rng.random(n) < 0.5, 0.5, rng.uniform(0.2, 0.9, n))
    return UnitHmm(
        unit_id=unit_id,
        log_self=np.log(p_self),
        log_next=np.log(1.0 - p_self),
        obs=[pool[int(rng.integers(len(pool)))] for _ in range(n)],
    )


def test_decode_matches_reference_decoder_exactly():
    rng = np.random.default_rng(90)
    for trial in range(400):
        m = int(rng.integers(1, 3))
        pool = [random_gmm(rng, int(rng.integers(1, 4)), m) for _ in range(3)]
        hmms = {u: tie_prone_hmm(rng, u, int(rng.integers(1, 4)), pool) for u in range(4)}
        if trial % 3 == 0:
            graph = unconstrained_graph(hmms)
        else:
            graph, _ = compose_random_graph(rng, ["a", "b", "c"], hmms, n_sentences=3, max_inner=3)
        frames = np.round(rng.normal(0.0, 2.0, size=(int(rng.integers(1, 14)), m)))
        beam = [None, 1, 2, 5][trial % 4]
        priors = None
        if trial % 5 < 2:
            priors = {u: float(rng.choice([0.0, np.log(0.5), np.log(0.25), -np.inf])) for u in range(4)}
        want = _outcome(reference_decode, graph, frames, beam=beam, priors=priors)
        got = _outcome(decode, graph, frames, beam=beam, priors=priors)
        if isinstance(want, DecodeError):
            assert type(got) is type(want) and str(got) == str(want), f"trial {trial}"
            continue
        assert got.to_dict() == want.to_dict(), f"trial {trial}"
        assert got.log_prob.hex() == want.log_prob.hex(), f"trial {trial}"


@st.composite
def lattice_cases(draw):
    """A graph, a clip and search settings that stress the trace-back:
    shared mixtures, rounded frames and stay/advance ties (see
    tie_prone_hmm) tie scores at the beam cutoff and between entry edges;
    NaN and infinite frames mid-clip end the search at a known frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 2))
    pool = [random_gmm(rng, int(rng.integers(1, 4)), m) for _ in range(3)]
    hmms = {u: tie_prone_hmm(rng, u, int(rng.integers(1, 4)), pool) for u in range(4)}
    if draw(st.booleans()):
        graph = unconstrained_graph(hmms)
    else:
        graph, _ = compose_random_graph(rng, ["a", "b", "c"], hmms, n_sentences=3, max_inner=3)
    T = draw(st.integers(1, 80))
    frames = np.round(rng.normal(0.0, 2.0, size=(T, m)))
    if draw(st.integers(0, 3)) == 0:
        bad = st.tuples(st.integers(0, 79), st.sampled_from([np.nan, np.inf, -np.inf]))
        for t, v in draw(st.lists(bad, min_size=1, max_size=2)):
            frames[t % T, int(rng.integers(m))] = v
    beam = draw(st.one_of(st.none(), st.integers(1, 6)))
    priors = None
    if draw(st.booleans()):
        priors = {u: float(rng.choice([0.0, np.log(0.5), np.log(0.25), -np.inf])) for u in range(4)}
    return graph, frames, beam, priors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattice_cases())
def test_decode_matches_arena_decoder(case):
    graph, frames, beam, priors = case
    want = _outcome(arena_decode, graph, frames, beam=beam, priors=priors)
    got = _outcome(decode, graph, frames, beam=beam, priors=priors)
    if isinstance(want, DecodeError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got.to_dict() == want.to_dict()
        assert got.log_prob.hex() == want.log_prob.hex()


@st.composite
def hand_built_cases(draw):
    """A hand-built graph whose first states have zero, one or several
    incoming edges (node 0 always several, the last node exactly one), so
    both candidate paths of the frame step run in the same frame.  Edges
    may repeat and loop, and weights and priors may be -inf, values whose
    sums round, or values near -1e308 whose sums overflow to -inf.  In
    half the graphs of four or more nodes two twin nodes, of unit 0 and of
    unit 3 (a copy of unit 0's model), share their incoming and start
    edges, so they score alike at every frame and tie as sources of node
    0.  Also NaN or infinite frames in some clips, and
    a beam from 1 to every state in half of the cases."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 2))
    pool = [random_gmm(rng, int(rng.integers(1, 4)), m) for _ in range(3)]
    hmms = {u: tie_prone_hmm(rng, u, int(rng.integers(1, 4)), pool) for u in range(3)}
    hmms[3] = UnitHmm(3, hmms[0].log_self, hmms[0].log_next, hmms[0].obs)
    n = draw(st.integers(2, 7))
    counts = rng.integers(0, 4, size=n).tolist()
    counts[0], counts[-1] = max(counts[0], 2), 1

    def weight() -> float:
        pool = [0.0, -np.inf, rng.uniform(-2.0, 0.0), rng.uniform(-1.7e308, -0.9e308)]
        return float(rng.choice(pool, p=[0.3, 0.1, 0.45, 0.15]))

    units = [int(rng.integers(3)) for _ in range(n)]
    incoming = [[(int(i), weight()) for i in rng.integers(0, n, size=k)] for k in counts]
    starts = [(int(rng.integers(n)), weight()) for _ in range(draw(st.integers(1, 3)))]
    if n >= 4 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(1, n - 2), min_size=2, max_size=2, unique=True))
        units[a], units[b] = 0, 3
        incoming[b] = list(incoming[a])
        incoming[0] += [(a, 0.0), (b, 0.0)]
        starts = [(j, w) for j, w in starts + [(a, 0.0)] if j != b]
        starts += [(b, w) for j, w in starts if j == a]
    edges: list[list] = [[] for _ in range(n)]
    for j, lst in enumerate(incoming):
        for i, w in lst:
            edges[i].append((j, w))
    nodes = tuple(
        GraphNode(i, units[i], None, terminal=i == n - 1 or rng.random() < 0.4, edges=tuple(edges[i]))
        for i in range(n)
    )
    graph = DecodingGraph(nodes=nodes, start_edges=tuple(starts), hmms=hmms, kind="hand-built")
    T = int(rng.integers(1, 41))
    frames = np.round(rng.normal(0.0, 2.0, size=(T, m)))
    if rng.random() < 0.2:
        for _ in range(int(rng.integers(1, 3))):
            bad = rng.choice([np.nan, np.inf, -np.inf])
            frames[int(rng.integers(T)), int(rng.integers(m))] = bad
    total = sum(hmms[u].n for u in units)
    beam = None if rng.random() < 0.5 else int(rng.integers(1, total + 1))
    priors = None
    if rng.random() < 0.6:
        priors = {u: weight() for u in range(3)}
        priors[3] = priors[0]
    return graph, frames, beam, priors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hand_built_cases())
def test_decode_of_hand_built_graphs_matches_every_oracle(case):
    graph, frames, beam, priors = case
    lay = decoder._layout(graph)
    assert lay.m_first.size and (lay.t1[lay.offsets] > -np.inf).any()
    got = _result_or_error(decode, graph, frames, beam, priors)
    assert not isinstance(got, tuple) or issubclass(got[0], DecodeError), got
    for oracle in (csr_decode, arena_decode, reference_decode):
        want = _result_or_error(oracle, graph, frames, beam, priors)
        if isinstance(want, tuple):
            assert got == want, oracle.__name__
        else:
            assert got.to_dict() == want.to_dict(), oracle.__name__
            assert got.log_prob.hex() == want.log_prob.hex(), oracle.__name__


def _kernel_call(graph, frames, beam, priors) -> tuple:
    """decode's kernel input on this clip: a copy of the observation table,
    the start weights, the step and the rows.  decode searches exactly
    first, and a beam decode may then search a fresh copy of the table
    with the beam, with the same other arguments."""
    calls = []

    def record(S, *args):
        calls.append((S.copy(), args))
        _max_product(S, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder, "_max_product", record)
        try:
            decode(graph, frames, beam=beam, priors=priors)
        except DecodeError:
            pass
    (S, (start, step, exact, rows)), *rest = calls
    assert exact is None and len(rest) <= (beam is not None)
    for S2, (start2, step2, beam2, rows2) in rest:
        assert S2.tobytes() == S.tobytes() and start2 is start and step2 is step
        assert (beam2, rows2) == (beam, rows)
    return S, start, step, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(lattice_cases(), hand_built_cases()),
    st.sampled_from([np.maximum, np.logaddexp]),
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([-np.inf, np.nan])),
        max_size=4,
    ),
)
def test_frame_step_matches_the_five_call_reference(case, plus, cells):
    # One gather for the stay and the advance takes the same operations in
    # the same order as the step it replaced, so the lattices agree bit for
    # bit in either semiring: on composed, unconstrained and hand-built
    # graphs (states of several candidates), under beams and priors, with
    # -inf and NaN cells.
    graph, frames, beam, priors = case
    S, start, step, rows = _kernel_call(graph, frames, beam, priors)
    T, W = S.shape
    for u, v, value in cells:
        S[min(int(u * T), T - 1), min(int(v * W), W - 1)] = value
    got, want = S.copy(), S.copy()
    with np.errstate(all="ignore"):
        _max_product(got, start, step, beam, rows, plus)
        reference_max_product(want, start, step, beam, rows, plus)
    assert got.tobytes() == want.tobytes()


def test_beam_decode_equals_the_pruned_search():
    # A beam decode keeps the exact search's result where _beam_keeps
    # proves the pruned search finds the same.  Refusing every proof
    # leaves the pruned search alone, and must change no result, bit,
    # error or message: on composed, unconstrained and hand-built graphs,
    # at every beam from 1 to all states plus one, with and without
    # priors, with -inf and NaN cells in the observation table.
    branches = Counter()
    obs_table, beam_keeps = decoder._Layout.obs_table, decoder._beam_keeps

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(lattice_cases(), hand_built_cases()),
        st.data(),
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([-np.inf, -np.inf, np.nan])),
            max_size=2,
        ),
    )
    def check(case, data, cells):
        graph, frames, _, priors = case
        W = decoder._layout(graph).total
        beam = data.draw(st.integers(1, W + 1), label="beam")

        def table(lay, frames):
            S = obs_table(lay, frames)
            T = S.shape[0]
            for u, v, value in cells:
                S[min(int(u * T), T - 1), min(int(v * W), W - 1)] = value
            return S

        proofs = []

        def keeps(*args):
            proofs.append(beam_keeps(*args))
            return proofs[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder._Layout, "obs_table", table)
            mp.setattr(decoder, "_beam_keeps", keeps)
            got = _result_or_error(decode, graph, frames, beam, priors)
            mp.setattr(decoder, "_beam_keeps", lambda *args: False)
            want = _result_or_error(decode, graph, frames, beam, priors)
        branches[{(True,): "certified", (False,): "refuted"}.get(tuple(proofs), "no exact path")] += 1
        assert not isinstance(got, tuple) or issubclass(got[0], DecodeError), got
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.to_dict() == want.to_dict()
            assert got.log_prob.hex() == want.log_prob.hex()

    check()
    assert branches["certified"] and branches["refuted"], branches


def test_certified_beam_decode_runs_one_exact_search(monkeypatch):
    # Counted through patches: a beam decode whose path the certificate
    # keeps makes one kernel call, exact, and prunes no frame; one it does
    # not keep searches the clip again with the beam.
    rng = np.random.default_rng(84)
    hmms = {u: random_unit_hmm(rng, u, 2, 1, 2) for u in range(3)}
    graph, _ = compose_random_graph(rng, ["a", "b"], hmms, n_sentences=3, max_inner=3)
    frames = rng.normal(size=(30, 2))
    kernels, prunes = [], []
    apply_beam = hmm._apply_beam

    def kernel(S, start, step, beam, *rest):
        kernels.append(beam)
        _max_product(S, start, step, beam, *rest)

    def prune(scores, beam):
        prunes.append(beam)
        apply_beam(scores, beam)

    monkeypatch.setattr(decoder, "_max_product", kernel)
    monkeypatch.setattr(hmm, "_apply_beam", prune)
    exact = decode(graph, frames)
    assert (kernels, prunes) == ([None], [])
    for beam in (8, 18, 19):
        kernels.clear()
        assert decode(graph, frames, beam=beam).to_dict() == exact.to_dict()
        assert (kernels, prunes) == ([None], [])
    kernels.clear()
    decode(graph, frames, beam=6)  # the exact path is not among the 6 best at some frame
    assert (kernels, prunes) == ([None, 6], [6] * 30)
    kernels.clear()
    with pytest.raises(BeamPrunedError, match="no surviving token at frame 29"):
        decode(graph, frames, beam=1)
    assert kernels == [None, 1]


def test_layout_cache_holds_no_graph():
    gc.collect()
    before = len(decoder._LAYOUTS)
    rng = np.random.default_rng(91)
    hmms = {u: random_unit_hmm(rng, u, 2, 1, 2) for u in range(3)}
    lex = UnitLexicon.from_names(["SIL", "a", "b"])
    grammar = build_grammar([("act", (0, 1, 2, 0))], lex)
    for make in (lambda: compose(grammar, hmms), lambda: unconstrained_graph(hmms)):
        decode(make(), rng.normal(size=(12, 2)))
        gc.collect()
        assert len(decoder._LAYOUTS) == before
    # forced alignment builds no graph and caches nothing
    force_align(hmms, [(0, 1, 2, 0)] * 3, [rng.normal(size=(12, 2)) for _ in range(3)])
    assert len(decoder._LAYOUTS) == before
    graph = unconstrained_graph(hmms)
    decode(graph, rng.normal(size=(6, 2)))
    assert graph in decoder._LAYOUTS
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None
    assert len(decoder._LAYOUTS) == before


def test_decode_rejects_priors_that_are_not_log_probabilities():
    rng = np.random.default_rng(93)
    hmms = {u: random_unit_hmm(rng, u, 1, 1, 2) for u in range(2)}
    graph, frames = unconstrained_graph(hmms), rng.normal(size=(5, 2))
    for ok in (0.0, -0.0, -np.inf, -1e308):
        decode(graph, frames, priors={0: ok, 1: -1.0})
    for bad in (np.nan, 1e-300, 0.5, np.inf):
        with pytest.raises(DataError, match=r"^the prior of unit 1 is .*, not a log-probability"):
            decode(graph, frames, priors={0: -1.0, 1: bad})
    # a unit outside the graph plays no part
    decode(graph, frames, priors={0: -1.0, 1: -1.0, 7: 2.0})


def test_decode_rejects_frames_of_another_dim():
    rng = np.random.default_rng(92)
    hmms = {u: random_unit_hmm(rng, u, 1, 1, 2) for u in range(2)}
    with pytest.raises(DataError, match="input dim 3 != model dim 2"):
        decode(unconstrained_graph(hmms), rng.normal(size=(5, 3)))
    with pytest.raises(DataError, match="input dim 1 != model dim 2"):
        force_align(hmms, [(0, 1)], [rng.normal(size=(5, 1))])
