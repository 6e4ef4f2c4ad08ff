import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionseg.data import Transcript, UnitLexicon
from actionseg.decoder import _layout
from actionseg.errors import DataError
from actionseg.grammar import (
    DecodingGraph,
    Grammar,
    GraphNode,
    build_grammar,
    compose,
    export_ebnf,
    graph_sentences,
    parse_ebnf,
    unconstrained_graph,
)
from helpers import (
    language_by_names,
    random_sentence_grammar,
    random_unit_hmm,
    reference_compose,
    reference_candidates,
)


def small_lexicon() -> UnitLexicon:
    return UnitLexicon.from_names(["SIL", "pour", "stir"])


def test_grammar_dedupes_and_sorts():
    lex = small_lexicon()
    g = Grammar(
        lexicon=lex,
        sentences={"mix": ((0, 2, 0), (0, 1, 0), (0, 2, 0))},
    )
    assert g.sentences["mix"] == ((0, 1, 0), (0, 2, 0))
    assert g.num_sentences() == 2
    assert g.activities == ("mix",)


def test_grammar_requires_silence_brackets():
    lex = small_lexicon()
    with pytest.raises(DataError):
        Grammar(lexicon=lex, sentences={"a": ((1, 2),)})
    with pytest.raises(DataError):
        Grammar(lexicon=lex, sentences={"a": ((0, 1),)})
    with pytest.raises(DataError):
        Grammar(lexicon=lex, sentences={"a": ((0,),)})
    with pytest.raises(DataError):
        Grammar(lexicon=lex, sentences={"a": ((0, 9, 0),)})


def test_build_grammar_groups_by_activity():
    lex = small_lexicon()
    g = build_grammar(
        [
            ("cook", Transcript(units=(0, 1, 0))),
            ("cook", (0, 1, 0)),
            ("serve", (0, 2, 0)),
        ],
        lex,
    )
    assert g.sentences["cook"] == ((0, 1, 0),)
    assert g.sentences["serve"] == ((0, 2, 0),)
    with pytest.raises(DataError):
        build_grammar([], lex)


def test_ebnf_round_trip_exact():
    lex = small_lexicon()
    g = build_grammar([("cook", (0, 1, 2, 0)), ("cook", (0, 2, 0))], lex)
    text = export_ebnf(g)
    assert text == "cook = SIL, pour, stir, SIL | SIL, stir, SIL ;\n"
    back = parse_ebnf(text, lexicon=lex)
    assert back.sentences == g.sentences
    # without a lexicon the ids may differ but the named language must not
    fresh = parse_ebnf(text)
    assert language_by_names(fresh) == language_by_names(g)


def test_ebnf_round_trip_randomized():
    rng = np.random.default_rng(70)
    for trial in range(10):
        g, lex = random_sentence_grammar(
            rng, [f"u{i}" for i in range(int(rng.integers(2, 5)))], 3, 3
        )
        back = parse_ebnf(export_ebnf(g), lexicon=lex)
        assert language_by_names(back) == language_by_names(g), f"trial {trial}"


def test_ebnf_whitespace_insensitive():
    lex = small_lexicon()
    g = build_grammar([("cook", (0, 1, 0))], lex)
    reflowed = "cook =\n  SIL ,\n  pour ,\n  SIL\n;\n"
    assert parse_ebnf(reflowed, lexicon=lex).sentences == g.sentences


def test_ebnf_parse_errors():
    lex = small_lexicon()
    with pytest.raises(DataError):
        parse_ebnf("cook SIL, pour, SIL ;", lexicon=lex)
    with pytest.raises(DataError):
        parse_ebnf("cook = SIL, , SIL ;", lexicon=lex)
    with pytest.raises(DataError):
        parse_ebnf(" = SIL, pour, SIL ;", lexicon=lex)
    with pytest.raises(DataError):
        parse_ebnf("cook = SIL, soup, SIL ;", lexicon=lex)


def test_export_rejects_reserved_characters():
    lex = UnitLexicon.from_names(["SIL", "a|b"])
    g = Grammar(lexicon=lex, sentences={"act": ((0, 1, 0),)})
    with pytest.raises(DataError):
        export_ebnf(g)
    g2 = Grammar(lexicon=small_lexicon(), sentences={"a;b": ((0, 1, 0),)})
    with pytest.raises(DataError):
        export_ebnf(g2)


def make_hmms(rng, lex, n=1):
    return {u: random_unit_hmm(rng, u, n, 1, 2) for u in range(len(lex))}


def test_compose_shares_prefixes():
    rng = np.random.default_rng(71)
    lex = small_lexicon()
    g = build_grammar([("cook", (0, 1, 0)), ("cook", (0, 1, 2, 0))], lex)
    graph = compose(g, make_hmms(rng, lex))
    # prefix tree: SIL -> pour -> {SIL, stir -> SIL}; the shared prefix is stored once
    assert len(graph.nodes) == 5
    assert graph.start_edges == ((0, 0.0),)
    assert graph.kind == "grammar"
    spelled = {tuple(lex.name_of(u) for u in s) for _, s in graph_sentences(graph)}
    assert spelled == {("SIL", "pour", "SIL"), ("SIL", "pour", "stir", "SIL")}
    for node in graph.nodes:
        assert all(w == 0.0 for _, w in node.edges)


def test_compose_spells_exactly_the_language():
    rng = np.random.default_rng(72)
    for trial in range(8):
        g, lex = random_sentence_grammar(rng, ["a", "b", "c"], 4, 3)
        graph = compose(g, make_hmms(rng, lex))
        got = {(act, s) for act, s in graph_sentences(graph)}
        want = {(act, s) for act, sents in g.sentences.items() for s in sents}
        assert got == want, f"trial {trial}"


def test_compose_missing_model_lists_names():
    rng = np.random.default_rng(73)
    lex = small_lexicon()
    g = build_grammar([("cook", (0, 1, 2, 0))], lex)
    hmms = make_hmms(rng, lex)
    del hmms[2]
    with pytest.raises(DataError, match="stir"):
        compose(g, hmms)


def test_unconstrained_graph_is_complete():
    rng = np.random.default_rng(74)
    lex = small_lexicon()
    graph = unconstrained_graph(make_hmms(rng, lex))
    assert graph.kind == "unconstrained"
    assert len(graph.nodes) == 3
    everywhere = tuple((i, 0.0) for i in range(3))
    assert graph.start_edges == everywhere
    for node in graph.nodes:
        assert node.terminal
        assert node.edges == everywhere
    with pytest.raises(ValueError):
        graph_sentences(graph)
    with pytest.raises(DataError):
        unconstrained_graph({})


def test_decoding_graph_validation():
    rng = np.random.default_rng(75)
    hmm = random_unit_hmm(rng, 0, 1, 1, 1)
    node = GraphNode(index=0, unit_id=0, activity=None, terminal=True, edges=((5, 0.0),))
    with pytest.raises(DataError):
        DecodingGraph(nodes=(node,), start_edges=((0, 0.0),), hmms={0: hmm}, kind="x")
    good = GraphNode(index=0, unit_id=0, activity=None, terminal=True, edges=())
    with pytest.raises(DataError):
        DecodingGraph(nodes=(good,), start_edges=(), hmms={0: hmm}, kind="x")
    with pytest.raises(DataError):
        DecodingGraph(nodes=(good,), start_edges=((0, 0.0),), hmms={}, kind="x")


def test_decoding_graph_weights_are_log_probabilities():
    rng = np.random.default_rng(76)
    hmms = {u: random_unit_hmm(rng, u, 1, 1, 1) for u in range(3)}

    def graph(w01, w10, start):
        nodes = (
            GraphNode(index=0, unit_id=0, activity=None, terminal=True, edges=((1, w01),)),
            GraphNode(index=1, unit_id=1, activity=None, terminal=True, edges=((0, w10),)),
            GraphNode(index=2, unit_id=2, activity=None, terminal=True, edges=()),
        )
        return DecodingGraph(nodes=nodes, start_edges=((0, start),), hmms=hmms, kind="x")

    for ok in (0.0, -0.0, -np.inf, -1e308):
        graph(ok, ok, ok)
    for bad in (np.nan, 1e-300, 1.0, np.inf):
        with pytest.raises(DataError, match=r"^edge from node 0 to node 1 has weight "):
            graph(bad, 0.0, 0.0)
        with pytest.raises(DataError, match=r"^edge from node 1 to node 0 has weight "):
            graph(0.0, bad, 0.0)
        with pytest.raises(DataError, match=r"^start edge to node 0 has weight "):
            graph(0.0, 0.0, bad)
    # A graph whose scores can reach +inf, where a later -inf observation
    # makes +inf - inf = NaN: the decoder's max step needs it refused.
    with pytest.raises(DataError, match=r"has weight 1e\+308, not a log-probability <= 0"):
        graph(1e308, 1e308, 1e308)


def assert_candidates_match_reference(graph: DecodingGraph, want: dict) -> None:
    lay = _layout(graph)
    for name, arr in want.items():
        got = getattr(lay, name)
        assert got.dtype == arr.dtype and np.array_equal(got, arr), name


# Unit names whose sorted order is not their id order, with silence in the
# middle, so the grammar's name order and the graph's id order differ.
_NAMES = ("z", "y", "SIL", "x", "w")


@st.composite
def grammars_and_models(draw):
    """1-4 activities of 1-6 sentences with 0-6 inner units each, from a
    pool so small that units repeat, silence occurs inside sentences and
    sentences share prefixes; unit models of 1-3 states."""
    lex = UnitLexicon.from_names(_NAMES[: draw(st.integers(3, len(_NAMES)))])
    sil = lex.silence_id
    inner = st.lists(st.integers(0, len(lex) - 1), max_size=6)
    sentence = inner.map(lambda units: (sil, *units, sil))
    acts = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4, unique=True))
    grammar = Grammar(
        lexicon=lex,
        sentences={a: tuple(draw(st.lists(sentence, min_size=1, max_size=6))) for a in acts},
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    states = draw(st.lists(st.integers(1, 3), min_size=len(lex), max_size=len(lex)))
    return grammar, {u: random_unit_hmm(rng, u, n, 1, 2) for u, n in enumerate(states)}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grammars_and_models())
def test_compose_and_layout_match_the_prefix_tree_walk(case):
    grammar, hmms = case
    got, want = compose(grammar, hmms), reference_compose(grammar, hmms)

    def fields(graph):
        return [(n.index, n.unit_id, n.activity, n.terminal, n.edges) for n in graph.nodes]

    assert fields(got) == fields(want)
    assert got.start_edges == want.start_edges
    assert graph_sentences(got) == graph_sentences(want)
    assert_candidates_match_reference(got, reference_candidates(want))
    # every node of a composed grammar has at most one incoming edge
    assert _layout(got).m_first.size == 0


def test_layout_of_graphs_without_a_tree_matches_the_reference():
    rng = np.random.default_rng(76)
    hmms = {u: random_unit_hmm(rng, u, 2, 1, 2) for u in range(3)}
    lone = GraphNode(index=0, unit_id=1, activity=None, terminal=True, edges=())
    no_edges = DecodingGraph(nodes=(lone,), start_edges=((0, 0.0),), hmms=hmms, kind="x")
    for graph in (no_edges, unconstrained_graph(hmms)):
        assert_candidates_match_reference(graph, reference_candidates(graph))
    # the lone node's first state has no candidate
    assert _layout(no_edges).m_start.size == 0 and _layout(no_edges).t1[0] == -np.inf
    # in the unconstrained graph every first state has one candidate per node
    assert _layout(unconstrained_graph(hmms)).m_first.tolist() == [0, 2, 4]
