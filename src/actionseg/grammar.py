"""Activity grammars and their compilation into decoding graphs.

A grammar is the exact finite union of the training transcripts of each
activity, stored as its sorted, deduplicated sentences of unit ids.  No
generalization or smoothing is applied: the language is precisely the set
of distinct observed transcripts.  Every sentence starts and ends with
the silence unit.

Grammars render to a small EBNF subset (terminals separated by commas,
alternatives by ``|``, productions closed by ``;``) and parse back from
it.  Composing with unit HMMs gives a graph of one node per sorted
(activity, sentence prefix), whose complete paths spell exactly the
sentences; an unconstrained variant allows any unit to follow any unit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .data import Transcript, UnitLexicon
from .errors import DataError
from .hmm import UnitHmm

_RESERVED = set(",|=;")


def _check_symbol(name: str, role: str) -> None:
    if not name or any(c in _RESERVED for c in name) or "\n" in name:
        raise DataError(f"{role} {name!r} cannot be written in grammar notation")


@dataclass(eq=False)
class Grammar:
    """Per-activity finite languages over unit ids.

    sentences maps each activity to its deduplicated transcripts, sorted
    by unit names for a canonical order.
    """

    lexicon: UnitLexicon
    sentences: dict[str, tuple[tuple[int, ...], ...]]

    def __post_init__(self):
        sil = self.lexicon.silence_id
        sil_name = self.lexicon.name_of(sil)
        canon: dict[str, tuple[tuple[int, ...], ...]] = {}
        for act in sorted(self.sentences):
            distinct = set()
            for raw in self.sentences[act]:
                sent = tuple(int(u) for u in raw)
                for u in sent:
                    if not 0 <= u < len(self.lexicon):
                        raise DataError(f"activity {act!r}: unit id {u} outside lexicon")
                if len(sent) < 2 or sent[0] != sil or sent[-1] != sil:
                    raise DataError(
                        f"activity {act!r}: transcript must start and end with "
                        f"{sil_name!r}"
                    )
                distinct.add(sent)
            canon[str(act)] = tuple(
                sorted(distinct, key=lambda s: tuple(self.lexicon.name_of(u) for u in s))
            )
        self.sentences = canon

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(sorted(self.sentences))

    def num_sentences(self) -> int:
        return sum(len(s) for s in self.sentences.values())


def build_grammar(
    transcripts: Sequence[tuple[str, Transcript]],
    lexicon: UnitLexicon,
) -> Grammar:
    """Union the training transcripts of each activity into a grammar.

    Duplicate transcripts collapse; every transcript must be bracketed by
    the silence unit.
    """
    if not transcripts:
        raise DataError("cannot build a grammar from zero transcripts")
    by_act: dict[str, list[tuple[int, ...]]] = {}
    for act, tr in transcripts:
        units = tr.units if isinstance(tr, Transcript) else tuple(int(u) for u in tr)
        by_act.setdefault(str(act), []).append(units)
    return Grammar(lexicon=lexicon, sentences={a: tuple(v) for a, v in by_act.items()})


# ---------------------------------------------------------------------------
# EBNF rendering and parsing


def export_ebnf(grammar: Grammar) -> str:
    """One production per activity, alternatives sorted, terminals
    comma-separated: ``activity = SIL, unit_a, SIL | SIL, unit_b, SIL ;``"""
    lines = []
    for act in grammar.activities:
        _check_symbol(act, "activity name")
        alts = []
        for sent in grammar.sentences[act]:
            names = [grammar.lexicon.name_of(u) for u in sent]
            for nm in names:
                _check_symbol(nm, "unit name")
            alts.append(", ".join(names))
        lines.append(f"{act} = " + " | ".join(alts) + " ;")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_ebnf(
    text: str,
    lexicon: UnitLexicon | None = None,
    silence: str = "SIL",
) -> Grammar:
    """Parse the EBNF subset written by export_ebnf.

    Without a lexicon, one is built from the terminal names encountered
    (sorted, silence included).  Whitespace around tokens is ignored, so
    reflowed files parse the same.
    """
    productions: list[tuple[str, list[list[str]]]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise DataError(f"malformed production (no '='): {chunk[:40]!r}")
        name, rhs = chunk.split("=", 1)
        name = name.strip()
        if not name:
            raise DataError("production with an empty activity name")
        alts = []
        for alt in rhs.split("|"):
            terms = [t.strip() for t in alt.split(",")]
            if any(not t for t in terms):
                raise DataError(f"empty terminal in production {name!r}")
            alts.append(terms)
        productions.append((name, alts))
    if not productions:
        raise DataError("no production")
    if lexicon is None:
        names = {t for _, alts in productions for alt in alts for t in alt}
        names.add(silence)
        lexicon = UnitLexicon.from_names(sorted(names), silence=silence)
    sentences: dict[str, list[tuple[int, ...]]] = {}
    for name, alts in productions:
        bucket = sentences.setdefault(name, [])
        for alt in alts:
            bucket.append(tuple(lexicon.id_of(t) for t in alt))
    return Grammar(lexicon=lexicon, sentences={a: tuple(v) for a, v in sentences.items()})


# ---------------------------------------------------------------------------
# decoding graphs


@dataclass(eq=False)
class GraphNode:
    """One unit instance in the decoding graph.

    edges are (successor index, log weight) pairs, each weight a
    log-probability: <= 0, -inf allowed, never NaN.  Terminal nodes may end
    the path (the sentence is complete after this unit).
    """

    index: int
    unit_id: int
    activity: str | None
    terminal: bool
    edges: tuple[tuple[int, float], ...]


@dataclass(eq=False)
class DecodingGraph:
    """Unit-level transition structure plus the HMMs that flesh out each
    node.  Edge and start weights are log-probabilities (<= 0, -inf
    allowed): a NaN or positive weight raises DataError, since the
    decoder's frame step relies on it.  Immutable after construction;
    safe to share across threads."""

    nodes: tuple[GraphNode, ...]
    start_edges: tuple[tuple[int, float], ...]
    hmms: Mapping[int, UnitHmm]
    kind: str

    def __post_init__(self):
        if not self.nodes:
            raise DataError("decoding graph has no nodes")
        if not self.start_edges:
            raise DataError("decoding graph has no entry")
        count = len(self.nodes)
        for node in self.nodes:
            if node.unit_id not in self.hmms:
                raise DataError(f"no trained model for unit id {node.unit_id}")
            for j, w in node.edges:
                if not 0 <= j < count:
                    raise DataError(f"edge from node {node.index} to missing node {j}")
                _check_weight(w, f"edge from node {node.index} to node {j}")
        for j, w in self.start_edges:
            if not 0 <= j < count:
                raise DataError(f"start edge to missing node {j}")
            _check_weight(w, f"start edge to node {j}")


def _check_weight(w: float, edge: str) -> None:
    if not w <= 0:
        raise DataError(f"{edge} has weight {w!r}, not a log-probability <= 0")


def compose(grammar: Grammar, hmms: Mapping[int, UnitHmm]) -> DecodingGraph:
    """Compile a grammar against trained unit models.

    Each distinct (activity, sentence prefix) becomes one unit-instance
    node, entered from the prefix one unit shorter (or from the start), so
    sentences sharing a prefix share nodes.  Nodes are numbered in sorted
    (activity, prefix) order.  Unit-to-unit edges are uniform (log weight
    0); priors, when wanted, are applied by the decoder.
    """
    sentences = {(act, sent) for act in grammar.activities for sent in grammar.sentences[act]}
    missing = {u for _, sent in sentences for u in sent if u not in hmms}
    if missing:
        names = ", ".join(sorted(grammar.lexicon.name_of(u) for u in missing))
        raise DataError(f"grammar units without a trained model: {names}")
    if not grammar.activities:
        raise DataError("cannot compose an empty grammar")

    # Walking the sentences in sorted order lists the prefixes in sorted
    # order: each sentence adds those past its common prefix with the last.
    start: list[tuple[int, float]] = []
    rec: list[tuple[int, str, list[tuple[int, float]]]] = []
    terminal: set[int] = set()
    path: list[int] = []  # the node of each prefix of the last sentence
    last_act, last = None, ()
    for act, sent in sorted(sentences):
        shared = 0
        if act == last_act:
            shared = next((k for k, (a, b) in enumerate(zip(sent, last)) if a != b), len(last))
        del path[shared:]
        for u in sent[shared:]:
            (rec[path[-1]][2] if path else start).append((len(rec), 0.0))
            path.append(len(rec))
            rec.append((u, act, []))
        terminal.add(path[-1])
        last_act, last = act, sent
    nodes = tuple(
        GraphNode(index=i, unit_id=u, activity=a, terminal=i in terminal, edges=tuple(e))
        for i, (u, a, e) in enumerate(rec)
    )
    return DecodingGraph(
        nodes=nodes,
        start_edges=tuple(start),
        hmms=dict(hmms),
        kind="grammar",
    )


def unconstrained_graph(hmms: Mapping[int, UnitHmm]) -> DecodingGraph:
    """Fully connected unit-level graph: any unit may start, end, follow
    any unit (including itself), all with uniform weight."""
    if not hmms:
        raise DataError("cannot build a graph over zero units")
    uids = sorted(hmms)
    all_edges = tuple((i, 0.0) for i in range(len(uids)))
    nodes = tuple(
        GraphNode(index=i, unit_id=u, activity=None, terminal=True, edges=all_edges)
        for i, u in enumerate(uids)
    )
    return DecodingGraph(
        nodes=nodes,
        start_edges=all_edges,
        hmms=dict(hmms),
        kind="unconstrained",
    )


def graph_sentences(graph: DecodingGraph) -> list[tuple[str | None, tuple[int, ...]]]:
    """Every complete unit-level path of a grammar graph, as (activity,
    unit ids).  Only defined for acyclic (grammar) graphs."""
    if graph.kind != "grammar":
        raise ValueError("path enumeration needs an acyclic grammar graph")
    out: list[tuple[str | None, tuple[int, ...]]] = []

    def walk(i: int, prefix: tuple[int, ...]) -> None:
        node = graph.nodes[i]
        prefix = prefix + (node.unit_id,)
        if node.terminal:
            out.append((node.activity, prefix))
        for j, _ in node.edges:
            walk(j, prefix)

    for i, _ in graph.start_edges:
        walk(i, ())
    return out

