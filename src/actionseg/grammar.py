"""Activity grammars and their compilation into decoding graphs.

A grammar is the exact finite union of the training transcripts of each
activity, stored as a deterministic trie of unit ids.  No generalization
or smoothing is applied: the language is precisely the set of distinct
observed transcripts.  Every sentence starts and ends with the silence
unit.

Grammars render to a small EBNF subset (terminals separated by commas,
alternatives by ``|``, productions closed by ``;``) and parse back from
it.  Composition with a set of unit HMMs yields a decoding graph whose
complete paths spell exactly the grammar sentences; an unconstrained
variant allows any unit to follow any unit.
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


class _TrieNode:
    """One trie position; children keyed by unit id, unique by construction."""

    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children: dict[int, _TrieNode] = {}
        self.terminal = False


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
        roots: dict[str, _TrieNode] = {}
        for act, sents in canon.items():
            root = _TrieNode()
            for sent in sents:
                node = root
                for u in sent:
                    node = node.children.setdefault(u, _TrieNode())
                node.terminal = True
            roots[act] = root
        self._roots = roots

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(sorted(self.sentences))

    def root(self, activity: str) -> _TrieNode:
        if activity not in self._roots:
            raise DataError(f"unknown activity {activity!r}")
        return self._roots[activity]

    def num_sentences(self) -> int:
        return sum(len(s) for s in self.sentences.values())

    def language_by_names(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        """The same languages with unit ids replaced by names (for
        comparisons across differently ordered lexicons)."""
        return {
            act: tuple(tuple(self.lexicon.name_of(u) for u in s) for s in sents)
            for act, sents in self.sentences.items()
        }


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

    edges are (successor index, log weight) pairs; terminal nodes may end
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
    node.  Immutable after construction; safe to share across threads."""

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
            for j, _ in node.edges:
                if not 0 <= j < count:
                    raise DataError(f"edge from node {node.index} to missing node {j}")
        for j, _ in self.start_edges:
            if not 0 <= j < count:
                raise DataError(f"start edge to missing node {j}")


def compose(grammar: Grammar, hmms: Mapping[int, UnitHmm]) -> DecodingGraph:
    """Compile a grammar against trained unit models.

    Each trie position becomes one unit-instance node, so sentences
    sharing a prefix share nodes.  Unit-to-unit edges are uniform (log
    weight 0); priors, when wanted, are applied by the decoder.
    """
    missing = set()
    for act in grammar.activities:
        for sent in grammar.sentences[act]:
            missing.update(u for u in sent if u not in hmms)
    if missing:
        names = ", ".join(sorted(grammar.lexicon.name_of(u) for u in missing))
        raise DataError(f"grammar units without a trained model: {names}")
    if not grammar.activities:
        raise DataError("cannot compose an empty grammar")

    rec: list[tuple[int, str, bool, list[tuple[int, float]]]] = []

    def walk(unit_id: int, tnode: _TrieNode, activity: str) -> int:
        i = len(rec)
        edges: list[tuple[int, float]] = []
        rec.append((unit_id, activity, tnode.terminal, edges))
        for u in sorted(tnode.children):
            edges.append((walk(u, tnode.children[u], activity), 0.0))
        return i

    start: list[tuple[int, float]] = []
    for act in grammar.activities:
        root = grammar.root(act)
        for u in sorted(root.children):
            start.append((walk(u, root.children[u], act), 0.0))

    nodes = tuple(
        GraphNode(index=i, unit_id=u, activity=a, terminal=t, edges=tuple(e))
        for i, (u, a, t, e) in enumerate(rec)
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

