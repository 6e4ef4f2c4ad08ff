"""Token-passing decoding over a compiled graph.

One best token is kept per (unit instance, HMM state) per frame; tokens
are stored as parallel arrays of partial scores and link indices.  Each
frame first moves every token within its unit (stay or advance), then
runs one vectorized unit-entry step: the incoming unit edges of all
nodes form one CSR edge list (sources, weights, and the start of each
target's run), every edge's candidate is the source's exit score plus the
edge weight plus the target's prior, and np.maximum.reduceat picks each
target's best.  When a token crosses a unit boundary its record (previous
link, finished node, end frame) goes into the boundary arena, which holds
one array of previous links and one of finished nodes per frame, in
ascending target order; tracing the winning token's chain back yields the
unit boundaries at O(1) per boundary.  Observation log-likelihoods come
from one batched evaluation of every distinct unit state per sequence,
gathered into graph-state order.  The layout behind all this is built on
a graph's first decode and cached for as long as the graph lives.

Decoding is exact by default: with the beam disabled the result is the
maximum-probability pair of unit path and state path.  The optional beam
keeps the best scoring states per frame (ties at the cutoff survive),
trading exactness for speed.

Tie-breaking is deterministic everywhere.  A boundary-crossing entry
beats a same-scored self-loop, earlier graph nodes beat later ones (the
first edge reaching a target's best score wins, and edges are sorted by
source), and within a unit an advance beats a same-scored stay; together
with the sorted graph build this makes results independent of model
insertion order.
"""
from __future__ import annotations

import bisect
import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import (
    Segmentation,
    Transcript,
    UnitLexicon,
    segmentation_to_transcript,
)
from .errors import BeamPrunedError, DataError, DecodeError, NoPathError
from .gmm import GmmBank
from .grammar import DecodingGraph, GraphNode
from .hmm import UnitHmm, _frames


@dataclass(eq=False)
class DecodeResult:
    """Best activity, unit boundaries, and transcript for one sequence."""

    activity: str | None
    segmentation: Segmentation
    transcript: Transcript
    log_prob: float

    def to_dict(self, lexicon: UnitLexicon | None = None) -> dict:
        def name(u: int):
            return lexicon.name_of(u) if lexicon is not None else u

        return {
            "activity": self.activity,
            "log_prob": float(self.log_prob),
            "segments": [[s, e, name(u)] for u, s, e in self.segmentation.segments],
            "transcript": [name(u) for u in self.transcript.units],
        }


class _Layout:
    """Flattened state indexing, unit-entry edges and observation model of
    one graph: node i's states occupy offsets[i] .. offsets[i] + n_i - 1.

    It keeps no reference to the graph, so the per-graph cache below
    never keeps a graph alive.
    """

    def __init__(self, graph: DecodingGraph):
        self.offsets = np.empty(len(graph.nodes), dtype=np.int64)
        total = 0
        for i, node in enumerate(graph.nodes):
            self.offsets[i] = total
            total += graph.hmms[node.unit_id].n
        self.total = total
        self.log_self = np.empty(total)
        log_next = np.empty(total)
        first = np.zeros(total, dtype=bool)
        self.exit_state = np.empty(len(graph.nodes), dtype=np.int64)
        self.exit_log = np.empty(len(graph.nodes))
        self.terminal = [i for i, node in enumerate(graph.nodes) if node.terminal]
        for i, node in enumerate(graph.nodes):
            hmm = graph.hmms[node.unit_id]
            o = self.offsets[i]
            self.log_self[o : o + hmm.n] = hmm.log_self
            log_next[o : o + hmm.n] = hmm.log_next
            first[o] = True
            self.exit_state[i] = o + hmm.n - 1
            self.exit_log[i] = hmm.log_next[-1]
        # log_adv[s] scores the step from state s into state s + 1; it is
        # -inf where s + 1 is a unit's first state, which only an entry
        # reaches.
        self.log_adv = np.where(first[1:], -np.inf, log_next[:-1])

        # One column per distinct unit state; every graph state reads the
        # column of its unit's state, however many nodes share the unit.
        units = sorted({node.unit_id for node in graph.nodes})
        col0 = {}
        gmms = []
        for u in units:
            col0[u] = len(gmms)
            gmms.extend(graph.hmms[u].obs)
        self.bank = GmmBank(gmms)
        self.state_col = np.concatenate(
            [col0[node.unit_id] + np.arange(graph.hmms[node.unit_id].n) for node in graph.nodes]
        )

        # Incoming unit-level edges as one CSR list: the edges into
        # entry_nodes[k] are e_src/e_w[e_start[k]:e_start[k + 1]], sorted
        # by source for the deterministic first-wins maximum, and e_seg
        # maps each edge back to k.
        incoming: list[list[tuple[int, float]]] = [[] for _ in graph.nodes]
        for node in graph.nodes:
            for j, w in node.edges:
                incoming[j].append((node.index, w))
        entry_nodes, e_start, e_seg, e_src, e_w = [], [], [], [], []
        for j, lst in enumerate(incoming):
            if not lst:
                continue
            lst.sort()
            e_start.append(len(e_src))
            e_seg.extend([len(entry_nodes)] * len(lst))
            entry_nodes.append(j)
            e_src.extend(i for i, _ in lst)
            e_w.extend(w for _, w in lst)
        self.entry_nodes = np.array(entry_nodes, dtype=np.int64)
        self.entry_first = self.offsets[self.entry_nodes]
        self.e_start = np.array(e_start, dtype=np.int64)
        self.e_seg = np.array(e_seg, dtype=np.int64)
        self.e_src = np.array(e_src, dtype=np.int64)
        self.e_w = np.array(e_w, dtype=np.float64)
        self.e_index = np.arange(len(e_src))
        # Each edge's source exit: the exit state and its exit log-probability.
        self.e_exit = self.exit_state[self.e_src]
        self.e_exit_log = self.exit_log[self.e_src]

    def obs_table(self, frames: np.ndarray) -> np.ndarray:
        """(T, total) observation log-likelihoods: one evaluation of every
        distinct unit state, gathered into graph-state order."""
        return self.bank.log_prob(frames)[:, self.state_col]


# Layouts by graph.  Graphs are immutable, so a layout is built once, on
# the graph's first decode; the entry goes away with the graph.
_LAYOUTS: "weakref.WeakKeyDictionary[DecodingGraph, _Layout]" = weakref.WeakKeyDictionary()
_LAYOUTS_LOCK = threading.Lock()


def _layout(graph: DecodingGraph) -> _Layout:
    with _LAYOUTS_LOCK:
        lay = _LAYOUTS.get(graph)
        if lay is None:
            lay = _LAYOUTS[graph] = _Layout(graph)
        return lay


def _apply_beam(scores: np.ndarray, beam: int) -> None:
    """Keep the beam best finite scores (ties at the cutoff survive);
    everything else drops to -inf.  In place."""
    finite = scores > -np.inf
    count = int(finite.sum())
    if count <= beam:
        return
    cutoff = np.partition(scores[finite], -beam)[-beam]
    scores[scores < cutoff] = -np.inf


def decode(
    graph: DecodingGraph,
    seq,
    beam: int | None = None,
    priors: Mapping[int, float] | None = None,
) -> DecodeResult:
    """Best (unit path, state path) pair for one sequence.

    priors, when given, add a per-unit log weight at every unit entry
    (including the first).  Raises when no complete path exists; with an
    active beam the failure suggests widening it, since the exact path
    may have been pruned.
    """
    if beam is not None and beam < 1:
        raise ValueError("beam must keep at least one state")
    lay = _layout(graph)
    frames = _frames(seq, lay.bank.dim)
    T = frames.shape[0]
    obs = lay.obs_table(frames)
    # boundary arena: link id arena_base[k] + r is the r-th entry made
    # after frame arena_end[k]; it finished node arena_node[k][r] and
    # continues the chain at link arena_prev[k][r]
    arena_prev: list[np.ndarray] = []
    arena_node: list[np.ndarray] = []
    arena_end: list[int] = []
    arena_base: list[int] = []
    n_links = 0

    def fail(t: int):
        if beam is not None:
            raise BeamPrunedError(
                f"no surviving token at frame {t}; the beam ({beam}) may be "
                "too tight, retry with a wider one"
            )
        raise NoPathError(f"no legal path covers all {T} frames")

    prior = np.array(
        [0.0 if priors is None else float(priors.get(node.unit_id, 0.0)) for node in graph.nodes]
    )
    e_prior = prior[lay.entry_nodes][lay.e_seg]

    score = np.full(lay.total, -np.inf)
    link = np.full(lay.total, -1, dtype=np.int64)
    for j, w in graph.start_edges:
        cand = w + prior[j]
        if cand > score[lay.offsets[j]]:
            score[lay.offsets[j]] = cand
    score += obs[0]
    if beam is not None:
        _apply_beam(score, beam)
    if not score.max() > -np.inf:
        fail(0)

    n_edges = lay.e_src.size
    # adv[0] stays -inf: state 0 is a unit's first state.  A dead token
    # there may take the advance and read shifted[0]; its link is never
    # followed, so shifted[0] is never filled in.
    adv = np.full(lay.total, -np.inf)
    shifted = np.full(lay.total, -1, dtype=np.int64)
    for t in range(1, T):
        stay = score + lay.log_self
        np.add(score[:-1], lay.log_adv, out=adv[1:])
        take_adv = adv >= stay
        trans = np.where(take_adv, adv, stay)
        shifted[1:] = link[:-1]
        new_link = np.where(take_adv, shifted, link)

        if n_edges:
            cand = (score[lay.e_exit] + lay.e_exit_log + lay.e_w) + e_prior
            best = np.maximum.reduceat(cand, lay.e_start)
            take = (best > -np.inf) & (best >= trans[lay.entry_first])
            if take.any():
                hit = np.where(cand == best[lay.e_seg], lay.e_index, n_edges)
                src = lay.e_src[np.minimum.reduceat(hit, lay.e_start)[take]]
                o = lay.entry_first[take]
                trans[o] = best[take]
                arena_prev.append(link[lay.exit_state[src]])
                arena_node.append(src)
                arena_end.append(t - 1)
                arena_base.append(n_links)
                new_link[o] = np.arange(n_links, n_links + src.size)
                n_links += src.size

        score = trans + obs[t]
        link = new_link
        if beam is not None:
            _apply_beam(score, beam)
        if not score.max() > -np.inf:
            fail(t)

    best_i = -1
    best_score = -np.inf
    for i in lay.terminal:
        s = score[lay.exit_state[i]] + lay.exit_log[i]
        if s > best_score:
            best_score = s
            best_i = i
    if best_i < 0 or best_score == -np.inf:
        fail(T - 1)

    chain = [(best_i, T - 1)]
    cur = int(link[lay.exit_state[best_i]])
    while cur != -1:
        k = bisect.bisect_right(arena_base, cur) - 1
        r = cur - arena_base[k]
        chain.append((int(arena_node[k][r]), arena_end[k]))
        cur = int(arena_prev[k][r])
    chain.reverse()

    segs = []
    start = 0
    for node_idx, end in chain:
        segs.append((graph.nodes[node_idx].unit_id, start, end))
        start = end + 1
    segmentation = Segmentation(tuple(segs))
    return DecodeResult(
        activity=graph.nodes[best_i].activity,
        segmentation=segmentation,
        transcript=segmentation_to_transcript(segmentation),
        log_prob=float(best_score),
    )


def classify_activity(
    graph: DecodingGraph,
    seq,
    beam: int | None = None,
    priors: Mapping[int, float] | None = None,
) -> tuple[str, DecodeResult]:
    """Best activity label for a whole sequence.

    The union graph of all activities (as composed from a grammar) is
    decoded in one pass and the winning path's activity tag decides.
    """
    result = decode(graph, seq, beam=beam, priors=priors)
    if result.activity is None:
        raise DecodeError("graph carries no activity tags; compose it from a grammar")
    return result.activity, result


def force_align(
    hmms: Mapping[int, UnitHmm],
    transcript: Transcript,
    seq,
    beam: int | None = None,
) -> Segmentation:
    """Optimal boundaries for a fixed unit order.

    Equivalent to decoding a single-sentence graph of exactly this
    transcript (no silence bracketing is required here).
    """
    units = transcript.units if isinstance(transcript, Transcript) else tuple(transcript)
    if not units:
        raise DataError("cannot align an empty transcript")
    for u in units:
        if u not in hmms:
            raise DataError(f"no trained model for unit id {u}")
    frames = _frames(seq)
    need = sum(hmms[u].n for u in units)
    if need > frames.shape[0]:
        raise NoPathError(
            f"transcript needs at least {need} frames, sequence has {frames.shape[0]}"
        )
    last = len(units) - 1
    nodes = tuple(
        GraphNode(
            index=i,
            unit_id=u,
            activity=None,
            terminal=(i == last),
            edges=((i + 1, 0.0),) if i < last else (),
        )
        for i, u in enumerate(units)
    )
    graph = DecodingGraph(
        nodes=nodes,
        start_edges=((0, 0.0),),
        hmms=dict(hmms),
        kind="grammar",
    )
    return decode(graph, frames, beam=beam).segmentation


def majority_vote(hypotheses: Sequence[Sequence]) -> list:
    """Per-frame majority label over equal-length hypotheses; ties go to
    the smallest label."""
    if not hypotheses:
        raise DataError("majority vote needs at least one hypothesis")
    T = len(hypotheses[0])
    for i, h in enumerate(hypotheses):
        if len(h) != T:
            raise DataError(
                f"hypothesis {i} has {len(h)} frames, expected {T}"
            )
    out = []
    for t in range(T):
        counts = Counter(h[t] for h in hypotheses)
        top = max(counts.values())
        out.append(min(lbl for lbl, c in counts.items() if c == top))
    return out
