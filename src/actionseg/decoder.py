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
from .grammar import DecodingGraph
from .hmm import UnitHmm, _apply_beam, _frames, _Segments, _viterbi


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


def _chain(hmms: Mapping[int, UnitHmm], units: Sequence[int]) -> tuple:
    """The states of these units' models end to end: where each unit's
    states start, their self-loop and advance log-probabilities, and a
    GmmBank holding each distinct unit's states once, with the bank column
    of every chain state."""
    sizes = [hmms[u].n for u in units]
    offsets = np.cumsum(sizes) - sizes
    ls, ln = np.empty(sum(sizes)), np.empty(sum(sizes))
    for u, o, n in zip(units, offsets, sizes):
        ls[o : o + n], ln[o : o + n] = hmms[u].log_self, hmms[u].log_next
    distinct = sorted(set(units))
    col0 = dict(zip(distinct, np.cumsum([0] + [hmms[u].n for u in distinct]).tolist()))
    bank = GmmBank([g for u in distinct for g in hmms[u].obs])
    return offsets, ls, ln, bank, np.concatenate([col0[u] + np.arange(hmms[u].n) for u in units])


class _Layout:
    """Flattened state indexing, unit-entry edges and observation model of
    one graph: node i's states occupy offsets[i] .. offsets[i] + n_i - 1.

    It keeps no reference to the graph, so the per-graph cache below
    never keeps a graph alive.
    """

    def __init__(self, graph: DecodingGraph):
        units = [node.unit_id for node in graph.nodes]
        self.offsets, self.log_self, log_next, self.bank, self.state_col = _chain(graph.hmms, units)
        self.total = self.log_self.size
        self.exit_state = np.append(self.offsets[1:], self.total) - 1
        self.exit_log = log_next[self.exit_state]
        self.terminal = [i for i, node in enumerate(graph.nodes) if node.terminal]
        # log_adv[s] scores the step from state s into state s + 1; it is
        # -inf where s + 1 is a unit's first state, which only an entry
        # reaches.
        first = np.zeros(self.total, dtype=bool)
        first[self.offsets] = True
        self.log_adv = np.where(first[1:], -np.inf, log_next[:-1])

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


def _no_path(beam: int | None, T: int, t: int) -> DecodeError:
    """The failure of a T-frame search that lost its last token at frame t."""
    if beam is not None:
        return BeamPrunedError(
            f"no surviving token at frame {t}; the beam ({beam}) may be "
            "too tight, retry with a wider one"
        )
    return NoPathError(f"no legal path covers all {T} frames")


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
        raise _no_path(beam, T, 0)

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
            raise _no_path(beam, T, t)

    best_i = -1
    best_score = -np.inf
    for i in lay.terminal:
        s = score[lay.exit_state[i]] + lay.exit_log[i]
        if s > best_score:
            best_score = s
            best_i = i
    if best_i < 0 or best_score == -np.inf:
        raise _no_path(beam, T, T - 1)

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


# force_align runs the sequences of a transcript, longest first, in padded
# batches of at most this many (frame, row, state) cells.
_ALIGN_CELLS = 1 << 16


def force_align(
    hmms: Mapping[int, UnitHmm],
    transcripts: Sequence,
    seqs: Sequence,
    beam: int | None = None,
) -> list[Segmentation]:
    """Optimal boundaries for each sequence's fixed unit order.

    Each result equals decoding a single-sentence graph of exactly its
    transcript (no silence bracketing is required here).  On that chain a
    unit entry is a 0-weight advance out of the previous unit, so the
    sequences of each transcript run together through the Viterbi kernel
    of unit training.  The first sequence, in input order, that cannot be
    aligned raises what aligning it alone would raise.
    """
    checked: list[tuple[tuple, np.ndarray]] = []
    invalid = None
    try:
        for transcript, seq in zip(transcripts, seqs, strict=True):
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
            if beam is not None and beam < 1:
                raise ValueError("beam must keep at least one state")
            checked.append((units, _frames(frames, hmms[min(units)].dim)))
    except (DataError, DecodeError, ValueError) as exc:  # an earlier failing row wins
        invalid = exc

    groups: dict[tuple, list[int]] = {}
    for i, (units, _) in enumerate(checked):
        groups.setdefault(units, []).append(i)
    out: list = [None] * len(checked)
    for units, rows in groups.items():
        offsets, ls, ln, bank, cols = _chain(hmms, units)
        rows.sort(key=lambda i: -len(checked[i][1]))
        while rows:
            # longest first, so each block's first row sets its padded length
            size = max(1, _ALIGN_CELLS // (ls.size * len(checked[rows[0]][1])))
            block, rows = rows[:size], rows[size:]
            segs = _Segments([checked[i][1] for i in block])
            obs = segs.pad(bank.log_prob(segs.frames)[:, cols])
            states, totals, dead = _viterbi(obs, ls, ln, segs.lengths, beam)
            for b, i in enumerate(block):
                # A row that loses every finite score never regains one, and
                # a NaN observation (from a non-finite frame or parameter)
                # leaves a chain no finite path: the total tells each failure.
                T = int(segs.lengths[b])
                if not totals[b] > -np.inf:
                    out[i] = _no_path(beam, T, T - 1 if dead is None else min(int(dead[b]), T - 1))
                    continue
                starts = np.searchsorted(states[:T, b], offsets)
                ends = np.append(starts[1:], T) - 1
                out[i] = Segmentation(tuple(zip(units, starts.tolist(), ends.tolist())))
    for result in [*out, invalid]:
        if isinstance(result, Exception):
            raise result
    return out


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
