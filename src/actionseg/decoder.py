"""Token-passing decoding over a compiled graph.

One best token is kept per (unit instance, HMM state) per frame, and a
frame's step computes only scores.  Each state stays or takes its best
candidate: inside a unit the state before it, with its advance
log-probability; at a unit's first state the exit of each node with an
edge into it, plus the exit log-probability, the edge weight and the
entered unit's prior.  The step is hmm._max_product, which forced
alignment and unit training run on unit chains.  A composed grammar
enters each node by at most one edge, so the step is one gather of every
state's own score and its predecessor's into one buffer, one addition of
the stay and advance log weights, and one np.maximum of the two halves;
np.maximum.reduceat picks the best for states of several candidates,
which only hand-built and unconstrained graphs have.  Observation
log-likelihoods come from one batched evaluation of every distinct unit
state per sequence, gathered into a (T, states) table in graph-state
order that each frame's scores overwrite, so the table becomes the
score lattice.  No links are carried: hmm._trace_back walks from the
best terminal exit to frame 0 and redoes, for the one winning state per
frame, that state's choice from the lattice row before it, with the same
float operations in the same order, so the unit boundaries come out as
the frame step chose them.  Forced alignment instead reads each unit's
start from hmm._chain_entries, which redoes the choices of a whole
chain batch at once.

np.maximum propagates a NaN candidate where a comparison would keep the
stay, so the step needs every weight to be a log-probability: edge and
start weights (checked by DecodingGraph) and priors (checked here) are
<= 0 and never NaN.  Observation log-densities are bounded above, so no
score then reaches +inf, no sum of a score and weights is +inf - inf, and
a candidate is NaN only if the frame before already holds a NaN.  Such a
frame ends the search (see decode), at the same frame whichever way the
step picks.

Decoding is exact by default: with the beam disabled the result is the
maximum-probability pair of unit path and state path.  A beam restricts
the result to what the pruned search finds, which keeps the beam best
scoring states per frame (ties at the cutoff survive).  decode searches
exactly first and runs the pruned search only when it cannot prove that
the beam keeps the exact path (see _beam_keeps).  So a beam does not
speed decoding up, and a beam too tight for the proof costs both
searches.

Tie-breaking is deterministic everywhere.  A boundary-crossing entry
beats a same-scored self-loop, earlier graph nodes beat later ones (the
first edge reaching a target's best score wins, and edges are sorted by
source), and within a unit an advance beats a same-scored stay; together
with the sorted graph build this makes results independent of model
insertion order.
"""
from __future__ import annotations

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
from .hmm import UnitHmm, _chain_entries, _frames, _max_product, _Segments, _trace_back


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
    """Flattened state indexing, candidate predecessors and observation
    model of one graph: node i's states occupy offsets[i] .. offsets[i] +
    n_i - 1.  Inside a unit, state s has one candidate: state s - 1 with
    its advance log-probability.  A unit's first state has one per
    incoming edge: the exit state of the edge's source, with its exit
    log-probability and the edge weight.  A state with one candidate holds
    it as pred[s], t1[s], t2[s], and one with none holds t1[s] = -inf.  The
    edges into states with several (never those of a composed grammar)
    form one CSR list, sorted by source so that the first edge reaching
    the best wins: m_exit, m_exit_log, m_w and m_target from m_start[k] on,
    for state m_first[k].  It keeps no reference to the graph, so the
    per-graph cache below never keeps a graph alive.
    """

    def __init__(self, graph: DecodingGraph):
        units = [node.unit_id for node in graph.nodes]
        self.offsets, self.log_self, log_next, self.bank, self.state_col = _chain(graph.hmms, units)
        self.total = self.log_self.size
        self.exit_state = np.append(self.offsets[1:], self.total) - 1
        self.exit_log = log_next[self.exit_state]
        self.terminal = [i for i, node in enumerate(graph.nodes) if node.terminal]
        self.first = np.isin(np.arange(self.total), self.offsets)
        edges = sorted((j, node.index, w) for node in graph.nodes for j, w in node.edges)
        tgt, src = (np.array([e[k] for e in edges], dtype=np.int64) for k in (0, 1))
        w = np.array([e[2] for e in edges], dtype=np.float64)
        one = np.bincount(tgt, minlength=len(units))[tgt] == 1
        self.pred, self.t2 = np.arange(self.total) - 1, np.zeros(self.total)
        self.t1 = np.append(-np.inf, log_next[:-1])
        self.pred[self.offsets], self.t1[self.offsets] = 0, -np.inf  # no candidate
        s = self.offsets[tgt[one]]
        self.pred[s], self.t1[s], self.t2[s] = self.exit_state[src[one]], self.exit_log[src[one]], w[one]
        self.m_target = self.offsets[tgt[~one]]
        self.m_first, self.m_start = np.unique(self.m_target, return_index=True)
        self.m_exit, self.m_exit_log = self.exit_state[src[~one]], self.exit_log[src[~one]]
        self.m_w = w[~one]

    def obs_table(self, frames: np.ndarray) -> np.ndarray:
        """(T, total) observation log-likelihoods: one evaluation of every
        distinct unit state, gathered into graph-state order.  take keeps
        the table C-ordered, where [:, state_col] gives a Fortran-ordered
        one, so each frame's row of the lattice is contiguous."""
        return self.bank.log_prob(frames).take(self.state_col, axis=1)


# Layouts by graph.  Graphs are immutable, so a layout is built once, on
# the graph's first decode; the entry goes away with the graph.  The lock
# serves library callers that decode from threads of their own.
_LAYOUTS: "weakref.WeakKeyDictionary[DecodingGraph, _Layout]" = weakref.WeakKeyDictionary()
_LAYOUTS_LOCK = threading.Lock()


def _layout(graph: DecodingGraph) -> _Layout:
    with _LAYOUTS_LOCK:
        lay = _LAYOUTS.get(graph)
        if lay is None:
            lay = _LAYOUTS[graph] = _Layout(graph)
        return lay


def _first_dead(S: np.ndarray) -> int:
    """The first frame with no score above -inf (NaN counts as none), or T."""
    dead = np.flatnonzero(~(S.max(axis=1) > -np.inf))
    return int(dead[0]) if dead.size else len(S)


def _no_path(beam: int | None, T: int, t: int) -> DecodeError:
    """The failure of a T-frame search that lost its last token at frame t."""
    if beam is not None:
        return BeamPrunedError(
            f"no surviving token at frame {t}; the beam ({beam}) may be "
            "too tight, retry with a wider one"
        )
    return NoPathError(f"no legal path covers all {T} frames")


def _best_path(lay: _Layout, S: np.ndarray, start, step: tuple, beam: int | None) -> tuple:
    """Search the observation table S, which becomes the lattice, and
    return the best terminal node, its score, and the path's states and
    advances (see hmm._trace_back).  Raises what decode raises when no
    complete path survives."""
    T = S.shape[0]
    _max_product(S, start, step, beam, 1)
    dead = _first_dead(S)
    finals = [S.item(T - 1, lay.exit_state[i]) + lay.exit_log[i] for i in lay.terminal]
    if dead < T or not any(f > -np.inf for f in finals):
        raise _no_path(beam, T, min(dead, T - 1))
    best_score = max(finals)  # the first terminal reaching it wins
    best_i = lay.terminal[finals.index(best_score)]
    return best_i, best_score, *_trace_back(S, step, lay.exit_state[best_i])


def _beam_keeps(S: np.ndarray, states: np.ndarray, beam: int) -> bool:
    """Whether a search pruned to the beam best states per frame finds the
    path through the exact lattice S, with the same scores and choices:
    at every frame fewer than beam states score above the path's own.

    The pruned lattice is <= the exact one in every cell, since + and max
    round monotonically and pruning only lowers scores to -inf.  So each
    frame's pruning cutoff, its beam-th best score, is <= the exact
    lattice's, and a path that clears the exact cutoff at every frame is
    never pruned and keeps its exact scores.  Every tie-break along it
    then goes the same way: the stay or advance choice, the first of
    several candidates, the first terminal, since the competitors can
    only lose score.  The certified exact result is therefore the pruned
    search's, to the bit.  An exact lattice holding NaN has no path (see
    _first_dead), so the comparisons here never see one."""
    own = S[np.arange(S.shape[0]), states][:, None]
    return bool((np.count_nonzero(S > own, axis=1) < beam).all())


# A score plus weights near -1e308 overflows to -inf, the right limit.
@np.errstate(over="ignore")
def decode(
    graph: DecodingGraph,
    seq,
    beam: int | None = None,
    priors: Mapping[int, float] | None = None,
) -> DecodeResult:
    """Best (unit path, state path) pair for one sequence.

    priors, when given, add a per-unit log weight at every unit entry
    (including the first); a NaN or positive prior of a unit in the graph
    raises DataError, since the frame step takes log-probabilities (see
    the module docstring).  Raises DecodeError when no complete path
    exists; with an active beam the failure suggests widening it, since
    the exact path may have been pruned.  A beam decode returns the
    exact search's result when _beam_keeps proves the pruned search finds
    the same, and otherwise runs the pruned search on a fresh table.
    """
    if beam is not None and beam < 1:
        raise ValueError("beam must keep at least one state")
    lay = _layout(graph)
    frames = _frames(seq, lay.bank.dim)
    T = frames.shape[0]
    prior = [0.0 if priors is None else float(priors.get(n.unit_id, 0.0)) for n in graph.nodes]
    # t3: each node's prior, added at its first state to every candidate
    t3 = np.zeros(lay.total)
    t3[lay.offsets] = prior
    if not (t3 <= 0).all():
        u, v = next((n.unit_id, v) for n, v in zip(graph.nodes, prior) if not v <= 0)
        raise DataError(f"the prior of unit {u} is {v!r}, not a log-probability <= 0")

    start = np.full(lay.total, -np.inf)
    for j, w in graph.start_edges:
        cand = w + prior[j]
        if cand > start[lay.offsets[j]]:
            start[lay.offsets[j]] = cand
    multi = (lay.m_first, lay.m_start, lay.m_exit, (lay.m_exit_log, lay.m_w, t3.take(lay.m_target)))
    # Adding 0.0 changes no score, since no score is -0.0 (no observation
    # log-likelihood is).  So t2 and t3, 0.0 within units, are skipped when
    # all zero: t2 for composed grammars, t3 without priors.
    step = (lay.log_self, lay.pred, (lay.t1, *(t for t in (lay.t2, t3) if t.any())), multi)
    S = lay.obs_table(frames)  # the search makes it the lattice
    try:
        path = _best_path(lay, S, start, step, None)
    except NoPathError:
        if beam is None:
            raise
        path = None
    if beam is not None and (path is None or not _beam_keeps(S, path[2], beam)):
        del S  # the pruned search gets a fresh table
        path = _best_path(lay, lay.obs_table(frames), start, step, beam)
    best_i, best_score, states, moved = path

    # A unit starts wherever the path advances into a node's first state,
    # which only an edge enters.
    starts = [0, *np.flatnonzero(moved & lay.first[states]).tolist()]
    ends = [t - 1 for t in starts[1:]] + [T - 1]
    nodes = np.searchsorted(lay.offsets, states[starts], side="right") - 1
    segmentation = Segmentation(
        tuple((graph.nodes[i].unit_id, s, e) for i, s, e in zip(nodes.tolist(), starts, ends))
    )
    return DecodeResult(
        activity=graph.nodes[best_i].activity,
        segmentation=segmentation,
        transcript=segmentation_to_transcript(segmentation),
        log_prob=float(best_score),
    )


# force_align runs the sequences of a transcript, longest first, in padded
# batches of at most this many (frame, row, state) cells.  The kernel turns
# a batch's observation table into its lattice in place (8 bytes a cell),
# and the entry-frame search adds 21 bytes per frame of each row, whatever
# the states.
# The rows the table is gathered from set the peak: 26 bytes a cell for a
# 20-state chain under tracemalloc (1.6 MB a batch), 74 for a 1-state one.
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
    sequences of each transcript run together, as side-by-side chains,
    through decode's max-product kernel, and each unit starts at the
    entry frame of its first state.  The first
    sequence, in input order, that cannot be aligned raises what aligning
    it alone would raise.
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
            obs = segs.pad(bank.log_prob(segs.frames)[:, cols])  # C order: becomes the lattice
            entry, totals = _chain_entries(obs, ls, ln, segs.lengths, beam)
            for b, i in enumerate(block):
                # A row that loses every finite score never regains one, and
                # a NaN observation (from a non-finite frame or parameter)
                # leaves a chain no finite path: the total tells each failure.
                T = int(segs.lengths[b])
                if not totals[b] > -np.inf:
                    out[i] = _no_path(beam, T, min(_first_dead(obs[:T, b]), T - 1))
                    continue
                starts = entry[b, offsets]
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
