"""Token-passing decoding over a compiled graph.

One best token is kept per (unit instance, HMM state) per frame, and a
frame's step computes only scores.  Each state stays or takes its best
candidate: inside a unit the state before it, with its advance
log-probability; at a unit's first state the exit of each node with an
edge into it, plus the exit log-probability, the edge weight and the
entered unit's prior.  A composed grammar enters each node by at most one
edge, so each state has at most one candidate and the step is one gather
of predecessor scores plus per-state log weights, and one np.maximum with
the stay; np.maximum.reduceat picks the best for states of several
candidates, which only hand-built and unconstrained graphs have.
Observation log-likelihoods come from one batched evaluation of every
distinct unit state per sequence, gathered into a (T, states) table in
graph-state order; each row, once its frame is scored, is overwritten
with the frame's scores, so the table becomes the score lattice.  No links are
carried: the trace-back walks from the best terminal exit to frame 0 and
redoes, for the one winning state per frame, that state's choice from the
lattice row before it, with the same float operations in the same order,
so the unit boundaries come out as the frame step chose them.  The layout
behind all this is built on a graph's first decode and cached for as
long as the graph lives.

np.maximum propagates a NaN candidate where a comparison would keep the
stay, so the step needs every weight to be a log-probability: edge and
start weights (checked by DecodingGraph) and priors (checked here) are
<= 0 and never NaN.  Observation log-densities are bounded above, so no
score then reaches +inf, no sum of a score and weights is +inf - inf, and
a candidate is NaN only if the frame before already holds a NaN.  Such a
frame ends the search (see decode), at the same frame whichever way the
step picks.

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
    """Flattened state indexing, candidate predecessors and observation
    model of one graph: node i's states occupy offsets[i] .. offsets[i] +
    n_i - 1.

    tb_cands[s] lists the candidates of state s in tie-breaking order, as
    (source node, or None within a unit; predecessor state; t1; t2): state
    s - 1 with its advance log-probability inside a unit, and at a unit's
    first state the exit state of each incoming edge's source, by source,
    with its exit log-probability and the edge weight.  A state with one
    candidate holds it as pred[s], t1[s], t2[s], and one with none holds
    t1[s] = -inf.  The edges into states with several (never those of a
    composed grammar) form one CSR list: m_exit, m_exit_log, m_w and
    m_target from m_start[k] on, for state m_first[k].

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
        self.tb_self = self.log_self.tolist()
        advance = [[(None, s, x, 0.0)] for s, x in enumerate(log_next[:-1].tolist())]
        self.tb_cands = [[], *advance]
        for o in self.offsets.tolist():
            self.tb_cands[o] = []
        exit_state, exit_log = self.exit_state.tolist(), self.exit_log.tolist()
        # sorted by (target, source): the first edge reaching the best wins
        for j, i, w in sorted((j, node.index, w) for node in graph.nodes for j, w in node.edges):
            self.tb_cands[self.offsets[j]].append((i, exit_state[i], exit_log[i], w))
        none = (None, 0, -np.inf, 0.0)  # t1 = -inf: no candidate
        _, pred, t1, t2 = zip(*(c[0] if len(c) == 1 else none for c in self.tb_cands))
        self.pred = np.array(pred, dtype=np.int64)
        self.t1, self.t2 = np.array(t1, dtype=np.float64), np.array(t2, dtype=np.float64)
        many = [(s, e) for s, c in enumerate(self.tb_cands) if len(c) > 1 for e in c]
        self.m_target = np.array([s for s, _ in many], dtype=np.int64)
        self.m_first, self.m_start = np.unique(self.m_target, return_index=True)
        self.m_exit = np.array([e[1] for _, e in many], dtype=np.int64)
        self.m_exit_log = np.array([e[2] for _, e in many], dtype=np.float64)
        self.m_w = np.array([e[3] for _, e in many], dtype=np.float64)

    def obs_table(self, frames: np.ndarray) -> np.ndarray:
        """(T, total) observation log-likelihoods: one evaluation of every
        distinct unit state, gathered into graph-state order."""
        return self.bank.log_prob(frames)[:, self.state_col]


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


def _no_path(beam: int | None, T: int, t: int) -> DecodeError:
    """The failure of a T-frame search that lost its last token at frame t."""
    if beam is not None:
        return BeamPrunedError(
            f"no surviving token at frame {t}; the beam ({beam}) may be "
            "too tight, retry with a wider one"
        )
    return NoPathError(f"no legal path covers all {T} frames")


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
    the exact path may have been pruned.
    """
    if beam is not None and beam < 1:
        raise ValueError("beam must keep at least one state")
    lay = _layout(graph)
    frames = _frames(seq, lay.bank.dim)
    T = frames.shape[0]
    # Row t of the observation table is read only while frame t is scored,
    # so each row is overwritten with that frame's scores: S is the lattice.
    S = lay.obs_table(frames)
    prior = [0.0 if priors is None else float(priors.get(n.unit_id, 0.0)) for n in graph.nodes]
    # t3: each node's prior, added at its first state to every candidate
    t3 = np.zeros(lay.total)
    t3[lay.offsets] = prior
    if not (t3 <= 0).all():
        u, v = next((n.unit_id, v) for n, v in zip(graph.nodes, prior) if not v <= 0)
        raise DataError(f"the prior of unit {u} is {v!r}, not a log-probability <= 0")
    m_prior = t3.take(lay.m_target)

    start = np.full(lay.total, -np.inf)
    for j, w in graph.start_edges:
        cand = w + prior[j]
        if cand > start[lay.offsets[j]]:
            start[lay.offsets[j]] = cand
    S[0] += start
    if beam is not None:
        _apply_beam(S[0], beam)

    # Adding 0.0 changes no score, since no score is -0.0 (no observation
    # log-likelihood is).  So t2 and t3, 0.0 within units, are skipped when
    # all zero: t2 for composed grammars, t3 without priors.
    extra = [t for t in (lay.t2, t3) if t.any()]
    stay, adv = np.empty(lay.total), np.empty(lay.total)
    for score, row in zip(S, S[1:]):
        np.add(score, lay.log_self, out=stay)
        score.take(lay.pred, out=adv, mode="clip")  # valid indices; "raise" buffers out
        adv += lay.t1
        for t in extra:
            adv += t
        if lay.m_start.size:
            cand = ((score.take(lay.m_exit) + lay.m_exit_log) + lay.m_w) + m_prior
            adv[lay.m_first] = np.maximum.reduceat(cand, lay.m_start)
        np.maximum(adv, stay, out=adv)
        row += adv
        if beam is not None:
            _apply_beam(row, beam)
    # a frame without a score above -inf (a NaN counts as none) ends the
    # search; the frames after it hold no path
    dead = np.flatnonzero(~(S.max(axis=1) > -np.inf))
    if dead.size:
        raise _no_path(beam, T, int(dead[0]))

    best_i = -1
    best_score = -np.inf
    for i in lay.terminal:
        s = S[T - 1, lay.exit_state[i]] + lay.exit_log[i]
        if s > best_score:
            best_score = s
            best_i = i
    if best_i < 0 or best_score == -np.inf:
        raise _no_path(beam, T, T - 1)

    # Trace back: redo each winning state's choice at frame t from row t - 1
    # with the frame loop's float operations in its order, so every tie
    # goes as it did there: the first candidate reaching the best wins, and
    # it beats a same-scored stay.
    segs = []
    node, end, s = best_i, T - 1, int(lay.exit_state[best_i])
    tb_t3 = t3.tolist()
    for t in range(T - 1, 0, -1):
        best, came = -np.inf, None
        for src, p, x, w in lay.tb_cands[s]:
            cand = S.item(t - 1, p) + x + w + tb_t3[s]
            if cand > best:
                best, came = cand, (src, p)
        if came is not None and best >= S.item(t - 1, s) + lay.tb_self[s]:
            src, s = came
            if src is not None:
                segs.append((graph.nodes[node].unit_id, t, end))
                node, end = src, t - 1
    segs.append((graph.nodes[node].unit_id, 0, end))
    segmentation = Segmentation(tuple(reversed(segs)))
    return DecodeResult(
        activity=graph.nodes[best_i].activity,
        segmentation=segmentation,
        transcript=segmentation_to_transcript(segmentation),
        log_prob=float(best_score),
    )


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
