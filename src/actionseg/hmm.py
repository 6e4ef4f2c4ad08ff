"""Left-to-right HMMs over feature sequences, one model per action unit.

Each model has n emitting states with diagonal-covariance GMM observation
densities.  The topology is strictly feed-forward: a state may loop on
itself or advance to its immediate successor, every path enters at the
first state and leaves through a virtual exit reachable only from the
last state.  A sequence of T frames therefore admits a legal path only
when T >= n.

The transitions are two (n,) log-probability vectors, stay (log_self)
and advance (log_next); the last state's advance is the exit.  State
indices are 0-based in code.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import FeatureSequence, UnitLexicon
from .errors import DataError, NoPathError
from .gmm import Gmm, GmmBank, _distinct_rows, _logsumexp, fit_em, gmm_from_resp, variance_floor
from .util import derive_seed, json_numbers, read_json, write_json

SELF_LOOP_INIT = 0.9
ADVANCE_INIT = 0.1
TRANS_FLOOR = 1e-6
STATES_PER_UNIT_DIVISOR = 10.0

HMMSET_FORMAT = "hmm-set"
HMMSET_VERSION = 1


def _frames(seq, dim: int | None = None) -> np.ndarray:
    """The (T, m) frame array of a sequence; with dim given, m must equal it."""
    if isinstance(seq, FeatureSequence):
        arr = seq.frames
    else:
        arr = np.asarray(seq, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"expected a (T, m) frame array, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise DataError(f"input dim {arr.shape[1]} != model dim {dim}")
    return arr


@dataclass(eq=False)
class UnitHmm:
    """A single action unit's left-to-right model.

    log_self[j] is log a_{j,j} and log_next[j] is log a_{j,j+1}, with
    log_next[n - 1] the exit.  obs holds one GMM per state.
    """

    unit_id: int
    log_self: np.ndarray
    log_next: np.ndarray
    obs: list[Gmm]

    def __post_init__(self):
        if not self.obs:
            raise DataError("unit HMM needs at least one state")
        n = len(self.obs)
        m = self.obs[0].dim
        for j, g in enumerate(self.obs):
            if g.dim != m:
                raise DataError(f"state {j} GMM has dim {g.dim}, expected {m}")
        ls = np.asarray(self.log_self, dtype=np.float64)
        ln = np.asarray(self.log_next, dtype=np.float64)
        if ls.shape != (n,) or ln.shape != (n,):
            raise DataError(
                f"log_self {ls.shape} and log_next {ln.shape} must both have shape ({n},)"
            )
        if not (np.all(ls <= 0) and np.all(ln <= 0)):
            raise DataError("transition log-probabilities must be numbers <= 0")
        off = np.abs(np.exp(ls) + np.exp(ln) - 1.0) > 1e-9
        if off.any():
            raise DataError(f"transition row {int(np.argmax(off))} does not sum to 1")
        self.log_self, self.log_next = ls, ln
        self.obs = list(self.obs)

    @property
    def n(self) -> int:
        return len(self.obs)

    @property
    def dim(self) -> int:
        return self.obs[0].dim

    def obs_log_prob(self, frames: np.ndarray) -> np.ndarray:
        """Per-frame, per-state observation log-likelihoods, shape (T, n)."""
        return GmmBank(self.obs).log_prob(frames)

    def copy(self) -> "UnitHmm":
        return UnitHmm(
            unit_id=self.unit_id,
            log_self=self.log_self.copy(),
            log_next=self.log_next.copy(),
            obs=[
                Gmm(weights=g.weights.copy(), means=g.means.copy(), variances=g.variances.copy())
                for g in self.obs
            ],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitHmm):
            return NotImplemented
        return (
            self.unit_id == other.unit_id
            and np.array_equal(self.log_self, other.log_self)
            and np.array_equal(self.log_next, other.log_next)
            and self.obs == other.obs
        )

    def to_dict(self) -> dict:
        def enc(v: float):
            return None if v == -np.inf else float(v)

        return {
            "unit_id": int(self.unit_id),
            "log_self": [enc(v) for v in self.log_self],
            "log_next": [enc(v) for v in self.log_next],
            "states": [g.to_dict() for g in self.obs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "UnitHmm":
        def dec(what: str, vs) -> list[float]:
            return [-np.inf if v is None else float(json_numbers(what, v)) for v in vs]

        return cls(
            unit_id=_json_int("unit_id", d["unit_id"]),
            log_self=dec("log_self", d["log_self"]),
            log_next=dec("log_next", d["log_next"]),
            obs=[Gmm.from_dict(s) for s in d["states"]],
        )


@dataclass(eq=False)
class StatePath:
    """A per-frame state assignment and its joint log-probability."""

    states: np.ndarray
    log_prob: float

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int64)
        if s.ndim != 1 or s.size < 1:
            raise DataError("state path must be a non-empty 1-D index array")
        if s[0] != 0:
            raise DataError("state path must start in the first state")
        steps = np.diff(s)
        if s.size > 1 and (steps.min() < 0 or steps.max() > 1):
            raise DataError("state path must advance by 0 or 1 per frame")
        self.states = s
        self.log_prob = float(self.log_prob)

    def __len__(self) -> int:
        return self.states.size


# ---------------------------------------------------------------------------
# construction


def init_hmm(
    unit_id: int,
    training_seqs: list[FeatureSequence],
    K: int,
    seed: int = 0,
) -> UnitHmm:
    """Flat-start a unit model from its training sequences.

    The state count is the mean sequence length over 10 (rounded, at least
    1) and is clamped to the shortest sequence so every training sample
    still admits a legal path.  Each state's GMM is fit on the frames of
    its uniform time slice; all rows start at self-loop 0.9 / advance 0.1.
    States whose slice has fewer than K distinct frames get a smaller
    mixture rather than failing.
    """
    arrs = [_frames(s) for s in training_seqs]
    if not arrs:
        raise DataError("cannot initialize a unit HMM without training sequences")
    arrs = [_frames(a, arrs[0].shape[1]) for a in arrs]
    lengths = [a.shape[0] for a in arrs]
    mean_len = float(np.mean(lengths))
    n = max(1, int(math.floor(mean_len / STATES_PER_UNIT_DIVISOR + 0.5)))
    n = min(n, min(lengths))

    floor = variance_floor(np.concatenate(arrs))
    states = []
    for j in range(n):
        chunks = []
        for a in arrs:
            T = a.shape[0]
            slice_of = (np.arange(T) * n) // T
            chunks.append(a[slice_of == j])
        X = np.concatenate(chunks)
        k_eff = _distinct_rows(X, K)
        states.append(fit_em(X, max(1, k_eff), seed=derive_seed(seed, unit_id, j), floor=floor))

    return UnitHmm(
        unit_id=unit_id,
        log_self=np.full(n, np.log(SELF_LOOP_INIT)),
        log_next=np.full(n, np.log(ADVANCE_INIT)),
        obs=states,
    )


# ---------------------------------------------------------------------------
# recursions
#
# One kernel, _max_product, runs every left-to-right recursion, in the
# max semiring or the log semiring: with np.maximum it is the Viterbi
# search of graph decoding, forced alignment and unit training, and with
# np.logaddexp it is Baum-Welch's forward pass and, on the chains reversed
# in time and in state order, its backward pass.  B chains of n states are
# one graph of B * n states.  Batches of B sequences are padded past each
# end; lengths[b] frames of sequence b are real, from frame 0, and take
# the same elementwise steps as alone, so a batch reproduces the
# per-sequence results bit for bit.  No result reads the filler.  The
# backward pass runs over the sequences padded from their last frame.


def _apply_beam(scores: np.ndarray, beam: int) -> None:
    """Keep the beam best finite scores of each row (the last axis; ties at
    the cutoff survive) and drop the rest to -inf, in place.  A row holding
    NaN gets an arbitrary cutoff; every search fails on a NaN score anyway."""
    k = scores.shape[-1] - beam
    if k > 0:
        cutoff = np.partition(scores, k, axis=-1)[..., k : k + 1]
        scores[scores < cutoff] = -np.inf


def _max_product(
    S: np.ndarray, start, step: tuple, beam: int | None, rows: int, plus=np.maximum
) -> None:
    """Turn the (T, W) observation log-likelihoods S into the score lattice,
    in place, from the start weights at frame 0.  step is (log_self, pred,
    adds, multi): state s stays with log_self[s] or advances from pred[s],
    scoring score[pred[s]] plus each of adds at s in turn (-inf: no
    candidate).  plus joins a state's candidates: np.maximum, which lets an
    advance win a tie and propagates NaN, makes the lattice the best path
    scores; np.logaddexp makes it the forward log-probabilities, or, on
    chains reversed in time and in state order, the backward ones plus S.
    multi is (first, starts, exits, adds) for states of several
    candidates: candidate k scores score[exits[k]] plus each of adds at k,
    and state first[i] joins those from starts[i] on.  A beam prunes
    each block of W / rows states per frame."""
    T, W = S.shape
    log_self, pred, adds, (first, starts, exits, m_adds) = step
    blocks = S.reshape(T, rows, -1) if rows > 1 else S  # a 1-D row prunes faster
    S[0] += start
    if beam is not None:
        _apply_beam(blocks[0], beam)
    stay, adv = np.empty(W), np.empty(W)
    for score, row, block in zip(S, S[1:], blocks[1:]):
        np.add(score, log_self, out=stay)
        score.take(pred, out=adv, mode="clip")  # valid indices; "raise" buffers out
        for a in adds:
            adv += a
        if first.size:
            cand = score.take(exits)
            for a in m_adds:
                cand += a
            adv[first] = plus.reduceat(cand, starts)
        plus(adv, stay, out=adv)
        row += adv
        if beam is not None:
            _apply_beam(block, beam)


def _trace_back(S: np.ndarray, step: tuple, last, end) -> tuple[np.ndarray, np.ndarray]:
    """The states of the paths through _max_product's lattice S that end in
    state end[b] at frame last[b], and whether an advance entered each
    frame: frames 0 .. last[b] of each path in turn.  Each choice is redone
    from the row before with the kernel's float operations in its order,
    so every tie goes as it did there (among several candidates, the first
    reaching the best wins)."""
    log_self, pred, adds, (first, starts, exits, m_adds) = step
    item, log_self, pred, adds = S.item, log_self.tolist(), pred.tolist(), [a.tolist() for a in adds]
    bounds = np.append(starts, exits.size).tolist()
    entries = dict(zip(first.tolist(), zip(bounds, bounds[1:])))  # state -> its candidates
    states, moved = [], []
    for t_end, s in zip(np.asarray(last).tolist(), np.asarray(end).tolist()):
        path, adv_at = [0] * (t_end + 1), [False] * (t_end + 1)
        for t in range(t_end, 0, -1):
            path[t] = s
            if s in entries:
                k0, k1 = entries[s]
                cand = S[t - 1].take(exits[k0:k1])
                for a in m_adds:
                    cand += a[k0:k1]
                k = int(np.argmax(cand))
                adv, came = cand.item(k), int(exits[k0 + k])
            else:
                came = pred[s]
                adv = item(t - 1, came)
                for a in adds:
                    adv += a[s]
            if adv >= item(t - 1, s) + log_self[s]:
                adv_at[t], s = True, came
        path[0] = s
        states += path
        moved += adv_at
    return np.array(states, dtype=np.int64), np.array(moved, dtype=bool)


def _chain_step(ls: np.ndarray, ln: np.ndarray, B: int) -> tuple:
    """_max_product's start weights and step for B side-by-side chains of
    one unit's n states: each chain enters at its state 0, and its state s
    stays with ls[s] or advances from s - 1 with ln[s - 1]."""
    n = ls.size
    pred = np.arange(B * n) - 1
    pred[::n] += 1  # a chain's first state has no candidate, and a NaN stays in its chain
    none = np.empty(0, dtype=np.int64)  # no state of several candidates
    step = (np.tile(ls, B), pred, (np.tile(np.append(-np.inf, ln[:-1]), B),), (none, none, none, ()))
    return np.tile(np.append(0.0, np.full(n - 1, -np.inf)), B), step


def _chain_paths(obs: np.ndarray, ls, ln, lengths, beam: int | None = None) -> tuple:
    """The best paths of B unit chains through their (T, B, n) padded
    observation table, which becomes their lattice: each sequence's states
    in turn and (B,) log-probabilities (-inf or NaN: no path of finite
    probability).  Paths enter at state 0 and leave through the exit; an
    advance winning ties makes each path the lexicographically smallest
    optimum."""
    T, B, n = obs.shape
    start, step = _chain_step(ls, ln, B)
    S = obs.reshape(T, B * n)
    _max_product(S, start, step, beam, B)
    last, base = np.asarray(lengths) - 1, np.arange(B) * n
    states, _ = _trace_back(S, step, last, base + n - 1)
    return states - np.repeat(base, lengths), S[last, base + n - 1] + ln[n - 1]


class _Segments:
    """A unit's training sequences, concatenated in order, with the index
    maps between the concatenated rows and the padded (T, B) layouts."""

    def __init__(self, arrs: list[np.ndarray]):
        self.count = len(arrs)
        self.lengths = np.array([a.shape[0] for a in arrs])
        self.frames = np.concatenate(arrs)
        self.starts = np.concatenate([[0], np.cumsum(self.lengths)])
        self.seg = np.repeat(np.arange(self.count), self.lengths)
        self.time = np.arange(self.frames.shape[0]) - self.starts[self.seg]
        self.back = self.lengths[self.seg] - 1 - self.time  # frames counted from each end
        # Frame pairs (t, t + 1) within a sequence, by the row of frame t.
        paired = np.ones(self.frames.shape[0], dtype=bool)
        paired[self.starts[1:] - 1] = False
        self.cur = np.flatnonzero(paired)

    def pad(self, rows: np.ndarray, reverse: bool = False) -> np.ndarray:
        """(N, k) concatenated rows -> (T_max, B, k), zero past each end;
        reversed, row t holds frame lengths[b] - 1 - t of sequence b."""
        out = np.zeros((int(self.lengths.max()), self.count, rows.shape[1]))
        out[self.back if reverse else self.time, self.seg] = rows
        return out

    def unpad(self, padded: np.ndarray, reverse: bool = False) -> np.ndarray:
        return padded[self.back if reverse else self.time, self.seg]


# ---------------------------------------------------------------------------
# inference


def viterbi_align(hmm: UnitHmm, seq) -> StatePath:
    """Best legal state path for one sequence.

    On equal scores the advancing predecessor wins, which makes the
    returned path the lexicographically smallest optimum (frames sit in
    the lowest state index compatible with the best score).
    """
    frames = _frames(seq, hmm.dim)
    T, n = frames.shape[0], hmm.n
    if T < n:
        raise NoPathError(f"{T} frames cannot visit all {n} states")
    states, total = _chain_paths(hmm.obs_log_prob(frames)[:, None], hmm.log_self, hmm.log_next, [T])
    if not np.isfinite(total[0]):
        raise NoPathError("no path of finite probability reaches the final state")
    return StatePath(states=states, log_prob=float(total[0]))


# ---------------------------------------------------------------------------
# training


def _usable_frames(model: UnitHmm, seqs) -> list[np.ndarray]:
    usable = []
    for s in seqs:
        a = _frames(s, model.dim)
        if a.shape[0] < model.n:
            warnings.warn(
                f"skipping a {a.shape[0]}-frame sequence shorter than the "
                f"{model.n}-state model"
            )
            continue
        usable.append(a)
    if not usable:
        raise DataError("no training sequence is long enough for this model")
    return usable


def _reestimate(hmm: UnitHmm, seqs, max_iter: int, tol: float, history, posteriors) -> UnitHmm:
    """The one loop of Viterbi training and Baum-Welch, hard and soft EM
    (Juang & Rabiner, IEEE TASSP 1990), on a copy of hmm.  Each iteration
    scores every frame under each state once, and posteriors(model, segs,
    obs) yields each sequence's log-likelihood (one that is not finite
    is a NoPathError), then, only if the loop goes on, the expected
    stays of each state, the expected advances of states 0 .. n - 2, and
    each state's rows with their log-posteriors.  Transitions are the floored, renormalized counts;
    each mixture is one M-step on its state's rows.  Every statistic is
    one sum over the rows of all sequences, concatenated in input order."""
    model = hmm.copy()
    usable = _usable_frames(model, seqs)
    if max_iter <= 0:
        return model
    segs = _Segments(usable)
    if not np.isfinite(segs.frames).all():
        # an infinite or NaN frame scores -inf or NaN under every state,
        # and has no variance to floor
        raise NoPathError("no path of finite probability reaches the final state")
    floor = variance_floor(segs.frames)

    prev_total = -np.inf
    for it in range(max_iter):
        # One density pass per state: its component table gives both the
        # observation column and, below, the component responsibilities.
        comps = [g._component_log_prob(segs.frames) for g in model.obs]
        obs = np.column_stack([_logsumexp(c, axis=1) for c in comps])
        post = posteriors(model, segs, obs)
        totals = next(post)
        if not np.all(np.isfinite(totals)):
            raise NoPathError("no path of finite probability reaches the final state")
        total = 0.0
        for v in totals.tolist():
            total += v
        if history is not None:
            history.append(total)
        if it > 0 and total - prev_total < tol:
            break
        prev_total = total

        stays, advances, owned = next(post)
        new_obs = [
            _refit_state(g, comp[rows], gamma_log, obs[rows, j : j + 1], segs.frames[rows], floor)
            for j, (g, comp, (rows, gamma_log)) in enumerate(zip(model.obs, comps, owned))
        ]
        del comps, obs, post, owned  # not alive while the next density pass builds its own
        num_self = stays + TRANS_FLOOR
        num_adv = np.append(advances, segs.count) + TRANS_FLOOR  # every sequence leaves once
        tot = num_self + num_adv
        model = UnitHmm(model.unit_id, np.log(num_self / tot), np.log(num_adv / tot), new_obs)
    return model


def _refit_state(g: Gmm, comp, gamma_log, obs, frames: np.ndarray, floor: np.ndarray) -> Gmm:
    """One M-step of a state's mixture g on its frames: comp is their
    component table, gamma_log their state log-posteriors and obs the
    state's log-densities, so each component's responsibility is
    gamma_log + comp - obs."""
    with np.errstate(invalid="ignore"):  # -inf - -inf: the state cannot emit the frame
        r = np.exp(np.fmax(gamma_log + comp - obs, -np.inf))
    return gmm_from_resp(g, r, frames, frames * frames, floor)


def _best_paths(model: UnitHmm, segs: _Segments, obs: np.ndarray):
    """Viterbi training's posteriors: each state owns the frames that the
    best paths put in it, at log-posterior 0."""
    s, totals = _chain_paths(segs.pad(obs), model.log_self, model.log_next, segs.lengths)
    yield totals
    n, cur = model.n, segs.cur
    # Counts are small integers, so their summation order is immaterial.
    stayed = s[cur + 1] == s[cur]
    yield (
        np.bincount(s[cur][stayed], minlength=n).astype(np.float64),
        np.bincount(s[cur][~stayed], minlength=n - 1).astype(np.float64),
        [(np.flatnonzero(s == j), 0.0) for j in range(n)],
    )


def _forward_backward(model: UnitHmm, segs: _Segments, obs: np.ndarray):
    """Baum-Welch's posteriors: each state owns every frame, at its state
    posterior.  The backward pass runs only when they are asked for, as the
    forward pass of the chains reversed in time and in state order, entered
    at the exit: state s advances from s + 1 with ln[s], into beta + obs."""
    ls, ln, n = model.log_self, model.log_next, model.n
    S = segs.pad(obs)  # becomes the forward lattice
    T, B, _ = S.shape
    _max_product(S.reshape(T, B * n), *_chain_step(ls, ln, B), None, B, np.logaddexp)
    alpha = segs.unpad(S)
    ll = alpha[segs.starts[1:] - 1, n - 1] + ln[n - 1]
    yield ll

    start, step = _chain_step(ls[::-1], np.append(ln[-2::-1], 0.0), B)
    S = segs.pad(obs[:, ::-1], reverse=True)
    _max_product(S.reshape(T, B * n), start + ln[n - 1], step, None, B, np.logaddexp)
    beta_obs = segs.unpad(S, reverse=True)[:, ::-1]
    cur, nxt = segs.cur, segs.cur + 1
    ll_rows = ll[segs.seg][:, None]
    with np.errstate(invalid="ignore"):  # -inf - -inf where obs is -inf: see _reestimate
        gamma_log = alpha + (beta_obs - obs) - ll_rows
    xi_self = np.exp(alpha[cur] + ls + beta_obs[nxt] - ll_rows[cur])
    xi_adv = np.exp(alpha[cur, :-1] + ln[:-1] + beta_obs[nxt, 1:] - ll_rows[cur])
    owned = [(slice(None), gamma_log[:, j : j + 1]) for j in range(n)]
    yield xi_self.sum(axis=0), xi_adv.sum(axis=0), owned


def viterbi_train(
    hmm: UnitHmm,
    seqs,
    max_iter: int = 10,
    tol: float = 1e-4,
    history: list[float] | None = None,
) -> UnitHmm:
    """Alternate hard alignment with re-estimation from the alignments.

    Each iteration aligns every sequence, re-fits transitions from the
    transition counts, and applies one EM update to each state's GMM on
    its assigned frames (warm-started from the current parameters, so the
    total path log-likelihood never decreases).  Sequences shorter than n
    are skipped with a warning.  The per-iteration total path
    log-likelihood is appended to history when given.
    """
    return _reestimate(hmm, seqs, max_iter, tol, history, _best_paths)


def baum_welch(
    hmm: UnitHmm,
    seqs,
    max_iter: int = 10,
    tol: float = 1e-4,
    history: list[float] | None = None,
) -> UnitHmm:
    """Forward-backward re-estimation over state posteriors.

    Paths are pinned to enter at the first state and leave through the
    exit, so the posteriors respect the topology.  The per-iteration
    total forward log-likelihood is appended to history when given; it
    never decreases.
    With max_iter = 0 an unchanged copy is returned.

    All sequences run through one batched forward and backward pass.
    """
    return _reestimate(hmm, seqs, max_iter, tol, history, _forward_backward)


# ---------------------------------------------------------------------------
# unit priors


def unit_log_priors(lexicon: UnitLexicon) -> dict[int, float]:
    """Normalized log-priors proportional to 1/N(u) from lexicon sample
    counts.  Units with zero recorded samples get -inf; if no unit has a
    count the priors degenerate to uniform zeros."""
    w = [1.0 / c if c > 0 else 0.0 for c in lexicon.sample_count]
    tot = sum(w)
    if tot <= 0:
        return {i: 0.0 for i in range(len(lexicon))}
    return {
        i: (math.log(wi / tot) if wi > 0 else float("-inf")) for i, wi in enumerate(w)
    }


# ---------------------------------------------------------------------------
# persistence


def save_hmm_set(path, hmms: Mapping[int, UnitHmm], lexicon: UnitLexicon) -> None:
    doc = {
        "format": HMMSET_FORMAT,
        "version": HMMSET_VERSION,
        "lexicon": {
            "names": list(lexicon.names),
            "sample_count": list(lexicon.sample_count),
            "silence": lexicon.name_of(lexicon.silence_id),
        },
        "units": [hmms[uid].to_dict() for uid in sorted(hmms)],
    }
    write_json(path, doc)


def _json_int(what: str, v) -> int:
    """A JSON integer; a float, bool or string is a DataError."""
    if type(v) is not int:
        raise DataError(f"{what} {v!r} is not an integer")
    return v


def load_hmm_set(path) -> tuple[dict[int, UnitHmm], UnitLexicon]:
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != HMMSET_FORMAT:
        raise DataError(f"{path} is not a saved HMM set")
    try:
        lex_doc = doc["lexicon"]
        names = [str(s) for s in lex_doc["names"]]
        counts = [_json_int("sample count", c) for c in lex_doc["sample_count"]]
        if len(counts) != len(names):
            raise DataError(f"{len(counts)} sample counts for {len(names)} unit names")
        lexicon = UnitLexicon.from_names(
            names,
            silence=str(lex_doc["silence"]),
            counts=dict(zip(names, counts)),
        )
        hmms = {}
        for d in doc["units"]:
            model = UnitHmm.from_dict(d)
            if not 0 <= model.unit_id < len(lexicon):
                raise DataError(f"unit id {model.unit_id} outside the lexicon")
            if model.unit_id in hmms:
                raise DataError(f"unit id {model.unit_id} appears twice")
            first = next(iter(hmms.values()), model)
            if model.dim != first.dim:
                raise DataError(f"unit {model.unit_id} has dim {model.dim}, expected {first.dim}")
            for g in model.obs:
                if not (np.isfinite(g.means).all() and np.isfinite(g.variances).all()):
                    raise DataError(f"unit {model.unit_id} has a non-finite mean or variance")
                with np.errstate(over="ignore"):
                    if not np.isfinite(1.0 / g.variances).all():
                        raise DataError(
                            f"unit {model.unit_id} has a variance whose reciprocal overflows"
                        )
            hmms[model.unit_id] = model
    except (DataError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise DataError(f"{path} is not a valid HMM set: {exc}") from None
    return hmms, lexicon
