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
from .gmm import Gmm, GmmBank, _logsumexp, em_step, fit_em, gmm_from_resp, variance_floor
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
        k_eff = min(K, np.unique(X, axis=0).shape[0])
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
# The kernels run B sequences at once over a (T, B, n) observation table
# padded past each sequence's end; lengths[b] frames of sequence b are
# real, left-aligned from frame 0.  Every real entry takes the same
# elementwise steps as a one-sequence recursion, so a batch reproduces the
# per-sequence results bit for bit.  Entries past a sequence's end hold
# filler that no result reads.


def _ends_by_frame(lengths: np.ndarray) -> dict[int, np.ndarray]:
    """Last frame -> indices of the sequences that end there, ascending."""
    last = np.asarray(lengths) - 1
    order = np.argsort(last, kind="stable")
    ends, first = np.unique(last[order], return_index=True)
    return dict(zip(ends.tolist(), np.split(order, first[1:])))


def _apply_beam(scores: np.ndarray, beam: int) -> None:
    """Keep the beam best finite scores of each row (the last axis; ties at
    the cutoff survive) and drop the rest to -inf, in place.  A row holding
    NaN gets an arbitrary cutoff; every search fails on a NaN score anyway."""
    k = scores.shape[-1] - beam
    if k > 0:
        cutoff = np.partition(scores, k, axis=-1)[..., k : k + 1]
        scores[scores < cutoff] = -np.inf


def _viterbi(
    obs: np.ndarray, ls: np.ndarray, ln: np.ndarray, lengths: np.ndarray, beam: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Best paths: (T, B) states, (B,) log-probabilities (-inf or NaN when
    a sequence has no path of finite probability), and dead (see below).

    On equal scores the advancing predecessor wins, which makes each path
    the lexicographically smallest optimum (frames sit in the lowest state
    index compatible with the best score).  With a beam, every frame's
    scores are pruned row by row by _apply_beam, and dead[b] is the first
    frame at which sequence b has no score above -inf (a NaN counts as
    none), or lengths[b] if that never happens; without one, dead is None.
    """
    T, B, n = obs.shape
    ends = _ends_by_frame(lengths)
    take_adv = np.zeros((T, B, n), dtype=bool)
    adv = np.full((B, n), -np.inf)
    delta = np.full((B, n), -np.inf)
    delta[:, 0] = 0.0  # every path enters at state 0
    delta += obs[0]
    dead = None if beam is None else np.array(lengths)
    final = np.empty(B)
    for t in range(T):
        if t:
            stay = delta + ls
            np.add(delta[:, :-1], ln[:-1], out=adv[:, 1:])
            np.greater_equal(adv, stay, out=take_adv[t])
            delta = np.where(take_adv[t], adv, stay) + obs[t]
        if beam is not None:
            _apply_beam(delta, beam)
            dead[~(delta.max(axis=1) > -np.inf) & (dead > t)] = t
        if t in ends:
            final[ends[t]] = delta[ends[t], n - 1]

    states = np.empty((T, B), dtype=np.int64)
    s = np.full(B, n - 1)
    rows = np.arange(B)
    for t in range(T - 1, -1, -1):
        if t in ends:
            s[ends[t]] = n - 1
        states[t] = s
        # Filler frames may step below state 0; clamp them so they index.
        s = np.maximum(s - take_adv[t, rows, s], 0)
    return states, final + ln[n - 1], dead


def _forward(obs: np.ndarray, ls: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """(T, B, n) forward log-probabilities; a sequence's total is its
    alpha[lengths[b] - 1, b, n - 1] + ln[n - 1]."""
    T, B, n = obs.shape
    alpha = np.empty((T, B, n))
    alpha[0] = -np.inf
    alpha[0, :, 0] = obs[0, :, 0]
    adv = np.full((B, n), -np.inf)
    for t in range(1, T):
        np.add(alpha[t - 1, :, :-1], ln[:-1], out=adv[:, 1:])
        np.logaddexp(alpha[t - 1] + ls, adv, out=alpha[t])
        alpha[t] += obs[t]
    return alpha


def _backward(
    obs: np.ndarray, ls: np.ndarray, ln: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """(T, B, n) backward log-probabilities; each sequence's recursion
    starts at its own last frame, which leaves through the exit."""
    T, B, n = obs.shape
    ends = _ends_by_frame(lengths)
    beta = np.empty((T, B, n))
    beta[T - 1] = -np.inf
    adv = np.full((B, n), -np.inf)
    for t in range(T - 1, -1, -1):
        if t < T - 1:
            stay = ls + obs[t + 1] + beta[t + 1]
            np.add(ln[:-1] + obs[t + 1, :, 1:], beta[t + 1, :, 1:], out=adv[:, :-1])
            np.logaddexp(stay, adv, out=beta[t])
        if t in ends:
            beta[t, ends[t]] = -np.inf
            beta[t, ends[t], n - 1] = ln[n - 1]
    return beta


class _Segments:
    """A unit's training sequences, concatenated in order, with the index
    maps between the concatenated rows and the padded (T, B) layout."""

    def __init__(self, arrs: list[np.ndarray]):
        self.count = len(arrs)
        self.lengths = np.array([a.shape[0] for a in arrs])
        self.frames = np.concatenate(arrs)
        self.starts = np.concatenate([[0], np.cumsum(self.lengths)])
        self.seg = np.repeat(np.arange(self.count), self.lengths)
        self.time = np.arange(self.frames.shape[0]) - self.starts[self.seg]
        # Frame pairs (t, t + 1) within a sequence, by the row of frame t.
        paired = np.ones(self.frames.shape[0], dtype=bool)
        paired[self.starts[1:] - 1] = False
        self.cur = np.flatnonzero(paired)

    def pad(self, rows: np.ndarray) -> np.ndarray:
        """(N, k) concatenated rows -> (T_max, B, k), zero past each end."""
        out = np.zeros((int(self.lengths.max()), self.count, rows.shape[1]))
        out[self.time, self.seg] = rows
        return out

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        return padded[self.time, self.seg]


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
    obs = hmm.obs_log_prob(frames)
    states, total, _ = _viterbi(obs[:, None], hmm.log_self, hmm.log_next, np.array([T]))
    if not np.isfinite(total[0]):
        raise NoPathError("no path of finite probability reaches the final state")
    return StatePath(states=states[:, 0], log_prob=float(total[0]))


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


def _reestimate_transitions(
    self_counts: np.ndarray, adv_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Floored, renormalized (log_self, log_next) from (expected) counts."""
    num_self = self_counts + TRANS_FLOOR
    num_adv = adv_counts + TRANS_FLOOR
    tot = num_self + num_adv
    return np.log(num_self / tot), np.log(num_adv / tot)


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
    model = hmm.copy()
    segs = _Segments(_usable_frames(model, seqs))
    floor = variance_floor(segs.frames)
    n = model.n
    cur = segs.cur

    prev_total = -np.inf
    for it in range(max_iter):
        obs = segs.pad(model.obs_log_prob(segs.frames))
        paths, totals, _ = _viterbi(obs, model.log_self, model.log_next, segs.lengths)
        if not np.all(np.isfinite(totals)):
            raise NoPathError("no path of finite probability reaches the final state")
        total = float(sum(totals.tolist()))
        if history is not None:
            history.append(total)
        if it > 0 and total - prev_total < tol:
            break
        prev_total = total

        # Counts are small integers, so their summation order is immaterial.
        s = segs.unpad(paths)
        stayed = s[cur + 1] == s[cur]
        self_counts = np.bincount(s[cur][stayed], minlength=n).astype(np.float64)
        adv_counts = np.bincount(s[cur][~stayed], minlength=n).astype(np.float64)
        adv_counts[n - 1] = segs.count  # every sequence leaves once
        new_obs = []
        for j in range(n):
            g, _ = em_step(model.obs[j], segs.frames[s == j], floor)
            new_obs.append(g)
        model = UnitHmm(model.unit_id, *_reestimate_transitions(self_counts, adv_counts), new_obs)
    return model


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

    All sequences run through one batched forward and backward pass, and
    each expected count or mixture statistic is one sum over the rows of
    every sequence, concatenated in input order.
    """
    model = hmm.copy()
    usable = _usable_frames(model, seqs)
    if max_iter <= 0:
        return model
    segs = _Segments(usable)
    floor = variance_floor(segs.frames)
    n = model.n
    squares = segs.frames * segs.frames
    cur, nxt = segs.cur, segs.cur + 1
    last = segs.starts[1:] - 1

    prev_total = -np.inf
    for it in range(max_iter):
        ls, ln = model.log_self, model.log_next
        # One density pass per state: its component table gives both the
        # observation column and, below, the component responsibilities.
        comps = [g._component_log_prob(segs.frames) for g in model.obs]
        obs = np.column_stack([_logsumexp(c, axis=1) for c in comps])
        padded = segs.pad(obs)
        alpha = segs.unpad(_forward(padded, ls, ln))
        ll = alpha[last, n - 1] + ln[n - 1]
        total = 0.0
        for v in ll:
            total += v
        if history is not None:
            history.append(float(total))
        if it > 0 and total - prev_total < tol:
            break
        prev_total = total

        beta = segs.unpad(_backward(padded, ls, ln, segs.lengths))
        ll_rows = ll[segs.seg][:, None]
        gamma_log = alpha + beta - ll_rows
        xi_self = np.exp(alpha[cur] + ls + obs[nxt] + beta[nxt] - ll_rows[cur])
        xi_adv = np.exp(
            alpha[cur, :-1] + ln[:-1] + obs[nxt, 1:] + beta[nxt, 1:] - ll_rows[cur]
        )
        self_exp = xi_self.sum(axis=0)
        adv_exp = np.append(xi_adv.sum(axis=0), segs.count)  # every sequence leaves once
        new_obs = []
        for j, (g, comp) in enumerate(zip(model.obs, comps)):
            r = np.exp(gamma_log[:, j : j + 1] + comp - obs[:, j : j + 1])
            new_obs.append(gmm_from_resp(g, r, segs.frames, squares, floor))
        model = UnitHmm(model.unit_id, *_reestimate_transitions(self_exp, adv_exp), new_obs)
    return model


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
