"""Shared builders and brute-force oracles for the test suite.

The oracles trade speed for obviousness: they enumerate every legal path
explicitly, so any agreement with the dynamic-programming code is
evidence the recursions are right.
"""

from __future__ import annotations

import bisect
import json
from types import SimpleNamespace

import numpy as np

from actionseg.data import (
    FeatureSequence,
    Segmentation,
    Transcript,
    UnitLexicon,
    segmentation_to_transcript,
)
from actionseg.decoder import DecodeResult, _layout, _no_path
from actionseg.errors import BeamPrunedError, DataError, NoPathError
from actionseg.features import (
    FvEncoderConfig,
    PcaModel,
    _frame_stats,
    _signed_sqrt,
    _window_bounds,
)
from actionseg.gmm import Gmm, _logsumexp, variance_floor
from actionseg.grammar import DecodingGraph, Grammar, GraphNode, build_grammar, compose
from actionseg.hmm import (
    TRANS_FLOOR,
    StatePath,
    UnitHmm,
    _apply_beam,
    _chain_step,
    _frames,
    _max_product,
    _usable_frames,
)


def random_gmm(rng: np.random.Generator, K: int, m: int) -> Gmm:
    w = rng.uniform(0.2, 1.0, K)
    return Gmm(
        weights=w / w.sum(),
        means=rng.normal(0.0, 2.0, (K, m)),
        variances=rng.uniform(0.2, 1.5, (K, m)),
    )


def random_unit_hmm(rng: np.random.Generator, unit_id: int, n: int, K: int, m: int) -> UnitHmm:
    p_self = rng.uniform(0.2, 0.9, n)
    return UnitHmm(
        unit_id=unit_id,
        log_self=np.log(p_self),
        log_next=np.log(1.0 - p_self),
        obs=[random_gmm(rng, K, m) for _ in range(n)],
    )


# ---------------------------------------------------------------------------
# reference density kernels


def reference_logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """actionseg.gmm._logsumexp by its general branch for every length,
    reduced over the caller's axis: hi + log1p(sum of exp(a_k - hi) over
    every k but the first argmax), and hi where hi is not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        hi = np.max(a, axis=axis, keepdims=True)
        shape = [1] * a.ndim
        shape[axis] = -1
        first = np.arange(a.shape[axis]).reshape(shape) == np.argmax(a, axis=axis, keepdims=True)
        terms = np.where(first, 0.0, np.exp(a - hi))
        out = np.log1p(np.sum(terms, axis=axis, keepdims=True)) + hi
        out = np.where(np.isfinite(hi), out, hi)
    return out if keepdims else np.squeeze(out, axis=axis)


def reference_distinct_rows(X: np.ndarray, cap: int) -> int:
    """actionseg.gmm._distinct_rows by sorting a copy of X."""
    return min(cap, np.unique(X, axis=0).shape[0])


def reference_component_log_prob(
    X: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """The direct kernel: log w - (m log 2pi + sum log var + sum (x - mu)^2
    / var) / 2 from one broadcast (N, ..., K, m) array summed over its
    last axis, whatever m.  actionseg.gmm._component_log_prob has its bits
    on feature axes shorter than eight; on longer ones it is the accuracy
    reference for the contraction."""
    m = X.shape[1]
    with np.errstate(over="ignore"):
        diff = X.reshape(X.shape[0], *(1,) * (means.ndim - 1), m) - means
        np.multiply(diff, diff, out=diff)
        np.divide(diff, variances, out=diff)
        quad = np.sum(diff, axis=-1)
        logdet = np.sum(np.log(variances), axis=-1)
        const = m * np.log(2.0 * np.pi)
        return np.log(weights) - 0.5 * (const + logdet + quad)


def reference_contraction_log_prob(
    X: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """actionseg.gmm._component_log_prob on a long feature axis, for one
    (K, m) mixture: c + xs.(mus/var) + xs^2.(-1/(2 var)) over the frames
    xs and means mus centred on the mixture's mean of its K means, with
    NaN taken as -inf.  The operations and their order are src's, taken
    over all N rows at once where src takes row blocks, so the results
    are equal bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.ascontiguousarray(means)
        var = np.ascontiguousarray(variances)
        shift = mu.mean(axis=0)
        mus = mu - shift
        prec = 1.0 / var
        lin = mus * prec
        c = np.log(weights) - 0.5 * (
            np.sum(mus * lin, axis=-1) + np.sum(np.log(var), axis=-1) + m * np.log(2.0 * np.pi)
        )
        xs = np.ascontiguousarray(X - shift)
        lp = np.einsum("nm,km->nk", xs, lin) + np.einsum("nm,km->nk", xs * xs, prec * -0.5)
        lp = lp + c
        return np.where(np.isnan(lp), -np.inf, lp)


def reference_kernel_log_prob(
    X: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """The oracle whose bits actionseg.gmm._component_log_prob reproduces:
    the broadcast kernel on a feature axis shorter than eight, the
    contraction from eight on."""
    short = X.shape[1] < 8
    kernel = reference_component_log_prob if short else reference_contraction_log_prob
    return kernel(X, weights, means, variances)


def reference_gmm_log_prob(gmm: Gmm, X: np.ndarray) -> np.ndarray:
    """Gmm.log_prob through the reference kernels."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    comp = reference_kernel_log_prob(X, gmm.weights, gmm.means, gmm.variances)
    return reference_logsumexp(comp, axis=1)


def log_gaussian(x: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Log density of a diagonal-covariance normal at x."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if x.shape != mean.shape or x.shape != variance.shape:
        raise ValueError(
            f"dimension mismatch: x {x.shape}, mean {mean.shape}, variance {variance.shape}"
        )
    diff = x - mean
    return float(
        -0.5 * (x.size * np.log(2.0 * np.pi) + np.sum(np.log(variance)) + np.sum(diff * diff / variance))
    )


def reference_em_step(gmm: Gmm, X: np.ndarray, floor: np.ndarray) -> tuple[Gmm, float]:
    """actionseg.gmm.em_step through reference_m_step."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    clp = gmm._component_log_prob(X)
    row_ll = _logsumexp(clp, axis=1)
    resp = np.exp(clp - row_ll[:, None])
    return reference_m_step(gmm, resp, X, floor), float(row_ll.mean())


def reference_m_step(prev: Gmm, resp: np.ndarray, X: np.ndarray, floor: np.ndarray) -> Gmm:
    """actionseg.gmm.gmm_from_resp one component at a time, from the same
    sums over all rows."""
    Nk = resp.sum(axis=0)
    Sx = np.einsum("nk,nm->km", resp, X)
    Sxx = np.einsum("nk,nm->km", resp, X * X)
    new_w = prev.weights.copy()
    new_mu = prev.means.copy()
    new_var = prev.variances.copy()
    alive = Nk > 1e-12
    new_w[alive] = Nk[alive] / Nk.sum()
    new_w[~alive] = 1e-12
    new_w /= new_w.sum()
    for k in np.flatnonzero(alive):
        mu = Sx[k] / Nk[k]
        new_mu[k] = mu
        new_var[k] = np.maximum(Sxx[k] / Nk[k] - mu * mu, floor)
    return Gmm(weights=new_w, means=new_mu, variances=new_var)


def reference_nearest_center(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """actionseg.gmm._nearest_center from one broadcast (N, K, m) array of
    squared differences, summed over its last axis."""
    d2 = np.sum((X[:, None, :] - centers[None]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def reference_write_json(path, obj) -> None:
    """actionseg.util.write_json from the whole text of json.dumps."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def reference_fit_pca(samples: np.ndarray, target_dim: int) -> PcaModel:
    """fit_pca as one direct thin SVD of the centered (N, d) matrix, which
    forms the (N, d) singular vectors U and discards them."""
    X = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if not np.all(np.isfinite(X)):
        raise DataError("PCA input contains non-finite values")
    N, d = X.shape
    if target_dim < 1:
        raise DataError("target dimension must be at least 1")
    if target_dim > d:
        raise DataError(f"cannot keep {target_dim} of {d} dimensions")
    mean = X.mean(axis=0)
    _, S, Vt = np.linalg.svd(X - mean, full_matrices=False)
    tol = (S.max(initial=0.0)) * max(N, d) * np.finfo(np.float64).eps
    rank = int(np.sum(S > tol))
    if rank < target_dim:
        raise DataError(
            f"data rank {rank} cannot support {target_dim} principal directions"
        )
    basis = Vt[:target_dim].T.copy()
    for j in range(target_dim):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return PcaModel(mean=mean, basis=basis)


def fisher_vector(X: np.ndarray, gmm: Gmm, signed_sqrt: bool = False) -> np.ndarray:
    """Fisher Vector of a frame set: soft-assignment first- and second-order
    statistics, normalized by the frame count and component weights."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] < 1:
        raise DataError("cannot encode an empty frame set")
    fv = _frame_stats(X, gmm).mean(axis=0)
    return _signed_sqrt(fv) if signed_sqrt else fv


def encode_fv(frames, cfg: FvEncoderConfig, t: int) -> np.ndarray:
    """Fisher Vector of the window centered on frame t, clamped to the clip."""
    X = frames.frames if isinstance(frames, FeatureSequence) else np.atleast_2d(
        np.asarray(frames, dtype=np.float64)
    )
    T = X.shape[0]
    if T < 1:
        raise DataError("cannot encode an empty clip")
    if not 0 <= t < T:
        raise DataError(f"frame {t} outside clip of {T} frames")
    lo, hi = _window_bounds(T, cfg.window, t)
    return fisher_vector(X[lo : hi + 1], cfg.gmm, signed_sqrt=cfg.signed_sqrt)


def reference_obs_log_prob(hmm: UnitHmm, frames: np.ndarray) -> np.ndarray:
    """UnitHmm.obs_log_prob one state at a time through the reference kernels."""
    return np.column_stack([reference_gmm_log_prob(g, frames) for g in hmm.obs])


# ---------------------------------------------------------------------------
# single-unit path enumeration


def enumerate_state_paths(n: int, T: int) -> list[tuple[int, ...]]:
    """Every legal path: starts at 0, steps 0 or +1, ends at n - 1."""
    out: list[tuple[int, ...]] = []

    def grow(path: list[int]) -> None:
        if len(path) == T:
            if path[-1] == n - 1:
                out.append(tuple(path))
            return
        s = path[-1]
        grow(path + [s])
        if s + 1 < n:
            grow(path + [s + 1])

    grow([0])
    return out


def unit_path_log_prob(hmm: UnitHmm, obs: np.ndarray, path: tuple[int, ...]) -> float:
    """Log-probability of a legal path (see enumerate_state_paths), which
    leaves through the exit from the last state."""
    lp = obs[0, path[0]]
    for t in range(1, len(path)):
        step = hmm.log_self if path[t] == path[t - 1] else hmm.log_next
        lp += step[path[t - 1]] + obs[t, path[t]]
    return lp + hmm.log_next[hmm.n - 1]


def oracle_viterbi(hmm: UnitHmm, frames: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Best path by exhaustive search; ties go to the lexicographically
    smallest path."""
    obs = hmm.obs_log_prob(frames)
    best_path = None
    best = -np.inf
    for path in sorted(enumerate_state_paths(hmm.n, frames.shape[0])):
        lp = unit_path_log_prob(hmm, obs, path)
        if lp > best:
            best = lp
            best_path = path
    return best_path, best


def oracle_forward(hmm: UnitHmm, frames: np.ndarray) -> float:
    obs = hmm.obs_log_prob(frames)
    terms = [
        unit_path_log_prob(hmm, obs, path)
        for path in enumerate_state_paths(hmm.n, frames.shape[0])
    ]
    if not terms:
        return float("-inf")
    terms = np.array(terms)
    peak = terms.max()
    return float(peak + np.log(np.exp(terms - peak).sum()))


# ---------------------------------------------------------------------------
# graph decoding enumeration


def oracle_decode_best(graph: DecodingGraph, frames: np.ndarray, priors=None) -> tuple[float, list[int]]:
    """Best complete labeling by exhaustive token simulation.

    Returns (best log-prob, per-frame node indices); (-inf, []) when no
    complete path exists.
    """
    T = frames.shape[0]
    obs = {i: graph.hmms[node.unit_id].obs_log_prob(frames) for i, node in enumerate(graph.nodes)}

    def prior_of(i: int) -> float:
        if priors is None:
            return 0.0
        return float(priors.get(graph.nodes[i].unit_id, 0.0))

    best = [-np.inf, []]

    def step(i: int, s: int, t: int, acc: float, labels: list[int]) -> None:
        hmm = graph.hmms[graph.nodes[i].unit_id]
        if t == T - 1:
            if s == hmm.n - 1 and graph.nodes[i].terminal:
                total = acc + hmm.log_next[s]
                if total > best[0]:
                    best[0] = total
                    best[1] = list(labels)
            return
        stay = acc + hmm.log_self[s] + obs[i][t + 1, s]
        step(i, s, t + 1, stay, labels + [i])
        if s + 1 < hmm.n:
            adv = acc + hmm.log_next[s] + obs[i][t + 1, s + 1]
            step(i, s + 1, t + 1, adv, labels + [i])
        if s == hmm.n - 1:
            for j, w in graph.nodes[i].edges:
                enter = acc + hmm.log_next[s] + w + prior_of(j) + obs[j][t + 1, 0]
                step(j, 0, t + 1, enter, labels + [j])

    for j, w in graph.start_edges:
        step(j, 0, 0, w + prior_of(j) + obs[j][0, 0], [j])
    return best[0], best[1]


def random_sentence_grammar(
    rng: np.random.Generator,
    unit_names: list[str],
    n_sentences: int,
    max_inner: int,
) -> tuple[Grammar, UnitLexicon]:
    """A grammar of random silence-bracketed sentences over the given units."""
    lexicon = UnitLexicon.from_names(["SIL", *unit_names], silence="SIL")
    transcripts = []
    for k in range(n_sentences):
        inner = [
            lexicon.id_of(unit_names[int(rng.integers(len(unit_names)))])
            for _ in range(int(rng.integers(1, max_inner + 1)))
        ]
        units = (lexicon.silence_id, *inner, lexicon.silence_id)
        transcripts.append((f"act{k % 2}", Transcript(units)))
    return build_grammar(transcripts, lexicon), lexicon


def language_by_names(grammar: Grammar) -> dict[str, tuple[tuple[str, ...], ...]]:
    """A grammar's languages with unit ids replaced by names (for
    comparisons across differently ordered lexicons)."""
    return {
        act: tuple(tuple(grammar.lexicon.name_of(u) for u in s) for s in sents)
        for act, sents in grammar.sentences.items()
    }


def compose_random_graph(rng, unit_names, hmms, n_sentences=2, max_inner=1):
    grammar, lexicon = random_sentence_grammar(rng, unit_names, n_sentences, max_inner)
    return compose(grammar, hmms), lexicon


# ---------------------------------------------------------------------------
# reference graph compilation


class _TrieNode:
    """One prefix tree position; children keyed by unit id."""

    def __init__(self):
        self.children: dict[int, _TrieNode] = {}
        self.terminal = False


def reference_compose(grammar: Grammar, hmms) -> DecodingGraph:
    """actionseg.grammar.compose as a recursive pre-order walk of each
    activity's prefix tree, children by unit id: the form that the walk
    over the sorted sentences replaced, which must give the same graph."""
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
        root = _TrieNode()
        for sent in grammar.sentences[act]:
            node = root
            for u in sent:
                node = node.children.setdefault(u, _TrieNode())
            node.terminal = True
        for u in sorted(root.children):
            start.append((walk(u, root.children[u], act), 0.0))
    nodes = tuple(
        GraphNode(index=i, unit_id=u, activity=a, terminal=t, edges=tuple(e))
        for i, (u, a, t, e) in enumerate(rec)
    )
    return DecodingGraph(nodes=nodes, start_edges=tuple(start), hmms=dict(hmms), kind="grammar")


def reference_entry_csr(graph: DecodingGraph) -> SimpleNamespace:
    """The state indexing and unit-entry edges of a graph, built from the
    graph and its models alone, in the CSR form that the vectorized
    decoders below step with.  Node i's states occupy offsets[i] ..
    offsets[i] + n_i - 1; log_adv[s] scores the step from state s into
    s + 1 and is -inf where s + 1 is a unit's first state.  The incoming
    edges of each node are listed and sorted by source, and the lists are
    concatenated in node order: the edges into entry_nodes[k] are
    e_src/e_w[e_start[k]:e_start[k + 1]], and e_seg maps each edge back
    to k.  tb_entries maps each entry state to its node and its (source,
    exit state, exit log, weight) edges."""
    hmms = [graph.hmms[node.unit_id] for node in graph.nodes]
    sizes = np.array([h.n for h in hmms], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    log_next = np.concatenate([h.log_next for h in hmms])
    exit_state = offsets + sizes - 1
    first = np.zeros(total, dtype=bool)
    first[offsets] = True
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
    src = np.array(e_src, dtype=np.int64)
    e_exit, e_exit_log = exit_state[src], log_next[exit_state][src]
    edges = list(zip(e_src, e_exit.tolist(), e_exit_log.tolist(), e_w))
    return SimpleNamespace(
        offsets=offsets,
        total=total,
        log_self=np.concatenate([h.log_self for h in hmms]),
        log_adv=np.where(first[1:], -np.inf, log_next[:-1]),
        exit_state=exit_state,
        exit_log=log_next[exit_state],
        terminal=[i for i, node in enumerate(graph.nodes) if node.terminal],
        entry_nodes=np.array(entry_nodes, dtype=np.int64),
        entry_first=offsets[np.array(entry_nodes, dtype=np.int64)],
        e_start=np.array(e_start, dtype=np.int64),
        e_seg=np.array(e_seg, dtype=np.int64),
        e_src=src,
        e_w=np.array(e_w, dtype=np.float64),
        e_exit=e_exit,
        e_exit_log=e_exit_log,
        tb_entries={
            int(offsets[j]): (j, edges[lo:hi])
            for j, lo, hi in zip(entry_nodes, e_start, e_start[1:] + [len(edges)])
        },
    )


def reference_candidates(graph: DecodingGraph) -> dict:
    """The candidate fields of actionseg.decoder._Layout, built state by
    state from reference_entry_csr: state s - 1 within a unit, each entry
    edge's source exit at a unit's first state.  States of one candidate
    carry it in pred/t1/t2, states of none carry (0, -inf, 0.0), and the
    edges of states of several form the m_* CSR list."""
    csr = reference_entry_csr(graph)
    pred = np.zeros(csr.total, dtype=np.int64)
    t1 = np.full(csr.total, -np.inf)
    t2 = np.zeros(csr.total)
    counts = np.diff(np.append(csr.e_start, csr.e_src.size))
    for k in np.flatnonzero(counts == 1):
        s, e = csr.entry_first[k], csr.e_start[k]
        pred[s], t1[s], t2[s] = csr.e_exit[e], csr.e_exit_log[e], csr.e_w[e]
    inner = np.flatnonzero(~np.isin(np.arange(csr.total), csr.offsets))
    pred[inner], t1[inner] = inner - 1, csr.log_adv[inner - 1]
    many = counts[csr.e_seg] > 1
    return {
        "pred": pred,
        "t1": t1,
        "t2": t2,
        "m_first": csr.entry_first[counts > 1],
        "m_start": np.flatnonzero(np.diff(np.append(-1, csr.e_seg[many]))).astype(np.int64),
        "m_target": csr.entry_first[csr.e_seg[many]],
        "m_exit": csr.e_exit[many],
        "m_exit_log": csr.e_exit_log[many],
        "m_w": csr.e_w[many],
    }


# ---------------------------------------------------------------------------
# reference decoder


@np.errstate(over="ignore")  # as actionseg.decoder.decode
def reference_decode(graph: DecodingGraph, seq, beam=None, priors=None) -> DecodeResult:
    """Token passing with a Python loop over graph nodes per frame and a
    per-Gmm observation table from the reference kernels: the
    straightforward form of actionseg.decoder.decode, which must match it
    exactly."""
    if beam is not None and beam < 1:
        raise ValueError("beam must keep at least one state")
    frames = seq.frames if isinstance(seq, FeatureSequence) else np.asarray(seq, dtype=np.float64)
    if frames.ndim != 2:
        raise DataError(f"expected a (T, m) frame array, got shape {frames.shape}")
    T = frames.shape[0]
    nodes = graph.nodes

    offsets = np.empty(len(nodes), dtype=np.int64)
    total = 0
    for i, node in enumerate(nodes):
        offsets[i] = total
        total += graph.hmms[node.unit_id].n
    log_self = np.empty(total)
    log_next = np.empty(total)
    first = np.zeros(total, dtype=bool)
    exit_state = np.empty(len(nodes), dtype=np.int64)
    exit_log = np.empty(len(nodes))
    obs = np.empty((T, total))
    for i, node in enumerate(nodes):
        hmm = graph.hmms[node.unit_id]
        o = offsets[i]
        log_self[o : o + hmm.n] = hmm.log_self
        log_next[o : o + hmm.n] = hmm.log_next
        first[o] = True
        exit_state[i] = o + hmm.n - 1
        exit_log[i] = hmm.log_next[-1]
        for k, g in enumerate(hmm.obs):
            obs[:, o + k] = reference_gmm_log_prob(g, frames)
    incoming: list[list[tuple[int, float]]] = [[] for _ in nodes]
    for node in nodes:
        for j, w in node.edges:
            incoming[j].append((node.index, w))
    in_src, in_w = [], []
    for lst in incoming:
        lst.sort()
        in_src.append(np.array([i for i, _ in lst], dtype=np.int64))
        in_w.append(np.array([w for _, w in lst]))
    links: list[tuple[int, int, int]] = []

    def fail(t: int):
        if beam is not None:
            raise BeamPrunedError(
                f"no surviving token at frame {t}; the beam ({beam}) may be "
                "too tight, retry with a wider one"
            )
        raise NoPathError(f"no legal path covers all {T} frames")

    def prior_of(node) -> float:
        if priors is None:
            return 0.0
        return float(priors.get(node.unit_id, 0.0))

    def apply_beam(scores: np.ndarray) -> None:
        finite = scores > -np.inf
        if int(finite.sum()) <= beam:
            return
        cutoff = np.partition(scores[finite], -beam)[-beam]
        scores[scores < cutoff] = -np.inf

    score = np.full(total, -np.inf)
    link = np.full(total, -1, dtype=np.int64)
    for j, w in graph.start_edges:
        cand = w + prior_of(nodes[j])
        if cand > score[offsets[j]]:
            score[offsets[j]] = cand
    score += obs[0]
    if beam is not None:
        apply_beam(score)
    if not np.any(score > -np.inf):
        fail(0)

    for t in range(1, T):
        stay = score + log_self
        adv = np.full(total, -np.inf)
        adv[1:] = score[:-1] + log_next[:-1]
        adv[first] = -np.inf
        take_adv = adv >= stay
        trans = np.where(take_adv, adv, stay)
        new_link = np.where(take_adv, np.roll(link, 1), link)

        exits = score[exit_state] + exit_log
        exit_links = link[exit_state]
        for j in range(len(nodes)):
            src = in_src[j]
            if src.size == 0:
                continue
            cand = exits[src] + in_w[j] + prior_of(nodes[j])
            k = int(np.argmax(cand))
            best = cand[k]
            o = offsets[j]
            if best > -np.inf and best >= trans[o]:
                trans[o] = best
                links.append((int(exit_links[src[k]]), int(src[k]), t - 1))
                new_link[o] = len(links) - 1

        score = trans + obs[t]
        link = new_link
        if beam is not None:
            apply_beam(score)
        if not np.any(score > -np.inf):
            fail(t)

    best_i = -1
    best_score = -np.inf
    for i, node in enumerate(nodes):
        if not node.terminal:
            continue
        s = score[exit_state[i]] + exit_log[i]
        if s > best_score:
            best_score = s
            best_i = i
    if best_i < 0 or best_score == -np.inf:
        fail(T - 1)

    chain = [(best_i, T - 1)]
    cur = int(link[exit_state[best_i]])
    while cur != -1:
        prev, node_idx, end = links[cur]
        chain.append((node_idx, end))
        cur = prev
    chain.reverse()

    segs = []
    start = 0
    for node_idx, end in chain:
        segs.append((nodes[node_idx].unit_id, start, end))
        start = end + 1
    segmentation = Segmentation(tuple(segs))
    return DecodeResult(
        activity=nodes[best_i].activity,
        segmentation=segmentation,
        transcript=segmentation_to_transcript(segmentation),
        log_prob=float(best_score),
    )


@np.errstate(over="ignore")  # as actionseg.decoder.decode
def arena_decode(graph: DecodingGraph, seq, beam=None, priors=None) -> DecodeResult:
    """The vectorized token passing that actionseg.decoder.decode replaced:
    every frame carries each state's link forward, and every unit entry
    records (previous link, finished node, end frame) in a boundary arena
    of per-frame arrays, which the winning token's chain is read back from.
    decode must match it exactly, failures included."""
    if beam is not None and beam < 1:
        raise ValueError("beam must keep at least one state")
    model = _layout(graph)  # for the observation table only
    frames = _frames(seq, model.bank.dim)
    T = frames.shape[0]
    obs = model.obs_table(frames)
    lay = reference_entry_csr(graph)
    # link id arena_base[k] + r is the r-th entry made after frame
    # arena_end[k]; it finished node arena_node[k][r] and continues the
    # chain at link arena_prev[k][r]
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
    e_index = np.arange(n_edges)
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
                hit = np.where(cand == best[lay.e_seg], e_index, n_edges)
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


@np.errstate(over="ignore")  # as actionseg.decoder.decode
def csr_decode(graph: DecodingGraph, seq, beam=None, priors=None) -> DecodeResult:
    """The frame step that actionseg.decoder.decode replaced, over the
    lattice it still keeps: every state first stays or advances within its
    unit, then one CSR step over all incoming edges computes each entry's
    candidates and np.maximum.reduceat picks each entry state's best; the
    trace-back redoes the within-unit choice and then the entry choice.
    decode must match it exactly, failures included."""
    if beam is not None and beam < 1:
        raise ValueError("beam must keep at least one state")
    model = _layout(graph)  # for the observation table only
    frames = _frames(seq, model.bank.dim)
    T = frames.shape[0]
    S = model.obs_table(frames)  # overwritten row by row with the lattice
    lay = reference_entry_csr(graph)
    prior = [0.0 if priors is None else float(priors.get(n.unit_id, 0.0)) for n in graph.nodes]
    e_prior = np.array(prior)[lay.entry_nodes][lay.e_seg]

    start = np.full(lay.total, -np.inf)
    for j, w in graph.start_edges:
        cand = w + prior[j]
        if cand > start[lay.offsets[j]]:
            start[lay.offsets[j]] = cand
    S[0] += start
    if beam is not None:
        _apply_beam(S[0], beam)

    # adv[0] stays -inf: state 0 is a unit's first state
    adv = np.full(lay.total, -np.inf)
    adv_tail = adv[1:]
    for score, row in zip(S, S[1:]):
        stay = score + lay.log_self
        np.add(score[:-1], lay.log_adv, out=adv_tail)
        trans = np.where(adv >= stay, adv, stay)
        if lay.e_start.size:
            cand = (score.take(lay.e_exit) + lay.e_exit_log + lay.e_w) + e_prior
            best = np.maximum.reduceat(cand, lay.e_start)
            tef = trans[lay.entry_first]
            trans[lay.entry_first] = np.where(best >= tef, best, tef)
        row += trans
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
    # goes as it did there; the first edge reaching an entry's best wins.
    segs = []
    node, end, s = best_i, T - 1, int(lay.exit_state[best_i])
    tb_self, tb_adv = lay.log_self.tolist(), lay.log_adv.tolist()
    for t in range(T - 1, 0, -1):
        stay = S.item(t - 1, s) + tb_self[s]
        adv = S.item(t - 1, s - 1) + tb_adv[s - 1] if s else -np.inf
        trans, prev = (adv, s - 1) if adv >= stay else (stay, s)
        if s in lay.tb_entries:
            j, edges = lay.tb_entries[s]
            best, came = -np.inf, None
            for src, exit_state, exit_log, w in edges:
                cand = S.item(t - 1, exit_state) + exit_log + w + prior[j]
                if cand > best:
                    best, came = cand, (src, exit_state)
            if best > -np.inf and best >= trans:
                segs.append((graph.nodes[node].unit_id, t, end))
                (node, prev), end = came, t - 1
        s = prev
    segs.append((graph.nodes[node].unit_id, 0, end))
    segmentation = Segmentation(tuple(reversed(segs)))
    return DecodeResult(
        activity=graph.nodes[best_i].activity,
        segmentation=segmentation,
        transcript=segmentation_to_transcript(segmentation),
        log_prob=float(best_score),
    )


def reference_force_align(hmms, transcript, seq, beam=None) -> Segmentation:
    """Forced alignment of one sequence as a graph decode: a chain graph
    with one node per transcript unit and 0-weight edges, decoded by
    reference_decode.  The input checks come first, in the order in which
    actionseg.decoder.force_align must report them."""
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
    _frames(frames, hmms[min(units)].dim)
    return reference_decode(chain_graph(hmms, units), frames, beam=beam).segmentation


def chain_graph(hmms, units) -> DecodingGraph:
    """The single-sentence graph of a transcript: one node per unit, each
    joined to the next by a 0-weight edge."""
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
    return DecodingGraph(nodes=nodes, start_edges=((0, 0.0),), hmms=dict(hmms), kind="grammar")


# ---------------------------------------------------------------------------
# reference unit recursions and training


def reference_max_product(
    S: np.ndarray, start, step: tuple, beam: int | None, rows: int, plus=np.maximum
) -> None:
    """actionseg.hmm._max_product as it stepped each frame before the stay
    and the advance shared one gather: np.add for the stay, take for the
    advance, one += per add vector, plus, and += of the row, which must give
    the same lattice bit for bit."""
    T, W = S.shape
    log_self, pred, adds, (first, starts, exits, m_adds) = step
    blocks = S.reshape(T, rows, -1) if rows > 1 else S
    S[0] += start
    if beam is not None:
        _apply_beam(blocks[0], beam)
    stay, adv = np.empty(W), np.empty(W)
    for score, row, block in zip(S, S[1:], blocks[1:]):
        np.add(score, log_self, out=stay)
        score.take(pred, out=adv, mode="clip")
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


def reference_ends_by_frame(lengths) -> dict[int, np.ndarray]:
    """Last frame -> indices of the sequences that end there, ascending."""
    last = np.asarray(lengths) - 1
    return {int(t): np.flatnonzero(last == t) for t in np.unique(last)}


def reference_forward(obs: np.ndarray, ls: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """The forward recursion that baum_welch ran before its forward pass
    moved onto actionseg.hmm._max_product: (T, B, n) forward
    log-probabilities of a padded observation table; a sequence's total is
    its alpha[lengths[b] - 1, b, n - 1] + ln[n - 1]."""
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


def reference_backward(
    obs: np.ndarray, ls: np.ndarray, ln: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """The backward recursion that baum_welch ran before its backward pass
    moved onto actionseg.hmm._max_product, over the chains reversed in time
    and in state order: (T, B, n) backward log-probabilities of a table
    padded past each end, where each sequence's recursion starts at its own
    last frame, which leaves through the exit."""
    T, B, n = obs.shape
    ends = reference_ends_by_frame(lengths)
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


def reference_transitions(self_counts: np.ndarray, adv_counts: np.ndarray) -> tuple:
    """Floored, renormalized (log_self, log_next) from (expected) counts."""
    num_self = self_counts + TRANS_FLOOR
    num_adv = adv_counts + TRANS_FLOOR
    tot = num_self + num_adv
    return np.log(num_self / tot), np.log(num_adv / tot)


def reference_viterbi(
    obs: np.ndarray, ls: np.ndarray, ln: np.ndarray, lengths: np.ndarray, beam: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The unit-chain recursion that actionseg.hmm._chain_paths replaced,
    with a boolean back-pointer table over a (T, B, n) padded observation
    table.  Best paths: (T, B) states, (B,) log-probabilities (-inf or NaN
    when a sequence has no path of finite probability), and dead (see
    below).

    On equal scores the advancing predecessor wins, which makes each path
    the lexicographically smallest optimum (frames sit in the lowest state
    index compatible with the best score).  With a beam, every frame's
    scores are pruned row by row by _apply_beam, and dead[b] is the first
    frame at which sequence b has no score above -inf (a NaN counts as
    none), or lengths[b] if that never happens; without one, dead is None.
    A NaN candidate loses to the stay here, where the max-product kernel
    propagates it.
    """
    T, B, n = obs.shape
    ends = reference_ends_by_frame(lengths)
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


def reference_viterbi_align(hmm: UnitHmm, seq) -> StatePath:
    """One sequence, one Python loop over frames: the straightforward form
    of actionseg.hmm.viterbi_align, which must match it exactly."""
    frames = _frames(seq, hmm.dim)
    T, n = frames.shape[0], hmm.n
    if T < n:
        raise NoPathError(f"{T} frames cannot visit all {n} states")
    obs = reference_obs_log_prob(hmm, frames)
    ls, ln = hmm.log_self, hmm.log_next

    delta = np.full((T, n), -np.inf)
    psi = np.zeros((T, n), dtype=np.int64)
    delta[0, 0] = obs[0, 0]
    state_idx = np.arange(n)
    for t in range(1, T):
        stay = delta[t - 1] + ls
        adv = np.full(n, -np.inf)
        adv[1:] = delta[t - 1, :-1] + ln[:-1]
        take_adv = adv >= stay
        delta[t] = np.where(take_adv, adv, stay) + obs[t]
        psi[t] = np.where(take_adv, state_idx - 1, state_idx)

    total = delta[T - 1, n - 1] + ln[n - 1]
    if not np.isfinite(total):
        raise NoPathError("no path of finite probability reaches the final state")
    states = np.empty(T, dtype=np.int64)
    states[T - 1] = n - 1
    for t in range(T - 1, 0, -1):
        states[t - 1] = psi[t, states[t]]
    return StatePath(states=states, log_prob=float(total))


def forward_loglik(hmm: UnitHmm, seq) -> float:
    """Total log-probability summed over all legal paths (-inf when T < n),
    through the forward pass that baum_welch runs: the max-product kernel
    in the log semiring."""
    frames = _frames(seq, hmm.dim)
    T, n = frames.shape[0], hmm.n
    if T < n:
        return float("-inf")
    S = hmm.obs_log_prob(frames)
    _max_product(S, *_chain_step(hmm.log_self, hmm.log_next, 1), None, 1, np.logaddexp)
    return float(S[T - 1, n - 1] + hmm.log_next[n - 1])


def reference_forward_loglik(hmm: UnitHmm, seq) -> float:
    """The per-frame loop form of forward_loglik."""
    frames = _frames(seq, hmm.dim)
    T, n = frames.shape[0], hmm.n
    if T < n:
        return float("-inf")
    obs = reference_obs_log_prob(hmm, frames)
    ls, ln = hmm.log_self, hmm.log_next
    alpha = np.full(n, -np.inf)
    alpha[0] = obs[0, 0]
    for t in range(1, T):
        adv = np.full(n, -np.inf)
        adv[1:] = alpha[:-1] + ln[:-1]
        alpha = np.logaddexp(alpha + ls, adv) + obs[t]
    return float(alpha[n - 1] + ln[n - 1])


def reference_viterbi_train(hmm: UnitHmm, seqs, max_iter=10, tol=1e-4, history=None) -> UnitHmm:
    """actionseg.hmm.viterbi_train with one reference_viterbi_align call
    per sequence and per-sequence statistics."""
    model = hmm.copy()
    usable = _usable_frames(model, seqs)
    floor = variance_floor(np.concatenate(usable))
    n = model.n

    prev_total = -np.inf
    for it in range(max_iter):
        paths = [reference_viterbi_align(model, a) for a in usable]
        total = 0.0
        for p in paths:  # left to right, as Python < 3.12's sum() adds floats
            total += p.log_prob
        if history is not None:
            history.append(total)
        if it > 0 and total - prev_total < tol:
            break
        prev_total = total

        self_counts = np.zeros(n)
        adv_counts = np.zeros(n)
        per_state = [[] for _ in range(n)]
        for a, p in zip(usable, paths):
            s = p.states
            for j in range(n):
                sel = a[s == j]
                if sel.shape[0]:
                    per_state[j].append(sel)
            if s.size > 1:
                stayed = s[1:] == s[:-1]
                np.add.at(self_counts, s[:-1][stayed], 1.0)
                np.add.at(adv_counts, s[:-1][~stayed], 1.0)
            adv_counts[n - 1] += 1.0
        new_obs = []
        for j in range(n):
            X = np.concatenate(per_state[j])
            g, _ = reference_em_step(model.obs[j], X, floor)
            new_obs.append(g)
        model = UnitHmm(model.unit_id, *reference_transitions(self_counts, adv_counts), new_obs)
    return model


def reference_baum_welch(hmm: UnitHmm, seqs, max_iter=10, tol=1e-4, history=None) -> UnitHmm:
    """actionseg.hmm.baum_welch with one forward-backward loop per sequence.
    Each sequence's expected transitions and responsibilities are kept as
    rows, and the rows of all sequences are summed at once, in input order."""
    model = hmm.copy()
    usable = _usable_frames(model, seqs)
    if max_iter <= 0:
        return model
    X = np.concatenate(usable)
    floor = variance_floor(X)
    n = model.n

    prev_total = -np.inf
    for it in range(max_iter):
        ls, ln = model.log_self, model.log_next
        total = 0.0
        xi_self, xi_adv = [], []
        resp = [[] for _ in range(n)]

        for a in usable:
            T = a.shape[0]
            obs = reference_obs_log_prob(model, a)
            alpha = np.full((T, n), -np.inf)
            alpha[0, 0] = obs[0, 0]
            for t in range(1, T):
                adv = np.full(n, -np.inf)
                adv[1:] = alpha[t - 1, :-1] + ln[:-1]
                alpha[t] = np.logaddexp(alpha[t - 1] + ls, adv) + obs[t]
            ll = alpha[T - 1, n - 1] + ln[n - 1]
            if not np.isfinite(ll):
                raise NoPathError("no path of finite probability reaches the final state")
            total += ll

            # beta + obs, each step's terms in the order of the kernel's pass
            # over the reversed chain
            beta_obs = np.full((T, n), -np.inf)
            beta_obs[T - 1, n - 1] = obs[T - 1, n - 1] + ln[n - 1]
            for t in range(T - 2, -1, -1):
                adv = np.full(n, -np.inf)
                adv[:-1] = beta_obs[t + 1, 1:] + ln[:-1]
                beta_obs[t] = obs[t] + np.logaddexp(adv, beta_obs[t + 1] + ls)

            with np.errstate(invalid="ignore"):  # -inf - -inf where obs is -inf
                gamma_log = alpha + (beta_obs - obs) - ll
            xi_self.append(np.exp(alpha[:-1] + ls + beta_obs[1:] - ll))
            xi_adv.append(np.exp(alpha[:-1, :-1] + ln[:-1] + beta_obs[1:, 1:] - ll))
            for j in range(n):
                g = model.obs[j]
                comp = reference_kernel_log_prob(a, g.weights, g.means, g.variances)
                with np.errstate(invalid="ignore"):  # -inf - -inf: state j cannot emit the frame
                    resp[j].append(
                        np.exp(np.fmax(gamma_log[:, j : j + 1] + comp - obs[:, j : j + 1], -np.inf))
                    )

        if history is not None:
            history.append(float(total))
        if it > 0 and total - prev_total < tol:
            break
        prev_total = total

        self_exp = np.concatenate(xi_self).sum(axis=0)
        adv_exp = np.zeros(n)
        adv_exp[:-1] = np.concatenate(xi_adv).sum(axis=0)
        adv_exp[n - 1] = len(usable)
        new_obs = [
            reference_m_step(model.obs[j], np.concatenate(resp[j]), X, floor) for j in range(n)
        ]
        model = UnitHmm(model.unit_id, *reference_transitions(self_exp, adv_exp), new_obs)
    return model
