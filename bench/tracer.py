"""Layer tracing from outside the program.

The tracer replaces public functions of the actionseg modules with timing
wrappers, in every module namespace that binds them (``from .x import y``
copies a name into the importing module), and restores them afterwards.
Spans (id, name, start, end, parent) and counters are kept in memory and
written out once at the end.  Nothing inside the program changes: where a
layer records a history only on request, the wrapper passes a fresh list
and counts its entries.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "data", "decoder", "features", "gmm", "grammar", "hmm", "metrics", "pipeline", "util")

# Functions that take a `history=` list; the wrapper fills it to count iterations.
HISTORY = {"gmm.fit_em", "hmm.viterbi_train", "hmm.baum_welch"}

# Every wrapped function.  Those beyond the per-layer metrics below are
# wrapped so that each phase's time is attributed to named spans.
WRAPPED = (
    "data.load_features", "data.save_features", "data.load_manifest", "data.save_manifest",
    "data.read_segment_names", "data.write_segment_names",
    "gmm.Gmm.log_prob", "gmm.em_step", "gmm.fit_em",
    "hmm.UnitHmm.obs_log_prob", "hmm.init_hmm", "hmm.viterbi_align", "hmm.viterbi_train",
    "hmm.baum_welch",
    "features.fit_pca", "features.fit_fv_codebook", "features.window_fv_matrix",
    "features.FrameEncoder.encode", "features.save_encoder",
    "grammar.compose",
    "decoder.decode", "decoder.force_align", "decoder.DecodeResult.to_dict",
    "pipeline.train_supervised", "pipeline.bootstrap", "pipeline.extract_segments",
    "pipeline.balance_units", "pipeline.save_bundle", "pipeline.load_bundle",
    "metrics.mof", "metrics.moc", "metrics.jaccard",
    "util.parallel_map", "util.dump_json", "util.write_json",
)

# Per-layer metrics of a traced run: name -> (unit, better).  The names are
# <module>.<function>.<quantity>; self_s is span time minus child spans.
S = ("s", "lower")
N = ("count", "lower")
PER_LAYER = {
    "decoder.decode.self_s": S,
    "decoder.decode.calls": N,
    "decoder.decode.frames": N,
    "decoder.decode.node_frames": N,
    "decoder.decode.state_frames": N,
    "decoder.decode.failed": N,
    "decoder.obs_table.mb": ("MB", "lower"),
    "decoder.force_align.self_s": S,
    "decoder.force_align.calls": N,
    "decoder.force_align.frames": N,
    "gmm.Gmm.log_prob.self_s": S,
    "gmm.Gmm.log_prob.calls": N,
    "gmm.Gmm.log_prob.component_frames": N,
    "hmm.UnitHmm.obs_log_prob.self_s": S,
    "hmm.UnitHmm.obs_log_prob.calls": N,
    "hmm.UnitHmm.obs_log_prob.state_frames": N,
    "gmm.em_step.self_s": S,
    "gmm.em_step.calls": N,
    "gmm.fit_em.self_s": S,
    "gmm.fit_em.iters": N,
    "hmm.viterbi_align.self_s": S,
    "hmm.viterbi_align.calls": N,
    "hmm.viterbi_align.frames": N,
    "hmm.baum_welch.self_s": S,
    "hmm.baum_welch.iters": N,
    "hmm.viterbi_train.self_s": S,
    "hmm.viterbi_train.iters": N,
    "hmm.init_hmm.self_s": S,
    "data.load_features.self_s": S,
    "data.load_features.frames": N,
    "data.load_features.mb": ("MB", "lower"),
    "data.save_features.self_s": S,
    "data.save_features.frames": N,
    "features.fit_pca.self_s": S,
    "features.fit_fv_codebook.self_s": S,
    "features.window_fv_matrix.self_s": S,
    "pipeline.extract_segments.self_s": S,
    "pipeline.balance_units.self_s": S,
    "pipeline.save_bundle.self_s": S,
    "pipeline.load_bundle.self_s": S,
    "grammar.compose.self_s": S,
    "grammar.compose.nodes": N,
    "grammar.compose.states": N,
    "util.parallel_map.items": N,
    "util.parallel_map.wall_s": S,
    "util.parallel_map.efficiency": ("ratio", "higher"),
    "trace.coverage_min": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _num_frames(seq) -> int:
    return len(getattr(seq, "frames", seq))


def _graph_states(graph) -> int:
    return sum(graph.hmms[node.unit_id].n for node in graph.nodes)


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


# Work counted per call, from the call's arguments and result:
# function -> (args, result) -> {quantity: count}.
COUNTERS = {
    "gmm.Gmm.log_prob": lambda a, out: {"component_frames": _rows(a[1]) * a[0].n_components},
    "hmm.UnitHmm.obs_log_prob": lambda a, out: {"state_frames": _num_frames(a[1]) * a[0].n},
    "hmm.viterbi_align": lambda a, out: {"frames": _num_frames(a[1])},
    "decoder.force_align": lambda a, out: {"frames": _num_frames(a[2])},
    "data.load_features": lambda a, out: {"frames": out.num_frames, "mb": os.path.getsize(a[0]) / 1e6},
    "data.save_features": lambda a, out: {"frames": a[1].num_frames},
    "grammar.compose": lambda a, out: {"nodes": len(out.nodes), "states": _graph_states(out)},
}


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _max(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, t0, t1, parent))

    # -- wrappers --------------------------------------------------------

    def _wrapper(self, name: str, fn):
        if name == "util.parallel_map":
            return self._parallel_map_wrapper(fn)
        if name == "decoder.decode":
            return self._decode_wrapper(fn)
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if name in HISTORY else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if bound.arguments.get("history") is None:
                    bound.arguments["history"] = []
                out = self.call(name, fn, *bound.args, **bound.kwargs)
                self._count(name + ".iters", len(bound.arguments["history"]))
                return out
            out = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                for quantity, n in counter(args, out).items():
                    self._count(f"{name}.{quantity}", n)
            return out

        return wrapper

    def _decode_wrapper(self, fn):
        from actionseg.errors import DecodeError

        name = "decoder.decode"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == "decoder.force_align":
                # force_align is one linear-chain decode: its time is its own
                return fn(*args, **kwargs)
            graph, frames = args[0], _num_frames(args[1])
            states = _graph_states(graph)
            self._count(name + ".frames", frames)
            self._count(name + ".node_frames", frames * len(graph.nodes))
            self._count(name + ".state_frames", frames * states)
            self._max("decoder.obs_table.mb", frames * states * 8 / 1e6)
            try:
                return self.call(name, fn, *args, **kwargs)
            except DecodeError:
                self._count(name + ".failed")
                raise

        return wrapper

    def _parallel_map_wrapper(self, fn):
        name = "util.parallel_map"

        @functools.wraps(fn)
        def wrapper(func, items, jobs=1):
            items = list(items)
            busy = []
            stack = self._stack()

            def timed(x):
                own = self._stack()
                inherit = not own  # a worker thread starts under the map's span
                if inherit:
                    own.append(stack[-1])
                t0 = time.perf_counter()
                try:
                    return func(x)
                finally:
                    busy.append(time.perf_counter() - t0)
                    if inherit:
                        own.pop()

            t0 = time.perf_counter()
            out = self.call(name, fn, timed, items, jobs)
            wall = time.perf_counter() - t0
            workers = 1 if jobs <= 1 or len(items) <= 1 else min(jobs, len(items))
            self._count(name + ".items", len(items))
            self._count(name + ".wall_s", wall)
            self._count(name + ".busy_s", sum(busy))
            self._count(name + ".capacity_s", wall * workers)
            return out

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"actionseg.{m}") for m in MODULES}
        for name in WRAPPED:
            mod, *path = name.split(".")
            if len(path) == 2:  # a method: patch the class
                cls = getattr(mods[mod], path[0])
                orig = cls.__dict__[path[1]]
                self._patch(cls, path[1], orig, self._wrapper(name, orig))
                continue
            orig = getattr(mods[mod], path[0])
            wrapped = self._wrapper(name, orig)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr: str, orig, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[int, float]]:
        """Per-name self time and call count, and each span's child coverage.

        Children of one span may overlap (parallel_map workers), so the
        covered time is the length of the union of their intervals.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, t0, t1, parent in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        covered: dict[int, float] = {}
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, name, t0, t1, _ in self.spans:
            cov = _union_length(children.get(sid, ()), t0, t1)
            covered[sid] = cov
            self_s[name] += (t1 - t0) - cov
            calls[name] += 1
        return self_s, calls, covered

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* ones."""
        self_s, calls, _ = self.self_times()
        out = {}
        for metric in PER_LAYER:
            if metric.startswith("trace."):
                continue
            layer, quantity = metric.rsplit(".", 1)
            if quantity == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif quantity == "calls":
                out[metric] = calls.get(layer, 0)
            elif metric == "util.parallel_map.efficiency":
                cap = self.counts.get("util.parallel_map.capacity_s", 0.0)
                out[metric] = self.counts["util.parallel_map.busy_s"] / cap if cap else 0.0
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def phase_coverage(self) -> dict[str, float]:
        """Share of each top-level (phase) span's time covered by named spans."""
        _, _, covered = self.self_times()
        return {
            name: covered[sid] / (t1 - t0)
            for sid, name, t0, t1, parent in self.spans
            if parent is None and t1 > t0
        }

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: id, name, start, end (s, from the first span), parent."""
        base = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent in sorted(self.spans):
                fh.write(json.dumps([sid, name, t0 - base, t1 - base, parent]) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
