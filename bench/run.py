"""Run one benchmark workload end to end and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload wide-grammar --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each

The workload's inputs are generated from --seed; then the public commands
run one phase at a time (encode, train or bootstrap, decode, eval), each
timed from outside.  train_s is the encode phase, where the workload has
one, plus the train or bootstrap phase.  A closed loop with one caller
then decodes every clip one by one, in whole passes until --seconds have
passed, for the per-clip latency percentiles and the median per-clip
decode rate.  Setup (a fresh interpreter that imports actionseg, loads
the manifest and bundle and composes the graph) is timed seven times and
setup_s is the median.  The sample counts are printed with the metrics.

Every run checks its outputs (see gate.py); a failed check makes the run
fail.  With --trace 1 the phases run once untraced and once traced, and
the per-layer metrics, span coverage and tracing overhead are reported
instead of the end-to-end metrics; the spans are written, gzipped, to
.bench_out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import check_results, grammar_sentences, sha256_file  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TEST_SPLIT,
    WORKLOADS,
    Workload,
    add_weak_splits,
    phase_argvs,
    synth_argv,
)

# name -> (unit, better); BENCHMARK.json at the repository root lists the
# same names with their bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "decode_frames_per_s": ("frames/s", "higher"),
    "decode_clip_ms_p50": ("ms", "lower"),
    "decode_clip_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "mof": ("ratio", "higher"),
    "moc": ("ratio", "higher"),
    "jaccard": ("ratio", "higher"),
    "activity_acc": ("ratio", "higher"),
    "decode_ok_ratio": ("ratio", "higher"),
}

SETUP_STARTS = 7  # fresh interpreters timed per run; setup_s is their median
WORK_DIR = ".bench_work"
TRACE_DIR = ".bench_out"

SETUP_SCRIPT = """
import sys
import actionseg
from actionseg.data import load_manifest
from actionseg.grammar import compose
from actionseg.pipeline import load_bundle
load_manifest(sys.argv[1])
bundle = load_bundle(sys.argv[2])
compose(bundle.grammar, bundle.hmms)
"""


class RunFailed(Exception):
    """A command exited non-zero, or the workload's inputs could not be built."""


def run_cli(argv: list[str]) -> str:
    """Run one actionseg command in this process; return its stdout."""
    from actionseg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RunFailed(f"actionseg {argv[0]} exited with code {code}")
    return out.getvalue()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; failed samples are passed in as inf."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def run_phases(argvs: list[tuple[str, list[str]]], out: Path, tracer: Tracer | None = None) -> dict[str, float]:
    """Run the given commands in order; return the wall time of each."""
    times = {}
    for phase, argv in argvs:
        t0 = time.perf_counter()
        if tracer is None:
            stdout = run_cli(argv)
        else:
            stdout = tracer.call(f"phase.{phase}", run_cli, argv)
        times[phase] = time.perf_counter() - t0
        if phase == "eval":
            (out / "eval.json").write_text(stdout, encoding="utf-8")
    return times


def check_outputs(w: Workload, data: Path, out: Path) -> dict:
    """Gate the decode outputs; return quality figures and output digests."""
    from actionseg.data import load_manifest, read_segment_names
    from actionseg.pipeline import load_bundle

    manifest = load_manifest(data / "manifest.json")
    bundle = load_bundle(out / "model")
    results = json.loads((out / "pred" / "results.json").read_text(encoding="utf-8"))
    test_ids = manifest.split_ids(TEST_SPLIT)
    # the generator's reference segmentation gives each clip's frame count
    frames = {cid: read_segment_names(manifest.clip(cid).segmentation)[-1][1] + 1 for cid in test_ids}
    problems = check_results(results, frames, grammar_sentences(bundle))
    overall = json.loads((out / "eval.json").read_text(encoding="utf-8"))["overall"]
    hits = sum(
        results["clips"].get(cid, {}).get("activity") == manifest.clip(cid).activity
        for cid in test_ids
    )
    return {
        "problems": problems,
        "clips": len(test_ids),
        "frames": sum(frames.values()),
        "activity_acc": hits / len(test_ids),
        "mof": overall["mof"],
        "moc": overall["moc"],
        "jaccard": overall["jaccard"],
        "results_sha256": sha256_file(out / "pred" / "results.json"),
        "hmms_sha256": sha256_file(out / "model" / "hmms.json"),
        "results": results,
    }


def latency_loop(w: Workload, manifest_path: Path, model: Path, results: dict, seconds: float) -> dict:
    """Decode every clip of the dataset one at a time, one caller, in whole
    passes until `seconds` have passed.

    Train clips are decoded too, which doubles the sample of clip lengths
    the percentiles rest on.  Per clip it records the latency and the
    frames decoded per second; a failed decode counts as infinitely slow.
    The first pass must reproduce the decode command's test results exactly.
    """
    from actionseg.data import load_features, load_manifest
    from actionseg.decoder import decode
    from actionseg.errors import DecodeError
    from actionseg.grammar import compose
    from actionseg.pipeline import load_bundle

    manifest = load_manifest(manifest_path)
    bundle = load_bundle(model)
    graph = compose(bundle.grammar, bundle.hmms)
    priors = bundle.priors if w.prior else None
    clips = [(rec.clip_id, load_features(rec.features)) for rec in manifest.clips]
    samples: list[float] = []
    rates: list[float] = []
    failed = 0
    problems = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for cid, seq in clips:
            t0 = time.perf_counter()
            try:
                res = decode(graph, seq, beam=w.beam, priors=priors)
            except DecodeError:
                failed += 1
                samples.append(float("inf"))
                rates.append(0.0)
                continue
            elapsed = time.perf_counter() - t0
            samples.append(elapsed)
            rates.append(seq.num_frames / elapsed)
            if passes == 0 and cid in results["clips"] and res.to_dict(bundle.lexicon) != results["clips"][cid]:
                problems.append(f"{cid}: one-caller decode differs from the decode command's result")
        passes += 1
    return {"samples": samples, "rates": rates, "failed": failed, "passes": passes, "problems": problems}


def time_process(root: Path, args: list[str]) -> float:
    """Wall time of one fresh interpreter running args against the checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=root, capture_output=True,
                              text=True, timeout=150)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{' '.join(args[:3])} ran longer than 150 s") from None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(args[:3])} exited with code {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed


def prepare(w: Workload, seed: int, data: Path) -> None:
    """Generate the workload's dataset under data."""
    run_cli(synth_argv(w, data, seed))
    if w.bootstrap_rounds:
        try:
            add_weak_splits(data)
        except ValueError as exc:
            raise RunFailed(str(exc)) from None


def run_untraced(w: Workload, seed: int, seconds: float, root: Path, work: Path) -> dict:
    data, out = work / "data", work / "run"
    t0 = time.perf_counter()
    prepare(w, seed, data)
    synth_s = time.perf_counter() - t0
    phases = run_phases(phase_argvs(w, data, out), out)
    gate = check_outputs(w, data, out)
    manifest = (out / "encoded" if w.encode else data) / "manifest.json"
    loop = latency_loop(w, manifest, out / "model", gate["results"], seconds)
    setup = [time_process(root, ["-c", SETUP_SCRIPT, str(manifest), str(out / "model")])
             for _ in range(SETUP_STARTS)]
    problems = gate["problems"] + loop["problems"]
    ms = [s * 1e3 for s in loop["samples"]]
    metrics = {
        "setup_s": statistics.median(setup),
        # fitting the encoder on the train split is part of training
        "train_s": phases.get("encode", 0.0) + phases["train"],
        "decode_frames_per_s": statistics.median(loop["rates"]),
        "decode_clip_ms_p50": percentile(ms, 50),
        "decode_clip_ms_p90": percentile(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mof": gate["mof"],
        "moc": gate["moc"],
        "jaccard": gate["jaccard"],
        "activity_acc": gate["activity_acc"],
        "decode_ok_ratio": 1 - loop["failed"] / len(loop["samples"]),
    }
    info = {
        "phase_s": {"synth": synth_s, **phases},
        "test_clips": gate["clips"],
        "test_frames": gate["frames"],
        "decode_command_frames_per_s": gate["frames"] / phases["decode"],
        "latency_samples": len(loop["samples"]),
        "latency_passes": loop["passes"],
        "setup_starts_s": setup,
        "results_sha256": gate["results_sha256"],
        "hmms_sha256": gate["hmms_sha256"],
    }
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "attempted": gate["clips"] + len(loop["samples"]),
        "failed": loop["failed"] + len(problems),
        "problems": problems,
        "info": info,
    }


def run_traced(w: Workload, seed: int, root: Path, work: Path) -> dict:
    data = work / "data"
    prepare(w, seed, data)
    plain = run_phases(phase_argvs(w, data, work / "plain"), work / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phases(phase_argvs(w, data, work / "traced"), work / "traced", tracer)
    finally:
        tracer.uninstall()
    gate = check_outputs(w, data, work / "traced")
    problems = list(gate["problems"])
    for name in ("pred/results.json", "model/hmms.json"):
        if sha256_file(work / "plain" / name) != sha256_file(work / "traced" / name):
            problems.append(f"{name} differs between the untraced and the traced run")
    coverage = tracer.phase_coverage()
    timed = [p for p in traced if p != "eval"]  # eval is the quality check, not a timed phase
    for phase in timed:
        if coverage[f"phase.{phase}"] < 0.95:
            problems.append(f"named spans cover {coverage[f'phase.{phase}']:.1%} of the {phase} phase, below 95%")
    metrics = tracer.layer_metrics()
    metrics["trace.coverage_min"] = min(coverage[f"phase.{p}"] for p in timed)
    metrics["trace.overhead_ratio"] = sum(traced[p] for p in timed) / sum(plain[p] for p in timed) - 1
    trace_dir = root / TRACE_DIR
    trace_dir.mkdir(exist_ok=True)
    spans = trace_dir / f"trace-{w.name}-seed{seed}.jsonl.gz"
    tracer.write(spans)
    self_s, _, _ = tracer.self_times()
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "attempted": gate["clips"],
        "failed": len(problems),
        "problems": problems,
        "info": {
            "phase_s_untraced": plain,
            "phase_s_traced": traced,
            "coverage": coverage,
            "spans": len(tracer.spans),
            "spans_file": str(spans.relative_to(root)),
            "top_self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])[:12]),
        },
    }


def environment(root: Path) -> dict:
    """Machine and code-size facts printed with every run (informational)."""
    import numpy
    import scipy

    import actionseg

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "src_lines": src_lines,
        "all_size": len(actionseg.__all__),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_one(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = root / WORK_DIR / f"{w.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            return run_traced(w, seed, root, work)
        return run_untraced(w, seed, seconds, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()


def report_line(report: dict) -> str:
    correct = not report["problems"] and report["failed"] == 0
    return json.dumps(
        {
            "correct": correct,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": report["metrics"][name], "unit": report["units"][name][0]}
                for name in report["units"]
                if name in report["metrics"]
            },
        }
    )


def print_report(name: str, report: dict, env: dict) -> None:
    print(f"workload {name}")
    for metric, value in report["metrics"].items():
        unit, better = report["units"][metric]
        print(f"  {metric:40s} {value:14.6g} {unit:9s} ({better} is better)")
    for key, value in report["info"].items():
        print(f"  info {key}: {json.dumps(value)}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum length of the per-clip latency loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--clips", type=int, default=None,
                        help="override clips per activity (smoke tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "actionseg" / "__init__.py").is_file():
        print("error: run from the repository root; src/actionseg is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.clips is not None:
                cmd += ["--clips", str(args.clips)]
            codes.append(subprocess.run(cmd, cwd=root).returncode)
        return max(codes)

    sys.path.insert(0, str(root / "src"))
    os.environ["TMPDIR"] = str(root / WORK_DIR)  # keep any temporary file inside the checkout
    w = WORKLOADS[args.workload]
    if args.clips is not None:
        w = dataclasses.replace(w, clips=args.clips)
    try:
        report = run_one(w, args.seed, args.seconds, bool(args.trace), root)
    except RunFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}), flush=True)
        return 1
    print_report(w.name, report, environment(root))
    print(report_line(report), flush=True)
    return 0 if not report["problems"] and report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
