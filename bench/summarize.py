"""Repeat the benchmark over seeds and summarize each metric's spread.

Usage, from the repository root:

    python3 bench/summarize.py --workloads wide-grammar encoded-fv --runs 10
    python3 bench/summarize.py --runs 10 --out bench/baseline.json

Each run is one `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...).  For every metric the summary gives the median, the
quartiles from statistics.quantiles(values, n=4), and the spread: the
distance between the quartiles as a share of the median.  With --out the
summary is written into a JSON file, under "end_to_end" or (with --trace 1)
"per_layer", together with the machine and code-size facts that run.py
prints under "env".
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns its result line and its env line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    env = next(json.loads(l.split("env ", 1)[1]) for l in lines if l.startswith("  env "))
    return json.loads(lines[-1]), env


def spread_of(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = {}
    env = {}
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        units = {}
        for i in range(args.runs):
            result, env = run(workload, args.first_seed + i, seconds, args.trace)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        print(f"{workload}: {args.runs} runs")
        for name, values in per_metric.items():
            row = spread_of(values)
            row["unit"] = units[name]
            rows[name] = row
            bound = bounds.get(name)
            mark = "" if bound is None or name == "setup_s" or row["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:40s} median {row['median']:12.6g} {units[name]:9s} "
                  f"spread {row['spread']:7.2%}  bound {bound if bound is not None else '-'}{mark}")
            print("      " + " ".join(f"{v:.5g}" for v in values))
        workloads[workload] = rows
    if args.out is not None:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        doc["per_layer" if args.trace else "end_to_end"] = {
            "runs": args.runs, "first_seed": args.first_seed, "seconds": seconds, "workloads": workloads,
        }
        doc["env"] = env
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
