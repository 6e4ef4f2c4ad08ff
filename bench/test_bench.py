"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import check_clip, check_results  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# tiny sizes at which every workload still trains and decodes at seed 0
TINY_CLIPS = {"wide-grammar": 8, "encoded-fv": 6, "weak-bootstrap": 16}

SENTENCES = {("act0", ("SIL", "a", "b", "SIL")), ("act0", ("SIL", "b", "SIL"))}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_metric_names_carry_a_unit_and_a_direction():
    doc = spec()
    declared = {}
    for group in ("end_to_end", "per_layer"):
        for m in doc[group]:
            assert NAME.fullmatch(m["name"]), m
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
            assert m["name"] not in declared, m
            declared[m["name"]] = (m["unit"], m["better"])
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_gate_passes_a_tiling_grammar_sentence():
    entry = {"activity": "act0", "segments": [[0, 2, "SIL"], [3, 5, "b"], [6, 9, "SIL"]],
             "transcript": ["SIL", "b", "SIL"]}
    assert check_clip("c", entry, 10, SENTENCES) == []


@pytest.mark.parametrize(
    "segments, frames",
    [
        ([[0, 2, "SIL"], [4, 5, "b"], [6, 9, "SIL"]], 10),  # gap at frame 3
        ([[0, 2, "SIL"], [2, 5, "b"], [6, 9, "SIL"]], 10),  # frame 2 twice
        ([[1, 2, "SIL"], [3, 5, "b"], [6, 9, "SIL"]], 10),  # does not start at 0
        ([[0, 2, "SIL"], [3, 5, "b"], [6, 8, "SIL"]], 10),  # stops before T - 1
    ],
)
def test_gate_trips_on_a_non_tiling_prediction(segments, frames):
    entry = {"activity": "act0", "segments": segments, "transcript": ["SIL", "b", "SIL"]}
    problems = check_clip("c", entry, frames, SENTENCES)
    assert any("tiling" in p or "cover" in p for p in problems), problems


@pytest.mark.parametrize(
    "activity, units",
    [("act0", ["SIL", "a", "SIL"]), ("act1", ["SIL", "b", "SIL"]), ("act0", ["SIL", "b", "a", "SIL"])],
)
def test_gate_trips_on_a_transcript_outside_the_grammar(activity, units):
    bounds = [[3 * i, 3 * i + 2, u] for i, u in enumerate(units)]
    entry = {"activity": activity, "segments": bounds, "transcript": units}
    problems = check_clip("c", entry, 3 * len(units), SENTENCES)
    assert any("not a sentence of the grammar" in p for p in problems), problems


def test_gate_trips_on_missing_and_extra_clips():
    entry = {"activity": "act0", "segments": [[0, 9, "b"]], "transcript": ["b"]}
    problems = check_results({"clips": {"x": entry}}, {"y": 10}, {("act0", ("b",))})
    assert problems == ["y: missing from the results", "x: not a clip of the split"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_runs_through_the_harness(workload):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--clips", str(TINY_CLIPS[workload]))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".bench_work").exists()


def test_tiny_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "weak-bootstrap", "--seed", "0", "--trace", "1",
                     "--clips", str(TINY_CLIPS["weak-bootstrap"]))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
    assert metrics["trace.coverage_min"]["value"] >= 0.95
    assert metrics["decoder.force_align.calls"]["value"] > 0
    assert metrics["hmm.baum_welch.iters"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "wide-grammar", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
