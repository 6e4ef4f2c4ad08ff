"""The narrated demos still run to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["decoding_graph_tour.py", "quickstart_synthetic.py", "weak_supervision_walkthrough.py"]
)
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "demos" / script)]
    if script == "quickstart_synthetic.py":
        argv += ["--out", str(tmp_path / "data")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
