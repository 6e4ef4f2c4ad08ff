"""The benchmark's layer tracer names functions of the program; it must
keep finding them."""
import ast
import importlib
import inspect
from pathlib import Path

from actionseg.decoder import force_align

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_constant(name: str):
    """A literal module-level constant of bench/tracer.py, read without
    importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


def test_every_traced_name_resolves_to_a_callable():
    wrapped = _tracer_constant("WRAPPED")
    assert wrapped
    for name in wrapped:
        module, *path = name.split(".")
        obj = importlib.import_module(f"actionseg.{module}")
        for attr in path:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_force_align_takes_the_sequences_third():
    # the tracer counts a force_align call's work as len(args[2])
    params = list(inspect.signature(force_align).parameters)
    assert params[:3] == ["hmms", "transcripts", "seqs"]
