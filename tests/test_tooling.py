"""The benchmark's layer tracer names functions of the program; it must
keep finding them.  Every public function must be reached from outside
its own module, every private one from somewhere in src, and training
arithmetic never calls BLAS."""
import ast
import dataclasses
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import actionseg
from actionseg.cli import build_parser
from actionseg.data import FeatureSequence, UnitLexicon
from actionseg.decoder import decode, force_align
from actionseg.grammar import Grammar, compose
from actionseg.synth import SynthSpec
from helpers import random_unit_hmm

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"
SRC = ROOT / "src" / "actionseg"


def _tracer_constant(name: str):
    """A literal module-level constant of bench/tracer.py, read without
    importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


def _program_object(name: str):
    """The object that a tracer name such as "hmm.UnitHmm.obs_log_prob"
    names in the program."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"actionseg.{module}")
    for attr in path:
        assert hasattr(obj, attr), name
        obj = getattr(obj, attr)
    return obj


def test_every_traced_name_resolves_to_a_callable():
    wrapped = _tracer_constant("WRAPPED")
    assert wrapped
    for name in wrapped:
        assert callable(_program_object(name)), name


def test_every_history_function_fills_the_list_it_is_given():
    # the tracer binds history=[] for each of these and counts the entries;
    # without the parameter the key would be dropped and the count read 0
    rng = np.random.default_rng(4)
    hmm = random_unit_hmm(rng, 0, n=2, K=1, m=2)
    seqs = [rng.normal(size=(8, 2)) for _ in range(3)]
    calls = {
        "gmm.fit_em": (rng.normal(size=(20, 2)), 2),
        "hmm.viterbi_train": (hmm, seqs),
        "hmm.baum_welch": (hmm, seqs),
    }
    assert set(calls) == _tracer_constant("HISTORY")
    for name, args in calls.items():
        fn = _program_object(name)
        assert "history" in inspect.signature(fn).parameters, name
        history: list = []
        fn(*args, history=history)
        assert history, name


def test_force_align_takes_the_sequences_third():
    # the tracer counts a force_align call's work as len(args[2])
    params = list(inspect.signature(force_align).parameters)
    assert params[:3] == ["hmms", "transcripts", "seqs"]


def test_decode_takes_the_graph_then_the_sequence():
    # the tracer counts a decode call's work from args[0] and args[1]
    params = list(inspect.signature(decode).parameters)
    assert params[:2] == ["graph", "seq"]


def _bench_module(monkeypatch, name: str) -> types.ModuleType:
    """bench/<name>.py, run from its source text so that nothing is
    written under bench/ and bench/ is not put on the import path."""
    path = BENCH / f"{name}.py"
    mod = types.ModuleType(f"bench_{name}")
    mod.__file__ = str(path)
    monkeypatch.setitem(sys.modules, mod.__name__, mod)  # dataclasses look it up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), mod.__dict__)
    return mod


def test_every_benchmark_command_line_parses(monkeypatch):
    # the benchmark passes --jobs and its other flags to the command line
    # as they are; every argv it builds must stay accepted
    workloads = _bench_module(monkeypatch, "workloads")
    assert len(workloads.WORKLOADS) == 3
    parser, _ = build_parser()
    for w in workloads.WORKLOADS.values():
        phases = workloads.phase_argvs(w, Path("data"), Path("run"))
        argvs = [workloads.synth_argv(w, Path("data"), 0), *(argv for _, argv in phases)]
        for argv in argvs:
            args = parser.parse_args(argv)
            assert args.command == argv[0]
            if "--jobs" in argv:
                assert args.jobs == w.jobs


def test_every_tracer_counter_reads_the_model_objects(monkeypatch, tmp_path):
    # the tracer counts a layer's work from attributes of what the layer is
    # called with or returns (.n, .n_components, .num_frames, .nodes); a
    # renamed attribute must fail here, not silently zero a per-layer metric
    tracer = _bench_module(monkeypatch, "tracer")
    rng = np.random.default_rng(3)
    hmms = {u: random_unit_hmm(rng, u, n=2, K=2, m=3) for u in range(3)}
    seq = FeatureSequence(rng.normal(size=(12, 3)), clip_id="c")
    feat = tmp_path / "c.feat"
    grammar = Grammar(UnitLexicon.from_names(("SIL", "a", "b")), {"act": ((0, 1, 2, 0),)})
    calls = {  # in an order that saves the feature file before loading it
        "gmm.Gmm.log_prob": (hmms[0].obs[0], seq.frames),
        "hmm.UnitHmm.obs_log_prob": (hmms[0], seq.frames),
        "hmm.viterbi_align": (hmms[1], seq),
        "decoder.force_align": (hmms, [(0, 1, 2)], [seq]),
        "data.save_features": (feat, seq),
        "data.load_features": (feat,),
        "grammar.compose": (grammar, hmms),
    }
    assert set(calls) == set(tracer.COUNTERS)
    for name, args in calls.items():
        fn = _program_object(name)
        counts = tracer.COUNTERS[name](args, fn(*args))
        assert counts and all(v > 0 for v in counts.values()), (name, counts)
    assert tracer._graph_states(compose(grammar, hmms)) == 8


def test_every_public_function_is_named_outside_its_module():
    # a public function that only tests call is API no command reaches: it
    # belongs in tests/helpers.py as an oracle, or nowhere.  Classes are
    # exempt because public functions return them.
    texts = {
        p: p.read_text(encoding="utf-8")
        for d in (SRC, BENCH, ROOT / "demos")
        for p in d.glob("*.py")
    }
    unreached = []
    for name in actionseg.__all__:
        obj = getattr(actionseg, name)
        if not inspect.isfunction(obj):
            continue
        home = {SRC / "__init__.py", Path(inspect.getsourcefile(obj)).resolve()}
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for p, text in texts.items() if p not in home):
            unreached.append(name)
    assert not unreached, f"public functions no command, module or demo names: {unreached}"


def test_every_private_function_is_called_in_src():
    # a private function that no code in src names is left over from a
    # caller that was rewired: it belongs in tests/helpers.py as an
    # oracle, or nowhere
    defined, named = {}, set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined
    unused = sorted(f"{name} ({where})" for name, where in defined.items() if name not in named)
    assert not unused, f"private functions no code in src names: {unused}"


def test_every_numpy_import_is_the_public_namespace():
    # src reaches numpy only as `import numpy as np`: a submodule import
    # such as `from numpy.linalg import lapack_lite` is private API that a
    # numpy release may move, untested at the declared version floor
    found = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                found.append(f"{path.name}:{node.lineno}: from {node.module} import ...")
            elif isinstance(node, ast.Import):
                found += [
                    f"{path.name}:{node.lineno}: import {a.name} as {a.asname}"
                    for a in node.names
                    if a.name.split(".")[0] == "numpy" and (a.name, a.asname) != ("numpy", "np")
                ]
    assert not found, found


# numpy routes each of these through BLAS, whose kernel changes the bits
_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


@pytest.mark.parametrize("module", ["gmm", "hmm", "decoder", "grammar"])
def test_training_arithmetic_never_calls_blas(module):
    # trained models and decoded results must not depend on the BLAS
    # kernel: no matrix product operator, no dot or matmul, and no
    # einsum(optimize=...), which may hand its contraction to BLAS
    found = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name in _BLAS_CALLS:
            found.append(f"line {node.lineno}: {name}")
        if "optimize" in {k.arg for k in node.keywords}:
            found.append(f"line {node.lineno}: optimize=")
    assert not found, found


# the one np.exp outside gmm._exp checks that a transition row sums to 1
_PLAIN_EXP = {"gmm._exp", "hmm.UnitHmm.__post_init__"}


def test_every_exp_of_a_log_probability_goes_through_gmm_exp():
    # numpy's SIMD exp is many times slower on lanes that underflow,
    # which most log-probability differences do; gmm._exp skips them
    found = []

    def visit(node, where: str):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "exp"
                and isinstance(child.value, ast.Name)
                and child.value.id == "np"
                and inner not in _PLAIN_EXP
            ):
                found.append(f"{inner} (line {child.lineno})")
            visit(child, inner)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert not found, found


class _SpecCaptured(Exception):
    pass


def test_every_synth_spec_field_is_set_by_the_synth_command(monkeypatch):
    # a field that the synth command never sets is a knob with one value:
    # it belongs in synth.py as a constant
    captured = {}

    def capture(**kwargs):
        captured.update(kwargs)
        raise _SpecCaptured

    monkeypatch.setattr(actionseg.cli, "SynthSpec", capture)
    parser, _ = build_parser()
    with pytest.raises(_SpecCaptured):
        actionseg.cli.cmd_synth(parser.parse_args(["synth", "--out", "unused"]))
    assert set(captured) == {f.name for f in dataclasses.fields(SynthSpec)}
