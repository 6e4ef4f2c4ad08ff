"""Whole-toolchain acceptance suite.

Each test pins one externally meaningful guarantee: dynamic-programming
routines agree with exhaustive enumeration, training objectives never
decrease, the synthetic pipeline recovers its generating structure, and
every command line entry point is bit-reproducible under seeds and
thread counts, and training also under the BLAS kernel.
"""

import contextlib
import filecmp
import io
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import actionseg
from actionseg.cli import main as cli_main
from actionseg.data import (
    FeatureSequence,
    load_features,
    load_manifest,
    read_segment_names,
    read_transcript_names,
)
from actionseg.decoder import decode, majority_vote
from actionseg.errors import NoPathError
from actionseg.gmm import fit_em
from actionseg.grammar import compose
from actionseg.hmm import baum_welch, init_hmm, viterbi_align, viterbi_train
from actionseg.metrics import jaccard, moc, mof
from actionseg.pipeline import BootstrapConfig, bootstrap, train_supervised
from actionseg.synth import load_truth
from helpers import (
    compose_random_graph,
    forward_loglik,
    language_by_names,
    oracle_decode_best,
    oracle_forward,
    oracle_viterbi,
    random_unit_hmm,
)


def quiet_cli(argv) -> int:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, f"{argv}: exit {code}\n{buf.getvalue()}"
    return code


def reference_names(seg_path) -> list[str]:
    return [nm for s, e, nm in read_segment_names(seg_path) for _ in range(e - s + 1)]


def predicted_names(result, lexicon, T) -> list[str]:
    from actionseg.data import frame_labels

    return [lexicon.name_of(u) for u in frame_labels(result.segmentation, T)]


# ---------------------------------------------------------------------------
# exhaustive-enumeration oracles


def test_viterbi_matches_exhaustive_enumeration_within_1e9():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        T = int(rng.integers(n, 9))
        hmm = random_unit_hmm(rng, 0, n, 1, m)
        frames = rng.normal(size=(T, m))
        want_path, want_lp = oracle_viterbi(hmm, frames)
        got = viterbi_align(hmm, frames)
        assert got.log_prob == pytest.approx(want_lp, abs=1e-9), f"trial {trial}"
        assert tuple(got.states) == want_path, f"trial {trial}"
        # the summed path probability can never fall below the best path
        fwd = forward_loglik(hmm, frames)
        assert fwd >= got.log_prob - 1e-12, f"trial {trial}"
    assert time.perf_counter() - start < 10.0


def test_decode_matches_exhaustive_labeling_within_1e9():
    rng = np.random.default_rng(2025)
    feasible = 0
    for trial in range(100):
        n = int(rng.integers(1, 3))
        hmms = {u: random_unit_hmm(rng, u, n, 1, 2) for u in range(3)}
        graph, lex = compose_random_graph(rng, ["a", "b"], hmms, n_sentences=2, max_inner=2)
        T = int(rng.integers(3, 7))
        frames = rng.normal(size=(T, 2))
        want_lp, want_labels = oracle_decode_best(graph, frames)
        if want_lp == -np.inf:
            with pytest.raises(NoPathError):
                decode(graph, frames)
            continue
        feasible += 1
        got = decode(graph, frames)
        assert got.log_prob == pytest.approx(want_lp, abs=1e-9), f"trial {trial}"
        assert predicted_names(got, lex, T) == [
            lex.name_of(graph.nodes[i].unit_id) for i in want_labels
        ], f"trial {trial}"
    # with this seed both branches are exercised: 55 decodes, 45 dead ends
    assert feasible >= 50
    assert feasible < 100


def test_forward_dominates_viterbi_on_random_instances():
    rng = np.random.default_rng(2026)
    for trial in range(50):
        n = int(rng.integers(1, 4))
        T = int(rng.integers(n, 9))
        hmm = random_unit_hmm(rng, 0, n, int(rng.integers(1, 3)), 2)
        frames = rng.normal(size=(T, 2))
        best = viterbi_align(hmm, frames).log_prob
        fwd = forward_loglik(hmm, frames)
        assert fwd >= best - 1e-12, f"trial {trial}"
        assert fwd == pytest.approx(oracle_forward(hmm, frames), abs=1e-9)


# ---------------------------------------------------------------------------
# training monotonicity


def sample_unit_sequences(rng, n_seqs: int, n_states: int, m: int) -> list[FeatureSequence]:
    """Sequences that walk a chain of separated Gaussian states."""
    means = np.arange(n_states)[:, None] * 2.5 + rng.normal(0.0, 0.3, (n_states, m))
    seqs = []
    for _ in range(n_seqs):
        blocks = [
            means[s] + rng.normal(0.0, 0.4, (int(rng.integers(4, 12)), m))
            for s in range(n_states)
        ]
        seqs.append(FeatureSequence(np.concatenate(blocks)))
    return seqs


def assert_nondecreasing(history: list[float], context: str) -> None:
    hist = np.asarray(history)
    diffs = np.diff(hist)
    scale = np.maximum(1.0, np.abs(hist[:-1]))
    assert np.all(diffs >= -1e-8 * scale), f"{context}: {history}"


def test_training_loglik_never_decreases_20_trials():
    rng = np.random.default_rng(2027)
    for trial in range(20):
        n_states = int(rng.integers(1, 4))
        K = int(rng.integers(1, 3))
        seqs = sample_unit_sequences(rng, int(rng.integers(3, 6)), n_states, 2)
        base = init_hmm(0, seqs, K=K, seed=trial)
        hist_v: list[float] = []
        viterbi_train(base, seqs, max_iter=6, tol=0.0, history=hist_v)
        assert len(hist_v) >= 2
        assert_nondecreasing(hist_v, f"viterbi trial {trial}")
        hist_b: list[float] = []
        baum_welch(base, seqs, max_iter=6, tol=0.0, history=hist_b)
        assert len(hist_b) >= 2
        assert_nondecreasing(hist_b, f"baum-welch trial {trial}")


# ---------------------------------------------------------------------------
# synthetic end-to-end recovery


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """Default-size synthetic dataset, a model trained on its train half,
    and decodes of the held-out half."""
    start = time.perf_counter()
    data = tmp_path_factory.mktemp("accept") / "data"
    quiet_cli(["synth", "--out", str(data), "--seed", "123"])
    manifest = load_manifest(data / "manifest.json")
    bundle = train_supervised(manifest, "train", K=2)
    graph = compose(bundle.grammar, bundle.hmms)
    results = {}
    gt = {}
    for cid in manifest.split_ids("test"):
        clip = manifest.clip(cid)
        seq = load_features(clip.features)
        results[cid] = (decode(graph, seq), seq.num_frames)
        gt[cid] = reference_names(clip.segmentation)
    return {
        "data": data,
        "manifest": manifest,
        "bundle": bundle,
        "graph": graph,
        "results": results,
        "gt": gt,
        "build_seconds": time.perf_counter() - start,
    }


def test_synthetic_activity_accuracy_at_least_95(synth_run):
    manifest = synth_run["manifest"]
    hits = 0
    test_ids = manifest.split_ids("test")
    for cid in test_ids:
        decoded, _ = synth_run["results"][cid]
        hits += decoded.activity == manifest.clip(cid).activity
    assert hits / len(test_ids) >= 0.95
    # the per-clip classifier is the same decode, spot-check the agreement
    for cid in test_ids[:3]:
        seq = load_features(manifest.clip(cid).features)
        assert decode(synth_run["graph"], seq).activity == synth_run["results"][cid][0].activity


def test_synthetic_heldout_mof_at_least_90(synth_run):
    lexicon = synth_run["bundle"].lexicon
    gt_pool, pred_pool = [], []
    for cid, (res, T) in synth_run["results"].items():
        gt_pool.extend(synth_run["gt"][cid])
        pred_pool.extend(predicted_names(res, lexicon, T))
    score = mof(np.array(gt_pool), np.array(pred_pool))
    assert score >= 0.90
    assert synth_run["build_seconds"] < 300.0


def test_zero_noise_recovers_every_transcript(tmp_path):
    start = time.perf_counter()
    data = tmp_path / "exact"
    quiet_cli(["synth", "--out", str(data), "--noise", "0", "--seed", "7"])
    manifest = load_manifest(data / "manifest.json")
    bundle = train_supervised(manifest, "train", K=1)
    graph = compose(bundle.grammar, bundle.hmms)
    lexicon = bundle.lexicon
    exact = 0
    test_ids = manifest.split_ids("test")
    for cid in test_ids:
        clip = manifest.clip(cid)
        res = decode(graph, load_features(clip.features))
        want = read_transcript_names(clip.transcript)
        got = [lexicon.name_of(u) for u in res.transcript.units]
        exact += got == want
    assert exact == len(test_ids)
    assert time.perf_counter() - start < 300.0


def test_every_decoded_transcript_is_a_grammar_sentence(synth_run):
    bundle = synth_run["bundle"]
    language = {
        sent
        for sents in language_by_names(bundle.grammar).values()
        for sent in sents
    }
    violations = 0
    for cid, (res, _) in synth_run["results"].items():
        names = tuple(bundle.lexicon.name_of(u) for u in res.transcript.units)
        violations += names not in language
    assert violations == 0


def test_bootstrap_strictly_beats_sparse_annotation(synth_run):
    manifest = synth_run["manifest"]
    truth = load_truth(synth_run["data"])
    # annotated subset: per activity, the first three train clips whose
    # sentence covers the whole unit pool (three annotated segments per unit)
    full = {act: tuple(sents[0]) for act, sents in truth["sentences"].items()}
    annotated = []
    for act in sorted(full):
        found = []
        for cid in manifest.split_ids("train"):
            clip = manifest.clip(cid)
            if clip.activity != act:
                continue
            inner = tuple(read_transcript_names(clip.transcript)[1:-1])
            if inner == full[act]:
                found.append(cid)
        assert len(found) >= 3, f"activity {act} lacks pool-covering train clips"
        annotated.extend(found[:3])
    transcript_only = [
        cid for cid in manifest.split_ids("train") if cid not in set(annotated)
    ]

    def heldout_mof(bundle) -> float:
        graph = compose(bundle.grammar, bundle.hmms)
        gt_pool, pred_pool = [], []
        for cid, (_, T) in synth_run["results"].items():
            seq = load_features(manifest.clip(cid).features)
            decoded = decode(graph, seq)
            gt_pool.extend(synth_run["gt"][cid])
            pred_pool.extend(predicted_names(decoded, bundle.lexicon, T))
        return mof(np.array(gt_pool), np.array(pred_pool))

    base = train_supervised(manifest, annotated, K=2)
    base_mof = heldout_mof(base)
    boot = bootstrap(
        manifest,
        BootstrapConfig(tuple(annotated), tuple(transcript_only), rounds=1),
        K=2,
    )
    boot_mof = heldout_mof(boot)
    assert boot.grammar.num_sentences() > base.grammar.num_sentences()
    assert boot_mof > base_mof


# ---------------------------------------------------------------------------
# component recovery and metric identities


def test_em_recovers_separated_two_component_mixture():
    rng = np.random.default_rng(2028)
    true_means = np.array([[-10.0, -10.0], [10.0, 10.0]])
    comp = np.concatenate([np.zeros(240, dtype=int), np.ones(360, dtype=int)])
    X = true_means[comp] + rng.normal(0.0, 0.1, (600, 2))
    model = fit_em(X, 2, seed=0)
    order = np.argsort(model.means[:, 0])
    means = model.means[order]
    weights = model.weights[order]
    assert np.abs(means - true_means).max() < 0.05
    assert np.abs(weights - np.array([0.4, 0.6])).max() < 0.05


def test_metrics_match_hand_computed_values_exactly():
    gt = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([0, 1, 1, 1, 2, 0])
    assert mof(gt, pred) == 4 / 6
    # recalls: class 0 is 1/2, class 1 is 1, class 2 is 1/2
    assert moc(gt, pred) == np.mean([0.5, 1.0, 0.5])
    # per class intersection over union: 1/3, 2/3, 1/2
    assert jaccard(gt, pred) == np.mean([1 / 3, 2 / 3, 0.5])
    assert jaccard(gt, pred, background=0) == np.mean([2 / 3, 0.5])
    balanced_gt = ["a"] * 9 + ["b"]
    frequent_only = ["a"] * 10
    assert mof(balanced_gt, frequent_only) == 0.9
    assert moc(balanced_gt, frequent_only) == 0.5
    assert mof(balanced_gt, frequent_only) > moc(balanced_gt, frequent_only)


def test_majority_vote_is_order_invariant_over_24_permutations():
    hyps = [
        ["a", "b", "b", "c"],
        ["a", "b", "c", "c"],
        ["b", "b", "b", "c"],
        ["a", "a", "c", "c"],
    ]
    want = majority_vote(hyps)
    for perm in itertools.permutations(range(4)):
        assert majority_vote([hyps[i] for i in perm]) == want
    assert want == ["a", "b", "b", "c"]
    # constructed ties resolve to the smallest label
    assert majority_vote([["b"], ["a"]]) == ["a"]
    assert majority_vote([["z", "k"], ["q", "k"], ["q", "a"], ["z", "a"]]) == ["q", "a"]


# ---------------------------------------------------------------------------
# reproducibility of the command line surface


@pytest.fixture(scope="module")
def repro_root(tmp_path_factory):
    return tmp_path_factory.mktemp("repro")


def capture_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, f"{argv}: exit {code}"
    return buf.getvalue()


SMALL_SYNTH = ["--activities", "2", "--units", "3", "--clips", "6",
               "--states", "2", "--noise", "0.05", "--seed", "11"]
SMALL_TRAIN = ["--gmm-k", "1", "--seed", "2", "--balance-lower", "10",
               "--balance-upper", "40", "--viterbi-iters", "3",
               "--baum-welch-iters", "2"]


def test_synth_is_byte_identical_across_runs(repro_root):
    a, b = repro_root / "syn-a", repro_root / "syn-b"
    out_a = capture_cli(["synth", "--out", str(a), *SMALL_SYNTH])
    out_b = capture_cli(["synth", "--out", str(b), *SMALL_SYNTH])
    assert json.loads(out_a)["clips"] == json.loads(out_b)["clips"]
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
    names = sorted(p.name for p in (a / "clips").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a / "clips", b / "clips", names, shallow=False)
    assert not mismatch and not errors


def test_train_and_decode_identical_across_runs_and_jobs(repro_root):
    data = repro_root / "syn-a"
    if not data.exists():
        capture_cli(["synth", "--out", str(data), *SMALL_SYNTH])
    manifest = str(data / "manifest.json")
    outs = {}
    for tag, jobs in (("j1", "1"), ("j1-again", "1"), ("j8", "8")):
        model = repro_root / f"model-{tag}"
        outs[tag] = capture_cli([
            "train", "--manifest", manifest, "--split", "train",
            "--out", str(model), "--jobs", jobs, *SMALL_TRAIN,
        ])
    # the summary echoes the output directory, so compare everything else
    summaries = {tag: json.loads(text) for tag, text in outs.items()}
    for s in summaries.values():
        s.pop("out")
    assert summaries["j1"] == summaries["j1-again"] == summaries["j8"]
    files = ("hmms.json", "grammar.ebnf", "priors.json", "pipeline-config.json")
    for name in files:
        ref = (repro_root / "model-j1" / name).read_bytes()
        assert (repro_root / "model-j1-again" / name).read_bytes() == ref
        assert (repro_root / "model-j8" / name).read_bytes() == ref
    decode_args = ["decode", "--manifest", manifest, "--model",
                   str(repro_root / "model-j1"), "--split", "test"]
    d1 = capture_cli([*decode_args, "--jobs", "1"])
    d1_again = capture_cli([*decode_args, "--jobs", "1"])
    d8 = capture_cli([*decode_args, "--jobs", "8"])
    assert d1 == d1_again == d8
    json.loads(d1)


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


# Trains a model and bootstraps another in one interpreter, so OpenBLAS
# picks its kernel once from the environment.
_TRAIN_AND_BOOTSTRAP = """
import sys
from actionseg.cli import main
manifest, out = sys.argv[1:]
flags = ["--manifest", manifest, "--balance-lower", "1", "--viterbi-iters", "3",
         "--baum-welch-iters", "3"]
sys.exit(main(["train", "--split", "train", "--out", out + "/train", *flags])
         or main(["bootstrap", "--annotated-split", "train", "--transcript-split", "test",
                  "--out", out + "/bootstrap", *flags]))
"""


# dim 3 scores its Gaussians slice by slice, dim 8 by the long-axis contraction
@pytest.mark.parametrize("dim", [3, 8])
def test_trained_models_do_not_depend_on_the_blas_kernel(tmp_path, dim):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS core types are x86-64 names")
    if not _numpy_uses_openblas():
        pytest.skip("numpy is not built on OpenBLAS")
    data = tmp_path / "data"
    capture_cli(["synth", "--out", str(data), "--activities", "2", "--units", "2",
                 "--clips", "6", "--dim", str(dim), "--seed", "3"])
    src = Path(actionseg.__file__).resolve().parents[1]
    models = {}
    for coretype in (None, "Prescott", "Haswell"):
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / f"models-{coretype}"
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_BOOTSTRAP, str(data / "manifest.json"), str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0 and coretype is not None:
            pytest.skip(f"OPENBLAS_CORETYPE={coretype} does not run here: {proc.stderr[-200:]}")
        assert proc.returncode == 0, proc.stderr
        models[coretype] = [(out / cmd / "hmms.json").read_bytes() for cmd in ("train", "bootstrap")]
    assert models["Prescott"] == models[None]
    assert models["Haswell"] == models[None]


# ---------------------------------------------------------------------------
# initialization conformance


def test_init_hmm_five_states_and_exact_rows_for_mean_length_50():
    rng = np.random.default_rng(2029)
    seqs = [FeatureSequence(rng.normal(size=(50, 2))) for _ in range(6)]
    hmm = init_hmm(0, seqs, K=1, seed=0)
    assert hmm.n == 5
    for j in range(hmm.n):
        # stored log values are exactly log(0.9) and log(0.1)
        assert hmm.log_self[j] == np.log(0.9)
        assert hmm.log_next[j] == np.log(0.1)
        assert np.exp(hmm.log_self[j]) == 0.9
        assert np.exp(hmm.log_next[j]) == pytest.approx(0.1, abs=1e-15)
