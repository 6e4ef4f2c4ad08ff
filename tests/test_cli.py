import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import actionseg
from actionseg.cli import main
from actionseg.decoder import majority_vote
from actionseg.data import (
    ClipRecord,
    DatasetManifest,
    FeatureSequence,
    load_features,
    load_manifest,
    read_segment_names,
    read_transcript_names,
    save_features,
    save_manifest,
    write_segment_names,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


TRAIN_SPEED = [
    "--balance-lower", "10", "--balance-upper", "40",
    "--viterbi-iters", "3", "--baum-welch-iters", "2",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic dataset plus a model trained on its train split."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert quiet_main([
        "synth", "--out", str(data), "--activities", "2", "--units", "3",
        "--clips", "6", "--states", "2", "--dim", "2", "--noise", "0.05",
        "--sentences", "2", "--seed", "5",
    ]) == 0
    model = root / "model"
    assert quiet_main([
        "train", "--manifest", str(data / "manifest.json"), "--split", "train",
        "--out", str(model), "--gmm-k", "1", "--seed", "1", *TRAIN_SPEED,
    ]) == 0
    return root, data, model


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys, "train", "--manifest", "m.json", "--out", "o", "--gmm-k", "0")[0] == 1
    assert run_cli(capsys, "decode", "--model", "m")[0] == 1


def test_missing_input_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("mutate, needle", [
    (lambda doc: doc.update(clips=5), "'clips' list"),
    (lambda doc: doc["splits"].update(x="ab"), "split 'x' must be a list of clip ids"),
    (lambda doc: doc.update(splits=["train"]), "'splits' must map"),
    (lambda doc: doc["clips"][0].update(features=7), "paths must be strings"),
], ids=["clips-not-a-list", "split-is-a-string", "splits-not-an-object", "path-not-a-string"])
def test_malformed_manifest_exits_2(capsys, workspace, tmp_path, mutate, needle):
    root, data, model = workspace
    doc = json.loads((data / "manifest.json").read_text())
    for rec in doc["clips"]:
        for key in ("features", "segmentation", "transcript"):
            rec[key] = str(data / rec[key])
    mutate(doc)
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "decode", "--model", str(model), "--manifest", str(bad), "--split", "test"
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err and "Traceback" not in err


def test_feature_dim_mismatch_exits_2(capsys, workspace, tmp_path):
    root, data, model = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = load_manifest(copy / "manifest.json")
    for split in ("test", "train"):
        rec = manifest.clip(manifest.split_ids(split)[0])
        seq = load_features(rec.features)
        wide = np.hstack([seq.frames, seq.frames[:, :1]])
        save_features(rec.features, FeatureSequence(wide))
    for argv in (
        ["decode", "--model", str(model), "--split", "test"],
        ["train", "--split", "train", "--out", str(tmp_path / "m"), "--gmm-k", "1", *TRAIN_SPEED],
    ):
        code, _, err = run_cli(capsys, *argv, "--manifest", str(copy / "manifest.json"))
        assert code == 2, argv[0]
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "dim 3" in err and "Traceback" not in err


def _unit0(doc: dict) -> dict:
    return doc["units"][0]


def _state0(doc: dict) -> dict:
    return _unit0(doc)["states"][0]


def _widen(unit: dict) -> None:
    """Give every state of a saved unit one more feature column."""
    for state in unit["states"]:
        state["means"] = [[*row, 0.0] for row in state["means"]]
        state["variances"] = [[*row, 1.0] for row in state["variances"]]


def _decode_with_mutated(capsys, workspace, tmp_path, name, mutate):
    """decode --prior on one test clip with a model whose file `name` was
    passed through mutate; (exit code, stderr)."""
    root, data, model = workspace
    bad = tmp_path / "model"
    shutil.copytree(model, bad)
    doc = json.loads((bad / name).read_text())
    mutate(doc)
    (bad / name).write_text(json.dumps(doc))
    manifest = load_manifest(data / "manifest.json")
    code, _, err = run_cli(
        capsys, "decode", "--model", str(bad), "--manifest", str(data / "manifest.json"),
        "--clip", manifest.split_ids("test")[0], "--prior", "on",
    )
    return code, err


@pytest.mark.parametrize("mutate", [
    lambda doc: _state0(doc).update(
        weights=[1.5, -0.5], means=[[0.0, 0.0]] * 2, variances=[[1.0, 1.0]] * 2
    ),
    lambda doc: _state0(doc).update(means=[[float("nan"), 0.0]]),
    lambda doc: _state0(doc).update(variances=[[-1.0, 1.0]]),
    lambda doc: _state0(doc).update(means=[["x", 0.0]]),
    lambda doc: _state0(doc).update(weights=["x"]),
    lambda doc: doc["units"][0].update(unit_id="zz"),
    lambda doc: doc.update(units={"0": doc["units"][0]}),
    lambda doc: doc["units"][0].update(states=[None, *doc["units"][0]["states"][1:]]),
    lambda doc: _state0(doc).update(means=[[0.0, 0.0], [0.0]]),
    lambda doc: doc.update(lexicon=7),
    lambda doc: doc["units"].append({**doc["units"][1], "unit_id": 0}),
    lambda doc: _unit0(doc).update(log_self=[*_unit0(doc)["log_self"], -0.1]),
    lambda doc: _unit0(doc).update(log_next=[0.5, *_unit0(doc)["log_next"][1:]]),
    lambda doc: _unit0(doc).update(
        log_self=[-0.01, *_unit0(doc)["log_self"][1:]],
        log_next=[-0.01, *_unit0(doc)["log_next"][1:]],
    ),
    lambda doc: _unit0(doc).update(log_self=[float("nan"), *_unit0(doc)["log_self"][1:]]),
    lambda doc: _unit0(doc).update(log_next="x"),
    lambda doc: _widen(doc["units"][1]),
    lambda doc: doc["units"][0].update(unit_id=0.9),
    lambda doc: doc["units"][0].update(unit_id="0"),
    lambda doc: doc["units"][1].update(unit_id=True),
    lambda doc: doc["lexicon"]["sample_count"].__setitem__(0, "7"),
    lambda doc: doc["lexicon"].update(sample_count=doc["lexicon"]["sample_count"][:-1]),
    lambda doc: _unit0(doc).update(log_self=[repr(v) for v in _unit0(doc)["log_self"]]),
    lambda doc: _unit0(doc).update(log_self=[False] * 2, log_next=[None] * 2),
    lambda doc: _state0(doc)["means"][0].__setitem__(0, repr(_state0(doc)["means"][0][0])),
    lambda doc: _state0(doc)["means"][0].__setitem__(0, True),
    lambda doc: _state0(doc).update(weights=["1.0"]),
    lambda doc: _state0(doc)["variances"][0].__setitem__(0, 1e-320),
], ids=[
    "negative-weight", "nan-mean", "negative-variance", "string-mean", "string-weight",
    "string-unit-id", "units-an-object", "null-state", "ragged-means", "lexicon-a-number",
    "duplicate-unit-id", "log-self-too-long", "positive-log-next", "row-sum-not-1",
    "nan-log-self", "string-log-next", "unit-1-wider", "float-unit-id", "numeric-string-unit-id",
    "bool-unit-id", "string-sample-count", "short-sample-count", "numeric-string-log-self",
    "bool-log-self", "numeric-string-mean", "bool-mean", "numeric-string-weight",
    "variance-reciprocal-overflows",
])
def test_malformed_model_file_exits_2(capsys, workspace, tmp_path, mutate):
    code, err = _decode_with_mutated(capsys, workspace, tmp_path, "hmms.json", mutate)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "hmms.json" in err and "Traceback" not in err


def _first_prior(doc: dict) -> str:
    return min(doc["log_priors"])


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(log_priors=7),
    lambda doc: doc["log_priors"].update({_first_prior(doc): "x"}),
    lambda doc: doc.clear(),
    lambda doc: doc["log_priors"].update({_first_prior(doc): float("nan")}),
    lambda doc: doc["log_priors"].update({_first_prior(doc): 10**400}),
    lambda doc: doc["log_priors"].update({_first_prior(doc): 0.5}),
    lambda doc: doc["log_priors"].update(nosuch=-1.0),
], ids=[
    "priors-a-number", "string-prior", "empty-object", "nan-prior", "int-beyond-float",
    "positive-prior", "unknown-unit",
])
def test_malformed_priors_file_exits_2(capsys, workspace, tmp_path, mutate):
    code, err = _decode_with_mutated(capsys, workspace, tmp_path, "priors.json", mutate)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "priors.json" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["7", "[1]", "{}", '{"format": "hmm-set"}'])
def test_malformed_pipeline_config_exits_2(capsys, workspace, tmp_path, text):
    # a bundle must not load from a config that save_bundle cannot write back
    root, data, model = workspace
    bad = tmp_path / "model"
    shutil.copytree(model, bad)
    (bad / "pipeline-config.json").write_text(text)
    code, out, err = run_cli(
        capsys, "decode", "--model", str(bad), "--manifest", str(data / "manifest.json"),
        "--clip", load_manifest(data / "manifest.json").split_ids("test")[0],
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{bad / 'pipeline-config.json'} is not a valid pipeline config" in err


def _decode_with_bad_file(capsys, workspace, tmp_path, target, content: bytes):
    """decode --prior on one test clip with the file `target` (a model file
    name, or "feat", "manifest" or "config") holding content; (exit code,
    stdout, stderr, the file's path)."""
    root, data, model = workspace
    bad_model, bad_data = tmp_path / "model", tmp_path / "data"
    shutil.copytree(model, bad_model)
    shutil.copytree(data, bad_data)
    manifest = bad_data / "manifest.json"
    clip = load_manifest(manifest).split_ids("test")[0]
    bad = {
        "feat": load_manifest(manifest).clip(clip).features,
        "manifest": manifest,
        "config": tmp_path / "decode.json",
    }.get(target, bad_model / target)
    bad.write_bytes(content)
    code, out, err = run_cli(
        capsys, "decode", "--model", str(bad_model), "--manifest", str(manifest), "--clip", clip,
        "--prior", "on", *(["--config", str(bad)] if target == "config" else []),
    )
    return code, out, err, bad


@pytest.mark.parametrize("target", [
    "hmms.json", "priors.json", "pipeline-config.json", "grammar.ebnf", "feat", "manifest",
    "config",
])
def test_non_utf8_input_file_exits_2(capsys, workspace, tmp_path, target):
    code, out, err, bad = _decode_with_bad_file(capsys, workspace, tmp_path, target, b"\xff\xfe")
    assert (code, out) == (2, "")
    assert err == f"error: {bad} is not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("target", [
    "hmms.json", "priors.json", "pipeline-config.json", "manifest", "config",
])
def test_invalid_json_file_exits_2_naming_it(capsys, workspace, tmp_path, target):
    code, out, err, bad = _decode_with_bad_file(capsys, workspace, tmp_path, target, b"{")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {bad} is not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n"
    )


@pytest.mark.parametrize("text", [
    "", "x", "act = ;", "act = SIL ;", "act = SIL, nosuchunit, SIL ;",
], ids=["empty", "no-equals", "empty-terminal", "silence-only", "unknown-unit"])
def test_invalid_grammar_file_exits_2_naming_it(capsys, workspace, tmp_path, text):
    code, out, err, bad = _decode_with_bad_file(
        capsys, workspace, tmp_path, "grammar.ebnf", text.encode()
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad} is not a valid grammar: ") and err.count("\n") == 1, err


def test_synth_summary(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "synth", "--out", str(tmp_path / "d"), "--activities", "2",
        "--units", "2", "--clips", "4", "--states", "2", "--noise", "0.1",
        "--sentences", "2", "--seed", "9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["clips"] == 8
    assert doc["splits"] == {"test": 4, "train": 4}
    assert load_manifest(doc["manifest"]).split_ids("train")


def test_decode_writes_predictions(capsys, workspace, tmp_path):
    root, data, model = workspace
    pred = tmp_path / "pred"
    code, out, _ = run_cli(
        capsys, "decode", "--model", str(model), "--manifest", str(data / "manifest.json"),
        "--split", "test", "--out", str(pred),
    )
    assert code == 0
    doc = json.loads(out)
    manifest = load_manifest(data / "manifest.json")
    assert sorted(doc["clips"]) == sorted(manifest.split_ids("test"))
    for cid, res in doc["clips"].items():
        assert (pred / f"{cid}.seg").exists()
        rows = read_segment_names(pred / f"{cid}.seg")
        assert rows[0][0] == 0
        for (_, e1, _), (s2, _, _) in zip(rows, rows[1:]):
            assert s2 == e1 + 1
        assert [s for s, _, _ in res["segments"]] == [s for s, _, _ in rows]
        assert res["transcript"][0] == "SIL" and res["transcript"][-1] == "SIL"
    saved = json.loads((pred / "results.json").read_text())
    assert saved == doc


def test_decode_single_clip_and_jobs_determinism(capsys, workspace):
    root, data, model = workspace
    manifest = load_manifest(data / "manifest.json")
    cid = manifest.split_ids("test")[0]
    code, out, _ = run_cli(
        capsys, "decode", "--model", str(model), "--manifest", str(data / "manifest.json"),
        "--clip", cid,
    )
    assert code == 0
    assert list(json.loads(out)["clips"]) == [cid]
    args = ["decode", "--model", str(model), "--manifest", str(data / "manifest.json"),
            "--split", "test"]
    _, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    _, out4, _ = run_cli(capsys, *args, "--jobs", "4")
    assert out1 == out4


def test_classify_reports_accuracy(capsys, workspace, tmp_path):
    root, data, model = workspace
    out_dir = tmp_path / "cls"
    code, out, _ = run_cli(
        capsys, "classify", "--model", str(model), "--manifest", str(data / "manifest.json"),
        "--split", "test", "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["accuracy"] == 1.0
    assert doc["confusion"] == {"labels": ["activity00", "activity01"], "counts": [[3, 0], [0, 3]]}
    saved = json.loads((out_dir / "classification.json").read_text())
    assert saved == doc


def test_align_follows_transcripts(capsys, workspace, tmp_path):
    root, data, model = workspace
    out_dir = tmp_path / "ali"
    code, out, _ = run_cli(
        capsys, "align", "--model", str(model), "--manifest", str(data / "manifest.json"),
        "--split", "test", "--out", str(out_dir),
    )
    assert code == 0
    manifest = load_manifest(data / "manifest.json")
    for cid in manifest.split_ids("test"):
        rows = read_segment_names(out_dir / f"{cid}.seg")
        want = read_transcript_names(manifest.clip(cid).transcript)
        assert [nm for _, _, nm in rows] == want


def test_eval_scores_copied_ground_truth(capsys, workspace, tmp_path):
    root, data, model = workspace
    manifest = load_manifest(data / "manifest.json")
    pred = tmp_path / "gtpred"
    pred.mkdir()
    total = 0
    for cid in manifest.split_ids("test"):
        shutil.copy(manifest.clip(cid).segmentation, pred / f"{cid}.seg")
        total += read_segment_names(pred / f"{cid}.seg")[-1][1] + 1
    report = tmp_path / "metrics.csv"
    code, out, _ = run_cli(
        capsys, "eval", "--manifest", str(data / "manifest.json"), "--split", "test",
        "--pred", str(pred), "--gmm-k", "1", "--out", str(report),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == {"jaccard": 1.0, "moc": 1.0, "mof": 1.0}
    assert all(v == {"mof": 1.0} for v in doc["clips"].values())
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "metric,split,K,value"
    assert len(lines) == 4
    # shift one boundary by a frame: exactly one frame is now wrong
    cid = manifest.split_ids("test")[0]
    rows = read_segment_names(pred / f"{cid}.seg")
    (s0, e0, n0), (s1, e1, n1) = rows[0], rows[1]
    fixed = [(s0, e0 - 1, n0), (s1 - 1, e1, n1), *rows[2:]]
    with open(pred / f"{cid}.seg", "w") as fh:
        for s, e, nm in fixed:
            fh.write(f"{s} {e} {nm}\n")
    code, out, _ = run_cli(
        capsys, "eval", "--manifest", str(data / "manifest.json"), "--split", "test",
        "--pred", str(pred),
    )
    assert code == 0
    assert json.loads(out)["overall"]["mof"] == pytest.approx(1.0 - 1.0 / total)


def test_eval_rejects_length_mismatch(capsys, workspace, tmp_path):
    root, data, model = workspace
    manifest = load_manifest(data / "manifest.json")
    pred = tmp_path / "short"
    pred.mkdir()
    for cid in manifest.split_ids("test"):
        rows = read_segment_names(manifest.clip(cid).segmentation)
        with open(pred / f"{cid}.seg", "w") as fh:
            for s, e, nm in rows[:-1]:
                fh.write(f"{s} {e} {nm}\n")
    code, _, err = run_cli(
        capsys, "eval", "--manifest", str(data / "manifest.json"), "--split", "test",
        "--pred", str(pred),
    )
    assert code == 2


@pytest.mark.parametrize(
    "side, shift", [("prediction", 1), ("prediction", -1), ("reference", 1)],
    ids=["prediction-gap", "prediction-overlap", "reference-gap"],
)
def test_eval_rejects_untiled_segments_naming_the_clip(capsys, workspace, tmp_path, side, shift):
    root, data, model = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = load_manifest(copy / "manifest.json")
    pred = tmp_path / "pred"
    pred.mkdir()
    for cid in manifest.split_ids("test"):
        shutil.copy(manifest.clip(cid).segmentation, pred / f"{cid}.seg")
    cid = manifest.split_ids("test")[-1]
    target = pred / f"{cid}.seg" if side == "prediction" else manifest.clip(cid).segmentation
    rows = read_segment_names(target)
    start, end, name = rows[1]
    assert end > start
    rows[1] = (start + shift, end, name)  # +1 leaves a one-frame gap, -1 overlaps
    write_segment_names(target, rows)
    code, out, err = run_cli(
        capsys, "eval", "--manifest", str(copy / "manifest.json"), "--split", "test",
        "--pred", str(pred),
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1, err
    assert f"clip {cid!r}: {side} segments must tile" in err


def _gap_in_segmentation(path: Path) -> str:
    rows = read_segment_names(path)
    rows[1] = (999, 1000, rows[1][2])
    write_segment_names(path, rows)
    expected = rows[0][1] + 1
    return f"{path}: segment 1 starts at 999, expected {expected} (segments must be contiguous"


def _unknown_unit_in_transcript(path: Path) -> str:
    names = read_transcript_names(path)
    path.write_text("\n".join(["", names[0], "nope", *names[2:]]) + "\n")
    return f"{path}:3: unknown unit name 'nope'"


@pytest.mark.parametrize("command, split, field, mutate", [
    ("train", "train", "segmentation", _gap_in_segmentation),
    ("align", "test", "transcript", _unknown_unit_in_transcript),
], ids=["train-seg-gap", "align-tr-unknown-unit"])
def test_bad_annotation_file_exits_2_naming_it(
    capsys, workspace, tmp_path, command, split, field, mutate
):
    root, data, model = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = load_manifest(copy / "manifest.json")
    message = mutate(getattr(manifest.clip(manifest.split_ids(split)[-1]), field))
    flags = ["--gmm-k", "1", *TRAIN_SPEED] if command == "train" else ["--model", str(model)]
    code, out, err = run_cli(
        capsys, command, "--manifest", str(copy / "manifest.json"), "--split", split,
        *flags, "--out", str(tmp_path / "out"),
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def _drop_leading_silence(path: Path) -> None:
    path.write_text("\n".join(read_transcript_names(path)[1:]) + "\n")


def _relabel_leading_silence(path: Path) -> None:
    rows = read_segment_names(path)
    rows[0] = (rows[0][0], rows[0][1], rows[1][2])
    write_segment_names(path, rows)


@pytest.mark.parametrize("command, split, field, mutate", [
    ("train", "train", "transcript", _drop_leading_silence),
    ("train", "train", "segmentation", _relabel_leading_silence),
    ("bootstrap", "test", "transcript", _drop_leading_silence),
], ids=["train-tr", "train-seg", "bootstrap-tr"])
def test_unbracketed_transcript_exits_2_naming_its_file(
    capsys, workspace, tmp_path, command, split, field, mutate
):
    # the grammar needs every transcript inside silence; a .seg stands in
    # for the transcript of a clip that has no .tr
    root, data, model = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    doc = json.loads((copy / "manifest.json").read_text())
    cid = doc["splits"][split][-1]
    clip = next(c for c in doc["clips"] if c["id"] == cid)
    if field == "segmentation":
        del clip["transcript"]
        (copy / "manifest.json").write_text(json.dumps(doc))
    path = getattr(load_manifest(copy / "manifest.json").clip(cid), field)
    mutate(path)
    splits = (
        ["--split", split] if command == "train"
        else ["--annotated-split", "train", "--transcript-split", split]
    )
    code, out, err = run_cli(
        capsys, command, "--manifest", str(copy / "manifest.json"), *splits,
        "--gmm-k", "1", *TRAIN_SPEED, "--out", str(tmp_path / "out"),
    )
    assert (code, out) == (2, "")
    assert err == f"error: {path}: transcript must start and end with 'SIL'\n"


def test_decode_tight_beam_exits_3(capsys, workspace):
    root, data, model = workspace
    code, _, err = run_cli(
        capsys, "decode", "--model", str(model), "--manifest", str(data / "manifest.json"),
        "--split", "test", "--beam", "1",
    )
    assert code == 3
    assert "beam" in err


def test_config_file_supplies_defaults(capsys, workspace, tmp_path):
    root, data, model = workspace
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "gmm_k": 1, "seed": 1, "balance_lower": 10, "balance_upper": 40,
        "viterbi_iters": 3, "baum_welch_iters": 2,
    }))
    out_dir = tmp_path / "model-cfg"
    code, _, _ = run_cli(
        capsys, "train", "--config", str(cfg), "--manifest", str(data / "manifest.json"),
        "--split", "train", "--out", str(out_dir),
    )
    assert code == 0
    # same settings as the fixture model, so the bundles match byte for byte
    for name in ("hmms.json", "grammar.ebnf", "priors.json", "pipeline-config.json"):
        assert (out_dir / name).read_bytes() == (model / name).read_bytes()


def test_config_file_rejects_unknown_keys(capsys, workspace, tmp_path):
    root, data, model = workspace
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"gmm_q": 1}))
    args = ["train", "--config", str(cfg), "--manifest", str(data / "manifest.json"),
            "--out", str(tmp_path / "o")]
    assert run_cli(capsys, *args)[0] == 1
    cfg.write_text("[1, 2]")
    assert run_cli(capsys, *args)[0] == 1
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and err.startswith(f"error: {cfg} is not valid JSON: "), err
    assert run_cli(capsys, "train", "--config", str(tmp_path / "none.json"),
                   "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "o"))[0] == 1


@pytest.mark.parametrize("command, key, value", [
    ("decode", "beam", -1),
    ("decode", "jobs", 0),
    ("train", "seed", 1.5),
    ("decode", "prior", "maybe"),
    ("train", "silence", None),
])
def test_config_values_pass_the_flag_checks(capsys, workspace, tmp_path, command, key, value):
    root, data, model = workspace
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({key: value}))
    if command == "decode":
        args = ["--model", str(model), "--split", "test"]
    else:
        args = ["--split", "train", "--out", str(tmp_path / "o")]
    code, out, err = run_cli(
        capsys, command, "--config", str(cfg), "--manifest", str(data / "manifest.json"), *args
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and f"config key {key!r}" in err
    assert not (tmp_path / "o").exists()


def test_train_jobs_byte_identical(capsys, workspace, tmp_path):
    root, data, model = workspace
    out4 = tmp_path / "model-j4"
    code, _, _ = run_cli(
        capsys, "train", "--manifest", str(data / "manifest.json"), "--split", "train",
        "--out", str(out4), "--gmm-k", "1", "--seed", "1", "--jobs", "4", *TRAIN_SPEED,
    )
    assert code == 0
    for name in ("hmms.json", "grammar.ebnf", "priors.json", "pipeline-config.json"):
        assert (out4 / name).read_bytes() == (model / name).read_bytes()


def test_bootstrap_runs(capsys, workspace, tmp_path):
    root, data, model = workspace
    code, out, _ = run_cli(
        capsys, "bootstrap", "--manifest", str(data / "manifest.json"),
        "--annotated-split", "train", "--transcript-split", "test",
        "--rounds", "1", "--out", str(tmp_path / "boot"), "--gmm-k", "1",
        "--seed", "1", *TRAIN_SPEED,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == 1
    assert doc["annotated_clips"] == 6 and doc["transcript_clips"] == 6
    assert (tmp_path / "boot" / "hmms.json").exists()


def test_encode_holds_one_encoded_clip_at_a_time(tmp_path):
    # Doubling the clips adds their raw frames (d = 2 doubles a frame) to
    # the traced peak, not their encoded ones (2 K d = 64 doubles a frame):
    # each clip is written before the next is encoded.  Every clip has the
    # same length and the encoder is fit on the same 2 clips both times,
    # so fitting and each clip's own work do not change.
    T, d, K = 100, 2, 16
    rng = np.random.default_rng(47)
    for i in range(8):
        save_features(tmp_path / f"c{i}.feat", FeatureSequence(rng.normal(size=(T, d)), f"c{i}"))
    peaks = {}
    for n in (4, 8):
        clips = tuple(ClipRecord(f"c{i}", tmp_path / f"c{i}.feat", "act") for i in range(n))
        save_manifest(tmp_path / f"m{n}.json", DatasetManifest(clips, {"fit": ("c0", "c1")}))
        argv = ["encode", "--manifest", str(tmp_path / f"m{n}.json"), "--split", "fit",
                "--gmm-k", str(K), "--out", str(tmp_path / f"enc{n}")]
        if n == 4:
            assert quiet_main(argv) == 0  # first-call imports and caches are not traced
        tracemalloc.start()
        try:
            assert quiet_main(argv) == 0
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert load_features(tmp_path / "enc8" / "clips" / "c7.feat").frames.shape == (T, 2 * K * d)
    assert peaks[8] - peaks[4] < T * 2 * K * d * 8, peaks


def test_encode_reencodes_every_clip(capsys, workspace, tmp_path):
    root, data, model = workspace
    enc = tmp_path / "enc"
    code, out, _ = run_cli(
        capsys, "encode", "--manifest", str(data / "manifest.json"), "--split", "train",
        "--gmm-k", "2", "--window", "5", "--pca-dim", "2", "--seed", "3",
        "--out", str(enc),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert (enc / "encoder.json").exists()
    new_manifest = load_manifest(enc / "manifest.json")
    old_manifest = load_manifest(data / "manifest.json")
    assert {c.clip_id for c in new_manifest.clips} == {c.clip_id for c in old_manifest.clips}
    from actionseg.data import load_features

    cid = old_manifest.split_ids("test")[0]
    old = load_features(old_manifest.clip(cid).features)
    new = load_features(new_manifest.clip(cid).features)
    assert new.num_frames == old.num_frames
    assert new.dim == 2
    # annotations still point at the originals
    assert new_manifest.clip(cid).segmentation == old_manifest.clip(cid).segmentation


def _widen_first_clip(data: Path, split: str) -> None:
    manifest = load_manifest(data / "manifest.json")
    rec = manifest.clip(manifest.split_ids(split)[0])
    seq = load_features(rec.features)
    save_features(rec.features, FeatureSequence(np.hstack([seq.frames, seq.frames[:, :1]])))


@pytest.mark.parametrize("widen, flags, message", [
    ("test", [], "features have dim 3, earlier clips have dim 2"),
    ("train", [], "features have dim 2, earlier clips have dim 3"),
    (None, ["--gmm-k", "100000"], "cannot fit --gmm-k 100000 codebook components: "),
], ids=["dim-outside-split", "mixed-fit-dims", "gmm-k-beyond-frames"])
def test_encode_bad_input_exits_2(capsys, workspace, tmp_path, widen, flags, message):
    root, data, model = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    if widen:
        _widen_first_clip(copy, widen)
    code, out, err = run_cli(
        capsys, "encode", "--manifest", str(copy / "manifest.json"), "--split", "train",
        "--window", "5", *flags, "--out", str(tmp_path / "enc"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_written_manifests_survive_a_relative_input_path(capsys, workspace, tmp_path, monkeypatch):
    # the output manifest sits elsewhere, so its references to the input
    # clips must not be relative to the working directory
    root, data, model = workspace
    shutil.copytree(data, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "encode", "--manifest", "data/manifest.json", "--split", "train",
        "--window", "5", "--gmm-k", "1", "--out", "enc",
    )
    assert code == 0, err
    rec = load_manifest("enc/manifest.json").clips[0]
    assert rec.segmentation.is_absolute() and rec.segmentation.exists()
    code, _, err = run_cli(
        capsys, "train", "--manifest", "enc/manifest.json", "--split", "train",
        "--out", "m", "--gmm-k", "1", *TRAIN_SPEED,
    )
    assert code == 0, err


def test_grid_votes_over_settings(capsys, workspace, tmp_path):
    root, data, model = workspace
    out_dir = tmp_path / "grid"
    code, out, _ = run_cli(
        capsys, "grid", "--manifest", str(data / "manifest.json"),
        "--train-split", "train", "--test-split", "test", "--gmm-k", "1",
        "--mirror", "--seed", "1", "--out", str(out_dir), *TRAIN_SPEED,
    )
    assert code == 0
    doc = json.loads(out)
    tags = [s["setting"] for s in doc["settings"]]
    assert tags == ["k1_dfull", "k1_dfull_m"]
    assert 0.0 <= doc["voted_mof"] <= 1.0
    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,split,K,value"
    metrics = [ln.split(",")[0] for ln in lines[1:]]
    assert metrics == ["mof/k1_dfull", "mof/k1_dfull_m", "mof/voted"]
    # the plain setting on clean data reconstructs the test clips
    assert doc["settings"][0]["mof"] > 0.9
    # settings without a PCA read the input features and write only the mirrored clips
    manifest = load_manifest(data / "manifest.json")
    for tag in tags:
        setting = load_manifest(out_dir / "settings" / tag / "manifest.json")
        for clip in manifest.clips:
            assert setting.clip(clip.clip_id).features == clip.features
    written = {
        tag: sorted(p.name for p in (out_dir / "settings" / tag / "clips").iterdir())
        for tag in tags
    }
    assert written == {
        "k1_dfull": [],
        "k1_dfull_m": sorted(f"{cid}~m.feat" for cid in manifest.split_ids("train")),
    }
    # a mirrored clip holds exactly the negated input frames, signed zeros included
    for cid in manifest.split_ids("train"):
        raw = load_features(manifest.clip(cid).features).frames
        mirrored = load_features(out_dir / "settings" / "k1_dfull_m" / "clips" / f"{cid}~m.feat")
        assert mirrored.frames.tobytes() == (-raw).tobytes()
    # each voted .seg holds the runs of the frame-wise vote over the settings' decodes
    hypotheses = {}
    for tag in tags:
        sdir = out_dir / "settings" / tag
        dec = tmp_path / f"decode_{tag}"
        assert quiet_main([
            "decode", "--model", str(sdir / "model"), "--manifest", str(sdir / "manifest.json"),
            "--split", "test", "--out", str(dec),
        ]) == 0
        for seg in sorted(dec.glob("*.seg")):
            frames = [n for s, e, n in read_segment_names(seg) for _ in range(e - s + 1)]
            hypotheses.setdefault(seg.stem, []).append(frames)
    assert sorted(hypotheses) == sorted(manifest.split_ids("test"))
    for cid, hyps in hypotheses.items():
        runs, t = [], 0
        for name, group in itertools.groupby(majority_vote(hyps)):
            n = len(list(group))
            runs.append((t, t + n - 1, name))
            t += n
        assert read_segment_names(out_dir / "voted" / f"{cid}.seg") == runs


def test_grid_fits_each_pca_once_for_every_k(capsys, workspace, tmp_path, monkeypatch):
    # a setting's PCA depends on its dimension and mirroring, not on K
    _, data, _ = workspace
    fit_pca = actionseg.cli.fit_pca
    fits = []

    def counted(blocks, D):
        fits.append(D)
        return fit_pca(blocks, D)

    monkeypatch.setattr(actionseg.cli, "fit_pca", counted)
    code, out, _ = run_cli(
        capsys, "grid", "--manifest", str(data / "manifest.json"),
        "--train-split", "train", "--test-split", "test", "--gmm-k", "1,2", "--pca-dim", "1",
        "--mirror", "--seed", "1", "--out", str(tmp_path / "grid"), *TRAIN_SPEED,
    )
    assert code == 0
    tags = [s["setting"] for s in json.loads(out)["settings"]]
    assert tags == ["k1_d1", "k1_d1_m", "k2_d1", "k2_d1_m"]
    assert fits == [1, 1]
    # the K = 2 settings train on the K = 1 settings' files and write none
    settings = tmp_path / "grid" / "settings"
    for suffix in ("d1", "d1_m"):
        assert not list((settings / f"k2_{suffix}").rglob("*.feat"))
        first, second = (
            load_manifest(settings / f"k{K}_{suffix}" / "manifest.json") for K in (1, 2)
        )
        clip_dir = (settings / f"k1_{suffix}" / "clips").resolve()
        assert all(Path(c.features).resolve().parent == clip_dir for c in first.clips)
        assert [c.features for c in second.clips] == [c.features for c in first.clips]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "actionseg.cli", "synth", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "synthetic" in proc.stdout


def test_decode_of_huge_frames_exits_3_with_one_line(workspace, tmp_path):
    # Finite but huge frames overflow the density's quadratic term to inf,
    # so no path has finite probability: exit 3, and no numpy warning.
    root, data, model = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = load_manifest(copy / "manifest.json")
    clip = manifest.split_ids("test")[0]
    rec = manifest.clip(clip)
    seq = load_features(rec.features)
    huge = np.full((40, seq.dim), 1e300)
    save_features(rec.features, FeatureSequence(huge))
    src = Path(actionseg.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "actionseg.cli", "decode", "--model", str(model),
         "--manifest", str(copy / "manifest.json"), "--clip", clip],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: no legal path covers all 40 frames")


@pytest.mark.parametrize("command", ["decode", "align"])
def test_zero_mixture_weight_decodes_without_a_warning(workspace, tmp_path, command):
    # A model may hold a component of weight 0: its log-density is the -inf
    # limit, and the log of that weight must not print a numpy warning.
    root, data, model = workspace
    zero = tmp_path / "model"
    shutil.copytree(model, zero)
    doc = json.loads((zero / "hmms.json").read_text())
    for unit in doc["units"]:
        for state in unit["states"]:
            state.update(
                weights=[1.0, 0.0],
                means=[state["means"][0], [v + 1.0 for v in state["means"][0]]],
                variances=state["variances"] * 2,
            )
    (zero / "hmms.json").write_text(json.dumps(doc))
    src = Path(actionseg.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "actionseg.cli", command, "--model", str(zero),
         "--manifest", str(data / "manifest.json"), "--split", "test"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["clips"]
