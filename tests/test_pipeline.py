import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from actionseg import pipeline
from actionseg.data import (
    ClipRecord,
    DatasetManifest,
    FeatureSequence,
    frame_labels,
    load_features,
    load_manifest,
    read_segment_names,
    read_transcript_names,
    save_features,
    write_segment_names,
    write_transcript_names,
)
from actionseg.decoder import decode
from actionseg.errors import DataError, NoPathError
from actionseg.grammar import compose
from actionseg.pipeline import (
    BalanceConfig,
    BootstrapConfig,
    MirrorMap,
    TrainConfig,
    balance_units,
    bootstrap,
    collect_lexicon,
    extract_segments,
    load_bundle,
    mirror_features,
    save_bundle,
    split_units,
    train_supervised,
)

UNIT_MEANS = {"SIL": 0.0, "take": 6.0, "pour": -6.0}


def clip_frames(rng, names, lens):
    rows = []
    seg_rows = []
    start = 0
    for name, L in zip(names, lens):
        rows.append(rng.normal(UNIT_MEANS[name], 0.1, (L, 2)))
        seg_rows.append((start, start + L - 1, name))
        start += L
    return np.concatenate(rows), seg_rows


def make_dataset(tmp_path, rng):
    """Three train clips and one test clip of one activity, well-separated
    unit means, annotations on every clip."""
    root = tmp_path / "data"
    (root / "clips").mkdir(parents=True)
    plans = {
        "c0": ["SIL", "take", "SIL"],
        "c1": ["SIL", "take", "pour", "SIL"],
        "c2": ["SIL", "pour", "SIL"],
        "c3": ["SIL", "take", "pour", "SIL"],
    }
    clips = []
    for cid, names in plans.items():
        lens = [int(rng.integers(4, 8)) for _ in names]
        frames, seg_rows = clip_frames(rng, names, lens)
        fp = root / "clips" / f"{cid}.feat"
        save_features(fp, FeatureSequence(frames, clip_id=cid))
        sp = root / "clips" / f"{cid}.seg"
        write_segment_names(sp, seg_rows)
        tp = root / "clips" / f"{cid}.tr"
        write_transcript_names(tp, names)
        clips.append(
            ClipRecord(
                clip_id=cid, features=fp, activity="make_tea", segmentation=sp, transcript=tp
            )
        )
    manifest = DatasetManifest(
        clips=tuple(clips),
        splits={"train": ("c0", "c1", "c2"), "test": ("c3",)},
    )
    return root, manifest


def quick_cfg(seed=0):
    return TrainConfig(
        balance=BalanceConfig(lower=3, upper=50, jitter_sigma=0.01, seed=seed),
        seed=seed,
        viterbi_iters=3,
        baum_welch_iters=2,
    )


def test_collect_lexicon_sorted_with_silence(tmp_path):
    rng = np.random.default_rng(90)
    _, manifest = make_dataset(tmp_path, rng)
    lex = collect_lexicon(manifest)
    assert lex.names == ("SIL", "pour", "take")
    assert lex.silence_id == 0


def test_extract_segments_counts_and_slices(tmp_path):
    rng = np.random.default_rng(91)
    _, manifest = make_dataset(tmp_path, rng)
    lex = collect_lexicon(manifest)
    per_unit, transcripts, counts = extract_segments(manifest, ["c0", "c1"], lex)
    assert counts[lex.id_of("SIL")] == 4
    assert counts[lex.id_of("take")] == 2
    assert counts[lex.id_of("pour")] == 1
    assert len(transcripts) == 2
    assert transcripts[0][0] == "make_tea"
    first_sil = per_unit[lex.id_of("SIL")][0]
    assert first_sil.clip_id == "c0:0"
    # slices add up to the whole clip
    total = sum(s.num_frames for u in per_unit.values() for s in u if s.clip_id.startswith("c0"))
    assert total == load_features(manifest.clip("c0").features).num_frames


def test_extract_segments_length_mismatch(tmp_path):
    rng = np.random.default_rng(92)
    root, manifest = make_dataset(tmp_path, rng)
    lex = collect_lexicon(manifest)
    bad = root / "clips" / "c0.seg"
    rows = read_segment_names(bad)
    s, e, nm = rows[-1]
    write_segment_names(bad, rows[:-1] + [(s, e + 1, nm)])
    with pytest.raises(DataError, match="c0"):
        extract_segments(manifest, ["c0"], lex)


def test_balance_oversamples_with_jitter():
    rng = np.random.default_rng(93)
    seqs = [FeatureSequence(rng.normal(size=(5, 2)), clip_id=f"s{i}") for i in range(2)]
    cfg = BalanceConfig(lower=6, upper=10, jitter_sigma=0.5, seed=1)
    out = balance_units({7: seqs}, cfg)
    assert len(out[7]) == 6
    assert out[7][:2] == seqs
    for extra in out[7][2:]:
        assert "+jitter" in extra.clip_id
    # deterministic and independent of sibling units in the dict
    again = balance_units({3: [seqs[0]], 7: seqs}, cfg)
    for a, b in zip(out[7], again[7]):
        np.testing.assert_array_equal(a.frames, b.frames)


def test_balance_zero_jitter_copies_exactly():
    rng = np.random.default_rng(94)
    seqs = [FeatureSequence(rng.normal(size=(4, 1)), clip_id="orig")]
    out = balance_units({0: seqs}, BalanceConfig(lower=3, upper=5, jitter_sigma=0.0))
    assert len(out[0]) == 3
    np.testing.assert_array_equal(out[0][1].frames, seqs[0].frames)
    np.testing.assert_array_equal(out[0][2].frames, seqs[0].frames)


def test_balance_downsamples_in_order():
    rng = np.random.default_rng(95)
    seqs = [FeatureSequence(rng.normal(size=(3, 1)), clip_id=f"s{i}") for i in range(10)]
    out = balance_units({0: seqs}, BalanceConfig(lower=1, upper=4))
    assert len(out[0]) == 4
    kept = [int(s.clip_id[1:]) for s in out[0]]
    assert kept == sorted(kept)
    assert len(set(kept)) == 4


def test_balance_config_validation():
    with pytest.raises(DataError):
        BalanceConfig(lower=5, upper=2)
    with pytest.raises(DataError):
        BalanceConfig(lower=0, upper=2)
    with pytest.raises(DataError):
        BalanceConfig(jitter_sigma=-0.1)
    with pytest.raises(DataError):
        balance_units({0: []}, BalanceConfig())


def test_train_supervised_decodes_training_data(tmp_path):
    rng = np.random.default_rng(96)
    _, manifest = make_dataset(tmp_path, rng)
    bundle = train_supervised(manifest, "train", K=1, cfg=quick_cfg())
    assert sorted(bundle.hmms) == [0, 1, 2]
    assert bundle.grammar.num_sentences() == 3
    assert set(bundle.priors) == {0, 1, 2}
    graph = compose(bundle.grammar, bundle.hmms)
    for cid in ("c0", "c1", "c2"):
        clip = manifest.clip(cid)
        seq = load_features(clip.features)
        res = decode(graph, seq)
        want = [nm for s, e, nm in read_segment_names(clip.segmentation) for _ in range(e - s + 1)]
        got = [bundle.lexicon.name_of(u) for u in frame_labels(res.segmentation, seq.num_frames)]
        # well-separated means make training clips easy to reconstruct
        agree = np.mean(np.array(got) == np.array(want))
        assert agree > 0.9, f"{cid}: {agree}"


def test_train_supervised_errors(tmp_path):
    rng = np.random.default_rng(97)
    root, manifest = make_dataset(tmp_path, rng)
    with pytest.raises(DataError):
        train_supervised(manifest, (), K=1)
    # a unit that only occurs outside the training split has no model
    extra = root / "clips" / "c3.seg"
    rows = read_segment_names(extra)
    s, e, nm = rows[1]
    write_segment_names(extra, [rows[0], (s, e, "weigh"), *rows[2:]])
    with pytest.raises(DataError, match="weigh"):
        train_supervised(manifest, "train", K=1, cfg=quick_cfg())


def test_train_supervised_jobs_equivalent(tmp_path):
    rng = np.random.default_rng(98)
    _, manifest = make_dataset(tmp_path, rng)
    a = train_supervised(manifest, "train", K=1, cfg=quick_cfg(), jobs=1)
    b = train_supervised(manifest, "train", K=1, cfg=quick_cfg(), jobs=4)
    assert a.hmms == b.hmms
    assert a.priors == b.priors


def test_bootstrap_zero_rounds_is_supervised(tmp_path):
    rng = np.random.default_rng(99)
    _, manifest = make_dataset(tmp_path, rng)
    bcfg = BootstrapConfig(
        annotated_clip_ids=("c0", "c1", "c2"), transcript_clip_ids=(), rounds=1
    )
    bundle = bootstrap(manifest, bcfg, K=1, cfg=quick_cfg())
    assert "bootstrap_rounds" not in bundle.config
    again = BootstrapConfig(
        annotated_clip_ids=("c0", "c1"), transcript_clip_ids=("c2",), rounds=0
    )
    assert "bootstrap_rounds" not in bootstrap(manifest, again, K=1, cfg=quick_cfg()).config


def test_bootstrap_grows_grammar_and_counts(tmp_path):
    rng = np.random.default_rng(100)
    _, manifest = make_dataset(tmp_path, rng)
    # c1 is the only clip with the two-unit sentence; leave it transcript-only
    sup = bootstrap(
        manifest,
        BootstrapConfig(("c0", "c2"), (), rounds=0),
        K=1,
        cfg=quick_cfg(),
    )
    assert sup.grammar.num_sentences() == 2
    boot = bootstrap(
        manifest,
        BootstrapConfig(("c0", "c2"), ("c1",), rounds=1),
        K=1,
        cfg=quick_cfg(),
    )
    assert boot.config["bootstrap_rounds"] == 1
    assert boot.grammar.num_sentences() == 3
    lex = boot.lexicon
    uid = lex.id_of("take")
    assert lex.sample_count[uid] == sup.lexicon.sample_count[uid] + 1


def test_bootstrap_requires_models_for_transcript_units(tmp_path):
    rng = np.random.default_rng(101)
    _, manifest = make_dataset(tmp_path, rng)
    # annotated subset without any "take" segment cannot seed its model
    with pytest.raises(DataError):
        bootstrap(
            manifest,
            BootstrapConfig(("c2",), ("c1",), rounds=1),
            K=1,
            cfg=quick_cfg(),
        )
    with pytest.raises(DataError):
        BootstrapConfig(("c0",), ("c0",))
    with pytest.raises(DataError):
        BootstrapConfig(("c0",), ("c1",), rounds=-1)


def test_bootstrap_reads_each_clip_once_and_aligns_once_per_round(tmp_path, monkeypatch):
    rng = np.random.default_rng(103)
    _, manifest = make_dataset(tmp_path, rng)
    loads = Counter()
    aligns = []
    real_load, real_align = pipeline.load_features, pipeline.force_align

    def counting_load(path):
        loads[Path(path).name] += 1
        return real_load(path)

    def recording_align(*args, **kwargs):
        aligns.append(args)
        return real_align(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_features", counting_load)
    monkeypatch.setattr(pipeline, "force_align", recording_align)
    bcfg = BootstrapConfig(("c0", "c2"), ("c1", "c3"), rounds=2)
    bundle = bootstrap(manifest, bcfg, K=1, cfg=quick_cfg())
    assert bundle.config["bootstrap_rounds"] == 2
    assert loads == {f"{c}.feat": 1 for c in ("c0", "c1", "c2", "c3")}
    # one batch per round; the sequences go positionally, as a list
    assert len(aligns) == 2
    assert all(isinstance(args[2], list) and len(args[2]) == 2 for args in aligns)


def test_bootstrap_reports_the_first_bad_clip_in_sorted_order(tmp_path):
    rng = np.random.default_rng(104)
    root, manifest = make_dataset(tmp_path, rng)
    # c1 is too short for its transcript; c3 has no transcript at all
    short = FeatureSequence(load_features(manifest.clip("c1").features).frames[:3])
    save_features(manifest.clip("c1").features, short)
    clips = [
        dataclasses.replace(c, transcript=None) if c.clip_id == "c3" else c
        for c in manifest.clips
    ]
    manifest = DatasetManifest(clips=tuple(clips), splits=manifest.splits)
    bcfg = BootstrapConfig(("c0", "c2"), ("c1", "c3"), rounds=1)
    with pytest.raises(NoPathError, match="sequence has 3"):
        bootstrap(manifest, bcfg, K=1, cfg=quick_cfg())
    bcfg = BootstrapConfig(("c0", "c2"), ("c3",), rounds=1)
    with pytest.raises(DataError, match="clip 'c3' has no transcript"):
        bootstrap(manifest, bcfg, K=1, cfg=quick_cfg())


def test_split_units_divides_segments(tmp_path):
    rng = np.random.default_rng(102)
    root, manifest = make_dataset(tmp_path, rng)
    out = split_units(manifest, 2, tmp_path / "split2")
    clip = out.clip("c1")
    rows = read_segment_names(clip.segmentation)
    names = [nm for _, _, nm in rows]
    assert names == ["SIL", "take#1", "take#2", "pour#1", "pour#2", "SIL"]
    old_rows = read_segment_names(manifest.clip("c1").segmentation)
    assert rows[0] == old_rows[0]
    # coverage is preserved and parts within a unit are contiguous
    assert rows[-1][1] == old_rows[-1][1]
    for (s1, e1, _), (s2, _, _) in zip(rows, rows[1:]):
        assert s2 == e1 + 1
    # remainder frames go to the last part
    _, _, nm = old_rows[1]
    L = old_rows[1][1] - old_rows[1][0] + 1
    assert rows[1][1] - rows[1][0] + 1 == L // 2
    assert rows[2][1] - rows[2][0] + 1 == L - L // 2
    assert read_transcript_names(clip.transcript) == names
    # the derived manifest round-trips from disk
    back = load_manifest(tmp_path / "split2" / "manifest.json")
    assert back.split_ids("train") == ("c0", "c1", "c2")


def test_split_units_edge_cases(tmp_path):
    rng = np.random.default_rng(103)
    root, manifest = make_dataset(tmp_path, rng)
    with pytest.raises(DataError):
        split_units(manifest, 0, tmp_path / "bad")
    same = split_units(manifest, 1, tmp_path / "split1")
    assert read_segment_names(same.clip("c0").segmentation) == read_segment_names(
        manifest.clip("c0").segmentation
    )
    # a segment shorter than k warns and falls back to single frames
    short = root / "clips" / "c0.seg"
    rows = read_segment_names(short)
    s0, e0, _ = rows[0]
    write_segment_names(
        short, [(s0, e0, "SIL"), (e0 + 1, e0 + 2, "take"), (e0 + 3, rows[-1][1], "SIL")]
    )
    with pytest.warns(UserWarning, match="shorter"):
        split3 = split_units(manifest, 3, tmp_path / "split3")
    names = [nm for _, _, nm in read_segment_names(split3.clip("c0").segmentation)]
    assert names == ["SIL", "take#1", "take#2", "SIL"]


def test_mirror_map_and_features():
    rng = np.random.default_rng(104)
    seq = FeatureSequence(rng.normal(size=(5, 3)), frame_rate=10.0, clip_id="c")
    assert mirror_features(seq) is seq
    flip = MirrorMap.sign_flip(3)
    out = mirror_features(seq, flip)
    np.testing.assert_array_equal(out.frames, -seq.frames)
    assert out.clip_id == "c" and out.frame_rate == 10.0
    ident = MirrorMap.identity(3)
    np.testing.assert_array_equal(mirror_features(seq, ident).frames, seq.frames)
    swap = MirrorMap(perm=np.array([1, 0, 2]), signs=np.array([1.0, -1.0, 1.0]))
    out2 = mirror_features(seq, swap)
    np.testing.assert_array_equal(out2.frames[:, 0], seq.frames[:, 1])
    np.testing.assert_array_equal(out2.frames[:, 1], -seq.frames[:, 0])
    with pytest.raises(DataError):
        MirrorMap(perm=np.array([0, 0]), signs=np.array([1.0, 1.0]))
    with pytest.raises(DataError):
        MirrorMap(perm=np.array([0, 1]), signs=np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        mirror_features(seq, MirrorMap.identity(2))


def test_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(105)
    _, manifest = make_dataset(tmp_path, rng)
    bundle = train_supervised(manifest, "train", K=1, cfg=quick_cfg())
    out = tmp_path / "model"
    save_bundle(out, bundle)
    assert (out / "hmms.json").exists()
    assert (out / "grammar.ebnf").exists()
    back = load_bundle(out)
    assert back.hmms == bundle.hmms
    assert back.lexicon == bundle.lexicon
    assert back.grammar.sentences == bundle.grammar.sentences
    assert back.priors == bundle.priors
    assert back.config["K"] == 1
    assert back.config["format"] == "pipeline-config"
