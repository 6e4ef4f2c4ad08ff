import filecmp

import numpy as np
import pytest

from actionseg.data import load_features, load_manifest, read_segment_names, read_transcript_names
from actionseg.errors import DataError
from actionseg.synth import (
    MAX_STATE_FRAMES,
    SynthSpec,
    activity_names,
    generate_dataset,
    load_truth,
    mean_spacing,
    unit_pool,
)

SMALL = SynthSpec(
    n_activities=2,
    units_per_activity=3,
    clips_per_activity=4,
    states_per_unit=2,
    feature_dim=2,
    noise_sigma=0.1,
    sentences_per_activity=2,
    min_sentence_units=2,
)


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(n_activities=0)
    with pytest.raises(DataError):
        SynthSpec(clips_per_activity=-1)
    with pytest.raises(DataError):
        SynthSpec(noise_sigma=-0.5)
    with pytest.raises(DataError):
        SynthSpec(min_sentence_units=9, units_per_activity=5)


def test_naming_and_spacing():
    assert activity_names(SMALL) == ["activity00", "activity01"]
    assert unit_pool(SMALL, 1) == ["unit01_00", "unit01_01", "unit01_02"]
    assert mean_spacing(SynthSpec(noise_sigma=0.1)) == 1.0
    assert mean_spacing(SynthSpec(noise_sigma=0.5)) == 3.0
    assert mean_spacing(SynthSpec(noise_sigma=0.0)) == 1.0


def test_state_means_are_separated(tmp_path):
    generate_dataset(SMALL, tmp_path / "d", seed=3)
    truth = load_truth(tmp_path / "d")
    means = truth["means"]
    assert set(means) == {"SIL", *unit_pool(SMALL, 0), *unit_pool(SMALL, 1)}
    points = np.array([row for rows in means.values() for row in rows])
    assert points.shape == (7 * SMALL.states_per_unit, SMALL.feature_dim)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= truth["mean_spacing"] - 1e-12


def test_generate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_dataset(SMALL, a, seed=7)
    generate_dataset(SMALL, b, seed=7)
    names = sorted(p.name for p in (a / "clips").iterdir())
    assert names == sorted(p.name for p in (b / "clips").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(
        a / "clips", b / "clips", names, shallow=False
    )
    assert not mismatch and not errors
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
    c = tmp_path / "c"
    generate_dataset(SMALL, c, seed=8)
    _, mismatch2, _ = filecmp.cmpfiles(a / "clips", c / "clips", names, shallow=False)
    assert mismatch2


def test_generated_annotations_are_consistent(tmp_path):
    out = tmp_path / "d"
    manifest = generate_dataset(SMALL, out, seed=11)
    truth = load_truth(out)
    all_ids = {c.clip_id for c in manifest.clips}
    assert len(all_ids) == 2 * 4
    train = manifest.split_ids("train")
    test = manifest.split_ids("test")
    assert set(train) | set(test) == all_ids
    assert not set(train) & set(test)
    # clips alternate between the splits within each activity
    assert "activity00_clip000" in train and "activity00_clip001" in test
    sentences = {
        act: {tuple(s) for s in sents} for act, sents in truth["sentences"].items()
    }
    for clip in manifest.clips:
        rows = read_segment_names(clip.segmentation)
        tokens = read_transcript_names(clip.transcript)
        assert [nm for _, _, nm in rows] == tokens
        assert tokens[0] == "SIL" and tokens[-1] == "SIL"
        assert tuple(tokens[1:-1]) in sentences[clip.activity]
        seq = load_features(clip.features)
        assert rows[0][0] == 0
        assert rows[-1][1] == seq.num_frames - 1
        for (s1, e1, _), (s2, _, _) in zip(rows, rows[1:]):
            assert s2 == e1 + 1
        for s, e, _ in rows:
            L = e - s + 1
            assert SMALL.states_per_unit <= L <= SMALL.states_per_unit * MAX_STATE_FRAMES
    # the manifest on disk resolves to the same clip set
    back = load_manifest(out / "manifest.json")
    assert {c.clip_id for c in back.clips} == all_ids


def test_first_sentence_covers_the_pool(tmp_path):
    out = tmp_path / "d"
    generate_dataset(SMALL, out, seed=2)
    truth = load_truth(out)
    for i, act in enumerate(activity_names(SMALL)):
        assert truth["sentences"][act][0] == unit_pool(SMALL, i)


def test_zero_noise_frames_sit_on_the_lattice(tmp_path):
    spec = SynthSpec(
        n_activities=1,
        units_per_activity=2,
        clips_per_activity=2,
        states_per_unit=2,
        feature_dim=2,
        noise_sigma=0.0,
        sentences_per_activity=1,
        min_sentence_units=1,
    )
    out = tmp_path / "exact"
    manifest = generate_dataset(spec, out, seed=5)
    truth = load_truth(out)
    lattice = {tuple(row) for rows in truth["means"].values() for row in rows}
    for clip in manifest.clips:
        seq = load_features(clip.features)
        for row in seq.frames:
            assert tuple(row) in lattice
        # within each segment the frames walk that unit's states in order
        for s, e, nm in read_segment_names(clip.segmentation):
            block = seq.frames[s : e + 1]
            state_rows = [tuple(r) for r in truth["means"][nm]]
            seen = [state_rows.index(tuple(r)) for r in block]
            assert seen == sorted(seen)
            assert set(seen) == set(range(spec.states_per_unit))
