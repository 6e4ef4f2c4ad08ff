import gc
import sys
import warnings

import numpy as np
import pytest

from actionseg.data import (
    ClipRecord,
    DatasetManifest,
    FeatureSequence,
    Segmentation,
    Transcript,
    UnitLexicon,
    frame_labels,
    load_features,
    load_manifest,
    load_segmentation,
    load_transcript,
    read_segment_names,
    read_transcript_names,
    save_features,
    save_manifest,
    save_segmentation,
    save_transcript,
    segmentation_from_labels,
    segmentation_to_transcript,
    write_segment_names,
    write_transcript_names,
)
from actionseg.errors import DataError


def test_feature_sequence_validation():
    with pytest.raises(DataError):
        FeatureSequence(np.zeros(3))
    with pytest.raises(DataError):
        FeatureSequence(np.zeros((0, 2)))
    with pytest.raises(DataError):
        FeatureSequence(np.array([[1.0, np.nan]]))


def test_feature_sequence_read_only_and_slice():
    seq = FeatureSequence(np.arange(12.0).reshape(6, 2), clip_id="c")
    with pytest.raises(ValueError):
        seq.frames[0, 0] = 99.0
    part = seq.slice(2, 4)
    assert part.num_frames == 3
    assert np.array_equal(part.frames, seq.frames[2:5])
    assert part.clip_id == "c[2:4]"
    with pytest.raises(ValueError):
        seq.slice(4, 2)
    with pytest.raises(ValueError):
        seq.slice(0, 6)


def test_lexicon_lookup_and_counts():
    lex = UnitLexicon.from_names(["SIL", "pour", "stir"], counts={"pour": 4})
    assert len(lex) == 3
    assert lex.silence_id == 0
    assert lex.id_of("stir") == 2
    assert lex.name_of(1) == "pour"
    assert lex.sample_count == (0, 4, 0)
    with pytest.raises(DataError):
        lex.id_of("chop")
    with pytest.raises(DataError):
        UnitLexicon.from_names(["pour", "stir"])
    with pytest.raises(DataError):
        UnitLexicon.from_names(["SIL", "pour", "pour"])
    updated = lex.with_counts({0: 1, 2: 9})
    assert updated.sample_count == (1, 0, 9)


def test_segmentation_must_tile_frames():
    seg = Segmentation(((0, 0, 4), (1, 5, 9)))
    assert seg.num_frames == 10
    assert len(seg) == 2
    with pytest.raises(DataError):
        Segmentation(())
    with pytest.raises(DataError):
        Segmentation(((0, 1, 4),))
    with pytest.raises(DataError):
        Segmentation(((0, 0, 4), (1, 6, 9)))
    with pytest.raises(DataError):
        Segmentation(((0, 0, 4), (1, 4, 9)))
    with pytest.raises(DataError):
        Segmentation(((0, 3, 2),))


def test_transcript_non_empty():
    assert len(Transcript((1, 2, 1))) == 3
    with pytest.raises(DataError):
        Transcript(())


def test_features_file_round_trip(tmp_path):
    seq = FeatureSequence(np.random.default_rng(0).normal(size=(17, 3)))
    p = tmp_path / "a.feat"
    save_features(p, seq)
    back = load_features(p)
    assert np.array_equal(back.frames, seq.frames)
    with pytest.raises(DataError):
        load_features(tmp_path / "missing.feat")


def test_features_file_rejects_ragged_rows(tmp_path):
    p = tmp_path / "bad.feat"
    p.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(DataError):
        load_features(p)


def test_segmentation_file_round_trip(tmp_path):
    lex = UnitLexicon.from_names(["SIL", "pour"])
    seg = Segmentation(((0, 0, 3), (1, 4, 7), (0, 8, 9)))
    p = tmp_path / "a.seg"
    save_segmentation(p, seg, lex)
    assert load_segmentation(p, lex) == seg
    assert read_segment_names(p) == [(0, 3, "SIL"), (4, 7, "pour"), (8, 9, "SIL")]
    write_segment_names(p, [(0, 1, "pour")])
    assert read_segment_names(p) == [(0, 1, "pour")]


def test_segment_names_keep_spaces_in_unit_name(tmp_path):
    p = tmp_path / "a.seg"
    p.write_text("0 4 take cup\n")
    assert read_segment_names(p) == [(0, 4, "take cup")]


def test_transcript_file_round_trip(tmp_path):
    lex = UnitLexicon.from_names(["SIL", "pour", "stir"])
    tr = Transcript((0, 2, 1, 0))
    p = tmp_path / "a.tr"
    save_transcript(p, tr, lex)
    assert load_transcript(p, lex) == tr
    write_transcript_names(p, ["pour"])
    assert load_transcript(p, lex) == Transcript((1,))
    with pytest.raises(DataError):
        load_transcript(tmp_path / "missing.tr", lex)


def test_manifest_round_trip_with_relative_paths(tmp_path):
    feat = tmp_path / "clips" / "c0.feat"
    feat.parent.mkdir()
    save_features(feat, FeatureSequence(np.zeros((3, 2))))
    manifest = DatasetManifest(
        clips=(
            ClipRecord("c0", str(feat), "coffee", None, None),
        ),
        splits={"train": ("c0",)},
    )
    p = tmp_path / "manifest.json"
    save_manifest(p, manifest)
    text = p.read_text()
    assert "clips/c0.feat" in text and str(tmp_path) not in text
    back = load_manifest(p)
    assert back.clip("c0").features == feat
    assert back.split_ids("train") == ("c0",)
    with pytest.raises(DataError):
        back.clip("nope")
    with pytest.raises(DataError):
        back.split_ids("nope")


def test_transcript_read_closes_its_file(tmp_path):
    p = tmp_path / "c.tr"
    p.write_text("SIL\nstir\n")
    # A file left open warns when it is collected; as an error, that warning
    # surfaces as an unraisable exception.
    unraisable = []
    hook = sys.unraisablehook
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        sys.unraisablehook = unraisable.append
        try:
            assert read_transcript_names(p) == ["SIL", "stir"]
            gc.collect()
        finally:
            sys.unraisablehook = hook
    assert not unraisable


def test_manifest_rejects_unknown_split_members():
    with pytest.raises(DataError):
        DatasetManifest(
            clips=(ClipRecord("c0", "x.feat", "", None, None),),
            splits={"train": ("ghost",)},
        )
    with pytest.raises(DataError):
        DatasetManifest(
            clips=(
                ClipRecord("c0", "x.feat", "", None, None),
                ClipRecord("c0", "y.feat", "", None, None),
            ),
            splits={},
        )


def test_label_conversions_round_trip():
    seg = Segmentation(((2, 0, 2), (0, 3, 3), (2, 4, 6)))
    labels = frame_labels(seg, 7)
    assert labels == [2, 2, 2, 0, 2, 2, 2]
    assert segmentation_from_labels(labels) == seg
    assert segmentation_to_transcript(seg) == Transcript((2, 0, 2))
    with pytest.raises(DataError):
        frame_labels(seg, 8)
    with pytest.raises(DataError):
        segmentation_from_labels([])
