"""Core domain types and file formats.

Frame indexing is 0-based with inclusive end frames, both in files and in
memory.  All types are immutable after construction.

File formats
------------
* feature file: one frame per line, whitespace-separated decimal floats (UTF-8)
* segmentation file: lines ``start end unit_name`` with inclusive frame indices
* transcript file: one unit name per line
* manifest: a single JSON document listing clips and named splits
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError
from .util import read_json, read_text

MANIFEST_VERSION = 1


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """A clip's per-frame feature vectors, shape (T, m)."""

    frames: np.ndarray
    clip_id: str = ""

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"feature array must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError(f"feature array must be at least 1x1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"non-finite value in features of clip {self.clip_id!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureSequence):
            return NotImplemented
        return (
            self.clip_id == other.clip_id
            and np.array_equal(self.frames, other.frames)
        )

    def slice(self, start: int, end: int, clip_id: str | None = None) -> "FeatureSequence":
        """Sub-sequence of frames ``start..end`` inclusive."""
        if not (0 <= start <= end < self.num_frames):
            raise ValueError(f"bad slice [{start}, {end}] for T={self.num_frames}")
        return FeatureSequence(
            self.frames[start : end + 1].copy(),
            clip_id=clip_id if clip_id is not None else f"{self.clip_id}[{start}:{end}]",
        )


@dataclass(frozen=True)
class UnitLexicon:
    """Ordered unit names with ids, per-unit training sample counts, and the
    id of the background/silence unit."""

    names: tuple[str, ...]
    sample_count: tuple[int, ...]
    silence_id: int

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate unit names in lexicon")
        if len(self.sample_count) != len(self.names):
            raise DataError("sample_count length does not match unit list")
        if any(c < 0 for c in self.sample_count):
            raise DataError("negative sample count")
        if not (0 <= self.silence_id < len(self.names)):
            raise DataError(f"silence_id {self.silence_id} out of range")

    @classmethod
    def from_names(
        cls,
        names: Iterable[str],
        silence: str = "SIL",
        counts: Mapping[str, int] | None = None,
    ) -> "UnitLexicon":
        ordered = tuple(names)
        if silence not in ordered:
            raise DataError(f"silence unit {silence!r} not among unit names")
        counts = counts or {}
        return cls(
            names=ordered,
            sample_count=tuple(int(counts.get(n, 0)) for n in ordered),
            silence_id=ordered.index(silence),
        )

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown unit name {name!r}") from None

    def name_of(self, unit_id: int) -> str:
        return self.names[unit_id]

    def with_counts(self, counts: Mapping[int, int]) -> "UnitLexicon":
        return UnitLexicon(
            names=self.names,
            sample_count=tuple(int(counts.get(i, 0)) for i in range(len(self.names))),
            silence_id=self.silence_id,
        )


@dataclass(frozen=True)
class Segmentation:
    """Ordered (unit_id, start, end) segments covering frames 0..T-1.

    Segments are contiguous (each start = previous end + 1), the first starts
    at 0, and every segment spans at least one frame.
    """

    segments: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        segs = tuple((int(u), int(s), int(e)) for u, s, e in self.segments)
        if not segs:
            raise DataError("segmentation must contain at least one segment")
        prev_end = -1
        for i, (unit_id, start, end) in enumerate(segs):
            if start != prev_end + 1:
                raise DataError(
                    f"segment {i} starts at {start}, expected {prev_end + 1} "
                    "(segments must be contiguous with no gaps)"
                )
            if end < start:
                raise DataError(f"segment {i} has end {end} < start {start}")
            prev_end = end
        object.__setattr__(self, "segments", segs)

    @property
    def num_frames(self) -> int:
        return self.segments[-1][2] + 1

    def __len__(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class Transcript:
    """Ordered unit ids without frame boundaries."""

    units: tuple[int, ...]

    def __post_init__(self):
        units = tuple(int(u) for u in self.units)
        if not units:
            raise DataError("transcript must be non-empty")
        object.__setattr__(self, "units", units)

    def __len__(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class ClipRecord:
    clip_id: str
    features: Path
    activity: str
    segmentation: Path | None = None
    transcript: Path | None = None


@dataclass(frozen=True)
class DatasetManifest:
    """Clip records plus named splits (partitions of clip ids)."""

    clips: tuple[ClipRecord, ...]
    splits: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        ids = [c.clip_id for c in self.clips]
        if not ids:
            raise DataError("empty manifest")
        seen = set()
        for cid in ids:
            if cid in seen:
                raise DataError(f"duplicate clip_id {cid!r}")
            seen.add(cid)
        for split, members in self.splits.items():
            for cid in members:
                if cid not in seen:
                    raise DataError(f"split {split!r} references unknown clip {cid!r}")
        object.__setattr__(self, "splits", dict(self.splits))

    def clip(self, clip_id: str) -> ClipRecord:
        for c in self.clips:
            if c.clip_id == clip_id:
                return c
        raise DataError(f"unknown clip {clip_id!r}")

    def split_ids(self, name: str) -> tuple[str, ...]:
        if name not in self.splits:
            raise DataError(f"unknown split {name!r}")
        return tuple(self.splits[name])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DatasetManifest):
            return NotImplemented
        return self.clips == other.clips and dict(self.splits) == dict(other.splits)


# ---------------------------------------------------------------------------
# loaders / writers


def load_features(path: str | os.PathLike) -> FeatureSequence:
    """Parse a whitespace-separated feature file into a FeatureSequence."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"feature file not found: {path}")
    rows: list[list[float]] = []
    dim: int | None = None
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise DataError(f"{path}:{lineno}: cannot parse float") from None
        if any(not math.isfinite(v) for v in row):
            raise DataError(f"{path}:{lineno}: non-finite value")
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise DataError(
                f"{path}:{lineno}: row has {len(row)} values, expected {dim}"
            )
        rows.append(row)
    if not rows:
        raise DataError(f"empty feature file: {path}")
    return FeatureSequence(np.array(rows, dtype=np.float64), clip_id=path.stem)


def save_features(path: str | os.PathLike, seq: FeatureSequence) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in seq.frames.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def read_segment_names(path: str | os.PathLike) -> list[tuple[int, int, str]]:
    """Raw segmentation rows (start, end, unit_name) without a lexicon."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"segmentation file not found: {path}")
    rows: list[tuple[int, int, str]] = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(maxsplit=2)
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'start end unit_name'")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: frame indices must be integers") from None
        rows.append((start, end, parts[2]))
    if not rows:
        raise DataError(f"empty segmentation file: {path}")
    return rows


def write_segment_names(path: str | os.PathLike, rows) -> None:
    """Inverse of read_segment_names: rows are (start, end, unit_name)."""
    with open(path, "w", encoding="utf-8") as fh:
        for start, end, name in rows:
            fh.write(f"{int(start)} {int(end)} {name}\n")


def load_segmentation(path: str | os.PathLike, lexicon: UnitLexicon) -> Segmentation:
    rows = read_segment_names(path)
    return Segmentation(tuple((lexicon.id_of(name), s, e) for s, e, name in rows))


def read_transcript_names(path: str | os.PathLike) -> list[str]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"transcript file not found: {path}")
    names = [line.strip() for line in read_text(path).split("\n") if line.strip()]
    if not names:
        raise DataError(f"empty transcript file: {path}")
    return names


def write_transcript_names(path: str | os.PathLike, names) -> None:
    """Inverse of read_transcript_names: one unit name per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in names:
            fh.write(f"{name}\n")


def load_transcript(path: str | os.PathLike, lexicon: UnitLexicon) -> Transcript:
    return Transcript(tuple(lexicon.id_of(n) for n in read_transcript_names(path)))


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    """Load and validate a dataset manifest JSON file.

    Relative clip paths are resolved against the manifest's directory.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("clips"), list):
        raise DataError(f"manifest {path} must be a JSON object with a 'clips' list")
    splits = doc.get("splits") or {}
    if not isinstance(splits, dict):
        raise DataError(f"manifest {path}: 'splits' must map split names to clip id lists")
    for name, members in splits.items():
        if not isinstance(members, list) or not all(
            isinstance(c, (str, int)) and not isinstance(c, bool) for c in members
        ):
            raise DataError(f"manifest {path}: split {name!r} must be a list of clip ids")
    root = path.parent

    def resolve(p: str | None) -> Path | None:
        if p is None:
            return None
        q = Path(p)
        return q if q.is_absolute() else root / q

    clips = []
    for i, rec in enumerate(doc["clips"]):
        if not isinstance(rec, dict) or "id" not in rec or "features" not in rec:
            raise DataError(f"manifest {path}: clip record {i} needs 'id' and 'features'")
        optional = (rec.get("segmentation"), rec.get("transcript"))
        if not isinstance(rec["features"], str) or not all(
            p is None or isinstance(p, str) for p in optional
        ):
            raise DataError(f"manifest {path}: clip record {i} paths must be strings")
        clips.append(
            ClipRecord(
                clip_id=str(rec["id"]),
                features=resolve(rec["features"]),
                activity=str(rec.get("activity", "")),
                segmentation=resolve(rec.get("segmentation")),
                transcript=resolve(rec.get("transcript")),
            )
        )
    return DatasetManifest(
        clips=tuple(clips),
        splits={str(name): tuple(str(c) for c in members) for name, members in splits.items()},
    )


def save_manifest(path: str | os.PathLike, manifest: DatasetManifest) -> None:
    """Write a manifest with paths relative to the output directory when possible."""
    path = Path(path)
    root = path.parent.resolve()

    def unresolve(p: Path | None) -> str | None:
        if p is None:
            return None
        p = Path(p)
        try:
            return str(p.resolve().relative_to(root))
        except ValueError:
            return os.path.abspath(p)

    doc = {
        "version": MANIFEST_VERSION,
        "clips": [
            {
                k: v
                for k, v in {
                    "id": c.clip_id,
                    "features": unresolve(c.features),
                    "segmentation": unresolve(c.segmentation),
                    "transcript": unresolve(c.transcript),
                    "activity": c.activity,
                }.items()
                if v is not None
            }
            for c in manifest.clips
        ],
        "splits": {k: list(v) for k, v in manifest.splits.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# label conversions


def segmentation_to_transcript(seg: Segmentation) -> Transcript:
    """One transcript token per segment; adjacent duplicates are preserved."""
    return Transcript(tuple(unit_id for unit_id, _, _ in seg.segments))


def frame_labels(seg: Segmentation, num_frames: int) -> list[int]:
    """Per-frame unit ids of a segmentation that covers exactly 0..num_frames-1."""
    if seg.num_frames != num_frames:
        raise DataError(
            f"segmentation covers {seg.num_frames} frames, expected {num_frames}"
        )
    labels = []
    for unit_id, start, end in seg.segments:
        labels.extend([unit_id] * (end - start + 1))
    return labels


def label_runs(labels: Sequence) -> Iterator[tuple[int, int, object]]:
    """Maximal runs of equal labels as (start, end, label), end inclusive."""
    start = 0
    for t in range(1, len(labels)):
        if labels[t] != labels[t - 1]:
            yield start, t - 1, labels[start]
            start = t
    if len(labels):
        yield start, len(labels) - 1, labels[start]


def segmentation_from_labels(labels: Sequence[int]) -> Segmentation:
    """Inverse of frame_labels: maximal runs of equal labels become segments."""
    if len(labels) == 0:
        raise DataError("cannot build a segmentation from zero frames")
    return Segmentation(tuple((int(lbl), s, e) for s, e, lbl in label_runs(labels)))
