"""Synthetic dataset generator with known segment structure.

Builds small activity datasets where every frame is drawn from a known
per-state Gaussian, so trained models can be checked against ground truth.
State means sit on a lattice whose spacing scales with the noise level,
which keeps classes separable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    ClipRecord,
    DatasetManifest,
    FeatureSequence,
    save_features,
    save_manifest,
    write_segment_names,
    write_transcript_names,
)
from .errors import DataError
from .util import child_rng, read_json, write_json

TRAIN_SPLIT = "train"
TEST_SPLIT = "test"
# Each generating state stays a geometric number of frames, capped here.
SELF_LOOP = 0.9
MAX_STATE_FRAMES = 60


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the generator.

    Each activity owns a disjoint pool of units. Sentences are unit
    orderings bracketed by the silence unit; the first sentence of every
    activity visits the whole pool so no unit is starved of examples.
    """

    n_activities: int = 3
    units_per_activity: int = 5
    clips_per_activity: int = 50
    states_per_unit: int = 3
    feature_dim: int = 2
    noise_sigma: float = 0.1
    sentences_per_activity: int = 3
    min_sentence_units: int = 3
    silence: str = "SIL"

    def __post_init__(self):
        for name in (
            "n_activities",
            "units_per_activity",
            "clips_per_activity",
            "states_per_unit",
            "feature_dim",
            "sentences_per_activity",
            "min_sentence_units",
        ):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise DataError(f"{name} must be a positive integer, got {value!r}")
        if self.noise_sigma < 0:
            raise DataError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.min_sentence_units > self.units_per_activity:
            raise DataError(
                "min_sentence_units exceeds units_per_activity "
                f"({self.min_sentence_units} > {self.units_per_activity})"
            )


def activity_names(spec: SynthSpec) -> list[str]:
    return [f"activity{i:02d}" for i in range(spec.n_activities)]


def unit_pool(spec: SynthSpec, activity_index: int) -> list[str]:
    """Units owned by one activity, in canonical order."""
    return [
        f"unit{activity_index:02d}_{j:02d}" for j in range(spec.units_per_activity)
    ]


def mean_spacing(spec: SynthSpec) -> float:
    """Lattice step between neighboring state means.

    Never below 1.0 so the zero-noise case still has distinct states, and
    at least six sigma so overlap between neighboring Gaussians is
    negligible.
    """
    return max(1.0, 6.0 * spec.noise_sigma)


def _state_means(spec: SynthSpec) -> dict[str, np.ndarray]:
    """Assign every (unit, state) pair a point on an integer lattice."""
    units = [spec.silence]
    for i in range(spec.n_activities):
        units.extend(unit_pool(spec, i))
    total = len(units) * spec.states_per_unit
    m = spec.feature_dim
    side = max(2, int(math.ceil(total ** (1.0 / m))))
    while side**m < total:
        side += 1
    spacing = mean_spacing(spec)
    means = {}
    index = 0
    for name in units:
        rows = np.empty((spec.states_per_unit, m))
        for s in range(spec.states_per_unit):
            x = index
            for d in range(m):
                rows[s, d] = (x % side) * spacing
                x //= side
            index += 1
        means[name] = rows
    return means


def _activity_sentences(spec: SynthSpec, activity_index: int, seed: int) -> list[tuple[str, ...]]:
    """Build the sentence inventory for one activity.

    The first sentence runs through the full unit pool in order. The rest
    are random distinct-unit subsequences, deduplicated. Unit pools are
    disjoint across activities, so sentences are globally unique and no
    ordering ever repeats a unit back to back.
    """
    pool = unit_pool(spec, activity_index)
    sentences = [tuple(pool)]
    rng = child_rng(seed, "sentences", activity_names(spec)[activity_index])
    attempts = 0
    while len(sentences) < spec.sentences_per_activity and attempts < 1000:
        attempts += 1
        length = int(rng.integers(spec.min_sentence_units, len(pool) + 1))
        picked = rng.choice(len(pool), size=length, replace=False)
        candidate = tuple(pool[i] for i in picked)
        if candidate not in sentences:
            sentences.append(candidate)
    return sentences


def _clip_frames(
    spec: SynthSpec,
    tokens: list[str],
    means: dict[str, np.ndarray],
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[tuple[int, int, str]]]:
    """Sample one clip: per-state geometric durations plus isotropic noise."""
    p_leave = 1.0 - SELF_LOOP
    blocks = []
    rows = []
    cursor = 0
    for name in tokens:
        unit_blocks = []
        for s in range(spec.states_per_unit):
            dur = min(int(rng.geometric(p_leave)), MAX_STATE_FRAMES)
            noise = rng.standard_normal((dur, spec.feature_dim)) * spec.noise_sigma
            unit_blocks.append(means[name][s] + noise)
        chunk = np.concatenate(unit_blocks, axis=0)
        rows.append((cursor, cursor + chunk.shape[0] - 1, name))
        blocks.append(chunk)
        cursor += chunk.shape[0]
    return np.concatenate(blocks, axis=0), rows


def generate_dataset(spec: SynthSpec, out_dir, seed: int = 0) -> DatasetManifest:
    """Write a full synthetic dataset under out_dir and return its manifest.

    Layout: clips/<id>.feat, clips/<id>.seg, clips/<id>.tr, manifest.json,
    and truth.json recording the generating means and sentence inventory.
    Clips alternate between the train and test splits within each
    activity. Output bytes depend only on (spec, seed).
    """
    out = Path(out_dir)
    clip_dir = out / "clips"
    clip_dir.mkdir(parents=True, exist_ok=True)

    means = _state_means(spec)
    acts = activity_names(spec)
    sentences = {
        act: _activity_sentences(spec, i, seed) for i, act in enumerate(acts)
    }

    records = []
    splits = {TRAIN_SPLIT: [], TEST_SPLIT: []}
    for act in acts:
        inventory = sentences[act]
        for c in range(spec.clips_per_activity):
            cid = f"{act}_clip{c:03d}"
            rng = child_rng(seed, "clip", cid)
            sentence = inventory[int(rng.integers(len(inventory)))]
            tokens = [spec.silence, *sentence, spec.silence]
            frames, rows = _clip_frames(spec, tokens, means, rng)

            feat_path = clip_dir / f"{cid}.feat"
            seg_path = clip_dir / f"{cid}.seg"
            tr_path = clip_dir / f"{cid}.tr"
            save_features(feat_path, FeatureSequence(frames, cid))
            write_segment_names(seg_path, rows)
            write_transcript_names(tr_path, tokens)

            records.append(
                ClipRecord(
                    clip_id=cid,
                    features=str(feat_path),
                    activity=act,
                    segmentation=str(seg_path),
                    transcript=str(tr_path),
                )
            )
            split = TRAIN_SPLIT if c % 2 == 0 else TEST_SPLIT
            splits[split].append(cid)

    manifest = DatasetManifest(
        clips=tuple(records),
        splits={k: tuple(v) for k, v in splits.items()},
    )
    save_manifest(out / "manifest.json", manifest)
    write_json(
        out / "truth.json",
        {
            "seed": seed,
            "noise_sigma": spec.noise_sigma,
            "mean_spacing": mean_spacing(spec),
            "states_per_unit": spec.states_per_unit,
            "sentences": {a: [list(s) for s in sents] for a, sents in sentences.items()},
            "means": {name: rows.tolist() for name, rows in means.items()},
        },
    )
    return manifest


def load_truth(out_dir) -> dict:
    """Read back the generating parameters written by generate_dataset."""
    return read_json(Path(out_dir) / "truth.json")
