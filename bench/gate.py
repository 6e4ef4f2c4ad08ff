"""Output-correctness gate: a run whose outputs fail it counts as failed.

The checks read only what the commands wrote and what the generator knows:
every decoded clip must tile its frames and carry a transcript that is a
sentence of the trained grammar.
"""
from __future__ import annotations

import hashlib
from pathlib import Path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def grammar_sentences(bundle) -> set[tuple[str, tuple[str, ...]]]:
    """(activity, unit names) of every sentence the bundle's graph accepts."""
    from actionseg.grammar import compose, graph_sentences

    name = bundle.lexicon.name_of
    return {
        (act, tuple(name(u) for u in units))
        for act, units in graph_sentences(compose(bundle.grammar, bundle.hmms))
    }


def check_clip(clip_id: str, entry: dict, num_frames: int, sentences) -> list[str]:
    """Problems with one decoded clip from results.json; empty when it passes.

    entry holds "activity", "segments" ([start, end, unit] rows) and
    "transcript" (unit names); sentences is the grammar_sentences set.
    """
    problems = []
    cursor = 0
    for start, end, _ in entry["segments"]:
        if start != cursor or end < start:
            problems.append(f"{clip_id}: segment [{start}, {end}] breaks the tiling at frame {cursor}")
            break
        cursor = end + 1
    else:
        if cursor != num_frames:
            problems.append(f"{clip_id}: segments cover frames 0..{cursor - 1} of {num_frames}")
    units = [unit for _, _, unit in entry["segments"]]
    if list(entry["transcript"]) != units:
        problems.append(f"{clip_id}: transcript {entry['transcript']} differs from its segments")
    if (entry["activity"], tuple(entry["transcript"])) not in sentences:
        problems.append(
            f"{clip_id}: ({entry['activity']}, {' '.join(entry['transcript'])}) "
            "is not a sentence of the grammar"
        )
    return problems


def check_results(results: dict, frames: dict[str, int], sentences) -> list[str]:
    """Problems across a whole results.json document.

    frames maps every clip that must be present to its frame count.
    """
    clips = results["clips"]
    problems = [f"{cid}: missing from the results" for cid in sorted(set(frames) - set(clips))]
    problems += [f"{cid}: not a clip of the split" for cid in sorted(set(clips) - set(frames))]
    for cid in sorted(set(frames) & set(clips)):
        problems += check_clip(cid, clips[cid], frames[cid], sentences)
    return problems
