"""The benchmark's workloads and the seeded inputs each one is run on.

Every workload goes through the public command line, one phase at a time:
synth -> [encode] -> train | bootstrap -> decode -> eval.  The program only
sees the files the generator writes; the seed picks the data.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

TRAIN_SPLIT = "train"
TEST_SPLIT = "test"
ANNOTATED_SPLIT = "annotated"
TRANSCRIPT_SPLIT = "transcript"
# annotated clips kept per activity on weak-bootstrap, as in the acceptance
# test that bootstrapping beats sparse annotation
ANNOTATED_PER_ACTIVITY = 3


@dataclass(frozen=True)
class Workload:
    """One synthetic dataset and the command flags run on it."""

    name: str
    why: str
    activities: int
    units: int
    sentences: int
    clips: int  # clips per activity; half of them land in the test split
    dim: int = 2
    noise: float = 0.1
    gmm_k: int = 2
    encode: tuple[str, ...] = ()  # encode flags; empty means no encode phase
    train_flags: tuple[str, ...] = ()  # extra train or bootstrap flags
    bootstrap_rounds: int = 0  # above 0: weak supervision via `bootstrap`
    beam: int | None = None  # decode beam; None decodes exactly
    prior: bool = False  # decode with inverse-frequency unit priors
    jobs: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wide-grammar",
            why="~120-node grammar graph on 2-d features, default training flags: the "
            "decoder's per-node Python loop and per-call GMM overhead dominate; exact decode",
            activities=5,
            units=6,
            sentences=4,
            clips=50,
        ),
        Workload(
            name="encoded-fv",
            why="the paper's PCA-FisherVector-PCA chain to 48 dims, K=8, fixed training work: "
            "GMM arithmetic and text feature I/O dominate; the only unsaturated quality",
            activities=2,
            units=3,
            sentences=2,
            clips=100,
            dim=8,
            gmm_k=8,
            encode=("--split", TRAIN_SPLIT, "--gmm-k", "8", "--pca-dim", "48"),
            # Every unit trains on exactly 80 segments for exactly 5 Viterbi and
            # 5 Baum-Welch iterations, so the training work, and with it
            # train_s, does not swing with how fast one seed's data converges.
            train_flags=(
                "--balance-lower", "80", "--balance-upper", "80",
                "--viterbi-iters", "5", "--baum-welch-iters", "5",
            ),
        ),
        Workload(
            name="weak-bootstrap",
            why="transcript-only training at a fixed 60 segments and 4+4 iterations per unit: "
            "forced alignment, warm-started retraining, beam and prior decode, 2 threads",
            activities=4,
            units=5,
            sentences=3,
            clips=50,
            noise=0.3,
            bootstrap_rounds=2,
            # fixed training work per unit, as on encoded-fv
            train_flags=(
                "--balance-lower", "60", "--balance-upper", "60",
                "--viterbi-iters", "4", "--baum-welch-iters", "4",
            ),
            beam=40,
            prior=True,
            jobs=2,
        ),
    )
}


def synth_argv(w: Workload, out: Path, seed: int) -> list[str]:
    return [
        "synth", "--out", str(out), "--seed", str(seed),
        "--activities", str(w.activities), "--units", str(w.units),
        "--sentences", str(w.sentences), "--clips", str(w.clips),
        "--dim", str(w.dim), "--noise", repr(w.noise),
    ]


def weak_splits(manifest, truth: dict) -> tuple[list[str], list[str]]:
    """Annotated and transcript-only clip ids for weak-bootstrap.

    Per activity, the first train clips whose transcript is the activity's
    first sentence (which visits the whole unit pool) are annotated, so
    every unit has a model to seed the alignments with at any seed.  The
    remaining train clips keep only their transcripts.
    """
    from actionseg.data import read_transcript_names

    full = {act: tuple(sents[0]) for act, sents in truth["sentences"].items()}
    annotated: list[str] = []
    for act in sorted(full):
        found = [
            cid
            for cid in manifest.split_ids(TRAIN_SPLIT)
            if manifest.clip(cid).activity == act
            and tuple(read_transcript_names(manifest.clip(cid).transcript)[1:-1]) == full[act]
        ]
        if not found:
            raise ValueError(f"activity {act} has no train clip covering its unit pool")
        annotated.extend(found[:ANNOTATED_PER_ACTIVITY])
    chosen = set(annotated)
    transcript_only = [cid for cid in manifest.split_ids(TRAIN_SPLIT) if cid not in chosen]
    return annotated, transcript_only


def add_weak_splits(data: Path) -> None:
    """Rewrite data/manifest.json with the annotated and transcript splits."""
    from actionseg.data import DatasetManifest, load_manifest, save_manifest
    from actionseg.synth import load_truth

    manifest = load_manifest(data / "manifest.json")
    annotated, transcript_only = weak_splits(manifest, load_truth(data))
    splits = dict(manifest.splits)
    splits[ANNOTATED_SPLIT] = tuple(annotated)
    splits[TRANSCRIPT_SPLIT] = tuple(transcript_only)
    save_manifest(data / "manifest.json", DatasetManifest(manifest.clips, splits))


def phase_argvs(w: Workload, data: Path, run: Path) -> list[tuple[str, list[str]]]:
    """(phase, argv) for each timed command, in order, after synth.

    data holds the generated dataset; run receives the encoded features,
    the model bundle, the predictions and the report.
    """
    manifest = data / "manifest.json"
    phases: list[tuple[str, list[str]]] = []
    if w.encode:
        enc = run / "encoded"
        phases.append(
            ("encode", ["encode", "--manifest", str(manifest), *w.encode, "--out", str(enc)])
        )
        manifest = enc / "manifest.json"
    model = run / "model"
    jobs = ["--jobs", str(w.jobs)]
    if w.bootstrap_rounds:
        train = [
            "bootstrap", "--manifest", str(manifest),
            "--annotated-split", ANNOTATED_SPLIT, "--transcript-split", TRANSCRIPT_SPLIT,
            "--rounds", str(w.bootstrap_rounds),
        ]
    else:
        train = ["train", "--manifest", str(manifest), "--split", TRAIN_SPLIT]
    phases.append(
        ("train", [*train, "--gmm-k", str(w.gmm_k), *w.train_flags, *jobs, "--out", str(model)])
    )
    decode = ["decode", "--model", str(model), "--manifest", str(manifest), "--split", TEST_SPLIT]
    if w.beam is not None:
        decode += ["--beam", str(w.beam)]
    decode += ["--prior", "on" if w.prior else "off", *jobs, "--out", str(run / "pred")]
    phases.append(("decode", decode))
    phases.append(
        (
            "eval",
            [
                "eval", "--manifest", str(manifest), "--split", TEST_SPLIT,
                "--pred", str(run / "pred"), "--gmm-k", str(w.gmm_k),
                "--out", str(run / "report.json"),
            ],
        )
    )
    return phases
