"""End-to-end training orchestration.

Supervised training extracts the annotated unit segments of a split,
balances the per-unit sample counts, trains one left-to-right HMM per
unit (flat start, hard-alignment passes, then forward-backward), and
builds the activity grammar from the split's transcripts.  The result is
a self-contained model bundle directory.

Semi-supervised bootstrapping first trains on a fully annotated subset,
then force-aligns transcript-only clips with those models and
re-estimates everything on the union.

Also here: model bundle persistence.
"""
from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import (
    DatasetManifest,
    FeatureSequence,
    Transcript,
    UnitLexicon,
    load_features,
    load_segmentation,
    load_transcript,
    read_segment_names,
    read_transcript_names,
    segmentation_to_transcript,
)
from .decoder import force_align
from .errors import DataError
from .grammar import Grammar, build_grammar, export_ebnf, parse_ebnf
from .hmm import (
    UnitHmm,
    baum_welch,
    init_hmm,
    load_hmm_set,
    save_hmm_set,
    unit_log_priors,
    viterbi_train,
)
from .util import child_rng, parallel_map, read_json, read_text, write_json

DEFAULT_SILENCE = "SIL"
BUNDLE_CONFIG_FORMAT = "pipeline-config"
BUNDLE_CONFIG_VERSION = 1


@dataclass
class BalanceConfig:
    """Per-unit sample count bounds and the oversampling jitter scale.

    jitter_sigma scales the per-dimension standard deviation of the
    unit's own frames; oversampled copies are originals plus Gaussian
    noise of that width.
    """

    lower: int = 50
    upper: int = 80
    jitter_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise DataError(f"need 1 <= lower <= upper, got [{self.lower}, {self.upper}]")
        if self.jitter_sigma < 0:
            raise DataError("jitter_sigma cannot be negative")


@dataclass
class TrainConfig:
    """Knobs of the supervised training loop."""

    balance: BalanceConfig = field(default_factory=BalanceConfig)
    seed: int = 0
    viterbi_iters: int = 10
    baum_welch_iters: int = 10
    tol: float = 1e-4
    silence: str = DEFAULT_SILENCE


@dataclass
class BootstrapConfig:
    """Which clips carry frame annotations and which only transcripts."""

    annotated_clip_ids: tuple[str, ...]
    transcript_clip_ids: tuple[str, ...]
    rounds: int = 1

    def __post_init__(self):
        self.annotated_clip_ids = tuple(self.annotated_clip_ids)
        self.transcript_clip_ids = tuple(self.transcript_clip_ids)
        overlap = set(self.annotated_clip_ids) & set(self.transcript_clip_ids)
        if overlap:
            raise DataError(
                f"clips cannot be both annotated and transcript-only: {sorted(overlap)}"
            )
        if self.rounds < 0:
            raise DataError("rounds cannot be negative")


@dataclass(eq=False)
class ModelBundle:
    """Everything needed to decode: unit models, lexicon, grammar, priors,
    and the configuration that produced them."""

    hmms: dict[int, UnitHmm]
    lexicon: UnitLexicon
    grammar: Grammar
    priors: dict[int, float]
    config: dict


# ---------------------------------------------------------------------------
# data collection


def _resolve_clip_ids(manifest: DatasetManifest, split) -> tuple[str, ...]:
    """A split name, an explicit id collection, or None for all clips."""
    if split is None:
        return tuple(c.clip_id for c in manifest.clips)
    if isinstance(split, str):
        return manifest.split_ids(split)
    return tuple(str(c) for c in split)


def collect_lexicon(manifest: DatasetManifest, silence: str = DEFAULT_SILENCE) -> UnitLexicon:
    """Unit names from every annotation file in the manifest, sorted, with
    the silence unit always present."""
    names = {silence}
    for clip in manifest.clips:
        if clip.segmentation is not None:
            names.update(nm for _, _, nm in read_segment_names(clip.segmentation))
        if clip.transcript is not None:
            names.update(read_transcript_names(clip.transcript))
    return UnitLexicon.from_names(sorted(names), silence=silence)


def extract_segments(
    manifest: DatasetManifest,
    clip_ids,
    lexicon: UnitLexicon,
) -> tuple[dict[int, list[FeatureSequence]], list[tuple[str, Transcript]], dict[int, int]]:
    """Cut every annotated clip into its unit segments.

    Returns per-unit segment lists, per-clip (activity, transcript)
    pairs, and raw per-unit segment counts.  The transcript file is used
    when present, otherwise the transcript is read off the segmentation.
    """
    per_unit: dict[int, list[FeatureSequence]] = {}
    transcripts: list[tuple[str, Transcript]] = []
    counts: dict[int, int] = {}
    dim = None
    for cid in sorted(clip_ids):
        clip = manifest.clip(cid)
        if clip.segmentation is None:
            raise DataError(f"clip {cid!r} has no frame annotation")
        seq = load_features(clip.features)
        if dim is None:
            dim = seq.frames.shape[1]
        elif seq.frames.shape[1] != dim:
            raise DataError(
                f"clip {cid!r}: features have dim {seq.frames.shape[1]}, "
                f"earlier clips have dim {dim}"
            )
        seg = load_segmentation(clip.segmentation, lexicon)
        if seg.num_frames != seq.num_frames:
            raise DataError(
                f"clip {cid!r}: segmentation covers {seg.num_frames} frames, "
                f"features have {seq.num_frames}"
            )
        for i, (unit_id, start, end) in enumerate(seg.segments):
            piece = seq.slice(start, end, clip_id=f"{cid}:{i}")
            per_unit.setdefault(unit_id, []).append(piece)
            counts[unit_id] = counts.get(unit_id, 0) + 1
        if clip.transcript is not None:
            tr = load_transcript(clip.transcript, lexicon)
        else:
            tr = segmentation_to_transcript(seg)
        _check_brackets(tr, lexicon, clip.transcript or clip.segmentation)
        transcripts.append((clip.activity, tr))
    return per_unit, transcripts, counts


def _check_brackets(tr: Transcript, lexicon: UnitLexicon, path) -> None:
    """The grammar's silence brackets, checked where the file that broke
    them (path) is still known."""
    sil = lexicon.silence_id
    if len(tr) < 2 or tr.units[0] != sil or tr.units[-1] != sil:
        raise DataError(
            f"{path}: transcript must start and end with {lexicon.name_of(sil)!r}"
        )


# ---------------------------------------------------------------------------
# balancing


def balance_units(
    samples: dict[int, list[FeatureSequence]],
    cfg: BalanceConfig,
    lexicon: UnitLexicon | None = None,
) -> dict[int, list[FeatureSequence]]:
    """Clamp every unit's sample count into [lower, upper].

    Oversampling appends jittered copies of randomly chosen originals;
    down-selection keeps a seeded uniform subset in original order.  Both
    draws depend only on (cfg.seed, unit id), not on dict order.
    """

    def name(uid: int) -> str:
        return lexicon.name_of(uid) if lexicon is not None else str(uid)

    out: dict[int, list[FeatureSequence]] = {}
    for uid in sorted(samples):
        seqs = list(samples[uid])
        if not seqs:
            raise DataError(f"unit {name(uid)} has no training samples")
        rng = child_rng(cfg.seed, "balance", uid)
        if len(seqs) > cfg.upper:
            keep = rng.choice(len(seqs), size=cfg.upper, replace=False)
            keep.sort()
            seqs = [seqs[i] for i in keep]
        elif len(seqs) < cfg.lower:
            sigma = cfg.jitter_sigma * np.concatenate(
                [s.frames for s in seqs]
            ).std(axis=0)
            need = cfg.lower - len(seqs)
            src = rng.integers(len(seqs), size=need)
            for i, j in enumerate(src):
                base = seqs[j]
                noise = rng.normal(0.0, 1.0, size=base.frames.shape) * sigma
                seqs.append(
                    FeatureSequence(base.frames + noise, clip_id=f"{base.clip_id}+jitter{i}")
                )
        out[uid] = seqs
    return out


# ---------------------------------------------------------------------------
# training


def _train_unit(
    uid: int,
    segs: list[FeatureSequence],
    K: int,
    cfg: TrainConfig,
    warm: UnitHmm | None = None,
) -> UnitHmm:
    model = warm if warm is not None else init_hmm(uid, segs, K, seed=cfg.seed)
    model = viterbi_train(model, segs, max_iter=cfg.viterbi_iters, tol=cfg.tol)
    return baum_welch(model, segs, max_iter=cfg.baum_welch_iters, tol=cfg.tol)


def _train_bundle(
    per_unit: dict[int, list[FeatureSequence]],
    transcripts: list[tuple[str, Transcript]],
    counts: dict[int, int],
    lexicon: UnitLexicon,
    K: int,
    cfg: TrainConfig,
    config: dict,
    warm: Mapping[int, UnitHmm],
) -> ModelBundle:
    """Balance each unit's segments, train its model (from its model in
    warm, else from a flat start), and bundle the models with the counted
    lexicon and the grammar and priors of these transcripts."""
    balanced = balance_units(per_unit, cfg.balance, lexicon)
    uids = sorted(balanced)
    models = parallel_map(lambda u: _train_unit(u, balanced[u], K, cfg, warm=warm.get(u)), uids)
    lexicon = lexicon.with_counts(counts)
    return ModelBundle(
        hmms=dict(zip(uids, models)),
        lexicon=lexicon,
        grammar=build_grammar(transcripts, lexicon),
        priors=unit_log_priors(lexicon),
        config=config,
    )


def train_supervised(
    manifest: DatasetManifest,
    split,
    K: int,
    cfg: TrainConfig | None = None,
) -> ModelBundle:
    """Train unit models and the grammar from an annotated split.

    The lexicon spans the whole manifest so unit ids stay stable across
    splits; a unit that never occurs in the training split is an error
    (there would be no model for it at decode time).
    """
    cfg = cfg if cfg is not None else TrainConfig()
    return _train_supervised(manifest, split, K, cfg)[0]


def _train_supervised(
    manifest: DatasetManifest, split, K: int, cfg: TrainConfig
) -> tuple[ModelBundle, dict[int, list[FeatureSequence]], list[tuple[str, Transcript]], dict]:
    """train_supervised's bundle, and the unit segments, transcripts and
    segment counts it was trained on."""
    ids = _resolve_clip_ids(manifest, split)
    if not ids:
        raise DataError("training split selects no clips")
    lexicon = collect_lexicon(manifest, cfg.silence)
    per_unit, transcripts, counts = extract_segments(manifest, ids, lexicon)
    untrained = sorted(
        lexicon.name_of(u) for u in range(len(lexicon)) if counts.get(u, 0) == 0
    )
    if untrained:
        raise DataError(
            "units with no training segments in this split: " + ", ".join(untrained)
        )
    config = {
        "K": K,
        "split": list(split) if not isinstance(split, (str, type(None))) else split,
        **asdict(cfg),
    }
    bundle = _train_bundle(per_unit, transcripts, counts, lexicon, K, cfg, config, {})
    return bundle, per_unit, transcripts, counts


def bootstrap(
    manifest: DatasetManifest,
    bcfg: BootstrapConfig,
    K: int,
    cfg: TrainConfig | None = None,
) -> ModelBundle:
    """Semi-supervised training: supervised on the annotated subset, then
    per round force-align the transcript-only clips with the current
    models and re-estimate models, grammar, and priors on the union.

    With no transcript-only clips (or zero rounds) the supervised bundle
    is returned as is.  Every clip is read once.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    bundle, base_units, base_transcripts, base_counts = _train_supervised(
        manifest, bcfg.annotated_clip_ids, K, cfg
    )
    if not bcfg.transcript_clip_ids or bcfg.rounds == 0:
        return bundle
    lexicon = bundle.lexicon
    clip_ids = sorted(bcfg.transcript_clip_ids)
    trs: list[Transcript] = []
    seqs: list[FeatureSequence] = []
    for cid in clip_ids:
        try:
            clip = manifest.clip(cid)
            if clip.transcript is None:
                raise DataError(f"clip {cid!r} has no transcript")
            tr = load_transcript(clip.transcript, lexicon)
            _check_brackets(tr, lexicon, clip.transcript)
            missing = sorted({lexicon.name_of(u) for u in set(tr.units) - bundle.hmms.keys()})
            if missing:
                raise DataError(
                    f"clip {cid!r} uses units absent from the annotated subset "
                    f"(no model to seed them): " + ", ".join(missing)
                )
            seq = load_features(clip.features)
        except (DataError, OSError, ValueError):
            force_align(bundle.hmms, trs, seqs)  # an earlier clip that fails to align reports first
            raise
        trs.append(tr)
        seqs.append(seq)
    for rnd in range(bcfg.rounds):
        per_unit = {u: list(v) for u, v in base_units.items()}
        transcripts = list(base_transcripts)
        counts = dict(base_counts)
        for cid, tr, seq, seg in zip(clip_ids, trs, seqs, force_align(bundle.hmms, trs, seqs)):
            for i, (unit_id, start, end) in enumerate(seg.segments):
                per_unit[unit_id].append(seq.slice(start, end, clip_id=f"{cid}:{i}"))
                counts[unit_id] = counts.get(unit_id, 0) + 1
            transcripts.append((manifest.clip(cid).activity, tr))
        config = {**bundle.config, "bootstrap_rounds": rnd + 1}
        bundle = _train_bundle(
            per_unit, transcripts, counts, lexicon, K, cfg, config, bundle.hmms
        )
    return bundle


# ---------------------------------------------------------------------------
# bundle persistence


def save_bundle(path, bundle: ModelBundle) -> None:
    """Write hmms.json, grammar.ebnf, priors.json, pipeline-config.json."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_hmm_set(path / "hmms.json", bundle.hmms, bundle.lexicon)
    with open(path / "grammar.ebnf", "w", encoding="utf-8") as fh:
        fh.write(export_ebnf(bundle.grammar))
    write_json(
        path / "priors.json",
        {
            "log_priors": {
                bundle.lexicon.name_of(u): (None if v == -np.inf else float(v))
                for u, v in sorted(bundle.priors.items())
            }
        },
    )
    write_json(
        path / "pipeline-config.json",
        {
            "format": BUNDLE_CONFIG_FORMAT,
            "version": BUNDLE_CONFIG_VERSION,
            **bundle.config,
        },
    )


def load_bundle(path) -> ModelBundle:
    path = Path(path)
    hmms, lexicon = load_hmm_set(path / "hmms.json")
    grammar_path = path / "grammar.ebnf"
    text = read_text(grammar_path)
    try:
        grammar = parse_ebnf(text, lexicon)
    except DataError as exc:
        raise DataError(f"{grammar_path} is not a valid grammar: {exc}") from None
    priors_path = path / "priors.json"
    priors_doc = read_json(priors_path)
    log_priors = priors_doc.get("log_priors") if isinstance(priors_doc, dict) else None
    if not isinstance(log_priors, dict):
        raise DataError(f'{priors_path} is not a valid priors file: no "log_priors" object')
    priors = {}
    try:
        for name, v in log_priors.items():
            # -max <= v <= 0 rejects NaN, the infinities, positive priors and
            # ints too large for a float
            if v is not None and (
                isinstance(v, bool)
                or not isinstance(v, (int, float))
                or not -sys.float_info.max <= v <= 0
            ):
                raise DataError(
                    f"the prior of {name!r} is {v!r}, not null or a finite number <= 0"
                )
            priors[lexicon.id_of(name)] = -np.inf if v is None else float(v)
    except DataError as exc:
        raise DataError(f"{priors_path} is not a valid priors file: {exc}") from None
    config_path = path / "pipeline-config.json"
    config = read_json(config_path)
    if not isinstance(config, dict) or config.get("format") != BUNDLE_CONFIG_FORMAT:
        raise DataError(f"{config_path} is not a valid pipeline config: not an object with "
                        f'"format": "{BUNDLE_CONFIG_FORMAT}"')
    return ModelBundle(
        hmms=hmms, lexicon=lexicon, grammar=grammar, priors=priors, config=config
    )
