"""Command line front end.

Subcommands cover the whole workflow: generate synthetic data, train
models, decode or align clips, classify whole sequences, bootstrap from
transcript-only clips, encode features, evaluate predictions, and sweep a
model grid with frame-level voting.

Exit codes: 0 success, 1 usage error, 2 data error, 3 decode failure.
All JSON output is printed with sorted keys so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    ClipRecord,
    DatasetManifest,
    FeatureSequence,
    Segmentation,
    UnitLexicon,
    frame_labels,
    label_runs,
    load_features,
    load_manifest,
    load_transcript,
    read_segment_names,
    save_features,
    save_manifest,
    write_segment_names,
)
from .decoder import decode, force_align, majority_vote
from .errors import DataError, DecodeError
from .features import (
    DEFAULT_FV_WINDOW,
    FrameEncoder,
    FvEncoderConfig,
    apply_pca,
    fit_fv_codebook,
    fit_pca,
    save_encoder,
    window_fv_matrix,
)
from .grammar import compose
from .metrics import accuracy, jaccard, mof, moc, report_row, write_report_csv
from .pipeline import (
    DEFAULT_SILENCE,
    BalanceConfig,
    BootstrapConfig,
    ModelBundle,
    TrainConfig,
    bootstrap,
    load_bundle,
    save_bundle,
    train_supervised,
)
from .synth import SynthSpec, generate_dataset
from .util import derive_seed, dump_json, parallel_map, read_json, write_json

USAGE_EXIT = 1
DATA_EXIT = 2
DECODE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this front end reserves 2 for
    data errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _at_least(convert, low, kind: str, bounded: str):
    """An argparse type: convert the text, then require a value >= low."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if not value >= low:
            raise argparse.ArgumentTypeError(f"expected {bounded}, got {value}")
        return value

    return parse


_positive_int = _at_least(int, 1, "an integer", "a positive integer")
_nonneg_int = _at_least(int, 0, "an integer", "a non-negative integer")
_nonneg_float = _at_least(float, 0, "a number", "a non-negative number")


# Every command runs in the calling thread; --jobs stays accepted so that
# existing scripts keep working.
_JOBS_HELP = "accepted for compatibility; has no effect"


def _int_list(text: str) -> list[int]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    return [_positive_int(p.strip()) for p in parts]


def _print_json(obj) -> None:
    sys.stdout.write(dump_json(obj))


def _select_records(manifest: DatasetManifest, split=None, clip=None) -> list[ClipRecord]:
    if clip:
        records = [manifest.clip(c) for c in clip]
    elif split is not None:
        records = [manifest.clip(c) for c in manifest.split_ids(split)]
    else:
        records = list(manifest.clips)
    if not records:
        raise DataError("no clips selected")
    return sorted(records, key=lambda r: r.clip_id)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        balance=BalanceConfig(
            lower=args.balance_lower,
            upper=args.balance_upper,
            jitter_sigma=args.jitter,
            seed=args.seed,
        ),
        seed=args.seed,
        viterbi_iters=args.viterbi_iters,
        baum_welch_iters=args.baum_welch_iters,
        silence=args.silence,
    )


def _segment_rows(seg: Segmentation, lexicon: UnitLexicon) -> list[tuple[int, int, str]]:
    return [(s, e, lexicon.name_of(u)) for u, s, e in seg.segments]


def _frame_names(path, clip_id: str, role: str, expect_frames: int | None = None) -> list[str]:
    """Per-frame unit names of a .seg file, whose segments must tile the
    clip from frame 0 (and cover expect_frames frames, when given)."""
    names: list[str] = []
    for start, end, name in read_segment_names(path):
        if start != len(names) or end < start:
            raise DataError(f"clip {clip_id!r}: {role} segments must tile the clip from frame 0")
        names.extend([name] * (end - start + 1))
    if expect_frames is not None and len(names) != expect_frames:
        raise DataError(
            f"clip {clip_id!r}: {role} covers {len(names)} frames, expected {expect_frames}"
        )
    return names


def _reference_frame_names(rec: ClipRecord, expect_frames: int | None = None) -> list[str]:
    if rec.segmentation is None:
        raise DataError(f"clip {rec.clip_id!r} has no reference segmentation")
    return _frame_names(rec.segmentation, rec.clip_id, "reference", expect_frames)


def _load_clips(args) -> tuple[ModelBundle, list[ClipRecord]]:
    """The model bundle and the selected clip records of decode, classify
    and align."""
    bundle = load_bundle(args.model)
    return bundle, _select_records(load_manifest(args.manifest), args.split, args.clip)


def _decode_all(args, bundle: ModelBundle, records) -> list:
    """Decode each record's features on the bundle's composed graph, with
    --beam, and with the bundle's priors under --prior on."""
    graph = compose(bundle.grammar, bundle.hmms)
    priors = bundle.priors if args.prior == "on" else None
    return parallel_map(
        lambda rec: decode(graph, load_features(rec.features), beam=args.beam, priors=priors),
        records,
    )


def _emit(args, doc: dict, doc_name: str, segs=(), lexicon: UnitLexicon | None = None) -> None:
    """Print doc; with --out, also write one .seg file per (clip id,
    segmentation) in segs and doc itself as doc_name there."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for clip_id, seg in segs:
            write_segment_names(out / f"{clip_id}.seg", _segment_rows(seg, lexicon))
        write_json(out / doc_name, doc)
    _print_json(doc)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> None:
    manifest = load_manifest(args.manifest)
    bundle = train_supervised(manifest, args.split, args.gmm_k, _train_config(args))
    save_bundle(args.out, bundle)
    _print_json(
        {
            "activities": list(bundle.grammar.activities),
            "out": str(args.out),
            "sentences": bundle.grammar.num_sentences(),
            "units": len(bundle.hmms),
        }
    )


def cmd_decode(args) -> None:
    bundle, records = _load_clips(args)
    results = _decode_all(args, bundle, records)
    doc = {"clips": {r.clip_id: res.to_dict(bundle.lexicon) for r, res in zip(records, results)}}
    segs = [(rec.clip_id, res.segmentation) for rec, res in zip(records, results)]
    _emit(args, doc, "results.json", segs, bundle.lexicon)


def cmd_classify(args) -> None:
    bundle, records = _load_clips(args)
    results = _decode_all(args, bundle, records)
    doc = {
        "clips": {
            rec.clip_id: {"activity": res.activity, "log_prob": float(res.log_prob)}
            for rec, res in zip(records, results)
        }
    }
    truth = [rec.activity for rec in records]
    if all(truth):
        doc["accuracy"], doc["confusion"] = accuracy(truth, [res.activity for res in results])
    _emit(args, doc, "classification.json")


def cmd_align(args) -> None:
    bundle, records = _load_clips(args)
    for rec in records:
        if rec.transcript is None:
            raise DataError(f"clip {rec.clip_id!r} has no transcript to align")
    pairs = [
        (load_transcript(r.transcript, bundle.lexicon), load_features(r.features)) for r in records
    ]
    aligned = force_align(bundle.hmms, [t for t, _ in pairs], [s for _, s in pairs], beam=args.beam)
    segs = [(rec.clip_id, seg) for rec, seg in zip(records, aligned)]
    doc = {"clips": {cid: {"segments": _segment_rows(seg, bundle.lexicon)} for cid, seg in segs}}
    _emit(args, doc, "alignments.json", segs, bundle.lexicon)


def cmd_bootstrap(args) -> None:
    manifest = load_manifest(args.manifest)
    bcfg = BootstrapConfig(
        annotated_clip_ids=manifest.split_ids(args.annotated_split),
        transcript_clip_ids=manifest.split_ids(args.transcript_split),
        rounds=args.rounds,
    )
    bundle = bootstrap(manifest, bcfg, args.gmm_k, _train_config(args))
    save_bundle(args.out, bundle)
    _print_json(
        {
            "annotated_clips": len(bcfg.annotated_clip_ids),
            "out": str(args.out),
            "rounds": args.rounds,
            "transcript_clips": len(bcfg.transcript_clip_ids),
            "units": len(bundle.hmms),
        }
    )


def cmd_eval(args) -> None:
    manifest = load_manifest(args.manifest)
    records = _select_records(manifest, args.split)
    pred_dir = Path(args.pred)
    per_clip = {}
    gt, pred = [], []
    for rec in records:
        gt_names = _reference_frame_names(rec)
        pred_names = _frame_names(
            pred_dir / f"{rec.clip_id}.seg", rec.clip_id, "prediction", len(gt_names)
        )
        per_clip[rec.clip_id] = {"mof": mof(gt_names, pred_names)}
        gt.extend(gt_names)
        pred.extend(pred_names)
    # integer codes in sorted-name order: the metrics see the classes in the
    # order of the names, at 8 bytes a frame
    code = {name: i for i, name in enumerate(sorted(set(gt) | set(pred)))}
    g = np.fromiter(map(code.__getitem__, gt), np.int64, len(gt))
    p = np.fromiter(map(code.__getitem__, pred), np.int64, len(pred))
    overall = {
        "jaccard": jaccard(g, p, background=code.get(args.silence)),
        "mof": mof(g, p),
        "moc": moc(g, p),
    }
    rows = [
        report_row(metric, value, split=args.split or "", K=args.gmm_k)
        for metric, value in sorted(overall.items())
    ]
    if args.out:
        out = Path(args.out)
        if out.suffix == ".json":
            write_json(out, rows)
        else:
            write_report_csv(out, rows)
    _print_json({"clips": per_clip, "overall": overall})


def cmd_synth(args) -> None:
    spec = SynthSpec(
        n_activities=args.activities,
        units_per_activity=args.units,
        clips_per_activity=args.clips,
        states_per_unit=args.states,
        feature_dim=args.dim,
        noise_sigma=args.noise,
        sentences_per_activity=args.sentences,
        min_sentence_units=min(3, args.units),
        silence=args.silence,
    )
    manifest = generate_dataset(spec, args.out, seed=args.seed)
    _print_json(
        {
            "activities": args.activities,
            "clips": len(manifest.clips),
            "manifest": str(Path(args.out) / "manifest.json"),
            "splits": {name: len(ids) for name, ids in sorted(manifest.splits.items())},
        }
    )


def cmd_encode(args) -> None:
    manifest = load_manifest(args.manifest)
    fit_records = _select_records(manifest, args.split)
    all_records = _select_records(manifest)
    raw = {rec.clip_id: load_features(rec.features) for rec in all_records}
    dim = raw[all_records[0].clip_id].dim
    for cid, seq in raw.items():
        if seq.dim != dim:
            raise DataError(
                f"clip {cid!r}: features have dim {seq.dim}, earlier clips have dim {dim}"
            )
    fit_frames = [raw[rec.clip_id].frames for rec in fit_records]

    pca1 = None
    if args.pca_dim is not None and args.pca_dim < dim:
        pca1 = fit_pca(fit_frames, args.pca_dim)
    projected = [apply_pca(pca1, f) if pca1 is not None else f for f in fit_frames]
    codebook_seed = derive_seed(args.seed, "encode-codebook")
    try:
        codebook = fit_fv_codebook(projected, args.gmm_k, seed=codebook_seed)
    except ValueError as exc:  # too few (distinct) frames for K components
        raise DataError(f"cannot fit --gmm-k {args.gmm_k} codebook components: {exc}") from None
    fv = FvEncoderConfig(gmm=codebook, window=args.window, signed_sqrt=args.signed_sqrt)
    pca2 = None
    if args.pca_dim is not None and args.pca_dim < fv.out_dim:
        pca2 = fit_pca((window_fv_matrix(f, pca1, fv) for f in fit_frames), args.pca_dim)
    encoder = FrameEncoder(pca1=pca1, fv=fv, pca2=pca2, codebook_seed=codebook_seed)

    out = Path(args.out)
    clip_dir = out / "clips"
    clip_dir.mkdir(parents=True, exist_ok=True)

    def encode_clip(rec: ClipRecord) -> ClipRecord:
        # each clip is written as soon as it is encoded, so only one is held
        path = clip_dir / f"{rec.clip_id}.feat"
        save_features(path, encoder.encode(raw[rec.clip_id]))
        return ClipRecord(rec.clip_id, str(path), rec.activity, rec.segmentation, rec.transcript)

    new_clips = parallel_map(encode_clip, all_records)
    save_manifest(out / "manifest.json", DatasetManifest(tuple(new_clips), manifest.splits))
    save_encoder(out / "encoder.json", encoder)
    _print_json(
        {
            "clips": len(new_clips),
            "dim": pca2.out_dim if pca2 is not None else fv.out_dim,
            "out": str(out),
            "window": args.window,
        }
    )


def _grid_clips(records, raw, train_ids, D, mir, clip_dir):
    """The clip records and train split of the grid settings of PCA
    dimension D (None: raw features) and mirroring mir, whatever their K.
    Projected and mirrored features are written to clip_dir."""
    # a sign flip of every dimension stands in for mirroring the video
    mirrored = {cid: FeatureSequence(-raw[cid].frames, cid) for cid in train_ids} if mir else {}
    pca = None
    if D is not None and D < raw[train_ids[0]].dim:
        train_frames = [raw[cid].frames for cid in train_ids]
        pca = fit_pca(train_frames + [seq.frames for seq in mirrored.values()], D)
    clip_dir.mkdir(parents=True, exist_ok=True)

    def transform(seq: FeatureSequence) -> FeatureSequence:
        return seq if pca is None else FeatureSequence(apply_pca(pca, seq.frames), seq.clip_id)

    new_clips = []
    split_train = list(train_ids)
    for cid in sorted(records):
        rec = records[cid]
        if pca is not None:  # else the input file already holds these features
            path = clip_dir / f"{cid}.feat"
            save_features(path, transform(raw[cid]))
            rec = ClipRecord(cid, str(path), rec.activity, rec.segmentation, rec.transcript)
        new_clips.append(rec)
    for cid, seq in mirrored.items():
        rec = records[cid]
        mcid = f"{cid}~m"
        path = clip_dir / f"{mcid}.feat"
        save_features(path, transform(seq))
        new_clips.append(
            ClipRecord(mcid, str(path), rec.activity, rec.segmentation, rec.transcript)
        )
        split_train.append(mcid)
    return new_clips, split_train


def cmd_grid(args) -> None:
    manifest = load_manifest(args.manifest)
    train_ids = sorted(manifest.split_ids(args.train_split))
    test_ids = sorted(manifest.split_ids(args.test_split))
    if not train_ids or not test_ids:
        raise DataError("grid needs non-empty train and test splits")
    records = {rec.clip_id: rec for rec in manifest.clips}
    raw = {cid: load_features(records[cid].features) for cid in sorted(records)}
    gt_names = {
        cid: _reference_frame_names(records[cid], raw[cid].num_frames) for cid in test_ids
    }

    ks = sorted(set(args.gmm_k))
    dims = sorted(set(args.pca_dim)) if args.pca_dim else [None]
    mirrors = [False, True] if args.mirror else [False]
    settings = [(K, D, mir) for K in ks for D in dims for mir in mirrors]

    out = Path(args.out)
    hypotheses: dict[str, list[list[str]]] = {cid: [] for cid in test_ids}
    rows = []
    summaries = []
    clip_sets = {}  # (D, mirrored) -> (clip records, train split), made once for every K
    for K, D, mir in settings:
        tag = f"k{K}_" + (f"d{D}" if D is not None else "dfull") + ("_m" if mir else "")
        sdir = out / "settings" / tag
        sdir.mkdir(parents=True, exist_ok=True)
        if (D, mir) not in clip_sets:
            clip_sets[D, mir] = _grid_clips(records, raw, train_ids, D, mir, sdir / "clips")
        new_clips, split_train = clip_sets[D, mir]
        setting_manifest = DatasetManifest(
            tuple(new_clips),
            {"train": tuple(split_train), "test": tuple(test_ids)},
        )
        save_manifest(sdir / "manifest.json", setting_manifest)

        bundle = train_supervised(setting_manifest, "train", K, _train_config(args))
        save_bundle(sdir / "model", bundle)
        test_records = [setting_manifest.clip(cid) for cid in test_ids]
        results = _decode_all(args, bundle, test_records)
        gt_pool, pred_pool = [], []
        for rec, res in zip(test_records, results):
            ids = frame_labels(res.segmentation, res.segmentation.num_frames)
            pred = [bundle.lexicon.name_of(u) for u in ids]
            hypotheses[rec.clip_id].append(pred)
            gt_pool.extend(gt_names[rec.clip_id])
            pred_pool.extend(pred)
        setting_mof = mof(np.array(gt_pool), np.array(pred_pool))
        rows.append(report_row(f"mof/{tag}", setting_mof, split=args.test_split, K=K))
        summaries.append(
            {"K": K, "dim": D, "mirrored": mir, "mof": setting_mof, "setting": tag}
        )

    voted_dir = out / "voted"
    voted_dir.mkdir(parents=True, exist_ok=True)
    gt_pool, voted_pool = [], []
    for cid in test_ids:
        voted = majority_vote(hypotheses[cid])
        write_segment_names(voted_dir / f"{cid}.seg", label_runs(voted))
        gt_pool.extend(gt_names[cid])
        voted_pool.extend(voted)
    voted_mof = mof(np.array(gt_pool), np.array(voted_pool))
    rows.append(report_row("mof/voted", voted_mof, split=args.test_split))
    write_report_csv(out / "metrics.csv", rows)
    _print_json({"out": str(out), "settings": summaries, "voted_mof": voted_mof})


# ---------------------------------------------------------------------------
# parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gmm-k", type=_positive_int, default=2, metavar="K",
                   help="mixture components per state (default 2)")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--silence", default=DEFAULT_SILENCE,
                   help="background unit name (default %(default)s)")
    _add_schedule_flags(p)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    """The balancing and iteration flags shared by train, bootstrap and grid."""
    p.add_argument("--balance-lower", type=_positive_int, default=50, metavar="N",
                   help="oversample units below this many segments")
    p.add_argument("--balance-upper", type=_positive_int, default=80, metavar="N",
                   help="subsample units above this many segments")
    p.add_argument("--jitter", type=_nonneg_float, default=0.01, metavar="SIGMA",
                   help="relative noise scale for oversampled copies")
    p.add_argument("--viterbi-iters", type=_nonneg_int, default=10, metavar="N")
    p.add_argument("--baum-welch-iters", type=_nonneg_int, default=10, metavar="N")


def _add_clip_flags(p: argparse.ArgumentParser, out_help: str) -> None:
    """The model, clip selection, search and output flags shared by decode,
    classify and align."""
    p.add_argument("--model", required=True, metavar="DIR")
    p.add_argument("--manifest", required=True, metavar="JSON")
    p.add_argument("--split", default=None)
    p.add_argument("--clip", action="append", metavar="ID",
                   help="process just this clip (repeatable)")
    p.add_argument("--beam", type=_positive_int, default=None,
                   help="restrict the result to what a search keeping this many states per "
                        "frame finds; decode and classify search exactly first and prune only "
                        "when they cannot prove the beam keeps that path (default: exact)")
    p.add_argument("--jobs", type=_positive_int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", metavar="DIR", help=out_help)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="actionseg",
        description="Grammar-constrained temporal segmentation of activity clips.",
    )
    parser.add_argument("--config", metavar="JSON",
                        help="JSON file of default flag values (keys are flag dests)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True
    children: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", metavar="JSON",
                       help="JSON file of default flag values (keys are flag dests)")
        p.set_defaults(func=func)
        children[name] = p
        return p

    p = command("synth", "generate a synthetic dataset with known structure", cmd_synth)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--activities", type=_positive_int, default=3)
    p.add_argument("--units", type=_positive_int, default=5,
                   help="units per activity (default %(default)s)")
    p.add_argument("--clips", type=_positive_int, default=50,
                   help="clips per activity (default %(default)s)")
    p.add_argument("--states", type=_positive_int, default=3,
                   help="generating states per unit (default %(default)s)")
    p.add_argument("--dim", type=_positive_int, default=2,
                   help="feature dimensions (default %(default)s)")
    p.add_argument("--noise", type=_nonneg_float, default=0.1,
                   help="frame noise sigma (default %(default)s)")
    p.add_argument("--sentences", type=_positive_int, default=3,
                   help="sentences per activity (default %(default)s)")
    p.add_argument("--silence", default=DEFAULT_SILENCE)

    p = command("train", "train unit models and a grammar from annotated clips", cmd_train)
    p.add_argument("--manifest", required=True, metavar="JSON")
    p.add_argument("--split", default=None,
                   help="training split name (default: every clip)")
    p.add_argument("--jobs", type=_positive_int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", required=True, metavar="DIR")
    _add_train_flags(p)

    p = command("decode", "segment clips with the grammar-constrained decoder", cmd_decode)
    _add_clip_flags(p, "also write per-clip .seg files and results.json here")
    p.add_argument("--prior", choices=("on", "off"), default="off",
                   help="apply inverse-frequency unit priors at unit entry")

    p = command("classify", "pick each clip's activity by best decode score", cmd_classify)
    _add_clip_flags(p, "also write classification.json here")
    p.add_argument("--prior", choices=("on", "off"), default="off",
                   help="apply inverse-frequency unit priors at unit entry")

    p = command("align", "fit each clip's known transcript to its frames", cmd_align)
    _add_clip_flags(p, "also write per-clip .seg files and alignments.json here")

    p = command("bootstrap", "extend training to transcript-only clips by re-alignment", cmd_bootstrap)
    p.add_argument("--manifest", required=True, metavar="JSON")
    p.add_argument("--annotated-split", required=True, metavar="NAME",
                   help="split with frame-level annotations")
    p.add_argument("--transcript-split", required=True, metavar="NAME",
                   help="split with ordering transcripts only")
    p.add_argument("--rounds", type=_nonneg_int, default=1)
    p.add_argument("--jobs", type=_positive_int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", required=True, metavar="DIR")
    _add_train_flags(p)

    p = command("encode", "fit the PCA/Fisher-Vector chain and re-encode all clips", cmd_encode)
    p.add_argument("--manifest", required=True, metavar="JSON")
    p.add_argument("--split", default=None,
                   help="split the encoder is fit on (default: every clip)")
    p.add_argument("--gmm-k", type=_positive_int, default=2, metavar="K",
                   help="codebook components (default %(default)s)")
    p.add_argument("--pca-dim", type=_positive_int, default=None, metavar="D",
                   help="dimensions kept by both PCA stages (default: keep all)")
    p.add_argument("--window", type=_positive_int, default=DEFAULT_FV_WINDOW,
                   help="Fisher Vector window in frames (default %(default)s)")
    p.add_argument("--signed-sqrt", action="store_true",
                   help="apply |v|**0.5 * sign(v) to window descriptors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", required=True, metavar="DIR")

    p = command("eval", "score predicted segmentations against references", cmd_eval)
    p.add_argument("--manifest", required=True, metavar="JSON")
    p.add_argument("--split", default=None)
    p.add_argument("--pred", required=True, metavar="DIR",
                   help="directory of <clip_id>.seg prediction files")
    p.add_argument("--silence", default=DEFAULT_SILENCE,
                   help="background unit excluded from the Jaccard score")
    p.add_argument("--gmm-k", type=_positive_int, default=None, metavar="K",
                   help="K value recorded in report rows")
    p.add_argument("--out", metavar="FILE",
                   help="write report rows here (.json or .csv)")

    p = command("grid", "train a model grid and vote the decodings frame-wise", cmd_grid)
    p.add_argument("--manifest", required=True, metavar="JSON")
    p.add_argument("--train-split", required=True, metavar="NAME")
    p.add_argument("--test-split", required=True, metavar="NAME")
    p.add_argument("--gmm-k", type=_int_list, default=[1, 2], metavar="K,K,...",
                   help="mixture sizes to sweep (default 1,2)")
    p.add_argument("--pca-dim", type=_int_list, default=None, metavar="D,D,...",
                   help="PCA dimensions to sweep (default: raw features only)")
    p.add_argument("--mirror", action="store_true",
                   help="add settings retrained with sign-mirrored training features")
    p.add_argument("--beam", type=_positive_int, default=None)
    p.add_argument("--prior", choices=("on", "off"), default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--silence", default=DEFAULT_SILENCE)
    _add_schedule_flags(p)
    p.add_argument("--jobs", type=_positive_int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", required=True, metavar="DIR")

    return parser, children


def _apply_config(argv: list[str], parser, children) -> None:
    scan = _Parser(add_help=False)
    scan.add_argument("--config", default=None)
    scan.add_argument("command", nargs="?")
    found, _ = scan.parse_known_args(argv)
    if found.config is None:
        return
    try:
        doc = read_json(found.config)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"config file {found.config} must hold a JSON object")
    known = set()
    for p in [parser, *children.values()]:
        known.update(a.dest for a in p._actions)
    known -= {"func", "command", "config", "help"}
    unknown = sorted(set(doc) - known)
    if unknown:
        parser.error("unknown config keys: " + ", ".join(unknown))
    p = children.get(found.command)
    actions = {a.dest: a for a in p._actions} if p is not None else {}
    for key in [k for k in doc if k in actions]:
        try:
            p.set_defaults(**{key: _config_value(p, actions[key], doc[key])})
        except argparse.ArgumentError as exc:
            raise DataError(f"config key {key!r}: {exc.message}") from None


def _config_value(p: argparse.ArgumentParser, action: argparse.Action, value):
    """A config value for one flag of p, through the flag's own type and
    choices as its command-line spelling would go."""
    if value is None and action.default is None or action.nargs == 0 and isinstance(value, bool):
        return value  # null leaves an optional flag unset; a switch takes true or false
    if value is None or action.nargs == 0:
        raise argparse.ArgumentError(action, f"cannot take {json.dumps(value)}")
    texts = [str(v) for v in value] if isinstance(value, list) else [str(value)]
    if isinstance(action, argparse._AppendAction):
        return [p._get_values(action, [text]) for text in texts]
    return p._get_values(action, [",".join(texts)])


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, children = build_parser()
    try:
        _apply_config(argv, parser, children)
        args = parser.parse_args(argv)
        args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DATA_EXIT
    except DecodeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DECODE_EXIT
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DATA_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
