"""Evaluation metrics and report output.

Frame metrics (mean over frames, mean over class, Jaccard) work on
per-frame label sequences; clip metrics (accuracy, confusion counts) on
per-clip label lists.  Labels may be ids or names, any sortable hashable
works.
"""
from __future__ import annotations

import csv
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError

REPORT_FIELDS = ("metric", "split", "K", "value")


def _as_labels(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise DataError("per-frame labels must be a 1-D sequence")
    return arr


def _paired(gt, pred) -> tuple[np.ndarray, np.ndarray]:
    g, p = _as_labels(gt), _as_labels(pred)
    if len(g) != len(p):
        raise DataError(f"label lengths differ: {len(g)} vs {len(p)}")
    if len(g) == 0:
        raise DataError("cannot score zero frames")
    return g, p


def mof(gt, pred) -> float:
    """Fraction of frames whose predicted label matches the ground truth."""
    g, p = _paired(gt, pred)
    return float(np.mean(g == p))


def moc(gt, pred) -> float:
    """Unweighted mean of per-class frame recall over the classes present
    in the ground truth."""
    g, p = _paired(gt, pred)
    recalls = []
    for c in sorted(set(g.tolist())):
        sel = g == c
        recalls.append(float(np.mean(p[sel] == c)))
    return float(np.mean(recalls))


def jaccard(gt, pred, background=None) -> float:
    """Jaccard index between two labelings of the same frames.

    Per class: intersection over union of the class's frame sets,
    aggregated as the unweighted mean over classes present in the ground
    truth.  A label passed as background is dropped from the aggregation
    (pass None to keep every class).
    """
    g, p = _paired(gt, pred)
    classes = [c for c in sorted(set(g.tolist())) if c != background]
    if not classes:
        raise DataError("no foreground class present in the ground truth")
    scores = []
    for c in classes:
        gi = g == c
        pi = p == c
        scores.append(int(np.sum(gi & pi)) / int(np.sum(gi | pi)))
    return float(np.mean(scores))


def accuracy(gt_labels: Sequence, pred_labels: Sequence) -> tuple[float, dict]:
    """Clip-level accuracy plus the confusion counts over the union of
    observed labels (sorted): {"labels": [...], "counts": rows of ground
    truth by columns of prediction}."""
    if len(gt_labels) != len(pred_labels):
        raise DataError(
            f"label lengths differ: {len(gt_labels)} vs {len(pred_labels)}"
        )
    if len(gt_labels) == 0:
        raise DataError("cannot score zero clips")
    labels = sorted(set(gt_labels) | set(pred_labels))
    index = {lbl: i for i, lbl in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    hits = 0
    for g, p in zip(gt_labels, pred_labels):
        counts[index[g]][index[p]] += 1
        hits += g == p
    return hits / len(gt_labels), {"labels": labels, "counts": counts}


# ---------------------------------------------------------------------------
# reports


def report_row(metric: str, value: float, split: str = "", K=None) -> dict:
    return {
        "metric": metric,
        "split": split,
        "K": "" if K is None else K,
        "value": float(value),
    }


def write_report_csv(path, rows: Sequence[Mapping]) -> None:
    """One CSV row per metric value, fixed header metric,split,K,value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in REPORT_FIELDS})
