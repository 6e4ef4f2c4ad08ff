import json

import pytest

from actionseg.errors import DataError
from actionseg.metrics import accuracy, jaccard, moc, mof, report_row, write_report_csv
from actionseg.util import write_json


def test_mof_hand_computed():
    assert mof(["a", "a", "b", "b"], ["a", "b", "b", "b"]) == pytest.approx(0.75)
    assert mof([1, 2, 3], [1, 2, 3]) == 1.0
    assert mof([1, 2], [2, 1]) == 0.0
    with pytest.raises(DataError):
        mof([1, 2], [1])
    with pytest.raises(DataError):
        mof([], [])


def test_moc_hand_computed():
    # recall of a is 2/3, recall of b is 1
    got = moc(["a", "a", "a", "b"], ["a", "a", "b", "b"])
    assert got == pytest.approx((2 / 3 + 1.0) / 2)
    # classes only in the prediction do not contribute
    assert moc(["a", "a"], ["b", "a"]) == pytest.approx(0.5)


def test_moc_differs_from_mof_under_imbalance():
    gt = ["a"] * 9 + ["b"]
    pred = ["a"] * 10
    assert mof(gt, pred) == pytest.approx(0.9)
    assert moc(gt, pred) == pytest.approx(0.5)


def test_jaccard_hand_computed():
    gt = ["a", "a", "b", "b"]
    pred = ["a", "b", "b", "b"]
    # a: 1/2, b: 2/3
    assert jaccard(gt, pred) == pytest.approx((0.5 + 2 / 3) / 2)
    assert jaccard(gt, pred, background="a") == pytest.approx(2 / 3)
    assert jaccard(gt, gt) == 1.0
    with pytest.raises(DataError):
        jaccard(["a", "a"], ["a", "b"], background="a")


def test_accuracy_and_confusion():
    acc, cm = accuracy(["x", "y", "x"], ["x", "x", "x"])
    assert acc == pytest.approx(2 / 3)
    assert cm == {"labels": ["x", "y"], "counts": [[2, 0], [1, 0]]}
    assert all(type(v) is int for row in cm["counts"] for v in row)
    # labels seen only in predictions still get a column
    acc2, cm2 = accuracy(["x"], ["z"])
    assert acc2 == 0.0
    assert cm2 == {"labels": ["x", "z"], "counts": [[0, 1], [0, 0]]}
    with pytest.raises(DataError):
        accuracy(["x"], [])
    with pytest.raises(DataError):
        accuracy([], [])


def test_report_row_and_csv(tmp_path):
    rows = [
        report_row("mof", 0.5, split="test", K=3),
        report_row("accuracy", 1.0),
    ]
    assert rows[1]["K"] == "" and rows[1]["split"] == ""
    p = tmp_path / "report.csv"
    write_report_csv(p, rows)
    want = b"metric,split,K,value\r\nmof,test,3,0.5\r\naccuracy,,,1.0\r\n"
    assert p.read_bytes() == want


def test_report_json(tmp_path):
    # eval --out FILE.json writes its report rows through write_json
    rows = [report_row("mof", 0.25, split="test", K=2)]
    p = tmp_path / "report.json"
    write_json(p, rows)
    doc = json.loads(p.read_text())
    assert doc == [{"metric": "mof", "split": "test", "K": 2, "value": 0.25}]
