import json
import threading
import tracemalloc

import numpy as np
import pytest

from actionseg.util import child_rng, derive_seed, dump_json, parallel_map, read_json, write_json
from helpers import reference_write_json


def test_child_rng_reproducible():
    a = child_rng(7, "balance", "stir").normal(size=5)
    b = child_rng(7, "balance", "stir").normal(size=5)
    assert np.array_equal(a, b)


def test_child_rng_distinct_keys_diverge():
    a = child_rng(7, "balance", "stir").normal(size=5)
    b = child_rng(7, "balance", "pour").normal(size=5)
    c = child_rng(8, "balance", "stir").normal(size=5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable_and_mixed_key_types():
    assert derive_seed(3, "unit", 4) == derive_seed(3, "unit", 4)
    assert derive_seed(3, "unit", 4) != derive_seed(3, "unit", 5)
    assert isinstance(derive_seed(0), int)


def test_key_derivation_values_are_pinned():
    # Model files depend on these streams; the values must never drift.
    assert derive_seed(3, "unit", 4) == 2752104271
    assert derive_seed(2**40 + 5, "kmeanspp", -1, "\u00e9") == 3759745084
    assert derive_seed(0) == 2968811710
    assert child_rng(7, "balance", "stir").integers(2**32, size=3).tolist() == [
        359073166, 2838446239, 1752343641,
    ]
    assert child_rng(-1, 2**33).integers(2**32, size=2).tolist() == [819527071, 1082089385]


def test_parallel_map_preserves_order():
    items = list(range(40))
    assert parallel_map(lambda x: x * x, items, jobs=1) == [x * x for x in items]
    seen = []

    def square(x):
        seen.append((x, threading.get_ident()))
        return x * x

    assert parallel_map(square, items, jobs=8) == [x * x for x in items]
    assert seen == [(x, threading.get_ident()) for x in items]

    # the first failing item raises its own exception, and no later item runs
    ran = []

    def fail_at_5_and_7(x):
        ran.append(x)
        if x in (5, 7):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="^item 5$"):
        parallel_map(fail_at_5_and_7, items, jobs=8)
    assert ran == list(range(6))


def test_dump_json_canonical():
    s = dump_json({"b": 1, "a": [2, 3]})
    assert s == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert s == dump_json(json.loads(s))


def test_json_file_round_trip(tmp_path):
    doc = {"z": 1, "a": {"nested": [1.5, None, "x"]}}
    p = tmp_path / "doc.json"
    write_json(p, doc)
    assert read_json(p) == doc
    first = p.read_bytes()
    write_json(p, doc)
    assert p.read_bytes() == first


@pytest.mark.parametrize(
    "doc",
    [
        {
            "log_next": [-0.25, None, -1e-300],  # -inf is written as null
            "units": [{"name": "\u00c6r\u00f8 \u2615 \u5207\u308b", "frames": []}, {"name": "", "x": {}}],
            "nested": [[[]], [1, 2.0, -0.0, 1e308, 5e-324], {"b": [[], {}], "a": None}],
        },
        [],
        {},
        "\u00d8",
        1.5,
    ],
    ids=["nested", "empty-list", "empty-object", "string", "number"],
)
def test_write_json_equals_the_dumps_writer_byte_for_byte(tmp_path, doc):
    write_json(tmp_path / "streamed.json", doc)
    reference_write_json(tmp_path / "whole.json", doc)
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


def test_write_json_holds_less_than_its_own_text(tmp_path):
    rng = np.random.default_rng(43)
    doc = {"rows": [[float(v) for v in row] for row in rng.normal(size=(200, 100))]}
    size = len(dump_json(doc))
    tracemalloc.start()
    try:
        write_json(tmp_path / "doc.json", doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size, (peak, size)
    assert (tmp_path / "doc.json").stat().st_size == size
