import json

import numpy as np

from actionseg.util import child_rng, derive_seed, dump_json, parallel_map, read_json, write_json


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
    assert parallel_map(lambda x: x * x, items, jobs=8) == [x * x for x in items]


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
