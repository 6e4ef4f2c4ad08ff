"""Small shared helpers: seeded RNG derivation, canonical JSON output and
text file input."""
from __future__ import annotations

import json
import zlib
from typing import Any

import numpy as np

from .errors import DataError


def _key_words(seed: int, keys) -> list[int]:
    """The 32-bit words of a (seed, keys) path; string keys are hashed
    with crc32 so the words do not depend on Python's randomized hash."""
    words = [int(seed) & 0xFFFFFFFF]
    for k in keys:
        if isinstance(k, str):
            words.append(zlib.crc32(k.encode("utf-8")))
        else:
            words.append(int(k) & 0xFFFFFFFF)
    return words


def child_rng(seed: int, *keys: int | str) -> np.random.Generator:
    """Derive an independent generator from a root seed and a stable key path.

    The same (seed, keys) always yields the same stream, regardless of
    call order or thread count.
    """
    return np.random.default_rng(np.random.SeedSequence(_key_words(seed, keys)))


def derive_seed(seed: int, *keys: int | str) -> int:
    """Stable integer sub-seed for the same (seed, keys) path as child_rng."""
    state = np.random.SeedSequence(_key_words(seed, keys)).generate_state(1, np.uint32)
    return int(state[0])


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Map fn over items in input order, in the calling thread; the first
    item that raises stops the map.

    jobs is accepted and ignored: the per-item work is many small numpy
    calls that hold the interpreter lock, so threads cannot overlap it.
    """
    return [fn(x) for x in items]


def dump_json(obj: Any, indent: int | None = 2) -> str:
    """Serialize to canonical JSON: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, indent=indent) + "\n"


def write_json(path, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(obj))


def read_text(path) -> str:
    """A text file's contents; a file that is not UTF-8 is a DataError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None


def read_json(path) -> Any:
    """A JSON file's contents; text that does not parse is a DataError naming it."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
