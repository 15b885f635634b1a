"""Stable content hashing for cache keys.

The evaluation engine memoizes results on disk keyed by *what was
computed*: the resolved workload spec, the sampler configurations, the
fault plan and the package source itself. Python's built-in ``hash`` is
salted per process and ``repr`` is not guaranteed stable across versions,
so cache keys are derived from a canonical JSON encoding hashed with
SHA-256 — the same construction :mod:`repro.utils.seeding` uses for
deterministic randomness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np


def canonicalize(obj: object) -> object:
    """Reduce ``obj`` to JSON-encodable primitives, deterministically.

    Dataclasses become ``{"__type__": name, fields...}`` so two configs
    with identical field values but different classes hash differently.
    Floats are kept as-is (``json`` serializes them via ``repr``, which is
    exact for IEEE doubles). Unsupported types raise ``TypeError`` rather
    than silently collapsing to something lossy.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Enum):
        return {"__type__": type(obj).__name__, "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {"__type__": "ndarray", "dtype": str(obj.dtype),
                "data": obj.tolist()}
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def stable_hash(*parts: object) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``parts``.

    >>> stable_hash("a", 1) == stable_hash("a", 1)
    True
    >>> stable_hash("a", 1) != stable_hash("a", 2)
    True
    """
    payload = json.dumps(
        [canonicalize(part) for part in parts],
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Content hash of the installed ``repro`` package source.

    Folded into every cache key, so editing any module invalidates
    previously cached evaluation results even when the package version
    string is unchanged (the common case during development), and
    recorded in every run manifest.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()
