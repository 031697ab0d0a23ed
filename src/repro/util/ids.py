"""Deterministic identifier minting and key hashing.

The simulator is fully deterministic (no wall clock, no global random), so
identifiers come from per-prefix counters rather than UUIDs and key hashing
comes from sha256 rather than ``hash()``.  Determinism is what makes the
concurrency, replication and recovery tests reproducible.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Dict


def stable_hash(value: str, bits: int = 64) -> int:
    """Deterministic key hash: identical in every process, forever.

    Python's builtin ``hash()`` is salted per process
    (``PYTHONHASHSEED``), so anything derived from it — shard
    assignment, ring positions — would silently differ between runs and
    break replay.  This helper hashes the UTF-8 bytes with sha256 and
    returns the first *bits* bits as an unsigned integer, giving every
    consumer (the placement ring, the check harness) one shared,
    process-independent mapping from keys to numbers.
    """
    if bits % 8 != 0 or not 8 <= bits <= 256:
        raise ValueError("bits must be a multiple of 8 in [8, 256]")
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:bits // 8], "big")


class IdMinter:
    """Mints ids of the form ``"<prefix>-<n>"`` with a counter per prefix."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)

    def mint(self, prefix: str) -> str:
        self._counters[prefix] += 1
        return f"{prefix}-{self._counters[prefix]}"
