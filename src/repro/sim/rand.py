"""Seeded randomness for the simulator.

A thin wrapper over :class:`random.Random` so that every stochastic choice
(latency jitter, message drops, failure injection) draws from one explicit,
seedable stream.  Sub-streams can be forked for independent components so
that adding randomness to one component does not perturb another.

Two rules keep whole-system runs reproducible from a single top-level
seed:

* **no hidden state** — derivation depends only on the parent's seed and
  the fork label, never on how many draws the parent has made, on
  ``hash()`` (salted per process), or on any module-level global;
* **label discipline** — every independent consumer forks its own
  labelled stream instead of drawing from a shared one.  The ``path``
  attribute records the fork lineage (``"7/network/latency-jitter"``)
  so correlated streams can be spotted in a debugger.
"""

from __future__ import annotations

import hashlib
import random


class DeterministicRandom:
    """An explicit, forkable source of pseudo-randomness."""

    def __init__(self, seed: int = 0, path: str = "") -> None:
        self.seed = seed
        #: Fork lineage, for debugging correlated streams.
        self.path = path if path else str(seed)
        self._rng = random.Random(seed)

    def derive(self, label: str) -> int:
        """The seed a fork labelled *label* would receive.

        Uses a stable digest, not ``hash()`` — Python salts string
        hashes per process, which would make "deterministic" runs differ
        between invocations of the interpreter.  Depends only on
        ``self.seed`` and *label*: deriving is free of draw-order
        effects, so a component can fork late without perturbing
        streams forked earlier.
        """
        digest = hashlib.sha256(
            f"{self.seed}:{label}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent stream keyed by *label*."""
        return DeterministicRandom(self.derive(label),
                                   path=f"{self.path}/{label}")

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq):
        return self._rng.choice(seq)

    def shuffle(self, seq) -> None:
        self._rng.shuffle(seq)

    def sample(self, seq, k: int):
        return self._rng.sample(seq, k)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability
