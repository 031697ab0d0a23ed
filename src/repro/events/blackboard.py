"""A distributed blackboard (tuple space).

Section 5.3 names "more general distributed 'blackboard' structures" as
one of the things the basic group-execution mechanism supports.  The
blackboard is a plain ADT — post/read/take over pattern-matched tuples —
which becomes reliable and available exactly by replicating it with
``domain.groups.create(Blackboard, capsules, spec)``: writes (post/take)
go through the total-order protocol, reads can spread.
"""

from __future__ import annotations

from typing import List

from repro.comp.model import OdpObject, operation
from repro.comp.outcomes import Signal


def _matches(entry, pattern) -> bool:
    """Tuple matching: same arity; None in the pattern is a wildcard."""
    if len(entry) != len(pattern):
        return False
    for have, want in zip(entry, pattern):
        if want is None:
            continue
        if have != want:
            return False
    return True


class Blackboard(OdpObject):
    """A tuple space: post, read (non-destructive), take (destructive)."""

    def __init__(self) -> None:
        self.entries: List[tuple] = []

    @operation(params=[["any"]])
    def post(self, entry):
        """Add a tuple to the board."""
        self.entries.append(tuple(entry))

    @operation(params=[["any"]], returns=[["any"]],
               errors={"no_match": []}, readonly=True)
    def read(self, pattern):
        """Return the first matching tuple without removing it."""
        for entry in self.entries:
            if _matches(entry, tuple(pattern)):
                return (list(entry),)[0]
        raise Signal("no_match")

    @operation(params=[["any"]], returns=[["any"]],
               errors={"no_match": []})
    def take(self, pattern):
        """Remove and return the first matching tuple."""
        for index, entry in enumerate(self.entries):
            if _matches(entry, tuple(pattern)):
                del self.entries[index]
                return (list(entry),)[0]
        raise Signal("no_match")

    @operation(params=[["any"]], returns=[int], readonly=True)
    def count(self, pattern):
        """How many tuples match the pattern."""
        return sum(1 for entry in self.entries
                   if _matches(entry, tuple(pattern)))

    @operation(returns=[int], readonly=True)
    def size(self):
        return len(self.entries)
