"""Virtual time.

All latencies in the platform are expressed in virtual milliseconds.  The
clock only moves when the scheduler runs an event or when a synchronous
message transit charges time to it.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically increasing virtual clock (milliseconds).

    ``now`` is a plain slot, read directly on every hot path.  Move it
    with :meth:`advance` / :meth:`advance_to`; only the scheduler's
    drain loops assign it themselves, and only ever forward.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, delta: float) -> float:
        """Move time forward by *delta* ms and return the new time."""
        if delta < 0:
            raise ValueError(f"clock cannot run backwards (delta={delta})")
        self.now += delta
        return self.now

    def advance_to(self, when: float) -> float:
        """Move time forward to *when* (no-op if already past it)."""
        if when > self.now:
            self.now = when
        return self.now
