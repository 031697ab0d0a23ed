"""Waits-for-graph deadlock detection.

Section 5.2: the concurrency control manager "will need to interact with a
deadlock detector so that applications do not hang indefinitely if
transactions suffer locking conflicts".  The graph is federation-global, so
deadlocks spanning interfaces in different domains are still found.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set


class WaitsForGraph:
    """Directed graph: edge (a -> b) means transaction a waits for b."""

    def __init__(self) -> None:
        self._edges: Dict[str, Set[str]] = {}

    def add_waits(self, waiter: str, holders: Iterable[str]) -> None:
        self._edges.setdefault(waiter, set()).update(
            h for h in holders if h != waiter)

    def clear_waiter(self, waiter: str) -> None:
        """The waiter got its lock (or gave up): drop its outgoing edges."""
        self._edges.pop(waiter, None)

    def remove_transaction(self, tx_id: str) -> None:
        """A transaction finished: drop all edges touching it."""
        self._edges.pop(tx_id, None)
        for targets in self._edges.values():
            targets.discard(tx_id)

    def would_deadlock(self, waiter: str,
                       holders: Iterable[str]) -> Optional[List[str]]:
        """Would adding waiter->holders edges close a cycle through waiter?

        Returns the cycle (as a list of transaction ids) or None.  The
        candidate edges are evaluated without being committed to the graph.
        """
        targets = set(holders) - {waiter}
        if not targets:
            return None
        # DFS from each candidate holder, looking for a path back to waiter.
        for start in targets:
            path = self._find_path(start, waiter)
            if path is not None:
                return [waiter] + path
        return None

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        stack: List[tuple] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for succ in self._edges.get(node, ()):
                stack.append((succ, path + [succ]))
        return None
