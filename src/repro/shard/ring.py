"""The consistent-hash placement ring.

Placement is a pure function of the member node names: each node
contributes ``vnodes`` virtual points at
``stable_hash(f"{node}#{i}")`` and a key is owned by the first point at
or clockwise after ``stable_hash(key)``.  No randomness, no wall clock,
no ``hash()`` — two processes building a ring from the same node set
compute byte-identical assignments, which is what lets routers cache
ring views and compare them by epoch alone.

Membership changes bump the ring epoch and produce a fresh immutable
:class:`RingView`.  Consistent hashing gives the rebalancer its cost
bound: adding or removing one node moves only ~K/n of K keys, and every
moved key moves to (or from) exactly that node.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Tuple

from repro.errors import BindingError
from repro.util.ids import stable_hash


class RingView:
    """One immutable, epoch-numbered snapshot of the placement ring."""

    __slots__ = ("epoch", "points", "nodes")

    def __init__(self, epoch: int, points: Tuple[Tuple[int, str], ...],
                 nodes: Tuple[str, ...]) -> None:
        self.epoch = epoch
        self.points = points
        self.nodes = nodes

    def owner(self, key: str) -> str:
        """The node owning *key* under this view."""
        if not self.points:
            raise BindingError("placement ring has no nodes")
        position = stable_hash(key)
        index = bisect_left(self.points, (position, ""))
        if index == len(self.points):
            index = 0  # wrap past the top of the ring
        return self.points[index][1]

    def __repr__(self) -> str:
        return (f"RingView(epoch={self.epoch}, nodes={list(self.nodes)}, "
                f"{len(self.points)} points)")


class PlacementRing:
    """Mutable ring membership; every change mints a new epoch + view."""

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.vnodes = vnodes
        self.epoch = 0
        self._nodes: List[str] = []
        self._view = RingView(0, (), ())

    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def has_node(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> RingView:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.append(node)
        self._nodes.sort()
        return self._rebuild()

    def remove_node(self, node: str) -> RingView:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on the ring")
        self._nodes.remove(node)
        return self._rebuild()

    def view(self) -> RingView:
        return self._view

    def _rebuild(self) -> RingView:
        points: List[Tuple[int, str]] = []
        for node in self._nodes:
            for i in range(self.vnodes):
                points.append((stable_hash(f"{node}#{i}"), node))
        points.sort()
        self.epoch += 1
        self._view = RingView(self.epoch, tuple(points),
                              tuple(self._nodes))
        return self._view
