"""Every one-shot loss pattern of one group write under a supervisor.

A group of three members takes one write while the domain's supervisor
watches.  Before the write, each of the four links between the
sequencer and its two followers is armed to lose its next 0, 1 or 2
messages (``FaultPlan.lose_next``), so each relay and each rollback can
lose its request, its reply or both: 81 patterns, at reply quorum 2 and
at 3, one world each.  After the write and 400 ms of supervision every
member must be in the view, in sync, and hold what the client was told:
the new value if the put returned, the old one if it raised.  A member
that applied an aborted write and lost its ack is what the supervisor's
vantage panel used to keep in the view.

``tests/test_partitions.py`` runs every pattern (about a second); as a
script it reports each failing pattern and exits 1 if there is one::

    PYTHONPATH=src:. python -m tests.exhaustive_loss
"""

from __future__ import annotations

import itertools
import sys
from typing import List, Tuple

from repro import ReplicationSpec, World
from repro.errors import OdpError
from tests.conftest import KvStore

#: Messages each link loses before it delivers again.
COUNTS = (0, 1, 2)
QUORUMS = (2, 3)


def patterns() -> List[Tuple[int, Tuple[int, ...]]]:
    """``(reply quorum, losses)``, the losses on sequencer -> first
    follower, back, sequencer -> second follower and back."""
    return [(quorum, losses) for quorum in QUORUMS
            for losses in itertools.product(COUNTS, repeat=4)]


def run(quorum: int, losses: Tuple[int, ...]) -> str:
    """One world through one pattern; what is wrong after it, or ''."""
    world = World(seed=23)
    names = ("n1", "n2", "n3")
    for name in names + ("client-node",):
        world.node("org", name)
    domain = world.domain("org")
    group, ref = domain.groups.create(
        KvStore, [world.capsule(name, "srv") for name in names],
        ReplicationSpec(replicas=3, policy="active", reply_quorum=quorum))
    proxy = world.binder_for(world.capsule("client-node", "app")).bind(ref)
    proxy.put("k", "old")
    supervisor = domain.supervisor
    supervisor.start()
    world.scheduler.run_until(world.now + 100.0)
    sequencer = group.view.sequencer.node
    links = [link for member in group.view.members
             if member.node != sequencer
             for link in ((sequencer, member.node), (member.node, sequencer))]
    for (source, destination), count in zip(links, losses):
        if count:
            world.faults.lose_next(source, destination, count)
    try:
        proxy.put("k", "new")
        told = "new"
    except OdpError:
        told = "old"
    world.faults.clear_lose_next()
    world.scheduler.run_until(world.now + 400.0)
    supervisor.stop()
    wrong = []
    for member in group.view.members:
        _, interface = domain.groups._plumbing[(group.group_id, member.index)]
        value = interface.implementation.data.get("k")
        if not member.alive or member.layer.out_of_sync or value != told:
            wrong.append(f"member {member.index}: alive={member.alive} "
                         f"out_of_sync={member.layer.out_of_sync} "
                         f"holds {value!r}, the client was told {told!r}")
    return "; ".join(wrong)


def main() -> int:
    failing = 0
    for quorum, losses in patterns():
        wrong = run(quorum, losses)
        if wrong:
            failing += 1
            print(f"quorum {quorum}, losses {losses}: {wrong}")
    print(f"{len(patterns())} loss patterns, {failing} failing")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
