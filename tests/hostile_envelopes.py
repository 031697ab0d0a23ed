"""Hostile envelopes at a live nucleus, one field at a time.

For each inbound kind the malformed-envelope tables of
``tests/test_nucleus_wire.py`` do not reach — split-phase requests
(``ainvoke``), announcements (``invoke``), forwarded cross-domain
invocations (``fedfwd``), 2PC control messages (``txctl``) and batches —
every field of a well-formed envelope in turn (top level, inside ``inv``,
inside ``ctx`` and ``extra``, and inside a forwarded reference, its
paths and its signature) is deleted or replaced by each of
:data:`REPLACEMENTS`.  Every case must end as a typed wire error or a
silent drop: nothing escapes ``Network.request`` or ``world.settle()``,
no deposit runs more often than the envelope asked for, no invocation id
executes twice, and the node then serves a well-formed deposit.

``tests/test_nucleus_wire.py`` runs a fixed sample of the cases; the
whole sweep runs as a script, which reports every failing case and
exits 1 if there is one::

    PYTHONPATH=src:. python -m tests.hostile_envelopes
"""

from __future__ import annotations

import copy
import sys
from typing import Any, Dict, List, Tuple

from repro import EnvironmentConstraints, World
from repro.ndr.codec import Marshaller
from repro.ndr.formats import get_format
from repro.perf.admission import AdmissionController
from tests.conftest import Account, Counter

#: What each field is replaced by, beside being deleted.
REPLACEMENTS = (None, 7, "x", [], {}, [[]])
DELETE = "<deleted>"
VARIANTS = (DELETE,) + REPLACEMENTS

#: Members the sweep walks into; every other value is one field.
_NESTED = {"inv", "ctx", "extra", "fedfwd", "txctl", "batch",
           "ref", "paths", "signature", "ops", "terms"}

#: The inbound kinds swept: how each is sent, and what its well-formed
#: envelope may execute (deposits of 1).
KINDS = {"ainvoke": ("post", 1), "invoke": ("post", 1),
         "fedfwd": ("request", 1), "txctl": ("request", 0),
         "batch": ("request", 2)}

#: The reply members a request may be answered with.
_REPLIES = {"term", "error", "txr", "replies"}


class Target:
    """A PACKED node serving an account, with admission control and an
    execution log on, a client beside it and a foreign-domain node."""

    def __init__(self) -> None:
        self.world = world = World(seed=5)
        world.node("home", "s", "packed")
        world.node("home", "c", "packed")
        world.node("away", "f", "packed")
        world.link_domains("home", "away")
        self.nucleus = world.nucleus("s")
        self.nucleus.admission = AdmissionController(world.clock)
        self.nucleus.deadline_gate.record_executions = True
        self.account = Account()
        servers = world.capsule("s", "srv")
        self.ref = servers.export(self.account)
        self.tx_iid = servers.export(Counter(), constraints=(
            EnvironmentConstraints(concurrency=True))).interface_id
        self.proxy = world.binder_for(world.capsule("c", "cli")).bind(
            self.ref)
        self.fmt = get_format("packed")
        self._serial = 0

    def _inv(self, **extra_fields) -> Dict[str, Any]:
        self._serial += 1
        return {
            "id": self.ref.interface_id, "op": "deposit", "args": [1],
            "kind": "interrogation", "epoch": self.ref.epoch,
            "inv_id": f"hostile-{self._serial}",
            "ctx": {"principal": "alice", "credentials": {},
                    "transaction_id": None, "origin_domain": "home",
                    "via_domains": [],
                    "extra": {"deadline_at": 1e9, "priority": 2},
                    "trace": f"T{self._serial}@away|S1@away"},
            **extra_fields}

    def envelope(self, kind: str) -> Dict[str, Any]:
        """A fresh well-formed envelope of *kind* (new invocation ids)."""
        if kind == "ainvoke":
            return {"capsule": "srv", "reply_to": "c",
                    "call_id": f"c#hostile-{self._serial}",
                    "inv": self._inv()}
        if kind == "invoke":
            return {"capsule": "srv", "inv": self._inv(kind="announcement")}
        if kind == "fedfwd":
            inv = self._inv()
            inv["ctx"]["via_domains"] = ["away"]
            return {"capsule": "gateway", "fedfwd": {
                "ref": Marshaller().marshal(self.ref), "inv": inv}}
        if kind == "txctl":
            return {"capsule": "srv", "txctl": {
                "tx": "tx-hostile", "phase": "prepare", "iface": self.tx_iid}}
        return {"capsule": "srv", "batch": [self._inv(), self._inv()]}

    def deliver(self, kind: str, envelope: Any) -> None:
        """Send *envelope* as *kind*, let the world settle, and check
        the answer is a typed reply (or, one-way, that nothing raised)."""
        how, _ = KINDS[kind]
        payload = self.fmt.dumps(envelope)
        if how == "post":
            self.world.network.post("c", "s", payload, kind=kind)
        else:
            source = "f" if kind == "fedfwd" else "c"
            reply = self.fmt.loads(
                self.world.network.request(source, "s", payload))
            assert type(reply) is dict and set(reply) <= _REPLIES, reply
            if "error" in reply:
                assert type(reply["error"]["code"]) is str, reply
        self.world.settle()

    def run(self, kind: str, path: Tuple, variant: Any) -> None:
        """One case: deliver the envelope with the field at *path*
        deleted or replaced, then check the invariants."""
        envelope = mutated(self.envelope(kind), path, variant)
        before = self.account.balance
        self.deliver(kind, envelope)
        ran = self.account.balance - before
        assert 0 <= ran <= KINDS[kind][1], f"{ran} deposits executed"
        log = [entry["inv_id"] for entry
               in self.nucleus.deadline_gate.execution_log
               if entry["inv_id"]]
        assert len(log) == len(set(log)), "an invocation id ran twice"
        assert self.proxy.deposit(1) == self.account.balance == \
            before + ran + 1, "the node no longer serves a deposit"


def fields(tree: Any, path: Tuple = ()) -> List[Tuple]:
    """The paths of every field the sweep varies, outermost first."""
    found = []
    items = (tree.items() if type(tree) is dict
             else enumerate(tree) if type(tree) is list else ())
    for key, value in items:
        found.append(path + (key,))
        if key in _NESTED or type(key) is int:
            found.extend(fields(value, path + (key,)))
    return found


def mutated(tree: Any, path: Tuple, variant: Any) -> Any:
    """A copy of *tree* with the field at *path* deleted or replaced."""
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if variant is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(variant)
    return tree


def cases(kind: str, sample: bool = False) -> List[Tuple[Tuple, Any]]:
    """Every ``(path, variant)`` of *kind*; with *sample*, one variant
    per field, rotating through them."""
    paths = fields(Target().envelope(kind))
    if sample:
        return [(path, VARIANTS[index % len(VARIANTS)])
                for index, path in enumerate(paths)]
    return [(path, variant) for path in paths for variant in VARIANTS]


def main() -> int:
    total = failed = 0
    for kind in KINDS:
        target = Target()
        for path, variant in cases(kind):
            total += 1
            try:
                target.run(kind, path, variant)
            except Exception as exc:  # report every case, then fail
                failed += 1
                print(f"FAIL {kind} {'/'.join(map(str, path))} = "
                      f"{variant!r}: {type(exc).__name__}: {exc}")
                target = Target()  # the failed case may have broken it
    print(f"{total - failed}/{total} hostile envelopes over {len(KINDS)} "
          f"kinds ended as a typed error or a silent drop, the node "
          f"serving a deposit after each")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
