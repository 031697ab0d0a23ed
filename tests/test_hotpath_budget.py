"""A perf guard that cannot flake: Python calls per invocation.

Wall-clock guards on a shared runner lose runs to the neighbours; the
number of Python-level calls one warm ``Account.deposit(1)`` makes into
this package is the same on every run and every machine.  It fell from
215 to 181 when the envelope got its compiled readers (PR 19), and to
163 when the nucleus read each invocation once and stopped re-asking
what cannot change (a node's address, the clock's slot, a capsule's
marshaller) per call, and to 160 when the channel lost the metrics
layer, which was no transparency and whose counters nothing read, and
to 158 when the invoke and execute span sites stopped asking a live
span for its context, which is the span itself, and to 157 when the
transport lost its second retry discipline and with it the lambda that
picked a path's breaker, and to 152 when a fault verdict stopped
calling ``_sync`` and ``_lost`` while no schedule boundary is due and
no loss is declared, and to 150 when a round trip stopped reading the
clock twice to time the server's work for a field nothing read.  A layer that adds a call per invocation shows
here as exactly one.

Memory is counted the same way: the bytes still allocated after 1,000
more warm invocations, once the trace ring is full.  It was ~370 KB
while each finished span left a ``(layer, duration)`` tuple behind for
a later metrics read; it is a few KB (span ids widen by a digit now and
then) since each span is folded into its layer's metrics as it
finishes.

The bulk path is counted beside it: one warm ``put`` and one ``get`` of
a value of 40 sibling records, PACKED client to TAGGED server, fell
from 1,641 / 1,640 calls to 1,412 / 1,452 when records got shapes
(PR 20) — each field name a shape answers is one ``_tagged_read`` that
is not called.  They read 1,389 / 1,429 before the transport lost its
second discipline, 1,388 / 1,428 after.  Since a channel reads a
repeated large reply once, the warm ``get`` is counted as a miss (a
``get`` after a ``put`` of a different value: 1,428, the decode path as
before) and as a hit (the same ``get`` again: 866, the decode skipped).
They read 1,387 / 1,427 / 865 before a record was written once and
1,387 / 1,428 / 177 after: the miss pays one call to keep the new
record's image, and the hit splices the server's reply from the kept
image instead of walking the record (~690 calls).  The leaner fault
verdict takes four more off each: 1,383 / 1,424 / 173, and the
unread server timing two more: 1,381 / 1,422 / 171.

Bindings are counted as well: 1,000 proxies bound, called once and
dropped leave no transport alive.  They left all 1,000 while each
transport, batcher, relocation layer and shard router appended itself
to a list of its nucleus or space so that a report could sum it.

Supervision is counted too.  One composed check run (plan seed 3, all
six modes) fell from 101,905 calls to 79,860, and one quiet supervision
tick on a warm supervised world from 187 to 27, when the tick stopped
running repair scans whose precondition cannot hold: no node dead, no
group short, no shard capsule off its ring.  The composed run read
80,291 before the transport lost its second discipline and its rebind
hook, 80,204 after, and 80,382 once the lease reads joined the call
history the linearizability checker searches (a plain loop, not
``min`` over a lambda, picks the first outstanding response there).
It read 80,178 before a fault verdict stopped calling ``_sync`` and
``_lost`` when there was nothing for them to do, 70,707 after: each
heartbeat is three calls cheaper.  It read 70,786 before the unread
server timing went, 70,610 after, and 35,533 once heartbeats became
arithmetic: no beat is a scheduler event or a network message, the
detector folds each beat stream when it is read.  For the same reason
the quiet supervision budget counts a whole period, the tick and every
beat it folds: 326 calls while each beat was a timer, a post and a
delivery, 89 since.
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc

import repro
from repro import OdpObject, ReplicationSpec, World, operation
from repro.check.explorer import CheckConfig, run_seed
from repro.comp.constraints import EnvironmentConstraints, FailureSpec
from tests.conftest import Counter, KvStore, live_bindings

#: Calls into ``src/repro`` one warm invocation may make.
BUDGET = 155
#: ... and one warm ``put`` or ``get`` of the 40-row value.  Counted on
#: 3.11 (3.9 reads the same; 3.12 inlines comprehensions, so lower).
BULK_BUDGET = 1480
#: ... and one warm ``get`` whose reply repeats the one before it (171
#: on 3.11): the server splices the record's kept image and the channel
#: reuses that reply's termination.
REPEATED_GET_BUDGET = 180
#: ... one ``run_seed(3)`` with all six check modes composed ...
RUN_BUDGET = 35_890
#: ... and one quiet supervision period of a warm supervisor: the tick
#: and every heartbeat of the period.
QUIET_PERIOD_BUDGET = 89
#: Bytes 1,000 warm invocations may leave allocated once the trace ring
#: is full: every log on the path is bounded, so nothing should grow.
RETAINED_BUDGET = 4096

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class Account(OdpObject):
    def __init__(self) -> None:
        self.balance = 0

    @operation(params=[int], returns=[int])
    def deposit(self, amount):
        self.balance += amount
        return self.balance


class Store(OdpObject):
    def __init__(self) -> None:
        self.data = {}

    @operation(params=[str, "any"])
    def put(self, key, value):
        self.data[key] = value

    @operation(params=[str], returns=["any"], readonly=True)
    def get(self, key):
        return self.data[key]


def _bulk_value():
    """40 rows of one record type in a record: five names, read 200
    times a leg without shapes."""
    return {"rev": 3, "index": 7, "blob": bytes(range(256)) * 4, "rows": [
        {"id": row, "name": f"row-{row * 7919}", "score": row / 7,
         "tags": [f"t{row}", "t", f"t{row % 3}"], "active": row % 3 == 0}
        for row in range(40)]}


def _calls_into_package(work) -> int:
    """Python-level calls *work* makes into functions defined under
    this package (C calls are no ``call`` events).  Whatever profiler
    was installed before — coverage, a reach audit — is back after."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            calls += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(outer)
    return calls


def test_warm_invocation_stays_inside_its_call_budget():
    world = World(seed=1)
    world.node("org", "server-node", native_format="packed")
    world.node("org", "client-node", native_format="packed")
    proxy = world.binder_for(world.capsule("client-node", "clients")).bind(
        world.capsule("server-node", "servers").export(Account()))
    for _ in range(200):  # plans interned, caches filled, ids widened
        proxy.deposit(1)

    def hundred():
        for _ in range(100):
            proxy.deposit(1)

    per_op = _calls_into_package(hundred) / 100
    assert per_op == _calls_into_package(hundred) / 100, "not deterministic"
    assert per_op <= BUDGET, (
        f"{per_op} Python calls per warm invocation, budget {BUDGET}")


def test_warm_invocations_retain_no_memory_once_the_ring_is_full():
    """Tracing is on (sampling 1.0, four spans a call), so after 6,000
    calls the 16,384-span ring has turned over: each new span pushes an
    old one out, and nothing else a call leaves behind may pile up.
    Tracing memory starts before the world is built, so what the ring
    frees is counted as freed."""
    tracemalloc.start()
    try:
        world = World(seed=1)
        world.node("org", "server-node", native_format="packed")
        world.node("org", "client-node", native_format="packed")
        proxy = world.binder_for(
            world.capsule("client-node", "clients")).bind(
            world.capsule("server-node", "servers").export(Account()))
        for _ in range(6000):
            proxy.deposit(1)
        assert world.domain("org").tracer.spans_dropped > 0
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            proxy.deposit(1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= RETAINED_BUDGET, (
        f"{retained} bytes retained per 1,000 warm invocations, budget "
        f"{RETAINED_BUDGET}")


def test_dropped_bindings_leave_no_transport_alive():
    """A binding its client drops is freed with everything it holds.
    While each transport and relocation layer listed itself with its
    nucleus for a report to find, all 1,000 of these stayed alive."""
    world = World(seed=1)
    world.node("org", "server-node")
    world.node("org", "client-node")
    ref = world.capsule("server-node", "servers").export(Account())
    binder = world.binder_for(world.capsule("client-node", "clients"))
    for _ in range(1000):
        binder.bind(ref).deposit(1)
    assert live_bindings(world.nucleus("client-node")) == (0, 0)


def test_warm_bulk_put_and_get_stay_inside_their_call_budget():
    world = World(seed=1)
    world.node("org", "server-node", native_format="tagged")
    world.node("org", "client-node", native_format="packed")
    proxy = world.binder_for(world.capsule("client-node", "clients")).bind(
        world.capsule("server-node", "servers").export(Store()))
    value = _bulk_value()
    for _ in range(20):  # plans interned, names and layouts remembered
        proxy.put("key", value)
        proxy.get("key")

    def counted(work, before=lambda rev: None):
        """*work*'s calls, counted twice (after *before*) to be equal."""
        counts = []
        for rev in (4, 5):
            before(rev)
            counts.append(_calls_into_package(work))
        assert counts[0] == counts[1], "not deterministic"
        return counts[0]

    def get():
        return proxy.get("key")

    for name, calls, budget in (
            ("put", counted(lambda: proxy.put("key", value)), BULK_BUDGET),
            # After a put of a different value the reply is new to the
            # channel, so it is decoded ...
            ("get", counted(get, lambda rev: proxy.put(
                "key", dict(value, rev=rev))), BULK_BUDGET),
            # ... and the same get again repeats it, so it is not.
            ("repeated get", counted(get), REPEATED_GET_BUDGET)):
        assert calls <= budget, (
            f"{calls} Python calls per warm bulk {name}, budget {budget}")


def test_composed_check_run_stays_inside_its_call_budget():
    config = (CheckConfig().with_supervisor().with_batching()
              .with_partitions().with_shards().with_leases()
              .with_overload())
    run_seed(3, config)  # plans interned, modules imported

    def work():
        # Signature encodings are cached per live signature object, so
        # when the collector runs decides what hits: run it before, not
        # during.
        gc.collect()
        gc.disable()
        try:
            run_seed(3, config)
        finally:
            gc.enable()

    calls = _calls_into_package(work)
    assert calls == _calls_into_package(work), "not deterministic"
    assert calls <= RUN_BUDGET, (
        f"{calls} Python calls per composed run, budget {RUN_BUDGET}")


def test_quiet_supervision_period_stays_inside_its_call_budget():
    """A group, a checkpointed singleton, a shard space and a lease
    authority — something for every repair scan to walk — and no
    fault, so every tick is quiet; a period is one tick and the beats
    of every watched endpoint to each of the three vantages."""
    world = World(seed=11)
    names = ("n1", "n2", "n3")
    for name in names + ("client-node",):
        world.node("org", name)
    domain = world.domain("org")
    clients = world.binder_for(world.capsule("client-node", "clients"))
    servers = [world.capsule(name, "srv") for name in names]
    _, group_ref = domain.groups.create(
        KvStore, servers, ReplicationSpec(replicas=3, policy="active"))
    clients.bind(group_ref).put("k", "v")
    clients.bind(servers[0].export(Counter(), constraints=(
        EnvironmentConstraints(failure=FailureSpec(checkpoint_every=1)))
    )).increment()
    domain.shards.create("kv", KvStore,
                         [world.capsule(name, "shards") for name in names],
                         shards=8)
    domain.leases  # an authority, so the lease scan has something to ask
    supervisor = domain.supervisor
    supervisor.start()
    world.scheduler.run_until(world.now + 200.0)
    assert supervisor._quiet()

    def period():
        world.scheduler.run_until(world.now + supervisor.interval_ms)

    calls = _calls_into_package(period)
    assert calls == _calls_into_package(period), "not deterministic"
    assert supervisor._quiet()
    assert calls <= QUIET_PERIOD_BUDGET, (
        f"{calls} Python calls per quiet supervision period, budget "
        f"{QUIET_PERIOD_BUDGET}")
    supervisor.stop()


def test_counting_leaves_an_outer_profiler_installed():
    """A budget run does not blind the profiler around it."""
    def outer(frame, event, arg):
        pass

    previous = sys.getprofile()
    sys.setprofile(outer)
    try:
        test_warm_invocation_stays_inside_its_call_budget()
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(previous)
