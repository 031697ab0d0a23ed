"""Heartbeats one scheduler event at a time — a test oracle.

:class:`ReferenceBeats` has the interface of
:class:`~repro.heal.heartbeat.HeartbeatMonitor` and emits the beats the
monitor computes, the way the monitor did before its beats became
streams: one scheduler event sends each beat, and a second delivers it
to the observer's detector through ``observe``.  It keeps the beat
rules the streams keep — beat k of an endpoint leaves at
``first + k * interval``, a crashed source sends nothing, the delay is
the latency model's times the gray factor at send time, a drop rate
draws from the endpoint's own random fork, a link blocked on arrival
drops the beat and counts it in ``faults.drops``, and a beat that
arrives after a rehome is ignored — and asks the fault plan at each
send and each arrival instead of folding between its changes.
:func:`compare` runs one fault timeline under both — a crash, a
partition, a cut, an asymmetric block, a gray link slower than the
period, flaky windows, toggles and a mid-run rehome — and requires the
same arrivals, counts, detector records and transitions;
:func:`supervised` runs a supervisor over either, through a blinded
panel and a dead lease holder.  ``tests/test_selfheal.py`` calls both,
and :func:`sample`, which runs all three, is a ``benchmarks/reach``
driver (``PYTHONPATH=src:. python -c "import tests.heal_beats_reference
as m; m.sample()"``, ~2 s).  Nothing in the package imports this module.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro import World
from repro.heal.detector import PhiAccrualDetector
from repro.heal.heartbeat import HeartbeatMonitor
from repro.net.fault import (AsymPartitionWindow, CrashWindow, CutWindow,
                             FaultSchedule, FlakyWindow, GrayWindow,
                             PartitionWindow)

#: The supervisor's heartbeat period.
INTERVAL_MS = 20.0


class ReferenceBeats:
    """A heartbeat monitor with one event per send and per arrival."""

    def __init__(self, domain, detector, interval_ms: float = 50.0,
                 home: Optional[str] = None) -> None:
        self.domain = domain
        self.detector = detector
        self.interval_ms = interval_ms
        self.home = home
        self.kind = domain.mint("hb")
        self.observer = ""
        #: endpoint -> the event sending its next beat.
        self._sends: Dict[Tuple[str, str], object] = {}
        #: Beats on their way; a stop drops them.
        self._arrivals: List[object] = []
        self.beats_sent = 0
        self.rehomes = 0
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        addresses = sorted(self.domain.nuclei)
        self.running = True
        self.detector.reset()
        if self.home is not None and self.home in addresses:
            self.observer = self.home
        else:
            self.observer = addresses[0]

    def stop(self) -> None:
        for event in [*self._sends.values(), *self._arrivals]:
            event.cancel()
        self._sends.clear()
        self._arrivals.clear()
        self.running = False

    def watch(self, node: str, capsule: str) -> None:
        key = (node, capsule)
        if key in self._sends:
            return
        self.detector.watch(node, capsule)
        rng = self.domain.network.rng.fork(f"{self.kind}/{node}/{capsule}")
        first = self.domain.scheduler.clock.now + self._phase(node, capsule)
        self._schedule(key, rng, first, 0)

    def watches(self, node: str, capsule: str) -> bool:
        return (node, capsule) in self._sends

    def rehome(self) -> None:
        addresses = sorted(self.domain.nuclei)
        index = addresses.index(self.observer)
        self.observer = addresses[(index + 1) % len(addresses)]
        self.rehomes += 1
        self.detector.reset()

    def _schedule(self, key, rng, first: float, beat: int) -> None:
        self._sends[key] = self.domain.scheduler.at(
            first + beat * self.interval_ms,
            lambda: self._send(key, rng, first, beat), label="hb")

    def _send(self, key, rng, first: float, beat: int) -> None:
        node, capsule = key
        faults, network = self.domain.network.faults, self.domain.network
        self._schedule(key, rng, first, beat + 1)
        self.beats_sent += 1
        if faults.is_crashed(node):
            return
        observer = self.observer
        loss = faults.drop_probability
        link = faults.link_drop(node, observer)
        if link:
            loss = 1.0 - (1.0 - loss) * (1.0 - link)
        if loss and rng.chance(loss):
            faults.drops += 1
            return
        size = len(f"{node}|{capsule}".encode("utf-8"))
        delay = network.latency.delay(node, observer, size) * \
            faults.latency_factor(node, observer)
        leave = first + beat * self.interval_ms
        self._arrivals.append(self.domain.scheduler.at(
            leave + delay, lambda: self._arrive(key, observer), label="hb"))

    def _arrive(self, key, observer: str) -> None:
        faults = self.domain.network.faults
        if faults.link_blocked(key[0], observer):
            faults.drops += 1
        elif observer == self.observer:
            self.detector.observe(*key)

    def _phase(self, node: str, capsule: str) -> float:
        digest = hashlib.sha256(
            f"{self.kind}|{node}|{capsule}".encode("utf-8")).hexdigest()
        return (int(digest[:8], 16) % 9973) / 9973.0 * self.interval_ms


class ArrivalLog(PhiAccrualDetector):
    """A detector that keeps every arrival it books and every transition
    it reports."""

    def __init__(self, clock) -> None:
        super().__init__(clock, expected_interval_ms=INTERVAL_MS)
        self.arrivals = []
        self.transitions = []
        self.on_transition(lambda key, old, new, phi:
                           self.transitions.append((key, old, new, phi)))

    def _arrive(self, node, record, now):
        (key,) = [key for key, mine in self._tracked.items()
                  if mine is record]
        self.arrivals.append((now, key))
        return super()._arrive(node, record, now)


def timeline(monitor_class, read_every: float) -> Dict:
    """One fault timeline with every kind of change a beat meets, read
    every *read_every* ms; returns what the detector and plan saw."""
    world = World(seed=5)
    for name in ("n1", "n2", "n3", "client-node"):
        world.node("org", name)
    domain = world.domain("org")
    world.apply_chaos(FaultSchedule(
        CrashWindow("n2", 100.0, 300.0),
        PartitionWindow((("n3",), ("n1", "n2", "client-node")),
                        400.0, 600.0),
        CutWindow("n1", "client-node", 700.0, 800.0),
        AsymPartitionWindow(("n1",), ("client-node",), 900.0, 1000.0),
        # 30 ms of delay, longer than the 20 ms period.
        GrayWindow(1100.0, 1400.0, 30.0, "n2", "client-node"),
        FlakyWindow(1500.0, 1800.0, 0.3),
        FlakyWindow(1600.0, 1700.0, 0.5, "n3", "client-node"),
        GrayWindow(2050.0, 2200.0, 30.0, "n2", "client-node"),
        # After the rehome at 2,100 ms the observer is n1: a long block,
        # then a quiet stretch, folds many beats at once when read
        # sparsely.
        PartitionWindow((("n3",), ("n1",)), 3000.0, 6050.0),
        # 200 ms of delay: these beats land among the ones sent after;
        # 19 ms: one is in flight when the window closes, and lands
        # before the next.
        GrayWindow(7600.0, 7650.0, 200.0, "n2", "n1"),
        GrayWindow(7600.0, 7650.0, 19.0, "n3", "n1"),
    ))
    detector = ArrivalLog(world.clock)
    monitor = monitor_class(domain, detector, interval_ms=INTERVAL_MS)
    monitor.start()
    for node in sorted(domain.nuclei):
        monitor.watch(node, "gateway")
    monitor.watch("n1", "srv")
    toggles = {
        1900.0: lambda: world.faults.crash_node("n1"),
        1960.0: lambda: world.faults.restart_node("n1"),
        2100.0: monitor.rehome,  # beats in flight to the old observer
        2110.0: lambda: world.faults.partition(["n2"], ["client-node"]),
        2400.0: world.faults.heal_partition,
        2500.0: lambda: monitor.watch("n3", "srv"),
    }
    now = 0.0
    while now < 9000.0:
        now = min(now + read_every, 9000.0)
        for at in sorted(toggles):
            if at <= now:
                world.scheduler.run_until(at)
                toggles.pop(at)()
        world.scheduler.run_until(now)
        detector.poll()
    records = {key: (list(record.intervals), record.last_arrival,
                     record.last_heard, record.arrivals, record.state)
               for key, record in detector._tracked.items()}
    return {"arrivals": sorted(detector.arrivals),
            "transitions": detector.transitions,
            "stats": detector.stats(), "records": records,
            "beats_sent": monitor.beats_sent,
            "drops": world.faults.drops, "observer": monitor.observer}


def compare(read_every: float) -> Dict:
    """The timeline under the streams and under this reference: raises
    unless they agree, and returns what the streams gave."""
    got = timeline(HeartbeatMonitor, read_every)
    want = timeline(ReferenceBeats, read_every)
    mismatched = [key for key in got if got[key] != want[key]]
    if mismatched:
        raise AssertionError(
            f"beat streams differ from the reference, read every "
            f"{read_every} ms, in {mismatched}")
    return got


def sample() -> None:
    """Both read cadences, every 5 ms and every 1.5 s, and the
    supervised scenario."""
    for read_every in (5.0, 1500.0):
        compare(read_every)
    if supervised(HeartbeatMonitor) != supervised(ReferenceBeats):
        raise AssertionError("a supervisor over beat streams acts "
                             "otherwise than over the reference")


def supervised(monitor_class) -> Dict:
    """A supervisor over one monitor class or the other, through faults
    that blind the whole vantage panel (every node cut off from every
    other) and then kill a lease holder that is also the first observer,
    which flushes its cache at its first contact after the revocation;
    returns the heal report and every ``heal.*`` span, without its
    time: the streams report a recovery when the fold that delivers its
    beat runs, the reference when the beat arrives.  The domain has
    no group, singleton or shard to repair, so nothing charges the clock
    while it runs and the reference's events fire on their due times."""
    import repro.heal.supervisor as module
    from tests.conftest import KvStore

    world = World(seed=7)
    for name in ("n1", "n2", "n3", "cli"):
        world.node("org", name)
    domain = world.domain("org")
    ref = world.capsule("n1", "srv").export(KvStore(), interface_id="r.kv")
    domain.leases.register("r.kv", ttl_ms=60_000.0)
    app = world.capsule("cli", "app")
    cache = domain.leases.attach_client(app.nucleus)
    proxy = world.binder_for(app).bind(ref)
    proxy.put("k", "v")
    proxy.get("k")  # cli holds a grant
    world.apply_chaos(FaultSchedule(
        PartitionWindow((("n1",), ("n2",), ("n3",), ("cli",)),
                        300.0, 500.0),
        CrashWindow("cli", 800.0, 1200.0)))
    built, module.HeartbeatMonitor = module.HeartbeatMonitor, monitor_class
    try:
        supervisor = module.Supervisor(domain)
    finally:
        module.HeartbeatMonitor = built
    spans = []
    supervisor._span = lambda name, tags: spans.append((name, dict(tags)))
    supervisor.start()
    world.scheduler.run_until(1600.0)
    report = supervisor.report()
    supervisor.stop()
    # Past the grant's half-life a read renews it: the first contact
    # since the revocation, which makes the holder drop its cache.
    world.clock.advance(30_000.0)
    proxy.get("k")
    return {"report": report, "spans": spans,
            "revocations": domain.leases.revocations,
            "flushes": cache.flushes}
