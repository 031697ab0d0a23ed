"""Tests for self-healing supervision (repro.heal).

Failure detection here is *observation-based*: every scenario drives
real heartbeats over the simulated network and asserts that detection,
view changes and repairs follow from silence alone — no test reaches
into the fault plan to tell the platform who died.
"""

import pytest

from repro import ReplicationSpec, World
from repro.check.explorer import CheckConfig, run_seed
from repro.comp.constraints import EnvironmentConstraints, FailureSpec
from repro.comp.invocation import Invocation, QoS
from repro.engine.remote import invoke_at
from repro.errors import (
    EpochFencedError,
    GroupUnavailableError,
    MembershipError,
)
from repro.groups.group import Member
from repro.groups.member import VIEW_KEY
from repro.heal.detector import PHI_CAP, PhiAccrualDetector
from repro.heal.heartbeat import HeartbeatMonitor
from repro.heal.supervisor import Supervisor
from repro.mgmt.placement import placement_candidates
from repro.mgmt.monitor import TransparencyMonitor
from repro.sim.clock import VirtualClock
from tests.conftest import Counter, KvStore
from tests.heal_reference import ReferenceSupervisor


# ---------------------------------------------------------------------------
# The phi-accrual detector in isolation
# ---------------------------------------------------------------------------

class TestPhiAccrualDetector:
    def _steady(self, detector, clock, beats=20, interval=10.0):
        for _ in range(beats):
            clock.advance(interval)
            detector.observe("n1", "srv")

    def test_suspects_on_silence_and_recovers_on_arrival(self):
        clock = VirtualClock()
        detector = PhiAccrualDetector(clock, expected_interval_ms=10.0,
                                      threshold=8.0)
        detector.watch("n1", "srv")
        transitions = []
        detector.on_transition(
            lambda key, old, new, phi: transitions.append((key, old, new)))
        self._steady(detector, clock)
        assert detector.phi("n1", "srv") < 1.0
        assert detector.poll() == []
        clock.advance(12.0)
        assert detector.poll() == []  # one late beat is not a failure
        clock.advance(60.0)
        newly = detector.poll()
        assert [key for key, _ in newly] == [("n1", "srv")]
        assert newly[0][1] > 8.0
        assert not detector.node_alive("n1")
        assert detector.poll() == []  # already suspect: not "newly"
        detector.observe("n1", "srv")  # a beat arrives after all
        assert detector.node_alive("n1")
        assert transitions == [(("n1", "srv"), "alive", "suspect"),
                               (("n1", "srv"), "suspect", "alive")]
        stats = detector.stats()
        assert stats["suspicions"] == 1
        assert stats["recoveries"] == 1
        assert stats["heartbeats_observed"] == 21

    def test_phi_is_capped_for_certain_death(self):
        clock = VirtualClock()
        detector = PhiAccrualDetector(clock, expected_interval_ms=10.0)
        detector.watch("n1", "srv")
        self._steady(detector, clock)
        clock.advance(100_000.0)
        assert detector.phi("n1", "srv") == PHI_CAP

    def test_node_verdicts_aggregate_endpoints(self):
        clock = VirtualClock()
        detector = PhiAccrualDetector(clock, expected_interval_ms=10.0)
        detector.watch("n1", "srv")
        detector.watch("n1", "gateway")
        self._steady(detector, clock)
        clock.advance(80.0)
        detector.observe("n1", "gateway")  # one endpoint still beating
        detector.poll()
        assert detector.node_alive("n1")  # any live endpoint counts

    def test_unknown_nodes_presumed_alive(self):
        clock = VirtualClock()
        detector = PhiAccrualDetector(clock)
        assert detector.node_alive("never-watched")
        detector.observe("never-watched", "srv")  # unsolicited: ignored
        assert detector.stats()["heartbeats_observed"] == 0

    def test_reset_reprimes_everything_alive(self):
        clock = VirtualClock()
        detector = PhiAccrualDetector(clock, expected_interval_ms=10.0)
        detector.watch("n1", "srv")
        self._steady(detector, clock)
        clock.advance(500.0)
        detector.poll()
        assert not detector.node_alive("n1")
        detector.reset()
        assert detector.node_alive("n1")
        assert detector.poll() == []

    def test_validation(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            PhiAccrualDetector(clock, expected_interval_ms=0.0)
        with pytest.raises(ValueError):
            PhiAccrualDetector(clock, threshold=-1.0)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

class TestPlacement:
    def test_candidates_ranked_and_filtered(self):
        world = World(seed=7)
        for name in ("n1", "n2", "n3"):
            world.node("org", name)
        domain = world.domain("org")
        world.capsule("n1", "srv")
        busy = world.capsule("n2", "srv")
        world.capsule("n3", "other")  # wrong capsule: not a candidate
        clients = world.capsule("n3", "clients")
        ref = busy.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        for _ in range(5):
            proxy.increment()

        ranked = placement_candidates(domain, "srv")
        assert [c.nucleus.node_address for _, c in ranked] == ["n1", "n2"]

        assert placement_candidates(domain, "srv",
                                    exclude=("n1",))[0][1] is busy
        assert placement_candidates(
            domain, "srv", liveness=lambda node: node != "n1",
            exclude=("n2",)) == []


# ---------------------------------------------------------------------------
# Supervised worlds
# ---------------------------------------------------------------------------

def heal_world(extra_nodes=0, seed=11):
    world = World(seed=seed)
    names = [f"n{i + 1}" for i in range(3 + extra_nodes)]
    for name in names + ["client-node"]:
        world.node("org", name)
    capsules = {name: world.capsule(name, "srv") for name in names}
    clients = world.capsule("client-node", "clients")
    return world, world.domain("org"), capsules, clients


def build_group(world, domain, capsules, clients, quorum=2):
    spec = ReplicationSpec(replicas=3, policy="active",
                           reply_quorum=quorum)
    group, gref = domain.groups.create(
        KvStore, [capsules[n] for n in ("n1", "n2", "n3")], spec,
        group_id="heal.kv")
    proxy = world.binder_for(clients).bind(gref)
    return group, proxy


def group_states(domain, group):
    states = []
    for member in group.view.live_members():
        _, interface = domain.groups._plumbing[
            (group.group_id, member.index)]
        states.append(dict(interface.implementation.data))
    return states


class TestBeatsAtALiveObserver:
    """What a beat stream never delivers: a beat for an endpoint nobody
    watches, and a beat in flight to an observer since replaced."""

    def _monitor(self):
        world, domain, _, _ = heal_world()
        detector = PhiAccrualDetector(world.clock,
                                      expected_interval_ms=20.0)
        monitor = HeartbeatMonitor(domain, detector, interval_ms=20.0)
        monitor.start()
        monitor.watch("n1", "srv")
        return world, monitor, detector

    def test_an_unknown_endpoint_is_never_observed(self):
        world, monitor, detector = self._monitor()
        world.scheduler.run_until(200.0)
        stats = detector.stats()
        assert stats["watched"] == 1
        assert stats["heartbeats_observed"] == monitor.beats_sent == 10
        for capsule in ("", "nobody", "gateway"):
            detector.observe("n1", capsule)
        assert detector.stats()["heartbeats_observed"] == 10
        assert not monitor.watches("n1", "gateway")

    def test_a_beat_in_flight_to_a_previous_observer_is_ignored(self):
        world, monitor, detector = self._monitor()
        previous = monitor.observer
        # 30 ms on the way, longer than the 20 ms period.
        world.faults.degrade_link("n1", previous, 30.0)
        first = monitor._phase("n1", "srv")
        world.scheduler.run_until(first + 1.0)
        assert monitor.beats_sent == 1
        assert detector.stats()["heartbeats_observed"] == 0
        monitor.rehome()  # while beat 0 is in flight
        assert monitor.observer != previous
        world.scheduler.run_until(first + 20.5)
        assert detector.stats()["heartbeats_observed"] == 0
        world.scheduler.run_until(first + 35.0)  # beat 0 has landed
        assert monitor.beats_sent == 2
        assert detector.stats()["heartbeats_observed"] == 1  # beat 1


@pytest.mark.parametrize("read_every", [5.0, 1500.0])
def test_beat_streams_match_the_per_beat_reference(read_every):
    """Read every 5 ms, each fold is a beat or two; read every 1.5 s,
    one fold sends and delivers many beats of every stream."""
    from tests.heal_beats_reference import compare

    got = compare(read_every)
    stats = got["stats"]
    if read_every < 100.0:
        assert stats["suspicions"] > 0 and stats["recoveries"] > 0
    assert got["drops"] > 0 and got["observer"] != "client-node"


@pytest.mark.parametrize("read_every", [5.0, 1500.0])
def test_verdict_reads_match_the_per_beat_reference(read_every):
    """Read by ``poll()`` and ``node_counts`` alone, a settled monitor
    folds only when a verdict could change, and one exact read at the
    end books what the skipped folds left."""
    from tests.heal_beats_reference import compare

    exact = compare(read_every)
    assert compare(read_every, verdicts=True) == exact


def test_a_supervisor_over_beat_streams_matches_the_per_beat_reference():
    from tests.heal_beats_reference import ReferenceBeats, supervised

    got = supervised(HeartbeatMonitor)
    assert got == supervised(ReferenceBeats)
    assert got["report"]["minority_holds"] > 0  # the panel went blind
    assert got["revocations"] == 1  # the dead holder's grant
    assert got["flushes"] == 1  # ... and its cache, once it is back


class TestSettledMonitor:
    """Verdict reads (``poll()``, ``node_alive``, ``node_counts``) of a
    settled monitor fold no beat stream, and what ends a settled
    stretch."""

    def _monitor(self, monitor_class=HeartbeatMonitor, schedule=None,
                 nodes=None):
        world, domain, _, _ = heal_world()
        if schedule is not None:
            world.apply_chaos(schedule)
        detector = PhiAccrualDetector(world.clock,
                                      expected_interval_ms=20.0)
        monitor = monitor_class(domain, detector, interval_ms=20.0)
        monitor.start()
        for node in nodes or sorted(domain.nuclei):
            monitor.watch(node, "gateway")
        return world, monitor, detector

    def _settled(self, schedule=None):
        world, monitor, detector = self._monitor(schedule=schedule)
        world.scheduler.run_until(200.0)
        detector.stats()  # an exact read: folds, and the monitor settles
        assert detector.quiet_until > world.now
        return world, monitor, detector

    @staticmethod
    def _counting(monkeypatch, monitor):
        """Count the stream folds *monitor* makes."""
        folds = []
        fold = monitor._fold

        def counted(stream, until, recovered):
            folds.append(stream.node)
            fold(stream, until, recovered)

        monkeypatch.setattr(monitor, "_fold", counted)
        return folds

    def test_a_settled_panel_folds_no_stream_across_quiet_ticks(
            self, monkeypatch):
        world, domain, capsules, clients = heal_world()
        build_group(world, domain, capsules, clients)
        supervisor = domain.supervisor
        supervisor.start()
        world.scheduler.run_until(200.0)
        assert supervisor._quiet()
        folds = [self._counting(monkeypatch, monitor)
                 for monitor, _ in supervisor._vantages]
        world.scheduler.run_until(400.0)  # ten quiet ticks
        assert supervisor._quiet()
        assert folds == [[], [], []]
        # An exact read books every beat those ticks left unfolded.
        report = supervisor.report()
        assert [len(made) for made in folds] == [
            len(monitor._streams) for monitor, _ in supervisor._vantages]
        assert report["detector"]["heartbeats_observed"] > 0

    def test_verdict_reads_skip_the_fold_and_exact_reads_fold(
            self, monkeypatch):
        world, monitor, detector = self._settled()
        folds = self._counting(monkeypatch, monitor)
        world.scheduler.run_until(world.now + 100.0)
        assert detector.poll() == []
        assert detector.node_alive("n1")
        assert detector.node_counts() == (4, 0)
        assert folds == []
        assert detector.phi("n1", "gateway") < 1.0
        assert sorted(folds) == sorted(monitor.domain.nuclei)

    @pytest.mark.parametrize("end", [
        "toggle", "watch", "rehome", "attach", "stop"])
    def test_what_ends_a_settled_stretch(self, end):
        from repro.net.fault import CrashWindow, FaultSchedule

        world, monitor, detector = self._settled()
        if end == "toggle":
            world.faults.crash_node("n2")
        elif end == "watch":
            monitor.watch("n1", "srv")
        elif end == "rehome":
            monitor.rehome()
        elif end == "attach":
            world.apply_chaos(FaultSchedule(CrashWindow("n2", 400.0, 600.0)))
        else:
            monitor.stop()
        assert detector.quiet_until == float("-inf")
        if end == "attach":
            # Settled again, it folds before the window opens.
            world.scheduler.run_until(world.now + 40.0)
            detector.node_counts()
            assert world.now < detector.quiet_until <= 400.0

    def test_a_window_transition_ends_a_settled_stretch(self, monkeypatch):
        from repro.net.fault import CrashWindow, FaultSchedule

        world, monitor, detector = self._settled(
            FaultSchedule(CrashWindow("n2", 500.0, 700.0)))
        assert detector.quiet_until <= 500.0
        folds = self._counting(monkeypatch, monitor)
        world.scheduler.run_until(499.0)
        detector.poll()
        assert folds == []
        world.scheduler.run_until(501.0)
        detector.poll()
        # Every stream, up to the transition and then to the clock.
        assert set(folds) == set(monitor.domain.nuclei)

    def test_a_stopped_monitor_leaves_its_endpoints_to_go_suspect(self):
        world, monitor, detector = self._settled()
        monitor.stop()
        world.scheduler.run_until(world.now + 500.0)
        assert len(detector.poll()) == 4

    def test_an_endpoint_no_stream_feeds_keeps_the_monitor_unsettled(
            self):
        """After a restart the detector still has the endpoints watched
        before it; one that is not watched again gets no beat and goes
        suspect, settled streams or not."""
        world, monitor, detector = self._settled()
        monitor.stop()
        monitor.start()
        for node in ("n1", "n2", "n3"):
            monitor.watch(node, "gateway")
        world.scheduler.run_until(world.now + 40.0)
        detector.stats()
        assert detector.quiet_until == float("-inf")
        world.scheduler.run_until(world.now + 500.0)
        assert [key for key, _ in detector.poll()] == [
            ("client-node", "gateway")]

    @staticmethod
    def _suspicions(monitor_class, nodes):
        """Verdict reads every 20 ms through a crash window and a lossy
        window that open inside settled stretches and a crash toggled
        inside another (a crashed or lossy stream unsettles the monitor
        until it is steady again)."""
        from repro.net.fault import CrashWindow, FaultSchedule, FlakyWindow

        world, monitor, detector = TestSettledMonitor()._monitor(
            monitor_class, FaultSchedule(CrashWindow("n2", 1007.0, 1200.0),
                                         FlakyWindow(2003.0, 2900.0, 0.9)),
            nodes)
        toggles = {1500.0: lambda: world.faults.crash_node(nodes[-1]),
                   1600.0: lambda: world.faults.restart_node(nodes[-1])}
        seen, settled = [], []
        for tick in range(1, 150):
            world.scheduler.run_until(tick * 20.0)
            if tick * 20.0 in (1000.0, 1500.0, 2000.0):
                settled.append(detector.quiet_until > world.now)
            if tick * 20.0 in toggles:
                toggles[tick * 20.0]()
            seen.extend((world.now, key, phi) for key, phi in detector.poll())
            detector.node_counts()
        return seen, settled

    @pytest.mark.parametrize("nodes", [("n2",), ("n1", "n2", "n3")])
    def test_a_crash_inside_a_settled_stretch_is_suspected_on_time(
            self, nodes):
        """The same suspicions, at the same tick with the same phi, as
        the reference's, whose every beat is an event."""
        from tests.heal_beats_reference import ReferenceBeats

        seen, settled = self._suspicions(HeartbeatMonitor, nodes)
        assert settled == [True, True, True]
        assert [key for _, key, _ in seen[:2]] == [
            ("n2", "gateway"), (nodes[-1], "gateway")]
        assert seen[0][0] < 1200.0 and 1500.0 < seen[1][0] < 1600.0
        assert any(2000.0 < at < 2900.0 for at, _, _ in seen[2:])
        assert seen == self._suspicions(ReferenceBeats, nodes)[0]


class TestSupervisor:
    def test_crash_detected_from_silence_then_revived_on_restart(self):
        world, domain, capsules, clients = heal_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("a", "1")
        supervisor = domain.supervisor
        supervisor.start()
        world.scheduler.run_until(world.now + 100.0)

        world.crash_node("n2")
        world.scheduler.run_until(world.now + 300.0)
        victim = next(m for m in group.view.members if m.node == "n2")
        assert not victim.alive  # detected from observed silence alone
        assert supervisor.suspicions_raised >= 1
        proxy.put("b", "2")  # group still serves during the outage

        world.restart_node("n2")
        world.scheduler.run_until(world.now + 300.0)
        assert all(m.alive for m in group.view.members)
        assert supervisor.revivals >= 1
        proxy.put("c", "3")
        expected = {"a": "1", "b": "2", "c": "3"}
        assert all(s == expected for s in group_states(domain, group))
        supervisor.stop()

    def test_replacement_regains_full_factor_without_manual_calls(self):
        world, domain, capsules, clients = heal_world(extra_nodes=1)
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("a", "1")
        supervisor = domain.supervisor
        supervisor.start()
        world.scheduler.run_until(world.now + 100.0)

        world.crash_node("n2")
        # No join/revive from the test: the supervisor must detect the
        # silent member, pick the spare via placement and state-transfer
        # a fresh replica onto it.
        world.scheduler.run_until(world.now + 400.0)
        live = group.view.live_members()
        assert len(live) == group.spec.replicas
        assert any(m.node == "n4" for m in live)
        assert supervisor.replacements == 1
        proxy.put("b", "2")
        expected = {"a": "1", "b": "2"}
        assert all(s == expected for s in group_states(domain, group))
        report = supervisor.report()
        assert report["mttr_ms"]["repairs"] >= 1
        assert report["detector"]["heartbeats_observed"] > 0
        supervisor.stop()

    def test_checkpointed_singleton_recovered_and_chased(self):
        world, domain, capsules, clients = heal_world()
        ref = capsules["n1"].export(
            Counter(),
            constraints=EnvironmentConstraints(
                failure=FailureSpec(checkpoint_every=1)),
            interface_id="heal.ctr")
        proxy = world.binder_for(clients).bind(
            ref, qos=QoS(deadline_ms=200.0, retries=2))
        assert proxy.increment() == 1
        assert proxy.increment() == 2
        supervisor = domain.supervisor
        supervisor.start()
        world.scheduler.run_until(world.now + 100.0)

        world.crash_node("n1")
        world.scheduler.run_until(world.now + 300.0)
        assert supervisor.singleton_recoveries == 1
        resolved = domain.relocator.try_lookup("heal.ctr")
        assert resolved.primary_path().node != "n1"
        # The old binding chases the move through location transparency.
        assert proxy.increment() == 3
        supervisor.stop()

    def test_observer_crash_rehomes_and_detection_continues(self):
        world, domain, capsules, clients = heal_world()
        group, proxy = build_group(world, domain, capsules, clients)
        supervisor = domain.supervisor
        supervisor.start()
        world.scheduler.run_until(world.now + 100.0)
        assert supervisor.monitor.observer == "client-node"

        world.crash_node("client-node")
        world.scheduler.run_until(world.now + 300.0)
        assert supervisor.monitor.rehomes >= 1
        assert supervisor.monitor.observer != "client-node"

        world.crash_node("n3")
        world.scheduler.run_until(world.now + 300.0)
        victim = next(m for m in group.view.members if m.node == "n3")
        assert not victim.alive  # still detecting from the new vantage
        supervisor.stop()

    def test_a_reply_loss_armed_under_supervision_hits_the_reply(self):
        """No beat spends a one-shot loss: armed on server -> client, it
        waits for the next reply on that link (a beat from n2 to the
        observer, client-node, took it while beats were messages)."""
        world, domain, capsules, clients = heal_world()
        proxy = world.binder_for(clients).bind(
            capsules["n2"].export(KvStore()), qos=QoS(retries=3))
        proxy.put("k", "v")
        supervisor = domain.supervisor
        supervisor.start()
        assert supervisor.monitor.observer == "client-node"
        world.faults.lose_next("n2", "client-node")
        world.scheduler.run_until(world.now + 100.0)
        resilience = world.nucleus("client-node").resilience
        retries = resilience.retries
        assert proxy.get("k") == "v"  # idempotent: asked again
        assert resilience.retries == retries + 1
        supervisor.stop()

    def test_restart_does_not_hold_the_idle_gap_against_the_fleet(self):
        world, domain, capsules, clients = heal_world()
        supervisor = Supervisor(domain)
        supervisor.start()
        world.scheduler.run_until(world.now + 200.0)
        supervisor.stop()
        world.scheduler.run_until(world.now + 2000.0)
        supervisor.start()
        # Judged at once, before any emitter has beaten again (the
        # first tick comes a heartbeat period later, after every beat).
        assert supervisor.detector.poll() == []
        world.scheduler.run_until(world.now + 200.0)
        # No fault was injected: the silence of the stopped emitters is
        # not evidence, so nothing may be suspected on the first ticks.
        stats = supervisor.detector.stats()
        assert stats["suspicions"] == 0 and stats["recoveries"] == 0
        assert stats["heartbeats_observed"] > 0
        supervisor.stop()

    def test_the_report_after_stop_counts_every_vantage(self):
        world = World(seed=11)
        for name in ("n1", "n2", "n3"):
            world.node("org", name)
        supervisor = world.domain("org").supervisor
        supervisor.start()
        world.scheduler.run_until(world.now + 200.0)
        sent = sum(monitor.beats_sent for monitor, _ in supervisor._vantages)
        supervisor.stop()
        report = supervisor.report()
        assert report["vantage"] == 3
        assert report["beats_sent"] == sent > supervisor.monitor.beats_sent

    def test_members_joined_by_hand_are_watched_on_the_next_tick(self):
        """The supervisor's own replacements watch their member at
        once; a join it did not make is found by the view it installs,
        and a restart re-watches every member."""
        world, domain, capsules, clients = heal_world(extra_nodes=1)
        group, _ = build_group(world, domain, capsules, clients)
        supervisor = Supervisor(domain)
        supervisor.start()
        world.scheduler.run_until(world.now + 100.0)
        member = domain.groups.join(group.group_id, capsules["n4"])
        assert not supervisor.monitor.watches("n4", "srv")
        world.scheduler.run_until(world.now + 25.0)
        assert all(monitor.watches(member.node, member.capsule_name)
                   for monitor, _ in supervisor._vantages)
        supervisor.stop()
        supervisor.start()
        assert all(monitor.watches(m.node, m.capsule_name)
                   for m in group.view.members
                   for monitor, _ in supervisor._vantages)
        supervisor.stop()

    def test_domain_report_surfaces_heal_counters(self):
        world, domain, capsules, clients = heal_world()
        build_group(world, domain, capsules, clients)
        assert "heal" not in TransparencyMonitor(domain).domain_report()
        supervisor = domain.supervisor
        supervisor.start()
        world.crash_node("n2")
        world.scheduler.run_until(world.now + 300.0)
        supervisor.stop()
        report = TransparencyMonitor(domain).domain_report()["heal"]
        assert report["detector"]["heartbeats_observed"] > 0
        assert report["suspicions_raised"] >= 1
        assert report["degraded_ms"] > 0.0

    def test_node_health_judged_by_detector(self):
        from repro.mgmt.nodemanager import ManagementService, NodeManager

        world, domain, capsules, clients = heal_world()
        manager = NodeManager(domain.nuclei["n1"])
        service = ManagementService(manager)
        assert service.node_health() == {}  # no supervisor: no opinion
        supervisor = domain.supervisor
        supervisor.start()
        world.scheduler.run_until(world.now + 100.0)
        world.crash_node("n3")
        world.scheduler.run_until(world.now + 300.0)
        health = service.node_health()
        assert health["n3"] is False
        assert health["n1"] is True and health["client-node"] is True
        supervisor.stop()


# ---------------------------------------------------------------------------
# The quiet tick against the full scan
# ---------------------------------------------------------------------------

class _Recording:
    """Keeps every ``heal.*`` span as ``(name, tags)``, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.heal_spans = []

    def _span(self, name, tags):
        self.heal_spans.append((name, dict(tags)))
        super()._span(name, tags)


class _RecordingReference(_Recording, ReferenceSupervisor):
    pass


class _CheckedSupervisor(_Recording, Supervisor):
    """The production tick, asserting what a quiet verdict promises —
    when it is given and again when the tick ends."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ticks = {True: 0, False: 0}
        self._verdict = False

    def _quiet(self):
        self._verdict = super()._quiet()
        self.ticks[self._verdict] += 1
        if self._verdict:
            self._assert_nobody_dead()
        return self._verdict

    def _poll(self):
        self._verdict = False
        super()._poll()
        if self._verdict:
            self._assert_nobody_dead()

    def _assert_nobody_dead(self):
        assert not any(self._is_blind(detector)
                       for _, detector in self._vantages)
        dead = [node for node in self.domain.nuclei if self.node_dead(node)]
        assert not dead, f"quiet tick with dead nodes {dead}"


_ALL_SIX = (CheckConfig().with_supervisor().with_batching()
            .with_partitions().with_shards().with_leases().with_overload())
#: The composed ledger corpus, then supervised and partitioned-sharded
#: sweeps: every scan the quiet tick skips acts somewhere in these.
_TICK_CORPUS = (
    [(seed, _ALL_SIX) for seed in (0, 3, 4, 5, 7, 8, 9, 10)]
    + [(seed, CheckConfig().with_supervisor()) for seed in range(10)]
    + [(seed, CheckConfig().with_supervisor().with_partitions()
        .with_shards()) for seed in range(10)])


def _supervising(monkeypatch, cls):
    """Make *cls* the supervisor the platform builds; returns the list
    every instance built is appended to."""
    import repro.heal.supervisor as module

    made = []

    def build(*args, **kwargs):
        made.append(cls(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, "Supervisor", build)
    return made


def _supervised_run(monkeypatch, cls, seed, config):
    made = _supervising(monkeypatch, cls)
    result = run_seed(seed, config)
    monkeypatch.undo()
    (supervisor,) = made
    return result, supervisor


def test_quiet_tick_matches_the_full_scan(monkeypatch):
    ticks = {True: 0, False: 0}
    for seed, config in _TICK_CORPUS:
        want, reference = _supervised_run(
            monkeypatch, _RecordingReference, seed, config)
        got, production = _supervised_run(
            monkeypatch, _CheckedSupervisor, seed, config)
        where = f"seed {seed}, {config}"
        assert got.digest == want.digest, where
        assert got.end_state["heal"] == want.end_state["heal"], where
        assert production.heal_spans == reference.heal_spans, where
        assert production._shard_down == reference._shard_down, where
        assert production._down_records == reference._down_records, where
        for verdict, count in production.ticks.items():
            ticks[verdict] += count
    # Both kinds of tick were exercised, and quiet ones are the rule.
    assert ticks[True] > 10 * ticks[False] > 0, ticks


# ---------------------------------------------------------------------------
# Registry regressions (satellites)
# ---------------------------------------------------------------------------

class TestRegistryRegressions:
    def test_revive_unwired_member_raises_membership_error(self):
        world, domain, capsules, clients = heal_world()
        group, _ = build_group(world, domain, capsules, clients)
        group.view.members.append(
            Member(index=99, node="n1", capsule_name="srv",
                   interface_id="heal.kv.m99", layer=None, alive=False))
        with pytest.raises(MembershipError, match="never wired"):
            domain.groups.revive("heal.kv", 99)

    def test_last_survivor_loss_marks_group_unavailable(self):
        world, domain, capsules, clients = heal_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v")
        for name in ("n1", "n2", "n3"):
            world.crash_node(name)
        with pytest.raises(GroupUnavailableError) as excinfo:
            proxy.put("k", "v2")
        assert excinfo.value.retryable  # a back-off-and-rebind signal
        assert not group.available
        with pytest.raises(GroupUnavailableError):
            domain.groups.group_ref(group)
        # Revival restores availability (and binding).
        world.restart_node("n1")
        domain.groups.revive("heal.kv", group.view.members[0].index)
        assert group.available
        assert domain.groups.group_ref(group).paths
        assert proxy.get("k") == "v"


# ---------------------------------------------------------------------------
# Epoch fencing
# ---------------------------------------------------------------------------

class TestEpochFencing:
    def test_stale_view_stamp_is_fenced_not_applied(self):
        world, domain, capsules, clients = heal_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        stale = group.view.number
        domain.groups.suspect("heal.kv", group.view.members[1])
        assert group.view.number > stale
        sequencer = group.view.sequencer
        zombie_write = Invocation(interface_id=sequencer.interface_id,
                                  operation="put", args=("k", "zombie"))
        zombie_write.context.extra[VIEW_KEY] = stale
        with pytest.raises(EpochFencedError):
            invoke_at(clients.nucleus, clients, sequencer.node,
                      sequencer.capsule_name, sequencer.interface_id,
                      zombie_write)
        assert proxy.get("k") == "v0"  # the zombie write never landed

    def test_voted_out_member_is_fenced_even_unstamped(self):
        world, domain, capsules, clients = heal_world()
        group, proxy = build_group(world, domain, capsules, clients)
        proxy.put("k", "v0")
        outcast = group.view.members[2]
        domain.groups.suspect("heal.kv", outcast)
        write = Invocation(interface_id=outcast.interface_id,
                           operation="put", args=("k", "diverged"))
        with pytest.raises(EpochFencedError):
            invoke_at(clients.nucleus, clients, outcast.node,
                      outcast.capsule_name, outcast.interface_id, write)

    def test_fencing_survives_the_wire_and_does_not_mean_dead(self):
        from repro.engine.wire_errors import encode_error, raise_error
        from repro.ndr.codec import Marshaller

        # A fenced error must cross the network as itself: the client
        # catches it *before* the suspect-triggering handlers, so it
        # must not decay into MembershipError (suspect) or a generic
        # GroupError on the way over.
        payload = encode_error(EpochFencedError("view 1 != 2"),
                               Marshaller())
        assert payload["code"] == "fenced"
        with pytest.raises(EpochFencedError):
            raise_error(payload, Marshaller())
        assert not issubclass(EpochFencedError, MembershipError)
        assert issubclass(GroupUnavailableError().__class__, Exception)
        assert encode_error(GroupUnavailableError("gone"),
                            Marshaller())["code"] == "group_unavailable"
