"""Property tests: the detector's kept-current answers against a brute
force scan of its records, and phi against the formula it replaced.

``reference_phi`` is the detector's fit as it was before the window fit
became lazy — two ``sum`` passes per call — and stays here as the
reference every cached or skipped evaluation must agree with, bit for
bit.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.heal.detector import PHI_CAP, PhiAccrualDetector
from repro.heal.supervisor import Supervisor
from repro.sim.clock import VirtualClock


def reference_phi(intervals, elapsed, min_stddev_ms):
    mean = sum(intervals) / len(intervals)
    variance = sum((x - mean) ** 2 for x in intervals) / len(intervals)
    sigma = max(math.sqrt(variance), min_stddev_ms)
    z = (elapsed - mean) / (sigma * math.sqrt(2.0))
    tail = 0.5 * math.erfc(z)
    if tail <= 10.0 ** -PHI_CAP:
        return PHI_CAP
    return -math.log10(tail)


# ---------------------------------------------------------------------------
# (a) any history: verdicts == brute force, phi == reference, poll == both
# ---------------------------------------------------------------------------

NODES = ("n1", "n2", "n3")
endpoints = st.tuples(st.sampled_from(NODES), st.sampled_from(("srv", "gw")))
steps = st.lists(st.one_of(
    st.tuples(st.just("watch"), endpoints),
    st.tuples(st.just("observe"), endpoints),
    st.tuples(st.just("advance"),
              st.floats(min_value=0.0, max_value=120.0)),
    st.tuples(st.just("poll"), st.none()),
    st.tuples(st.just("reset"), st.none()),
), max_size=60)


def _scan(detector):
    """Node verdicts from a scan of every record."""
    records = detector._tracked
    nodes = sorted({node for node, _ in records})
    alive = {node: any(record.state == "alive"
                       for (owner, _), record in records.items()
                       if owner == node)
             for node in nodes}
    suspected = [node for node in nodes if not alive[node]]
    return alive, suspected, len(suspected) * 2 > len(nodes)


def _assert_matches_scan(detector, clock):
    alive, suspected, blind = _scan(detector)
    for node in NODES + ("never-watched",):
        assert detector.node_alive(node) == alive.get(node, True)
    assert detector.suspected_nodes() == suspected
    assert Supervisor._is_blind(detector) == blind
    for (node, capsule), record in detector._tracked.items():
        for now in (clock.now, clock.now + 33.0):
            assert detector.phi(node, capsule, now) == reference_phi(
                record.intervals, now - record.last_arrival,
                detector.min_stddev_ms)


@given(steps, st.sampled_from((0.2, 1.0, 8.0, 16.0)))
@settings(max_examples=300, deadline=None)
def test_index_fit_and_skip_agree_with_a_scan_of_the_records(steps,
                                                              threshold):
    clock = VirtualClock()
    detector = PhiAccrualDetector(clock, expected_interval_ms=20.0,
                                  threshold=threshold, window=8)
    for action, argument in steps:
        if action == "advance":
            clock.advance(argument)
        elif action == "poll":
            expected = [
                key for key, record in sorted(detector._tracked.items())
                if record.state == "alive" and reference_phi(
                    record.intervals, clock.now - record.last_arrival,
                    detector.min_stddev_ms) > threshold]
            assert [key for key, _ in detector.poll()] == expected
        elif action == "reset":
            detector.reset()
        else:
            getattr(detector, action)(*argument)
        _assert_matches_scan(detector, clock)


# ---------------------------------------------------------------------------
# (b) the quiet bound can never hide a suspicion
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                max_size=64),
       st.floats(min_value=0.01, max_value=45.0),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=500, deadline=None)
def test_phi_cannot_top_the_threshold_at_or_below_the_quiet_bound(
        window, threshold, min_stddev_ms, share):
    detector = PhiAccrualDetector(VirtualClock(), threshold=threshold,
                                  min_stddev_ms=min_stddev_ms)
    bound = detector._quiet_ms
    for elapsed in (bound, share * bound, math.nextafter(bound, 0.0)):
        if elapsed >= 0.0:  # the clock never runs backwards
            assert reference_phi(window, elapsed,
                                 min_stddev_ms) <= threshold


def test_quiet_bound_is_tight_enough_to_matter():
    # Defaults of a supervised world: 20 ms beats, threshold 8.  The
    # bound must clear one beat period or poll would skip nothing.
    detector = PhiAccrualDetector(VirtualClock(),
                                  expected_interval_ms=20.0)
    assert 20.0 < detector._quiet_ms < 40.0
