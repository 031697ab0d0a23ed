"""Causal tracing and metrics (paper section 7.4).

These tests pin down the trace subsystem's contract: every invocation
grows a span tree whose self-times decompose the end-to-end virtual
latency with no gaps, the context crosses the wire and federation
boundaries, head sampling is deterministic, and identically-seeded
runs produce byte-identical traces.
"""

import pytest

from repro import (
    EnvironmentConstraints,
    FailureSpec,
    QoS,
    SecuritySpec,
    Signal,
    World,
)
from repro.errors import OdpError
from repro.mgmt.monitor import TransparencyMonitor
from repro.perf import BatchClient
from repro.security.policy import SecurityPolicy
from repro.sim.clock import VirtualClock
from repro.trace import (
    NULL_SPAN,
    TraceCollector,
    TraceContext,
    UNSAMPLED,
)
from repro.trace.metrics import (
    DEFAULT_LATENCY_BOUNDS_MS,
    Histogram,
    MetricsRegistry,
)
from tests.conftest import Account
from tests.conftest import Counter as CounterADT


def two_node_world(**kwargs):
    world = World(**kwargs)
    world.node("org", "s")
    world.node("org", "c")
    return world, world.capsule("s", "srv"), world.capsule("c", "cli")


def remote_call_world(**kwargs):
    world, servers, clients = two_node_world(**kwargs)
    counter = CounterADT()
    proxy = world.binder_for(clients).bind(servers.export(counter))
    return world, counter, proxy


class TestSpanTree:
    def test_remote_call_builds_one_tree(self):
        world, _, proxy = remote_call_world(seed=7)
        assert proxy.increment() == 1
        tracer = world.domain("org").tracer
        (trace_id,) = tracer.trace_ids()
        root = tracer.tree(trace_id)
        assert root.span.name == "invoke:increment"
        names = {node.span.name for node in root.walk()}
        assert {"invoke:increment", "net.request",
                "server:increment", "execute:increment"} <= names
        # Marshalling never advances the virtual clock: it has no span.
        assert "ndr.marshal" not in names

    def test_server_span_nests_under_network_leg(self):
        world, _, proxy = remote_call_world(seed=7)
        proxy.increment()
        tracer = world.domain("org").tracer
        (trace_id,) = tracer.trace_ids()
        by_id = {span.span_id: span for span in tracer.spans(trace_id)}
        server = next(span for span in by_id.values()
                      if span.name == "server:increment")
        assert by_id[server.parent_span_id].name == "net.request"

    def test_breakdown_sums_to_root_duration(self):
        world, _, proxy = remote_call_world(seed=7)
        for _ in range(5):
            proxy.increment()
        tracer = world.domain("org").tracer
        for trace_id in tracer.trace_ids():
            root = tracer.tree(trace_id)
            total = sum(tracer.breakdown(trace_id).values())
            assert total == pytest.approx(root.span.duration_ms, abs=1e-9)

    def test_critical_path_follows_the_network(self):
        world, _, proxy = remote_call_world(seed=7)
        proxy.increment()
        tracer = world.domain("org").tracer
        (trace_id,) = tracer.trace_ids()
        path = [span.name for span in tracer.critical_path(trace_id)]
        assert path[:2] == ["invoke:increment", "net.request"]
        assert "server:increment" in path

    def test_nested_invocation_joins_the_parent_trace(self):
        world, servers, clients = two_node_world(seed=7)
        counter = CounterADT()
        inner_ref = servers.export(counter)
        inner = world.binder_for(servers).bind(inner_ref)

        from repro import OdpObject, operation

        class Relay(OdpObject):
            @operation(returns=[int])
            def poke(self):
                return inner.increment()

        proxy = world.binder_for(clients).bind(servers.export(Relay()))
        assert proxy.poke() == 1
        tracer = world.domain("org").tracer
        # Both the outer poke and the nested increment share one trace.
        (trace_id,) = tracer.trace_ids()
        names = [span.name for span in tracer.spans(trace_id)]
        assert "execute:poke" in names
        assert "invoke:increment" in names
        assert "execute:increment" in names

    def test_retry_records_lost_attempt_and_backoff(self):
        world, counter, proxy = remote_call_world(seed=7)
        world.faults.lose_next("c", "s")  # lose the request leg once
        assert proxy.increment() == 1
        tracer = world.domain("org").tracer
        (trace_id,) = tracer.trace_ids()
        spans = tracer.spans(trace_id)
        lost = [s for s in spans if s.name == "net.request"
                and s.status == "lost"]
        ok = [s for s in spans if s.name == "net.request"
              and s.status == "ok"]
        backoff = [s for s in spans if s.name == "resilience.backoff"]
        assert len(lost) == 1 and len(ok) == 1
        assert lost[0].tags["attempt"] == 0
        assert ok[0].tags["attempt"] == 1
        assert len(backoff) == 1
        assert backoff[0].duration_ms > 0.0

    def test_reply_cache_hit_is_tagged(self):
        world, counter, proxy = remote_call_world(seed=7)
        world.faults.lose_next("s", "c")  # lose the reply leg once
        assert proxy.increment() == 1
        assert counter.value == 1
        tracer = world.domain("org").tracer
        spans = tracer.spans()
        hits = [s for s in spans if s.tags.get("reply_cache") == "hit"]
        assert len(hits) == 1
        assert hits[0].name == "server:increment"


class TestSampling:
    def test_zero_sampling_records_nothing(self):
        world, servers, clients = two_node_world(seed=7)
        world.domain("org").tracer.set_sampling(0.0)
        proxy = world.binder_for(clients).bind(
            servers.export(CounterADT()))
        assert proxy.increment() == 1
        tracer = world.domain("org").tracer
        assert tracer.spans() == []
        assert tracer.traces_started > 0
        assert tracer.traces_sampled == 0

    def test_half_sampling_keeps_every_other_trace(self):
        world, _, proxy = remote_call_world(seed=7)
        tracer = world.domain("org").tracer
        tracer.clear()
        tracer.set_sampling(0.5)
        before = tracer.traces_sampled
        for _ in range(10):
            proxy.increment()
        assert tracer.traces_sampled - before == 5

    def test_sampling_rate_validated(self):
        clock = VirtualClock()
        collector = TraceCollector("d", clock)
        with pytest.raises(ValueError):
            collector.set_sampling(1.5)
        with pytest.raises(ValueError):
            collector.set_sampling(-0.1)

    def test_unsampled_verdict_propagates_to_server(self):
        world, servers, clients = two_node_world(seed=7)
        world.domain("org").tracer.set_sampling(0.0)
        proxy = world.binder_for(clients).bind(
            servers.export(CounterADT()))
        proxy.increment()
        # The wire must not carry a trace, so no server spans either.
        assert world.domain("org").tracer.spans() == []

    def test_unsampled_adds_no_wire_bytes(self):
        sampled = remote_call_world(seed=7)
        unsampled = two_node_world(seed=7)
        unsampled[0].domain("org").tracer.set_sampling(0.0)
        proxy = unsampled[0].binder_for(unsampled[2]).bind(
            unsampled[1].export(CounterADT()))
        sampled[2].increment()
        proxy.increment()
        assert (unsampled[0].network.total_bytes
                < sampled[0].network.total_bytes)


class TestDeterminism:
    def run_scenario(self):
        world, _, proxy = remote_call_world(seed=42)
        world.faults.lose_next("c", "s")
        for _ in range(4):
            proxy.increment()
        tracer = world.domain("org").tracer
        return [tracer.render(tid) for tid in tracer.trace_ids()]

    def test_same_seed_same_traces(self):
        assert self.run_scenario() == self.run_scenario()

    def test_tracing_does_not_perturb_virtual_time(self):
        # Under size-independent latency the only way tracing could
        # alter the virtual timeline is by advancing the clock or
        # drawing randomness itself — it must do neither.  (Under a
        # bandwidth model a sampled trace context does cost its wire
        # bytes, like any other header.)
        from repro.net.latency import FixedLatency
        elapsed = []
        for rate in (0.0, 1.0):
            world, _, proxy = remote_call_world(
                seed=9, latency=FixedLatency(1.0))
            world.domain("org").tracer.set_sampling(rate)
            for _ in range(6):
                proxy.increment()
            elapsed.append(world.now)
        assert elapsed[0] == elapsed[1]


class TestFederation:
    def federated_call(self):
        world = World(seed=3)
        world.node("alpha", "a1")
        world.node("beta", "b1")
        world.link_domains("alpha", "beta")
        servers = world.capsule("b1", "servers")
        clients = world.capsule("a1", "clients")
        ref = servers.export(CounterADT())
        from repro.federation.naming import annotate_refs
        beta = world.federation.domain("beta")
        fref = annotate_refs(ref, "beta", beta.defined_here)
        proxy = world.binder_for(clients).bind(fref)
        assert proxy.increment() == 1
        return world

    def test_trace_id_crosses_the_boundary(self):
        world = self.federated_call()
        alpha = world.domain("alpha").tracer
        beta = world.domain("beta").tracer
        assert alpha.trace_ids() == beta.trace_ids() == ["T1@alpha"]

    def test_gateway_hop_gets_its_own_span(self):
        world = self.federated_call()
        beta = world.domain("beta").tracer
        names = [span.name for span in beta.spans("T1@alpha")]
        assert "federation.gateway" in names
        assert "execute:increment" in names
        alpha_names = [span.name
                       for span in world.domain("alpha").tracer.spans()]
        assert "federation.forward" in alpha_names

    def test_partial_view_renders_in_each_domain(self):
        world = self.federated_call()
        for name in ("alpha", "beta"):
            rendered = world.domain(name).tracer.render("T1@alpha")
            assert rendered.startswith("trace T1@alpha")
            assert len(rendered.splitlines()) > 1


class TestCollectorBounds:
    def test_ring_drops_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(TraceCollector, "capacity", 4)
        clock = VirtualClock()
        collector = TraceCollector("d", clock)
        trace = collector.start_trace()
        for index in range(10):
            collector.span(f"s{index}", "test", trace).finish()
        assert len(collector.spans()) == 4
        assert collector.spans_dropped == 6
        assert collector.spans_recorded == 10
        # Newest survive, oldest went first.
        assert [span.name for span in collector.spans()] == \
            ["s6", "s7", "s8", "s9"]

    def test_double_finish_records_once(self):
        clock = VirtualClock()
        collector = TraceCollector("d", clock)
        trace = collector.start_trace()
        span = collector.span("once", "test", trace)
        span.finish(status="lost")
        span.finish(status="ok")
        (recorded,) = collector.spans()
        assert recorded.status == "lost"
        assert collector.spans_recorded == 1

    def test_null_span_for_missing_parent(self):
        clock = VirtualClock()
        collector = TraceCollector("d", clock)
        assert collector.span("x", "test", None) is NULL_SPAN
        assert collector.span("x", "test", UNSAMPLED) is NULL_SPAN

    def test_wire_roundtrip(self):
        context = TraceContext("T1@d", "S3@d", "S1@d", sampled=True,
                               baggage={"tenant": "a"})
        assert TraceContext.from_wire(context.to_wire()).span_id == "S3@d"
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({"nope": 1}) is None


class TestFoldAsFinished:
    """Each span is folded into its layer's counter and histogram as it
    finishes.  A fold made afterwards, from the ring in finish order,
    gives the same numbers to the last bit."""

    @staticmethod
    def mixed_workload(world):
        """Errors, a retry, a batch, and C3's full transparency stack."""
        world.node("org", "s")
        world.node("org", "c")
        servers, clients = world.capsule("s", "srv"), world.capsule("c", "cli")
        domain = world.domain("org")
        domain.policies.register(SecurityPolicy("fold", default_allow=True))
        domain.authority.enrol("fold-user")
        binder = world.binder_for(clients)
        counter = binder.bind(servers.export(CounterADT()))
        full = binder.bind(servers.export(Account(10), constraints=(
            EnvironmentConstraints(
                location=True, concurrency=True,
                security=SecuritySpec(policy="fold"),
                failure=FailureSpec(checkpoint_every=2),
                federation=False))), principal="fold-user")
        for _ in range(3):
            counter.increment()
            full.deposit(5)
        world.faults.lose_next("c", "s")
        counter.increment()
        with pytest.raises(Signal):
            full.withdraw(1000)
        batcher = BatchClient(clients)
        account_ref = servers.export(Account(1))
        members = [batcher.call(account_ref, "withdraw", amount)
                   for amount in (1, 100, 0)]
        batcher.flush()
        with pytest.raises(Signal):
            members[1].result()
        world.crash_node("s")
        with pytest.raises(OdpError):
            counter.increment()
        return domain.tracer

    def test_inline_fold_equals_a_fold_of_the_ring(self):
        tracer = self.mixed_workload(World(seed=31))
        assert tracer.spans_dropped == 0
        reference = {}
        for span in tracer.spans():  # the ring is in finish order
            reference.setdefault(span.layer, Histogram("reference")) \
                .observe(span.duration_ms)
        assert {"invoke", "net", "server", "execute", "resilience",
                "perf"} <= set(reference)
        assert any(span.status == "error" for span in tracer.spans())
        metrics = tracer.metrics
        assert set(metrics.counters) == {
            f"layer.{layer}.spans" for layer in reference}
        assert set(metrics.histograms) == {
            f"layer.{layer}.ms" for layer in reference}
        for layer, expected in reference.items():
            histogram = metrics.histograms[f"layer.{layer}.ms"]
            assert metrics.counters[f"layer.{layer}.spans"].value \
                == expected.count
            assert histogram.bucket_counts == expected.bucket_counts
            assert histogram.count == expected.count
            assert histogram.total == expected.total  # bit-equal


class TestMetrics:
    def test_histogram_buckets_and_quantiles(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"le_1": 1, "le_10": 2,
                                   "le_100": 3, "le_inf": 4}
        assert histogram.quantile(0.25) == 1.0
        assert histogram.quantile(1.0) == float("inf")

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10.0, 1.0))

    def test_registry_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").value += 1
        registry.counter("a").value += 2
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["a"] == 2
        assert list(snap) == ["counters", "histograms"]


class TestMonitorIntegration:
    def test_domain_report_has_trace_section(self):
        world, _, proxy = remote_call_world(seed=7)
        proxy.increment()
        report = TransparencyMonitor(world.domain("org")).domain_report()
        trace = report["trace"]
        assert trace["traces_sampled"] == 1
        assert trace["spans_recorded"] > 0
        net = trace["layers"]["net"]
        assert net["spans"] == 1
        assert net["total_ms"] > 0.0
        # One span: the mean is its duration, and the p99 is the upper
        # bound of the latency bucket that holds it.
        assert net["mean_ms"] == net["total_ms"]
        assert net["p99_ms"] >= net["mean_ms"]
        assert net["p99_ms"] in DEFAULT_LATENCY_BOUNDS_MS

    def test_no_trace_section_before_first_use(self):
        world = World(seed=7)
        world.node("org", "s")
        report = TransparencyMonitor(world.domain("org")).domain_report()
        assert "trace" not in report
