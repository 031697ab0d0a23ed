"""The high-throughput invocation layer (repro.perf).

Batching changes the *message* economics without changing the
*invocation* semantics: these tests pin the second half of that
sentence.  A retransmitted batch must not re-execute members, a shed
member must never have executed, the circuit breaker must govern
batches exactly as it governs singles, a batch must cross a federation
gateway transparently, and the trace tree must show one network leg
per batch with per-invocation children — so causal analysis still
works when calls travel in bulk.
"""

import pytest

from repro import QoS, Signal, World
from repro.ndr.formats import get_format
from repro.errors import NodeUnreachableError, ServerBusyError
from repro.federation.proxies import materialize_proxy
from repro.perf import AdmissionController, BatchClient, BatchPolicy
from repro.resilience import BreakerState
from tests.conftest import Account, Counter


def batch_world(**kwargs):
    world = World(**kwargs)
    world.node("org", "s")
    world.node("org", "c")
    servers = world.capsule("s", "srv")
    clients = world.capsule("c", "cli")
    return world, servers, clients


class TestCoalescing:
    def test_size_trigger_flushes_immediately(self):
        world, servers, clients = batch_world(seed=11)
        ref = servers.export(Counter())
        batcher = BatchClient(clients, BatchPolicy(max_batch=2,
                                                   linger_ms=5.0))
        futures = [batcher.call(ref, "increment") for _ in range(2)]
        # max_batch reached: the flush already happened, no linger wait.
        assert sorted(f.result() for f in futures) == [1, 2]
        assert batcher.stats()["flushes_on_size"] == 1
        assert batcher.stats()["flushes_on_linger"] == 0

    def test_linger_timer_flushes_partial_batch(self):
        world, servers, clients = batch_world(seed=11)
        ref = servers.export(Counter())
        batcher = BatchClient(clients, BatchPolicy(max_batch=8,
                                                   linger_ms=0.5))
        futures = [batcher.call(ref, "increment") for _ in range(3)]
        world.scheduler.run_until(world.now + 1.0)
        assert sorted(f.result() for f in futures) == [1, 2, 3]
        assert batcher.stats()["flushes_on_linger"] == 1
        assert batcher.stats()["avg_batch"] == 3.0

    def test_member_outcomes_are_isolated(self):
        """One member signalling does not disturb its batch-mates."""
        world, servers, clients = batch_world(seed=11)
        counter_ref = servers.export(Counter())
        account_ref = servers.export(Account(5))
        batcher = BatchClient(clients)
        first = batcher.call(counter_ref, "increment")
        broke = batcher.call(account_ref, "withdraw", 100)
        second = batcher.call(counter_ref, "increment")
        batcher.flush()
        assert batcher.stats()["batches_sent"] == 1
        assert first.result() == 1
        assert second.result() == 2
        with pytest.raises(Signal) as exc:
            broke.result()
        assert exc.value.name == "overdrawn"


class TestBatchRetry:
    def test_lost_reply_retransmits_without_reexecuting(self):
        """The combined reply is lost after every member executed: the
        whole batch is retransmitted, and the server answers each
        member from its reply cache — exactly-once per member."""
        world, servers, clients = batch_world(seed=11)
        counter = Counter()
        ref = servers.export(counter)
        batcher = BatchClient(clients, qos=QoS(retries=2))
        world.faults.lose_next("s", "c")  # the reply leg
        futures = [batcher.call(ref, "increment") for _ in range(3)]
        batcher.flush()
        assert sorted(f.result() for f in futures) == [1, 2, 3]
        assert counter.value == 3  # not 6: the retry hit the cache
        assert batcher.stats()["retransmits"] == 1
        assert world.nucleus("c").resilience.retries >= 1

    def test_lost_request_retransmits_and_executes_once(self):
        world, servers, clients = batch_world(seed=11)
        counter = Counter()
        ref = servers.export(counter)
        batcher = BatchClient(clients, qos=QoS(retries=2))
        world.faults.lose_next("c", "s")  # the request leg
        futures = [batcher.call(ref, "increment") for _ in range(3)]
        batcher.flush()
        assert sorted(f.result() for f in futures) == [1, 2, 3]
        assert counter.value == 3
        assert batcher.stats()["retransmits"] == 1


class TestBatchBreaker:
    def test_open_breaker_short_circuits_then_half_open_recovers(self):
        world, servers, clients = batch_world(seed=11)
        ref = servers.export(Counter())
        batcher = BatchClient(clients)
        breaker = world.nucleus("c").breakers.breaker_for("s", "rrp")

        world.crash_node("s")
        for _ in range(breaker.failure_threshold):
            future = batcher.call(ref, "increment")
            batcher.flush()
            with pytest.raises(NodeUnreachableError):
                future.result()
        assert breaker.state == BreakerState.OPEN

        # While open, a batch is rejected without touching the network.
        shorted = world.nucleus("c").resilience.breaker_short_circuits
        futures = [batcher.call(ref, "increment") for _ in range(3)]
        batcher.flush()
        for future in futures:
            with pytest.raises(NodeUnreachableError):
                future.result()
        assert world.nucleus("c").resilience.breaker_short_circuits \
            == shorted + 1

        # Half-open: the first batch after the cooldown is the probe.
        world.restart_node("s")
        world.clock.advance(breaker.reset_timeout_ms)
        probe = batcher.call(ref, "increment")
        batcher.flush()
        assert probe.result() == 1
        assert breaker.state == BreakerState.CLOSED


class TestBatchAdmission:
    def test_shed_members_never_execute_and_are_retryable(self):
        world, servers, clients = batch_world(seed=11)
        counter = Counter()
        ref = servers.export(counter)
        world.nucleus("s").admission = AdmissionController(
            world.clock, rate_per_s=100.0, burst=2, max_queue=1)
        batcher = BatchClient(clients, BatchPolicy(max_batch=8),
                              qos=QoS(retries=0))
        futures = [batcher.call(ref, "increment") for _ in range(6)]
        batcher.flush()
        executed, shed = [], []
        for future in futures:
            try:
                executed.append(future.result())
            except ServerBusyError as exc:
                assert exc.retryable
                shed.append(exc)
        # The shed contract: a busy error means zero executions, so
        # the counter saw exactly the admitted members.
        assert counter.value == len(executed)
        assert len(shed) == 3  # burst 2 + queue bound 1, then shed
        assert batcher.stats()["busy_failures"] == 3
        assert world.nucleus("s").admission.shed == 3

        # Re-issuing the shed members later succeeds: retryable means
        # exactly that.
        world.clock.advance(100.0)  # let the bucket refill
        retries = [batcher.call(ref, "increment") for _ in shed]
        batcher.flush()
        for future in retries:
            future.result()
        assert counter.value == 6


class TestBatchFederation:
    def test_batch_crosses_a_federation_gateway(self, two_domains):
        """A batch addressed to a materialised boundary proxy works
        unchanged: the gateway's re-exported interfaces dispatch each
        member, forwarding across the domain boundary — and the beta
        side speaks TAGGED, so this also exercises the tagged batch
        envelope end to end."""
        world, alpha, beta = two_domains
        servers = world.capsule("a1", "srv")
        counter = Counter()
        foreign_ref = servers.export(counter)
        local_ref = materialize_proxy(beta, foreign_ref)
        assert local_ref.primary_path().wire_format == "tagged"
        apps = world.capsule("b1", "apps")
        batcher = BatchClient(apps)
        futures = [batcher.call(local_ref, "increment")
                   for _ in range(3)]
        batcher.flush()
        assert sorted(f.result() for f in futures) == [1, 2, 3]
        assert counter.value == 3
        assert batcher.stats()["batches_sent"] == 1


class TestBatchTracing:
    def test_one_network_leg_with_per_invocation_children(self):
        world, servers, clients = batch_world(seed=11)
        ref = servers.export(Counter())
        batcher = BatchClient(clients)
        futures = [batcher.call(ref, "increment") for _ in range(3)]
        batcher.flush()
        for future in futures:
            future.result()

        tracer = world.domain("org").tracer
        (trace_id,) = tracer.trace_ids()
        spans = list(tracer.spans(trace_id))
        by_id = {span.span_id: span for span in spans}
        names = [span.name for span in spans]
        assert names.count("perf.batch") == 1
        assert names.count("net.request") == 1  # ONE leg for the batch
        assert names.count("perf.invocation") == 3
        assert names.count("server:increment") == 3

        batch = next(s for s in spans if s.name == "perf.batch")
        net = next(s for s in spans if s.name == "net.request")
        assert net.parent_span_id == batch.span_id
        assert net.tags["batch"] == 3
        members = [s for s in spans if s.name == "perf.invocation"]
        assert {m.parent_span_id for m in members} == {batch.span_id}
        # Server spans nest under the member that caused them, not
        # under the batch: causality stays per-invocation.
        member_ids = {m.span_id for m in members}
        for server_span in (s for s in spans
                            if s.name == "server:increment"):
            assert server_span.parent_span_id in member_ids
            assert server_span.tags["batched"] is True
            assert by_id[server_span.parent_span_id].tags["op"] \
                == "increment"


class TestPathCache:
    def test_select_path_is_memoised_per_qos(self, single_domain):
        world, domain, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        transport = proxy._channel.transport
        first = transport._select_path(QoS.DEFAULT)
        assert transport._select_path(QoS.DEFAULT) is first  # memo hit

    def test_rebind_to_a_new_epoch_reselects_and_encodes_it(
            self, single_domain):
        """A rebind to the same interface at a newer epoch (what a
        migration hands out) re-selects paths and puts the new epoch on
        the wire: a plan served from before the rebind would carry the
        old one, and the server's epoch check would refuse it."""
        world, domain, servers, clients = single_domain
        world.node("org", "n3")
        ref = servers.export(Counter())
        proxy = world.binder_for(clients).bind(ref)
        channel, transport = proxy._channel, proxy._channel.transport
        assert proxy.increment() == 1  # warm the path memo and the plan
        old_paths = transport._select_path(QoS.DEFAULT)

        new_ref = domain.migrator.migrate(
            servers, ref.interface_id, world.capsule("n3", "servers"))
        assert new_ref.epoch == ref.epoch + 1
        channel.ref = new_ref  # the rebind
        new_paths = transport._select_path(QoS.DEFAULT)
        assert new_paths is not old_paths
        assert new_paths[0].node == "n3"
        sent = []
        request = world.network.request
        world.network.request = lambda src, dst, payload, **kw: (
            sent.append(payload) or request(src, dst, payload, **kw))
        assert proxy.increment() == 2
        del world.network.request
        wire = get_format(new_paths[0].wire_format)
        assert [wire.loads(p)["inv"]["epoch"] for p in sent] \
            == [new_ref.epoch]

    def test_direct_ref_swap_cannot_serve_stale_paths(self, single_domain):
        """Layers that swap channel.ref without calling rebind() (the
        historical source of the stale-path bug) still get fresh paths:
        the memo is identity-checked against the ref every call."""
        world, domain, servers, clients = single_domain
        proxy = world.binder_for(clients).bind(servers.export(Counter()))
        transport = proxy._channel.transport
        old = transport._select_path(QoS.DEFAULT)
        proxy._channel.ref = servers.export(Counter())  # no rebind()
        assert transport._select_path(QoS.DEFAULT) is not old
