"""Focused unit tests for remaining corners: remote helper, audit
capacity, scheduler self-cancel, skeletons for structured types,
nested reference annotation."""

import pytest

from repro.comp.invocation import Invocation, InvocationKind
from repro.engine.remote import invoke_at
from repro.errors import NodeUnreachableError
from repro.federation.naming import annotate_refs
from repro.idl import check_implements, generate_skeleton, parse_idl
from repro.security.audit import AuditLog
from repro.sim.scheduler import Scheduler
from repro.util.freeze import FrozenRecord
from tests.conftest import Counter


class TestInvokeAt:
    def test_direct_invocation_at_explicit_target(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        invocation = Invocation(ref.interface_id, "increment", ())
        termination = invoke_at(clients.nucleus, clients,
                                "server-node", "servers",
                                ref.interface_id, invocation)
        assert termination.values == (1,)

    def test_announcement_returns_none_and_delivers_later(
            self, single_domain):
        from tests.conftest import Echo
        world, domain, servers, clients = single_domain
        echo = Echo()
        ref = servers.export(echo)
        invocation = Invocation(ref.interface_id, "fire", ("payload",),
                                kind=InvocationKind.ANNOUNCEMENT)
        result = invoke_at(clients.nucleus, clients, "server-node",
                           "servers", ref.interface_id, invocation)
        assert result is None
        assert not hasattr(echo, "last")
        world.settle()
        assert echo.last == "payload"

    def test_crashed_caller_cannot_invoke_even_locally(
            self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        world.crash_node("server-node")
        invocation = Invocation(ref.interface_id, "increment", ())
        with pytest.raises(NodeUnreachableError):
            invoke_at(servers.nucleus, servers, "server-node",
                      "servers", ref.interface_id, invocation)


class TestAuditCapacity:
    def test_oldest_records_roll_off(self):
        log = AuditLog("d")
        log.capacity = 3
        for i in range(5):
            log.record(float(i), f"if-{i}", "op", "alice", True)
        assert len(log) == 3
        remaining = [r.interface_id for r in log.records()]
        assert remaining == ["if-2", "if-3", "if-4"]

    def test_filtering(self):
        log = AuditLog("d")
        log.record(0.0, "i", "op", "alice", True)
        log.record(1.0, "i", "op", "bob", False)
        assert len(log.records(principal="alice")) == 1
        assert len(log.denials()) == 1
        assert log.denials()[0].principal == "bob"


class TestSchedulerSelfCancel:
    def test_repeating_action_can_cancel_itself(self):
        scheduler = Scheduler()
        ticks = []

        def tick():
            ticks.append(scheduler.now)
            if len(ticks) == 3:
                handle.cancel()

        handle = scheduler.every(10.0, tick)
        scheduler.run_until_idle()
        assert len(ticks) == 3


class TestSkeletonStructuredTypes:
    def test_skeleton_with_seq_and_record_params_conforms(self):
        doc = parse_idl("""
            interface Catalogue {
                add(items: seq<record{sku: str, price: int}>) -> (int);
                readonly find(tag: str)
                    -> (seq<str>) | missing();
            }
        """)
        declared = doc["Catalogue"]
        source = generate_skeleton(declared, "CatalogueSkeleton")
        namespace = {}
        exec(compile(source, "<skeleton>", "exec"), namespace)
        assert check_implements(namespace["CatalogueSkeleton"],
                                declared) == []


class TestNestedAnnotation:
    def test_refs_annotated_inside_records_and_tuples(self,
                                                      single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        value = FrozenRecord({
            "plain": 1,
            "nested": (ref, ("deep", ref)),
        })
        out = annotate_refs(value, "org", domain.defined_here)
        assert out["nested"][0].context == ("org",)
        assert out["nested"][1][1].context == ("org",)
        assert out["plain"] == 1
        # The original value is untouched (annotation is functional).
        assert value["nested"][0].context == ()
