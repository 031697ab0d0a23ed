"""Overlapped client executions on the activity runtime.

Section 4.1: "invocation is asynchronous and many clients may be
attempting to use a service at the same time; concurrency is the norm".
These tests run several logical client threads against shared services
over the virtual clock, checking that overlap is real (interleaved
progress) and that server-side mechanisms serialise what must be
serialised.
"""

import pytest

from repro import EnvironmentConstraints
from repro.sim.activity import Sleep
from tests.conftest import Account, Counter, KvStore


class TestOverlappedClients:
    def test_interleaved_progress(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        counter_ref = c1.export(Counter())
        binder = world.binder_for(clients)
        trace = []

        def client(name, calls):
            proxy = binder.bind(counter_ref)
            for i in range(calls):
                proxy.increment()
                trace.append(name)
                yield Sleep(1.0)

        world.activities.spawn(client("fast", 5))
        world.activities.spawn(client("slow", 5))
        world.activities.run_all()
        # Both made all their calls and their steps interleaved.
        assert trace.count("fast") == 5
        assert trace.count("slow") == 5
        assert trace[:2] in (["fast", "slow"], ["slow", "fast"])
        final = binder.bind(counter_ref)
        assert final.read() == 10

    def test_producer_consumer_via_shared_service(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        kv_ref = c1.export(KvStore())
        binder = world.binder_for(clients)
        consumed = []

        def producer():
            proxy = binder.bind(kv_ref)
            for i in range(5):
                yield Sleep(5.0)
                proxy.put("item", f"v{i}")
            proxy.put("done", "yes")

        def consumer():
            proxy = binder.bind(kv_ref)
            seen = None
            while True:
                yield Sleep(2.0)
                value = proxy.get("item")
                if value and value != seen:
                    seen = value
                    consumed.append(value)
                if proxy.get("done") == "yes":
                    return

        world.activities.spawn(producer())
        world.activities.spawn(consumer())
        world.activities.run_all()
        assert consumed  # overlap actually observed intermediate states
        assert consumed[-1] == "v4"
        assert consumed == sorted(consumed)

    def test_wait_for_coordination(self, trio_domain):
        world, domain, (c1, c2, c3), clients = trio_domain
        flag_ref = c1.export(KvStore())
        binder = world.binder_for(clients)
        order = []

        def leader():
            proxy = binder.bind(flag_ref)
            yield Sleep(20.0)
            order.append("leader-sets")
            proxy.put("go", "now")

        def follower():
            proxy = binder.bind(flag_ref)
            while proxy.get("go") != "now":
                yield Sleep(2.0)
            order.append("follower-runs")

        world.activities.spawn(leader())
        world.activities.spawn(follower())
        world.activities.run_all()
        assert order == ["leader-sets", "follower-runs"]

    def test_many_clients_one_transactional_account(self, trio_domain):
        """Autocommit operations from overlapped activities serialise
        through the concurrency-control layer: no lost updates."""
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Account(0),
                        constraints=EnvironmentConstraints(
                            concurrency=True))
        binder = world.binder_for(clients)

        def depositor(count):
            proxy = binder.bind(ref)
            done = 0
            while done < count:
                from repro.errors import LockBusyError
                try:
                    proxy.deposit(1)
                    done += 1
                except LockBusyError:
                    pass
                yield Sleep(0.5)

        for _ in range(4):
            world.activities.spawn(depositor(10))
        world.activities.run_all()
        assert binder.bind(ref).balance_of() == 40

    def test_virtual_time_reflects_overlap(self, trio_domain):
        """Two clients doing 10 calls each overlap on the virtual clock:
        activities interleave rather than queueing end-to-end."""
        world, domain, (c1, c2, c3), clients = trio_domain
        ref = c1.export(Counter())
        binder = world.binder_for(clients)

        def client():
            proxy = binder.bind(ref)
            for _ in range(10):
                proxy.increment()
                yield Sleep(50.0)  # think time dominates

        start = world.now
        world.activities.spawn(client())
        world.activities.spawn(client())
        world.activities.run_all()
        elapsed = world.now - start
        # Serial execution would need ~2 * 10 * 50ms of think time;
        # overlapped execution needs ~10 * 50ms plus invocation costs.
        assert elapsed < 2 * 10 * 50.0
        assert binder.bind(ref).read() == 20
