"""Tests for event channels and the distributed blackboard."""

import pytest

from repro import ReplicationSpec, Signal
from repro.events import Blackboard, EventChannel, Subscriber
from repro.events.channel import export_channel


@pytest.fixture
def channel_setup(trio_domain):
    world, domain, (c1, c2, c3), clients = trio_domain
    channel, channel_ref = export_channel(
        c1, world.binder_for(c1), "market")
    publisher = world.binder_for(clients).bind(channel_ref)
    return world, domain, (c1, c2, c3), clients, channel, publisher


class TestEventChannel:
    def subscribe(self, world, capsule, publisher, prefix):
        subscriber = Subscriber()
        sub_ref = capsule.export(subscriber)
        subscription_id = publisher.subscribe(prefix, sub_ref)
        return subscriber, subscription_id

    def test_publish_reaches_subscriber(self, channel_setup):
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        subscriber, _ = self.subscribe(world, c2, publisher, "")
        publisher.publish("stock.up", {"sym": "ACME", "px": 12})
        world.settle()  # announcements are asynchronous end-to-end
        assert subscriber.topics() == ["stock.up"]
        assert subscriber.events[0][1]["sym"] == "ACME"

    def test_topic_prefix_filtering(self, channel_setup):
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        stocks, _ = self.subscribe(world, c2, publisher, "stock.")
        weather, _ = self.subscribe(world, c3, publisher, "weather.")
        everything, _ = self.subscribe(world, c2, publisher, "")
        for topic in ("stock.up", "weather.rain", "stock.down"):
            publisher.publish(topic, "x")
        world.settle()
        assert stocks.topics() == ["stock.up", "stock.down"]
        assert weather.topics() == ["weather.rain"]
        assert len(everything.topics()) == 3

    def test_unsubscribe_stops_delivery(self, channel_setup):
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        subscriber, subscription_id = self.subscribe(world, c2,
                                                     publisher, "")
        publisher.publish("a", 1)
        world.settle()
        publisher.unsubscribe(subscription_id)
        publisher.publish("b", 2)
        world.settle()
        assert subscriber.topics() == ["a"]
        with pytest.raises(Signal):
            publisher.unsubscribe(subscription_id)

    def test_announcements_follow_a_moved_subscriber(self, channel_setup):
        """The old node forwards an announcement along the forward the
        move left; the hub's stale reference learns nothing from it."""
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        subscriber = Subscriber()
        sub_ref = c2.export(subscriber)
        publisher.subscribe("", sub_ref)
        publisher.publish("e0", 0)
        world.settle()
        domain.migrator.migrate(c2, sub_ref.interface_id, c3)
        for number in range(1, 6):
            publisher.publish(f"e{number}", number)
        world.settle()
        moved = c3.interfaces[sub_ref.interface_id].implementation
        assert moved.topics() == [f"e{number}" for number in range(6)]

    def test_a_subscriber_holding_a_record_payload_moves(self,
                                                         channel_setup):
        """A dict payload arrives as a ``FrozenRecord``; the move's
        snapshot copies the subscriber's state, record and all."""
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        subscriber = Subscriber()
        sub_ref = c2.export(subscriber)
        publisher.subscribe("", sub_ref)
        publisher.publish("e0", {"qty": 1})
        world.settle()
        domain.migrator.migrate(c2, sub_ref.interface_id, c3)
        for number in range(1, 6):
            publisher.publish(f"e{number}", {"qty": number})
        world.settle()
        moved = c3.interfaces[sub_ref.interface_id].implementation
        assert moved.topics() == [f"e{number}" for number in range(6)]
        assert moved.events[0][1]["qty"] == 1

    def test_announcements_follow_a_chain_of_moves(self, channel_setup):
        """Two moves in a row: n2 forwards to n3, n3 to n1."""
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        subscriber = Subscriber()
        sub_ref = c2.export(subscriber)
        publisher.subscribe("", sub_ref)
        domain.migrator.migrate(c2, sub_ref.interface_id, c3)
        publisher.publish("a", 1)
        world.settle()
        domain.migrator.migrate(c3, sub_ref.interface_id, c1)
        publisher.publish("b", 2)
        world.settle()
        moved = c1.interfaces[sub_ref.interface_id].implementation
        assert moved.topics() == ["a", "b"]

    def test_a_cycle_of_forwards_ends_at_the_hop_limit(self, channel_setup):
        """Two capsules that each withdrew the interface toward the
        other bounce an announcement four times, then drop it."""
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        sub_ref = c2.export(Subscriber())
        publisher.subscribe("", sub_ref)
        c2.withdraw(sub_ref.interface_id, forward=sub_ref.with_paths(
            c3.nucleus.access_paths(c3.name)))
        c3.forwards[sub_ref.interface_id] = sub_ref
        publisher.publish("loop", 0)
        world.settle()
        spans = domain.tracer.spans()
        assert sum("forwarded" in span.tags for span in spans) == 4
        assert [span.tags.get("error") for span in spans
                if span.status == "error"] == ["hops"]

    def test_non_subscriber_ref_rejected(self, channel_setup):
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        from tests.conftest import Counter
        not_a_subscriber = c2.export(Counter())
        with pytest.raises(Signal) as exc:
            publisher.subscribe("", not_a_subscriber)
        assert exc.value.name == "not_a_subscriber"

    def test_crashed_subscriber_does_not_break_fanout(self,
                                                      channel_setup):
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        dead, _ = self.subscribe(world, c2, publisher, "")
        alive, _ = self.subscribe(world, c3, publisher, "")
        world.crash_node("n2")
        publisher.publish("t", "v")
        world.settle()
        assert alive.topics() == ["t"]  # best-effort fanout continued
        assert dead.topics() == []

    def test_publish_is_asynchronous(self, channel_setup):
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        subscriber, _ = self.subscribe(world, c2, publisher, "")
        publisher.publish("t", "v")
        # Before settling, nothing has been delivered.
        assert subscriber.events == []
        world.settle()
        assert subscriber.events

    def test_hub_keeps_one_channel_per_subscriber(self, channel_setup):
        """Every bind registers a transport and a relocation layer with
        the hub's nucleus for good: the channel must not bind a fresh
        proxy per subscriber per event."""
        world, domain, (c1, c2, c3), clients, channel, publisher = \
            channel_setup
        stocks, _ = self.subscribe(world, c2, publisher, "stock.")
        everything, _ = self.subscribe(world, c3, publisher, "")
        hub = domain.nuclei["n1"]
        for i in range(200):
            publisher.publish("stock.up" if i % 2 else "weather.rain", i)
        world.settle()
        assert (len(stocks.events), len(everything.events)) == (100, 200)
        assert (len(hub.transports),
                len(hub.relocation_layers)) == (2, 2)


class TestBlackboard:
    def test_post_read_take(self, single_domain):
        world, domain, servers, clients = single_domain
        board = world.binder_for(clients).bind(
            servers.export(Blackboard()))
        board.post(["task", "build", 5])
        board.post(["task", "test", 3])
        board.post(["result", "build", 0])
        assert board.count(["task", None, None]) == 2
        first = board.read(["task", None, None])
        assert first == ("task", "build", 5)
        taken = board.take(["task", None, None])
        assert taken == ("task", "build", 5)
        assert board.count(["task", None, None]) == 1
        assert board.size() == 2

    def test_no_match_signals(self, single_domain):
        world, domain, servers, clients = single_domain
        board = world.binder_for(clients).bind(
            servers.export(Blackboard()))
        with pytest.raises(Signal) as exc:
            board.read(["nothing"])
        assert exc.value.name == "no_match"
        with pytest.raises(Signal):
            board.take(["nothing"])

    def test_wildcards_match_positionally(self, single_domain):
        world, domain, servers, clients = single_domain
        board = world.binder_for(clients).bind(
            servers.export(Blackboard()))
        board.post(["a", 1])
        board.post(["a", 1, "extra"])
        assert board.count(["a", None]) == 1  # arity must match
        assert board.count([None, None, None]) == 1

    def test_replicated_blackboard_survives_crash(self, trio_domain):
        """The paper's point: blackboards ride the group mechanism."""
        world, domain, capsules, clients = trio_domain
        group, gref = domain.groups.create(
            Blackboard, capsules,
            ReplicationSpec(replicas=3, policy="active"))
        board = world.binder_for(clients).bind(gref)
        board.post(["job", 1])
        board.post(["job", 2])
        world.crash_node(group.view.sequencer.node)
        assert board.take(["job", None]) == ("job", 1)
        board.post(["job", 3])
        assert board.count(["job", None]) == 2
        # Survivors agree.
        states = []
        for member in group.view.live_members():
            _, interface = domain.groups._plumbing[
                (group.group_id, member.index)]
            states.append(list(interface.implementation.entries))
        assert states[0] == states[1]

    def test_worker_pool_over_blackboard(self, trio_domain):
        """Classic coordination: producers post, workers take."""
        world, domain, (c1, c2, c3), clients = trio_domain
        board_ref = c1.export(Blackboard())
        binder = world.binder_for(clients)
        done = []

        def producer():
            from repro.sim.activity import Sleep
            board = binder.bind(board_ref)
            for i in range(6):
                board.post(["work", i])
                yield Sleep(2.0)

        def worker(name, poll_ms):
            from repro.sim.activity import Sleep
            board = binder.bind(board_ref)
            idle_rounds = 0
            while idle_rounds < 5:
                try:
                    item = board.take(["work", None])
                    done.append((name, item[1]))
                    idle_rounds = 0
                except Signal:
                    idle_rounds += 1
                yield Sleep(poll_ms)

        world.activities.spawn(producer())
        world.activities.spawn(worker("w1", 7.0))
        world.activities.spawn(worker("w2", 3.0))
        world.activities.run_all()
        # Every item processed exactly once, by some worker.
        assert sorted(item for _, item in done) == [0, 1, 2, 3, 4, 5]
        assert {name for name, _ in done} <= {"w1", "w2"}
