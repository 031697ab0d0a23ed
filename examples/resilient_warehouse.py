"""A warehouse that will not die: replication + transactions + recovery.

The inventory is a replica group (active replication, sequencer-based
total order); order processing is transactional across the inventory and
a checkpointed ledger, whose ordering predicate allows one ``record`` per
transaction; nodes are crashed mid-workload and the transparencies mask
everything maskable (paper sections 5.2, 5.3, 5.5).

Run:  python examples/resilient_warehouse.py
"""

from repro import (
    EnvironmentConstraints,
    FailureSpec,
    OdpObject,
    ReplicationSpec,
    Signal,
    World,
    operation,
)
from repro.errors import NoQuorumError, OrderingViolation
from repro.tx.ordering import OrderingPredicate


class Inventory(OdpObject):
    """Replicated stock levels."""

    def __init__(self) -> None:
        self.stock = {"widget": 40, "gadget": 15}

    @operation(params=[str, int], returns=[int],
               errors={"insufficient": [int]})
    def reserve(self, product, quantity):
        available = self.stock.get(product, 0)
        if quantity > available:
            raise Signal("insufficient", available)
        self.stock[product] = available - quantity
        return self.stock[product]

    @operation(params=[str, int], returns=[int])
    def restock(self, product, quantity):
        self.stock[product] = self.stock.get(product, 0) + quantity
        return self.stock[product]

    @operation(params=[str], returns=[int], readonly=True)
    def stock_of(self, product):
        return self.stock.get(product, 0)


class Ledger(OdpObject):
    """Order ledger: transactional + checkpointed."""

    def __init__(self) -> None:
        self.entries = []

    @operation(params=[str, str, int])
    def record(self, order_id, product, quantity):
        self.entries.append((order_id, product, quantity))

    @operation(returns=[int], readonly=True)
    def count(self):
        return len(self.entries)


def main() -> None:
    world = World(seed=99)
    for name in ("wh-1", "wh-2", "wh-3", "office"):
        world.node("logistics", name)
    domain = world.domain("logistics")
    capsules = [world.capsule(n, "services")
                for n in ("wh-1", "wh-2", "wh-3")]
    apps = world.capsule("office", "apps")
    binder = world.binder_for(apps)

    # The inventory: three active replicas behind one group reference.
    group, inventory_ref = domain.groups.create(
        Inventory, capsules,
        ReplicationSpec(replicas=3, policy="active", reply_quorum=2))
    inventory = binder.bind(inventory_ref)

    # The ledger: transactional, checkpoint every 4 writes, and its
    # consistency constraint (section 5.2) is an ordering predicate: a
    # transaction records exactly one order.  It lives on wh-3, away from
    # the group's initial sequencer (wh-1).
    ledger_ref = capsules[2].export(
        Ledger(),
        constraints=EnvironmentConstraints(
            concurrency=True,
            ordering=OrderingPredicate.sequence("record"),
            failure=FailureSpec(checkpoint_every=4)))
    ledger = binder.bind(ledger_ref)

    print(f"group: {group}")
    print(f"initial widget stock: {inventory.stock_of('widget')}")

    # Process orders transactionally: reserve + record, all-or-nothing.
    committed_orders = 0

    def place_order(order_id, product, quantity):
        nonlocal committed_orders

        def order(tx):
            inventory.reserve(product, quantity)
            ledger.record(order_id, product, quantity)

        try:
            domain.tx_manager.atomically(order)
        except Signal as signal:
            return f"rejected ({signal.name}: {signal.values[0]} left)"
        committed_orders += 1
        return "ok"

    for i in range(1, 6):
        print(f"order-{i}: "
              f"{place_order(f'order-{i}', 'widget', 6)}")

    print(f"stock now {inventory.stock_of('widget')}, "
          f"ledger holds {ledger.count()} entries")

    # Crash the sequencer mid-business.  The group fails over; clients
    # never see it.
    victim = group.view.sequencer.node
    print(f"\n*** crashing {victim} (the sequencer) ***")
    world.crash_node(victim)
    print(f"order-6: {place_order('order-6', 'widget', 6)}")
    print(f"view changed to {group.view.number}, "
          f"{len(group.view.live_members())} live members")

    # An oversized order aborts atomically: no ledger entry either.
    before = ledger.count()
    print(f"order-7 (huge): {place_order('order-7', 'widget', 999)}")
    assert ledger.count() == before
    print("atomicity held: rejected order left no ledger entry")

    # Recording one order twice in one transaction breaks the ledger's
    # ordering predicate: the second record is refused and the whole
    # transaction aborts, taking the first record with it.
    def record_twice(tx):
        ledger.record("order-dup", "gadget", 1)
        ledger.record("order-dup", "gadget", 1)

    try:
        domain.tx_manager.atomically(record_twice)
    except OrderingViolation as exc:
        print(f"double record refused: {exc}")
    assert ledger.count() == before
    print("consistency held: the refused transaction left no entry")

    # Crash the ledger's node too; failure transparency recovers it.
    print(f"\n*** crashing wh-3 (holds the ledger) ***")
    world.crash_node("wh-3")
    recovered = domain.recovery.recover(ledger_ref.interface_id,
                                        capsules[1])
    print(f"ledger recovered at {recovered.primary_path().node} with "
          f"{ledger.count()} entries intact")
    # Durability is the commit-time checkpoint: recovery brings back
    # every committed order and nothing an aborted transaction wrote.
    assert ledger.count() == committed_orders

    # With two of three replicas gone, the write quorum (2) is lost —
    # the group refuses writes rather than diverge.
    try:
        place_order("order-8", "widget", 2)
    except NoQuorumError as exc:
        print(f"order-8 refused: {exc}")

    # Membership change to the rescue: a fresh replica joins on the
    # office node, receives a state transfer, and quorum is restored.
    reinforcement = world.capsule("office", "services")
    domain.groups.join(group.group_id, reinforcement)
    print(f"new replica joined; view {group.view.number}, "
          f"{len(group.view.live_members())} live members")
    print(f"order-8 (retry): {place_order('order-8', 'widget', 2)}")
    print(f"final widget stock: {inventory.stock_of('widget')}, "
          f"ledger entries: {ledger.count()}")
    print(f"\nview changes: {group.view_changes}, "
          f"state transfers: {group.state_transfers}, "
          f"recoveries: {domain.recovery.recoveries}")
    print(f"virtual time: {world.now:.2f} ms")


if __name__ == "__main__":
    main()
