"""Operating an ODP system: monitor, advise, tune, manage (paper section 7.4).

A small deployment is driven into three distinct pathologies — lock
contention, volatile transactional state, and an over-long checkpoint
interval.  The transparency monitor surfaces the counters, the advisor
turns them into the paper's "management guidelines about when to select
particular transparencies", an event channel announces them to the
operators' node, a blackboard turns them into tickets, and the tuner
applies a fix without restarting anything.  The node manager's
management service — "accessible from other computers, for starting
and stopping servers on its own node" — is then driven from the client
node through ordinary invocations.

Run:  python examples/operations_console.py
"""

from repro import (
    EnvironmentConstraints,
    FailureSpec,
    OdpObject,
    World,
    operation,
)
from repro.errors import LockBusyError
from repro.events import Blackboard, Subscriber
from repro.events.channel import export_channel
from repro.mgmt import (
    NodeManager,
    ServerSpec,
    TransparencyAdvisor,
    TransparencyMonitor,
    TransparencyTuner,
)


class Inventory(OdpObject):
    def __init__(self):
        self.stock = 1000

    @operation(params=[int], returns=[int])
    def reserve(self, n):
        self.stock -= n
        return self.stock

    @operation(returns=[int], readonly=True)
    def level(self):
        return self.stock


def main() -> None:
    world = World(seed=13)
    world.node("ops", "app-node")
    world.node("ops", "client-node")
    domain = world.domain("ops")

    # Declarative deployment through the node manager.
    manager = NodeManager(world.nucleus("app-node"))
    manager.declare(ServerSpec(
        name="inventory", capsule_name="services", factory=Inventory,
        constraints=EnvironmentConstraints(concurrency=True),
        advertise={"kind": "inventory"}))
    manager.declare(ServerSpec(
        name="ledger", capsule_name="services",
        factory=Inventory,
        constraints=EnvironmentConstraints(
            concurrency=True,
            failure=FailureSpec(checkpoint_every=500)),  # way too lazy
        advertise={"kind": "ledger"}))
    manager.boot()
    print(f"booted servers: {manager.status()}")

    clients = world.capsule("client-node", "apps")
    binder = world.binder_for(clients)
    inventory = binder.bind(manager.servers["inventory"].ref)
    ledger = binder.bind(manager.servers["ledger"].ref)

    # Workload: one long transaction causes contention on inventory,
    # and the ledger takes many writes against its lazy checkpointing.
    blocker = domain.tx_manager.begin()
    domain.tx_manager.push_current(blocker)
    inventory.reserve(1)
    domain.tx_manager.pop_current(blocker)
    rejected = 0
    for _ in range(8):
        try:
            inventory.reserve(1)
        except LockBusyError:
            rejected += 1
    blocker.commit()
    for _ in range(40):
        ledger.reserve(1)
    print(f"workload done: {rejected} invocations hit lock contention")

    # --- Monitor ---------------------------------------------------------------
    monitor = TransparencyMonitor(domain)
    report = monitor.interface_report()
    for interface_id, entry in sorted(report.items()):
        if entry["capsule"] != "services":
            continue
        line = f"  {interface_id}: stack={entry['layers']}"
        if "concurrency" in entry:
            line += f" busy={entry['concurrency']['busy']}"
        if "failure" in entry:
            line += f" checkpoints={entry['failure']['checkpoints']}"
        print(line)

    # --- Advise ----------------------------------------------------------------
    advisor = TransparencyAdvisor(domain, replay_backlog_threshold=10,
                                  idle_threshold_ms=1e12)
    print("\nadvisor recommendations:")
    recommendations = advisor.review_domain()
    for recommendation in recommendations:
        print(f"  {recommendation}")

    # --- Announce --------------------------------------------------------------
    # An event channel on the app node re-announces each recommendation
    # to the operators' subscriber on the client node.  Both legs are
    # announcements (section 5.1): nobody waits for a reply.
    operations = world.capsule("app-node", "operations")
    _, alerts_ref = export_channel(operations, world.binder_for(operations),
                                   "alerts")
    alerts = binder.bind(alerts_ref)
    inbox = Subscriber()
    subscription = alerts.subscribe("", clients.export(inbox))
    for recommendation in recommendations:
        alerts.publish(recommendation.severity,
                       {"interface": recommendation.interface_id,
                        "action": recommendation.action})
    world.settle()  # announcements are asynchronous end to end
    print(f"\n{len(inbox.events)} alerts delivered to client-node, "
          f"topics {inbox.topics()}")
    for topic, payload in inbox.events:
        print(f"  [{topic}] {payload['interface']}: {payload['action']}")
    alerts.unsubscribe(subscription)
    print(f"operators unsubscribed; the channel has "
          f"{alerts.subscriber_count()} subscribers")

    # Operators coordinate on a blackboard (section 5.3): every alert
    # becomes a ticket that any operator can read or take.
    board = binder.bind(operations.export(Blackboard()))
    for topic, payload in inbox.events:
        board.post([topic, payload["interface"], payload["action"]])
    print(f"ticket board: {board.size()} open, "
          f"{board.count(['advice', None, None])} of them advice")

    # --- Tune ------------------------------------------------------------------
    tuner = TransparencyTuner(domain)
    ledger_id = manager.servers["ledger"].ref.interface_id
    tuner.set_checkpoint_interval(ledger_id, 5)
    tuner.checkpoint_now(ledger_id)
    print(f"\ntuned the ledger: checkpoint interval -> 5, "
          f"forced a checkpoint "
          f"(log backlog now "
          f"{domain.repository.log_length(f'wal:{ledger_id}')})")
    after = advisor.review_domain()
    print(f"recommendations remaining after tuning: "
          f"{[r.action for r in after] or 'none about the ledger'}")
    closed = board.take([None, ledger_id, None])
    print(f"closed ticket {closed}; still open: "
          f"{board.read([None, None, None])} ({board.size()} left)")
    tuner.set_lease_ttl(5_000.0)
    tuner.set_gc_interval(1_000.0)
    print("tuned the collector: lease TTL -> 5 s, sweep every 1 s")

    # --- Manage, from another node ---------------------------------------------
    # The sweep is periodic now, so the queue never drains: advance
    # virtual time to a point instead of settling.
    management = binder.bind(manager.management_ref)
    print("\nmanagement service on app-node, invoked from client-node:")
    print(f"  servers {management.list_servers()}, "
          f"boots {management.boot_count()}")
    services = world.nucleus("app-node").capsules["services"]
    retired = manager.servers["inventory"].ref.interface_id
    management.stop_server("inventory")
    print(f"  stop_server('inventory') -> running "
          f"{management.is_running('inventory')}")
    world.scheduler.run_until(world.now + 2_000.0)
    fate = "still held" if retired in services.interfaces else "reclaimed"
    print(f"  after {domain.collector.sweeps} sweeps, the closed interface "
          f"is {fate}")
    management.start_server("inventory")
    print(f"  start_server('inventory') -> running "
          f"{management.is_running('inventory')} as "
          f"{manager.servers['inventory'].ref.interface_id}")
    health = management.node_health()
    print(f"  node health: "
          f"{health or 'no verdict (no supervisor runs in this domain)'}")
    network = monitor.network_report()
    print(f"network: {network['messages']} messages, "
          f"{network['bytes']} bytes, {network['drops']} dropped; "
          f"per node {network['per_node']}")

    # The ledger is now crash-safe at its tuned cadence.
    world.node("ops", "spare-node")
    spare = world.capsule("spare-node", "services")
    world.crash_node("app-node")
    domain.recovery.recover(ledger_id, spare)
    print(f"after crash + recovery, ledger level = {ledger.level()}")


if __name__ == "__main__":
    main()
