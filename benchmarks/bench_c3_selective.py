"""C3 — Selective transparency: you pay only for what you select.

Claim (sections 3, 4.5): transparency must be "declarative, selective and
modular"; an unselected transparency contributes no mechanism to the
access path.

Series produced: per-invocation virtual cost and the client and server
stacks for selections of increasing size:
  0: access only (type-check) — the floor,
  1: + location,
  2: + security (guard + MAC verification),
  3: + concurrency (locks + versions),
  4: + failure (write-ahead log + checkpoints).
Expected shape: cost grows monotonically with each selected transparency;
the unselected configuration is not billed for the others, and its client
stack is the transport alone.
"""

from repro import EnvironmentConstraints, FailureSpec, SecuritySpec
from repro.security.policy import SecurityPolicy
from repro.transparency.access import (
    describe_client_stack,
    describe_server_stack,
)

from benchmarks.workloads import Account, two_node_world

INVOCATIONS = 100


def _constraints(level: int) -> EnvironmentConstraints:
    selections = {}
    if level >= 1:
        selections["location"] = True
    if level >= 2:
        selections["security"] = SecuritySpec(policy="bench")
    if level >= 3:
        selections["concurrency"] = True
    if level >= 4:
        selections["failure"] = FailureSpec(checkpoint_every=10)
    return EnvironmentConstraints(
        location=selections.get("location", False),
        concurrency=selections.get("concurrency", False),
        security=selections.get("security"),
        failure=selections.get("failure"),
        federation=False)


def _build(level: int):
    world, servers, clients = two_node_world()
    domain = world.domain("org")
    domain.policies.register(SecurityPolicy("bench", default_allow=True))
    domain.authority.enrol("bench-user")
    constraints = _constraints(level)
    ref = servers.export(Account(10 ** 9), constraints=constraints)
    proxy = world.binder_for(clients).bind(ref, constraints=constraints,
                                           principal="bench-user")
    interface = servers.interfaces[ref.interface_id]
    return world, proxy, interface


def _drive(world, proxy):
    for _ in range(INVOCATIONS):
        proxy.deposit(1)


def claim():
    numbers = {}
    for level in range(5):
        world, proxy, interface = _build(level)
        start = world.now
        _drive(world, proxy)
        numbers[f"level {level}"] = {
            "virtual_ms_per_call": (world.now - start) / INVOCATIONS,
            "client_stack": describe_client_stack(proxy),
            "server_stack": describe_server_stack(interface)}
    costs = [row["virtual_ms_per_call"] for row in numbers.values()]
    client_stacks = [row["client_stack"] for row in numbers.values()]
    # Monotone shape: each selected transparency adds cost; the floor
    # configuration pays for none of them.
    for lower, higher in zip(costs, costs[1:]):
        assert higher >= lower * 0.999
    assert costs[4] > costs[0]
    # The floor's client stack holds no mechanism it did not select.
    assert client_stacks[0] == ["transport"]
    assert client_stacks[1] == ["location", "transport"]
    return numbers, {}
