"""C1 — Direct local access vs. the full channel (paper section 4.5).

Claim: "a simplistic implementation of abstract data types would be very
inefficient, because of the amount of indirection implied ... direct
local access can be used for co-located data - trading off flexibility
and portability against performance."

Series produced: per-invocation cost (virtual ms and wall time) for
  * co-located with the direct-local-access optimisation,
  * co-located but forced through marshalling + loopback network,
  * genuinely remote.
Expected shape: local << forced-full-stack ~= remote.  The loopback
and the remote call walk the same stack and pay the same propagation
delay; they differ only by the network's per-byte charge on the few
bytes by which the two client capsules' names differ in the request.
"""

from repro import EnvironmentConstraints

from benchmarks.workloads import as_report, Counter, two_node_world, write_report

INVOCATIONS = 200


def _co_located(allow_local):
    world, servers, clients = two_node_world()
    neighbours = world.capsule("server-node", "neighbours")
    ref = servers.export(Counter())
    proxy = world.binder_for(neighbours).bind(
        ref,
        constraints=EnvironmentConstraints(
            allow_local_shortcut=allow_local))
    return world, proxy


def _remote():
    world, servers, clients = two_node_world()
    ref = servers.export(Counter())
    proxy = world.binder_for(clients).bind(ref)
    return world, proxy


def _drive(world_proxy):
    world, proxy = world_proxy
    for _ in range(INVOCATIONS):
        proxy.increment()


def test_c1_local_shortcut(benchmark):
    benchmark.group = "C1 invocation path"
    benchmark(lambda: _drive(_co_located(allow_local=True)))


def test_c1_full_stack_loopback(benchmark):
    benchmark.group = "C1 invocation path"
    benchmark(lambda: _drive(_co_located(allow_local=False)))


def test_c1_remote(benchmark):
    benchmark.group = "C1 invocation path"
    benchmark(lambda: _drive(_remote()))


def test_c1_report(benchmark):
    as_report(benchmark, lambda: _report())


def _report():
    """Virtual-cost series + the claim's expected shape."""
    rows = []
    results = {}
    for label, build in (("local-shortcut",
                          lambda: _co_located(True)),
                         ("full-stack-loopback",
                          lambda: _co_located(False)),
                         ("remote", _remote)):
        world, proxy = build()
        start = world.now
        messages = world.network.total_messages
        _drive((world, proxy))
        virtual_ms = (world.now - start) / INVOCATIONS
        per_call_msgs = (world.network.total_messages
                         - messages) / INVOCATIONS
        results[label] = virtual_ms
        rows.append(f"{label:>22}: {virtual_ms:8.4f} virtual ms/call, "
                    f"{per_call_msgs:.1f} msgs/call")
    path = write_report(
        "C1", "direct local access vs full channel (section 4.5)", rows)

    # The claim's shape: indirection through the full stack costs real
    # time; the co-located optimisation removes essentially all of it.
    assert results["local-shortcut"] < 0.01
    assert results["full-stack-loopback"] > \
        results["local-shortcut"] * 10
    assert abs(results["remote"] - results["full-stack-loopback"]) < \
        0.001 * results["remote"]
