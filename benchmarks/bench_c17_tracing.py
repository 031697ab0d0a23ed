"""C17 — Causal tracing: overhead budget and per-layer attribution.

Claim (sections 4.6, 5): a platform that hides distribution must still
let engineers *see* it — "management of the system as a whole" needs
per-invocation visibility into what each transparency mechanism costs.
The ``repro.trace`` subsystem provides that: every invocation carries a
trace context through marshalling, the network, dispatch, interception
and nested calls, and each instrumented layer contributes timed spans.

Observability is only honest if it does not distort what it observes.
This bench pins the overhead story on two ledgers:

* **virtual time** — the platform's own deterministic cost ledger, the
  one every other bench asserts its claims in.  Tracing never advances
  the virtual clock (spans only *read* it); its sole charge is envelope
  growth — the ~30-byte wire context — billed by the bandwidth latency
  model like any other payload byte.  Asserted here: sampling=0 adds
  exactly nothing, and full sampling stays within the 5% budget (it
  lands near 0.01%); under a size-blind fixed-latency model the traced
  and untraced timelines are byte-identical.
* **wall clock** — what the CPython span machinery costs the *simulator
  host* per call.  Reported transparently (interleaved min-of-N), not
  tightly asserted: on a ~0.1 ms/call simulated invocation the span
  objects, ring append and wire carry measure in the tens of percent,
  and the number is dominated by allocator/GC behaviour of the host —
  a property of running the platform *as a simulation*, not a cost the
  modelled platform charges.  A loose tripwire bound guards against
  regressions that would make full sampling pathological.

Also asserted: the per-layer breakdown attributes >= 95% of the
client-perceived end-to-end virtual latency (the span forest has no
gaps — it attributes 100%), two same-seed runs produce byte-identical
span forests (trace ids, timestamps, tags and all), and the sample
trace's critical path runs from the root over ``net.request`` into a
``server:`` span.

Series produced: virtual + wall overhead at sampling 0 and 1, and
per-layer latency tables for a C1-style remote workload and a C3-style
full transparency stack (location + security + concurrency + failure).
"""

import time

from repro import EnvironmentConstraints, FailureSpec, SecuritySpec
from repro.net.latency import FixedLatency
from repro.security.policy import SecurityPolicy

from benchmarks.workloads import Account, Counter, two_node_world

INVOCATIONS = 200
SEED = 17
VIRTUAL_BUDGET_PCT = 5.0   # the C17 acceptance budget, virtual ledger
WALL_TRIPWIRE_PCT = 75.0   # loose host-cost tripwire, see module doc
ATTRIBUTION_FLOOR = 95.0   # % of end-to-end latency spans must cover


def _full_stack_constraints() -> EnvironmentConstraints:
    """C3's deepest stack: every transparency selected (federation off)."""
    return EnvironmentConstraints(
        location=True,
        concurrency=True,
        security=SecuritySpec(policy="bench"),
        failure=FailureSpec(checkpoint_every=10),
        federation=False)


def _remote_world(sampling, seed=SEED, constraints=None, **kwargs):
    """C1-style two-node world with one exported object bound remotely."""
    world, servers, clients = two_node_world(seed=seed, **kwargs)
    tracer = world.domain("org").tracer
    tracer.set_sampling(sampling)
    if constraints is None:
        ref = servers.export(Counter())
    else:
        domain = world.domain("org")
        domain.policies.register(SecurityPolicy("bench", default_allow=True))
        domain.authority.enrol("bench-user")
        ref = servers.export(Account(10 ** 9), constraints=constraints)
    proxy = world.binder_for(clients).bind(ref, principal="bench-user")
    return world, proxy, tracer


def _drive(proxy, ops=INVOCATIONS, op="increment"):
    method = getattr(proxy, op)
    if op == "deposit":
        for _ in range(ops):
            method(1)
    else:
        for _ in range(ops):
            method()


def _virtual_elapsed(sampling, **kwargs):
    world, proxy, _ = _remote_world(sampling, **kwargs)
    start = world.now
    _drive(proxy)
    return world.now - start


def _wall_us_per_call(sampling, rounds=5):
    """Best-of-N wall cost per invocation at the given sampling rate."""
    world, proxy, tracer = _remote_world(sampling)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        _drive(proxy)
        best = min(best, time.perf_counter() - start)
        tracer.clear()
    return best / INVOCATIONS * 1e6


def claim():
    # -- virtual-time overhead (the asserted budget) ----------------------
    v_off = _virtual_elapsed(0.0)
    v_on = _virtual_elapsed(1.0)
    v_pct = (v_on - v_off) / v_off * 100.0
    assert v_pct <= VIRTUAL_BUDGET_PCT, (
        f"full-sampling virtual overhead {v_pct:.3f}% over budget")
    assert _virtual_elapsed(0.0) == v_off  # sampling=0 is deterministic

    f_off = _virtual_elapsed(0.0, latency=FixedLatency(1.0))
    f_on = _virtual_elapsed(1.0, latency=FixedLatency(1.0))
    assert f_on == f_off, "size-blind latency model must see no tracing"

    # -- wall-clock overhead (reported, loosely bounded) ------------------
    wall = {}
    for _ in range(3):  # interleave configs so drift hits both equally
        for rate in (0.0, 1.0):
            sample = _wall_us_per_call(rate)
            wall[rate] = min(wall.get(rate, float("inf")), sample)
    w_pct = (wall[1.0] - wall[0.0]) / wall[0.0] * 100.0
    assert w_pct <= WALL_TRIPWIRE_PCT, (
        f"full-sampling wall overhead {w_pct:.1f}% tripped the"
        f" {WALL_TRIPWIRE_PCT:.0f}% pathological-regression bound")

    # -- per-layer breakdowns ----------------------------------------------
    world, proxy, tracer = _remote_world(1.0)
    _drive(proxy)
    trace_id = tracer.trace_ids()[-1]
    root = tracer.tree(trace_id)
    covered = sum(tracer.breakdown(trace_id).values())
    coverage = 100.0 * covered / root.span.duration_ms
    assert coverage >= ATTRIBUTION_FLOOR, (
        f"spans attribute only {coverage:.1f}% of end-to-end latency")

    _, proxy3, tracer3 = _remote_world(
        1.0, constraints=_full_stack_constraints())
    _drive(proxy3, op="deposit")

    # -- determinism -------------------------------------------------------
    def forest_text():
        _, proxy_n, tracer_n = _remote_world(1.0)
        _drive(proxy_n, ops=20)
        return "\n".join(tracer_n.render(tid) for tid in tracer_n.trace_ids())

    first, second = forest_text(), forest_text()
    assert first == second, "same-seed runs must yield identical forests"

    # The critical path runs from the client's root span over the wire
    # into the server's dispatch.
    names = [span.name for span in tracer.critical_path(trace_id)]
    assert names[0] == root.span.name, names
    assert "net.request" in names, names
    assert any(name.startswith("server:")
               for name in names[names.index("net.request"):]), names
    return {"virtual_ms_bandwidth_model": {"sampling 0": v_off,
                                           "sampling 1": v_on,
                                           "overhead_pct": v_pct},
            "virtual_ms_fixed_latency": {"sampling 0": f_off,
                                         "sampling 1": f_on},
            "layer_self_ms_remote_increments": tracer.layer_breakdown(),
            "layer_self_ms_full_stack_deposits": tracer3.layer_breakdown(),
            "attributed_pct_of_last_call": coverage,
            "critical_path_of_last_call": names}, {
                "us_per_call_sampling_0": wall[0.0],
                "us_per_call_sampling_1": wall[1.0],
                "overhead_pct": w_pct}
