"""C7 — Relocation: register changes only; clients repair transparently.

Claims (section 5.4): "relocation mechanisms should only require the
registration of changes in location because the majority of interfaces in
a system can be expected to be temporary and stationary"; stale clients
rebind without application involvement.

Series produced:
  * relocation-registry traffic for a stationary population (should be
    one registration each, zero updates, zero lookups),
  * per-invocation overhead when the server migrates every k
    invocations, k in {2, 5, 10, 50} — the repair amortisation curve,
  * hint-repair vs relocator-lookup repair cost.
Expected shape: stationary objects cost nothing; overhead decays as
migrations get rarer; forward hints beat registry lookups.
"""

from benchmarks.workloads import Counter, n_node_world

CALLS = 100


def _migrating_run(every, leave_forward=True, calls=CALLS):
    world, capsules, clients = n_node_world(3)
    domain = world.domain("org")
    ref = capsules[0].export(Counter())
    proxy = world.binder_for(clients).bind(ref)
    home = 0
    start = world.now
    for i in range(1, calls + 1):
        proxy.increment()
        if every and i % every == 0:
            target = (home + 1) % 3
            domain.migrator.migrate(capsules[home], ref.interface_id,
                                    capsules[target],
                                    leave_forward=leave_forward)
            home = target
    elapsed = world.now - start
    layer = proxy._channel.layers[-1]
    return world, domain, elapsed / calls, layer


def claim():
    world, capsules, clients = n_node_world(2)
    domain = world.domain("org")
    binder = world.binder_for(clients)
    proxies = [binder.bind(capsules[i % 2].export(Counter()))
               for i in range(20)]
    for _ in range(5):
        for proxy in proxies:
            proxy.increment()
    relocator = domain.relocator
    assert relocator.registrations == 20
    assert relocator.updates == 0
    assert relocator.lookups == 0

    baseline = _migrating_run(0)[2]
    per_call = {"stationary": baseline}
    overheads = {}
    for every in (50, 10, 5, 2):
        per_call[f"k={every}"] = _migrating_run(every)[2]
        overheads[every] = per_call[f"k={every}"] - baseline
    assert overheads[2] > overheads[50]

    repair = {}
    for label, forward in (("forward-hint", True),
                           ("relocator-lookup", False)):
        world, domain, ms, layer = _migrating_run(5, leave_forward=forward)
        repair[label] = {"virtual_ms_per_call": ms,
                         "hint_repairs": layer.hint_repairs,
                         "lookup_repairs": layer.lookup_repairs}
    return {"stationary_20_interfaces": {
                "registrations": relocator.registrations,
                "updates": relocator.updates,
                "lookups": relocator.lookups},
            "virtual_ms_per_call_by_migration_interval": per_call,
            "repair_at_k=5": repair}, {}
