"""C11 — Distributed garbage collection (section 7.3).

Claims: "only passive objects need be considered - active ones cannot be
garbage by definition"; idle machines "can contribute resources towards
the garbage collection process"; explicit close and archival tiering
bound the cost of abandoned references.

Series produced:
  * sweep cost vs population size (active/passive mix),
  * precision/safety matrix: what a sweep may and may not collect
    (passive+expired yes; active no; passive+leased no; closed yes),
  * reclamation curve: passive population over repeated idle sweeps as
    leases expire.
Expected shape: sweeps are linear in population; safety invariants hold
exactly; the reclamation curve drops to zero.
"""

import time

from repro import EnvironmentConstraints

from benchmarks.workloads import Account, n_node_world

RESOURCE = EnvironmentConstraints(resource=True)


def _population(total, passive_fraction=0.5, leased=False):
    world, capsules, clients = n_node_world(2)
    domain = world.domain("org")
    binder = world.binder_for(clients)
    passive_ids = []
    for i in range(total):
        capsule = capsules[i % 2]
        ref = capsule.export(Account(i), constraints=RESOURCE)
        if leased:
            binder.bind(ref)
        if i < total * passive_fraction:
            domain.passivation.passivate(capsule, ref.interface_id)
            passive_ids.append(ref.interface_id)
    return world, domain, passive_ids


def claim():
    sweeps, wall = {}, {}
    # One untimed sweep of a world of its own first, so the first timed
    # sweep does not pay the interpreter's warm-up.
    world, domain, _ = _population(20)
    world.clock.advance(60_000.0)
    domain.collector.sweep()
    for total in (20, 100, 400):
        world, domain, passive = _population(total)
        world.clock.advance(60_000.0)
        begin = time.perf_counter()
        report = domain.collector.sweep()
        wall[f"sweep_ms_population_{total}"] = \
            (time.perf_counter() - begin) * 1000
        sweeps[total] = {"examined": report.examined,
                         "collected": len(report.collected)}
        assert len(report.collected) == len(passive)

    world, capsules, clients = n_node_world(2)
    domain = world.domain("org")
    binder = world.binder_for(clients)

    active_ref = capsules[0].export(Account(1), constraints=RESOURCE)
    passive_expired = capsules[0].export(Account(2), constraints=RESOURCE)
    passive_leased = capsules[0].export(Account(3), constraints=RESOURCE)
    closed_ref = capsules[0].export(Account(4))

    binder.bind(passive_expired)
    domain.passivation.passivate(capsules[0],
                                 passive_expired.interface_id)
    domain.passivation.passivate(capsules[0],
                                 passive_leased.interface_id)
    capsules[0].close(closed_ref.interface_id)
    world.clock.advance(20_000.0)  # expire the first lease
    leased_proxy = binder.bind(passive_leased)  # fresh lease now
    report = domain.collector.sweep()

    # Active: kept; passive with its leases expired: collected; passive
    # with a live lease: kept; explicitly closed: reclaimed.
    for verdict in (active_ref.interface_id not in report.collected,
                    passive_expired.interface_id in report.collected,
                    passive_leased.interface_id not in report.collected,
                    closed_ref.interface_id in report.closed_reclaimed):
        assert verdict
    # The leased passive object is still usable after the sweep.
    assert leased_proxy.balance_of() == 3

    world, domain, passive = _population(40, passive_fraction=1.0,
                                         leased=True)
    domain.collector.start_sweeping(interval_ms=5_000.0)
    remaining = []
    for _ in range(5):
        world.scheduler.run_until(world.now + 5_000.0)
        live = sum(1 for capsule in domain.nuclei["node-0"].capsules.values()
                   for _ in capsule.interfaces)
        live += sum(1 for capsule in domain.nuclei["node-1"].capsules.values()
                    for _ in capsule.interfaces)
        remaining.append(live)
    domain.collector.stop_sweeping()
    assert remaining[-1] == 0  # everything reclaimed once leases lapsed
    return {"sweep_by_population": sweeps,
            "passive_remaining_per_sweep_epoch": remaining}, wall
