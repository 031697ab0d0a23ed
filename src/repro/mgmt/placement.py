"""Placement: where a replica or a recovered object should go.

Section 5.4 names load balancing among the reasons interfaces move, and
section 3 lists "migration of programs or data to balance loads".  The
move itself is the migrator's (clients repair through location
transparency, none the wiser); this module is the policy heal uses to
pick the target: a node the domain's own health judgment calls alive,
least loaded first.
"""

from __future__ import annotations


def observed_liveness(domain):
    """The domain's default node-health judgment, or ``None``.

    The same source of truth ``ManagementService.node_health`` reports
    from: the running supervisor's observation-based verdicts (the
    vantage panel).  Liveness is judged from observed behaviour, never
    from fault-plan ground truth — and with no running supervisor there
    simply is no opinion.
    """
    if domain is None or getattr(domain, "_supervisor", None) is None:
        return None
    supervisor = domain.supervisor
    if not supervisor.running:
        return None
    return supervisor.node_alive


def placement_candidates(domain, capsule_name: str, liveness=None,
                         exclude=()):
    """Healthy placement targets for a replica or recovered object.

    Returns ``[(nucleus, capsule), ...]`` for every node that hosts a
    *capsule_name* capsule, is not in *exclude*, and is alive according
    to *liveness* (a ``node_address -> bool`` callable — typically the
    supervisor's failure detector; liveness is judged from observed
    behaviour, never from fault-plan ground truth).  When *liveness* is
    omitted it defaults to :func:`observed_liveness`, so placement
    never targets a node the domain's own health judgment calls dead or
    suspect.  Candidates are ordered least-loaded first (total
    invocations served across the capsule's interfaces, plus the
    outstanding lease grants against them — every write a node hosts
    fans invalidations out to its interfaces' cache holders, so lease
    demand is load the invocation counters alone understate), ties
    broken by address for determinism.
    """
    if liveness is None:
        liveness = observed_liveness(domain)
    leases = getattr(domain, "_leases", None)
    candidates = []
    for address in sorted(domain.nuclei):
        if address in exclude:
            continue
        if liveness is not None and not liveness(address):
            continue
        nucleus = domain.nuclei[address]
        capsule = nucleus.capsules.get(capsule_name)
        if capsule is None:
            continue
        load = sum(interface.invocations_served
                   for interface in capsule.interfaces.values())
        if leases is not None:
            load += leases.node_lease_load(capsule)
        candidates.append((load, address, nucleus, capsule))
    candidates.sort(key=lambda entry: (entry[0], entry[1]))
    return [(nucleus, capsule) for _, _, nucleus, capsule in candidates]
