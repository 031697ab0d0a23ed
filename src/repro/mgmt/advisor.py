"""Transparency selection guidelines.

Section 7.4 asks for "management guidelines about when to select
particular transparencies and what kinds of resource management policy
to apply".  The advisor reads the monitors' counters for one interface
and produces concrete, explainable recommendations — the guidelines as
executable policy rather than a manual.

Heuristics (each tagged with its trigger so operators can audit them):

* high lock contention / deadlocks -> consider read_spread replication
  or splitting the interface;
* writes but no failure transparency -> select failure transparency;
* checkpoint cadence far from the write rate -> retune it;
* long idle + active in memory -> select resource transparency;
* guard denials dominate -> review the policy (or the clients);
* remote-heavy read-mostly service -> consider replication for
  availability / co-location migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Recommendation:
    interface_id: str
    action: str
    reason: str
    severity: str = "advice"  # "advice" | "warning"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.interface_id}: {self.action} " \
               f"({self.reason})"


class TransparencyAdvisor:
    """Derives selection guidance from observed mechanism behaviour."""

    #: Share of invocations that met lock contention before the advisor
    #: suggests spreading or splitting the interface.
    contention_threshold = 0.2

    def __init__(self, domain,
                 idle_threshold_ms: float = 30_000.0,
                 replay_backlog_threshold: int = 20) -> None:
        self.domain = domain
        self.idle_threshold_ms = idle_threshold_ms
        self.replay_backlog_threshold = replay_backlog_threshold

    def review_interface(self, capsule, interface) -> List[Recommendation]:
        found: List[Recommendation] = []
        interface_id = interface.interface_id
        constraints = interface.annotations.get("constraints")
        served = max(1, interface.invocations_served)

        concurrency = interface.annotations.get("concurrency_layer")
        if concurrency is not None:
            pressure = (concurrency.busy_rejections
                        + concurrency.deadlocks) / served
            if concurrency.deadlocks > 0:
                found.append(Recommendation(
                    interface_id,
                    "review transaction scopes or lock ordering",
                    f"{concurrency.deadlocks} deadlocks observed",
                    severity="warning"))
            if pressure > self.contention_threshold:
                found.append(Recommendation(
                    interface_id,
                    "consider read_spread replication or splitting the "
                    "interface",
                    f"lock contention on {pressure:.0%} of invocations"))

        checkpoint = interface.annotations.get("checkpoint_layer")
        if checkpoint is None and constraints is not None and \
                constraints.concurrency and served > 10:
            found.append(Recommendation(
                interface_id,
                "select failure transparency",
                "transactional state is volatile: a crash loses it"))
        if checkpoint is not None:
            from repro.recovery.checkpoint import log_key
            backlog = self.domain.repository.log_length(
                log_key(interface_id))
            if backlog > self.replay_backlog_threshold:
                found.append(Recommendation(
                    interface_id,
                    "lower the checkpoint interval",
                    f"{backlog} writes await replay at recovery "
                    f"(interval {checkpoint.spec.checkpoint_every})"))

        guard = interface.annotations.get("guard_layer")
        if guard is not None and guard.denied > guard.allowed:
            found.append(Recommendation(
                interface_id,
                "review the security policy or investigate the callers",
                f"{guard.denied} denials vs {guard.allowed} grants",
                severity="warning"))

        last_used = interface.annotations.get("last_used", 0.0)
        idle = self.domain.scheduler.now - last_used
        if interface.active and idle > self.idle_threshold_ms and \
                (constraints is None or not constraints.resource):
            found.append(Recommendation(
                interface_id,
                "select resource transparency (passivate when idle)",
                f"idle for {idle:.0f} virtual ms yet held in memory"))
        return found

    def review_domain(self) -> List[Recommendation]:
        found: List[Recommendation] = []
        for nucleus in self.domain.nuclei.values():
            for capsule in nucleus.capsules.values():
                for interface in capsule.interfaces.values():
                    found.extend(self.review_interface(capsule, interface))
        return found
