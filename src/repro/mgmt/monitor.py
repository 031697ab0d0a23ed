"""Transparency monitoring.

Collects the counters every mechanism layer already maintains into one
management snapshot — "identification of points where network and system
management information can contribute to the provision of transparency"
(section 7.4).  Pure read-side: it never perturbs the mechanisms.
"""

from __future__ import annotations

from typing import Any, Dict


class TransparencyMonitor:
    """Domain-wide snapshot of transparency-mechanism activity."""

    def __init__(self, domain) -> None:
        self.domain = domain

    def interface_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-interface mechanism counters across all capsules."""
        report: Dict[str, Dict[str, Any]] = {}
        for nucleus in self.domain.nuclei.values():
            for capsule in nucleus.capsules.values():
                for interface in capsule.interfaces.values():
                    entry: Dict[str, Any] = {
                        "node": nucleus.node_address,
                        "capsule": capsule.name,
                        "state": interface.state.value,
                        "epoch": interface.epoch,
                        "served": interface.invocations_served,
                        "layers": [
                            layer.name for layer in
                            interface.annotations.get("server_layers", [])
                        ],
                    }
                    guard = interface.annotations.get("guard_layer")
                    if guard is not None:
                        entry["guard"] = {"allowed": guard.allowed,
                                          "denied": guard.denied}
                    concurrency = interface.annotations.get(
                        "concurrency_layer")
                    if concurrency is not None:
                        entry["concurrency"] = {
                            "transactional": concurrency.transactional_ops,
                            "autocommit": concurrency.autocommit_ops,
                            "deadlocks": concurrency.deadlocks,
                            "busy": concurrency.busy_rejections,
                        }
                    checkpoint = interface.annotations.get(
                        "checkpoint_layer")
                    if checkpoint is not None:
                        entry["failure"] = {
                            "checkpoints": checkpoint.checkpoints_taken,
                            "logged": checkpoint.entries_logged,
                        }
                    report[interface.interface_id] = entry
        return report

    def domain_report(self) -> Dict[str, Any]:
        """Domain-service counters: relocation, trading, tx, security..."""
        domain = self.domain
        report: Dict[str, Any] = {"domain": domain.name}
        if domain._relocator is not None:
            relocator = domain.relocator
            report["relocation"] = {
                "known": relocator.known(),
                "registrations": relocator.registrations,
                "updates": relocator.updates,
                "lookups": relocator.lookups,
                "misses": relocator.misses,
                "repairs": relocator.stale_hints + relocator.chases,
                "stale_hints": relocator.stale_hints,
                "chases": relocator.chases,
            }
        if domain._tx_manager is not None:
            manager = domain.tx_manager
            report["transactions"] = {
                "begun": manager.begun,
                "committed": manager.committed,
                "aborted": manager.aborted,
                "control_messages": manager.control_messages,
            }
        if domain._trader is not None:
            trader = domain.trader
            report["trading"] = {
                "offers": trader.offer_count(),
                "exports": trader.exports,
                "imports": trader.imports,
                "link_traversals": trader.link_traversals,
            }
        if domain._authority is not None:
            authority = domain.authority
            report["security"] = {
                "verifications": authority.verifications,
                "rejections": authority.rejections,
                "audit_records": len(domain.audit),
            }
        if domain._migrator is not None:
            report["migration"] = {
                "migrations": domain.migrator.migrations,
                "refusals": domain.migrator.refusals,
            }
        if domain._recovery is not None:
            report["recovery"] = {
                "recoveries": domain.recovery.recoveries,
                "replayed": domain.recovery.replayed_entries,
            }
        if domain._collector is not None:
            collector = domain.collector
            report["gc"] = {
                "sweeps": collector.sweeps,
                "collected": collector.total_collected,
                "lease_grants": collector.leases.grants,
                "lease_renewals": collector.leases.renewals,
            }
        if domain._groups is not None:
            report["groups"] = {
                "suspicions": domain.groups.suspicions,
            }
            partitions = dict(domain.groups.partition_stats())
            if domain._supervisor is not None:
                supervisor = domain.supervisor
                merges = supervisor.reconciliation_mttr_ms
                partitions["minority_holds"] = supervisor.minority_holds
                partitions["partition_merges"] = \
                    supervisor.partition_merges
                partitions["reconciliation_mttr_ms"] = {
                    "merges": len(merges),
                    "mean": (round(sum(merges) / len(merges), 3)
                             if merges else 0.0),
                    "max": round(max(merges), 3) if merges else 0.0,
                }
            report["partitions"] = partitions
        if domain._shards is not None:
            report["shard"] = domain.shards.report()
        if domain._leases is not None:
            lease = dict(domain.leases.report())
            clients = {"clients": 0, "hits": 0, "misses": 0, "fills": 0,
                       "skipped_fills": 0, "expired": 0,
                       "invalidations": 0, "flushes": 0,
                       "acquire_failures": 0, "renewals_skipped": 0,
                       "entries": 0}
            for holder in sorted(domain.leases.clients):
                stats = domain.leases.clients[holder].stats()
                clients["clients"] += 1
                for key in ("hits", "misses", "fills", "skipped_fills",
                            "expired", "invalidations", "flushes",
                            "acquire_failures", "renewals_skipped",
                            "entries"):
                    clients[key] += stats[key]
            lease["cache"] = clients
            report["lease"] = lease
        if domain._supervisor is not None:
            report["heal"] = domain.supervisor.report()
        report["resilience"] = self.resilience_report()
        report["perf"] = self.perf_report()
        report["overload"] = self.overload_report()
        if domain._tracer is not None:
            report["trace"] = self.trace_report()
        return report

    def perf_report(self) -> Dict[str, Any]:
        """Throughput machinery counters: admission control and
        invocation batchers across the domain's nuclei.  (The codec plan
        table's ``hits`` / ``misses`` are process-wide.)"""
        admission = {"controllers": 0, "admitted": 0, "queued": 0,
                     "shed": 0, "max_depth": 0, "total_wait_ms": 0.0}
        batching = {"batchers": 0, "calls": 0, "batches_sent": 0,
                    "invocations_batched": 0, "retransmits": 0,
                    "busy_failures": 0}
        busy_retries = 0
        for nucleus in self.domain.nuclei.values():
            controller = nucleus.admission
            if controller is not None:
                stats = controller.stats()
                admission["controllers"] += 1
                admission["admitted"] += stats["admitted"]
                admission["queued"] += stats["queued"]
                admission["shed"] += stats["shed"]
                admission["max_depth"] = max(admission["max_depth"],
                                             stats["max_depth"])
                admission["total_wait_ms"] += stats["total_wait_ms"]
            totals = nucleus.batching
            batching["batchers"] += totals.batchers
            batching["calls"] += totals.calls
            batching["batches_sent"] += totals.batches_sent
            batching["invocations_batched"] += totals.invocations_batched
            batching["retransmits"] += totals.retransmits
            batching["busy_failures"] += totals.busy_failures
            busy_retries += nucleus.resilience.busy_retries
        return {"admission": admission, "batching": batching,
                "busy_retries": busy_retries}

    def overload_report(self) -> Dict[str, Any]:
        """Overload-robustness counters: deadline-gate sheds, per-class
        admission/shed tallies, brownout state and retry-budget balance
        across the domain's nuclei.  Always present (zeros when the
        machinery is idle) so dashboards need no existence checks."""
        gate = {"expired_on_arrival": 0, "expired_post_queue": 0}
        classes = {"class_admitted": [0, 0, 0, 0],
                   "class_shed": [0, 0, 0, 0],
                   "brownout_shed": 0}
        brownout = {"level": 0, "escalations": 0, "relaxations": 0}
        budgets = {"paths": 0, "first_attempts": 0,
                   "retries_granted": 0, "retries_denied": 0,
                   "balance": 0.0}
        expired_evictions = 0
        for nucleus in self.domain.nuclei.values():
            stats = nucleus.deadline_gate.stats()
            gate["expired_on_arrival"] += stats["expired_on_arrival"]
            gate["expired_post_queue"] += stats["expired_post_queue"]
            controller = nucleus.admission
            if controller is not None:
                per_class = controller.class_stats()
                for i in range(4):
                    classes["class_admitted"][i] += \
                        per_class["admitted"][i]
                    classes["class_shed"][i] += per_class["shed"][i]
                classes["brownout_shed"] += per_class["brownout_shed"]
                if controller.brownout is not None:
                    b_stats = controller.brownout.stats()
                    brownout["level"] = max(brownout["level"],
                                            b_stats["level"])
                    brownout["escalations"] += b_stats["escalations"]
                    brownout["relaxations"] += b_stats["relaxations"]
            totals = nucleus.retry_budgets.totals()
            budgets["paths"] += totals["paths"]
            budgets["first_attempts"] += totals["first_attempts"]
            budgets["retries_granted"] += totals["retries_granted"]
            budgets["retries_denied"] += totals["retries_denied"]
            for snapshot in nucleus.retry_budgets.snapshot().values():
                budgets["balance"] += snapshot["tokens"]
            expired_evictions += nucleus.reply_cache.expired_evictions
        budgets["balance"] = round(budgets["balance"], 6)
        return {"deadline_gate": gate, "classes": classes,
                "brownout": brownout, "retry_budgets": budgets,
                "expired_reply_evictions": expired_evictions}

    def trace_report(self) -> Dict[str, Any]:
        """Causal-tracing snapshot: collector counters plus the
        per-layer span counts and latency distributions (total, mean
        and the bucket-bound p99 of each layer's span durations)."""
        tracer = self.domain.tracer
        report: Dict[str, Any] = tracer.stats()
        layers: Dict[str, Any] = {}
        metrics = tracer.metrics
        for name, value in metrics.snapshot()["counters"].items():
            if name.startswith("layer.") and name.endswith(".spans"):
                layer = name[len("layer."):-len(".spans")]
                layers.setdefault(layer, {})["spans"] = value
        for name, histogram in metrics.histograms.items():
            if name.startswith("layer.") and name.endswith(".ms"):
                layer = name[len("layer."):-len(".ms")]
                entry = layers.setdefault(layer, {})
                entry["total_ms"] = histogram.total
                entry["mean_ms"] = histogram.mean
                entry["p99_ms"] = histogram.quantile(0.99)
        report["layers"] = layers
        return report

    def resilience_report(self) -> Dict[str, Any]:
        """Aggregate the resilience layer's counters across the domain:
        retries, backoff waits, breaker activity, suppressed duplicates."""
        totals: Dict[str, Any] = {
            "retries": 0,
            "backoff_wait_ms": 0.0,
            "path_failovers": 0,
            "breaker_short_circuits": 0,
            "breaker_trips": 0,
            "breaker_rejections": 0,
            "breakers_open": 0,
            "duplicates_suppressed": 0,
            "replies_cached": 0,
            "reply_cache_evictions": 0,
        }
        for nucleus in self.domain.nuclei.values():
            stats = nucleus.resilience
            totals["retries"] += stats.retries
            totals["backoff_wait_ms"] += stats.backoff_wait_ms
            totals["path_failovers"] += stats.path_failovers
            totals["breaker_short_circuits"] += \
                stats.breaker_short_circuits
            breakers = nucleus.breakers.snapshot()
            totals["breaker_trips"] += breakers["trips"]
            totals["breaker_rejections"] += breakers["rejections"]
            totals["breakers_open"] += breakers["open"]
            cache = nucleus.reply_cache
            totals["duplicates_suppressed"] += cache.duplicates_suppressed
            totals["replies_cached"] += cache.replies_cached
            totals["reply_cache_evictions"] += cache.evictions
        return totals

    def network_report(self) -> Dict[str, Any]:
        network = self.domain.network
        return {
            "messages": network.total_messages,
            "bytes": network.total_bytes,
            "drops": network.faults.drops,
            "per_node": {
                node.address: {
                    "sent": node.stats.messages_sent,
                    "received": node.stats.messages_received,
                }
                for node in network.nodes()
                if self.domain.owns_node(node.address)
            },
        }
