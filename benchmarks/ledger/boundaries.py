"""The layer boundaries the traced run patches, as data.

One row per callable: ``(layer, module, class, method, stem)`` plus how
to wrap it.  Rows name *public* callables where one exists, because
later refactors rename internals and may not edit the benchmark.  A row
whose callable no longer exists is skipped and listed under
``trace.missing_boundaries``; the metrics fed only by missing rows
report ``null``.

``layer`` is the package the span's self time is charged to; ``None``
means "the package that defines it", which is how one generic row
covers every ``ClientLayer.request`` / ``ServerLayer.handle`` subclass
(one transparency = one span).  ``stem`` groups rows into the quantity
a metric reads; ``{pkg}`` in a stem is replaced by the defining package.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

#: The packages that get a ``<layer>.wall_share``; self time charged to
#: any other package, to fired actions of no known package and to the
#: harness itself is reported as ``other.wall_share``.
LAYERS = ("ndr", "engine", "net", "sim", "trace", "heal", "check",
          "tx", "groups", "shard", "lease", "overload", "resilience",
          "perf")


class Boundary(NamedTuple):
    layer: Optional[str]
    module: str
    cls: Optional[str]          # None: a module-level function
    method: str
    stem: str
    #: span     — a timed span, a call count and an error count;
    #: count    — a call count only (tiny and very hot callables);
    #: schedule — a span, and the ``action`` argument is wrapped so each
    #:            fired action is a child span of the run loop;
    #: register — the ``handler`` argument is wrapped, so every request
    #:            or delivery a node receives is a span.
    how: str = "span"
    #: Also patch every subclass that defines the method itself.
    subclasses: bool = False
    #: What to keep of the result: "sum" (add it up), "nonnull" (count
    #: results that are not None) or "wire_bytes" (sizes of every bytes
    #: argument and of a bytes result).
    result: str = ""
    #: Keep each call's duration, for per-call percentiles.
    durations: bool = False


def _rows(layer, module, cls, methods, stem, **kwargs):
    return [Boundary(layer, module, cls, method, stem, **kwargs)
            for method in methods.split()]


BOUNDARIES = [
    # -- ndr -----------------------------------------------------------
    *_rows("ndr", "repro.ndr.formats", "WireFormat", "dumps",
           "ndr.encode", subclasses=True),
    *_rows("ndr", "repro.ndr.plancache", "InvocationPlan",
           "encode_request encode_member encode_member_zero encode_single",
           "ndr.encode"),
    *_rows("ndr", "repro.ndr.plancache", None, "encode_batch",
           "ndr.encode"),
    # The batcher binds the name at import time.
    *_rows("ndr", "repro.perf.batching", None, "encode_batch",
           "ndr.encode"),
    *_rows("ndr", "repro.ndr.formats", "WireFormat", "loads",
           "ndr.decode", subclasses=True),
    *_rows("ndr", "repro.ndr.codec", "Marshaller",
           "marshal unmarshal marshal_args unmarshal_args", "ndr.marshal"),
    *_rows("ndr", "repro.ndr.plancache", "PlanCache", "plan_for",
           "ndr.plan_for"),
    *_rows("ndr", "repro.ndr.plancache", "InvocationPlan", "__init__",
           "ndr.plan_build"),
    # -- engine --------------------------------------------------------
    *_rows("engine", "repro.engine.channel", "Channel", "invoke",
           "engine.channel", durations=True),
    *_rows("engine", "repro.engine.channel", "TransportLayer", "send",
           "engine.transport"),
    *_rows("engine", "repro.engine.capsule", "Capsule", "dispatch",
           "engine.dispatch"),
    *_rows("engine", "repro.engine.capsule", "Capsule",
           "invoke_implementation", "engine.app"),
    # -- net (and, through the handlers nodes register, the nucleus) ---
    *_rows("net", "repro.net.network", "Network", "request",
           "net.request", result="wire_bytes"),
    *_rows("net", "repro.net.network", "Network", "post",
           "net.post", result="wire_bytes"),
    *_rows(None, "repro.net.network", "NetworkNode", "on_request",
           "{pkg}.request_handler", how="register"),
    *_rows(None, "repro.net.network", "NetworkNode", "on_deliver",
           "{pkg}.deliver_handler", how="register"),
    # -- sim -----------------------------------------------------------
    *_rows("sim", "repro.sim.scheduler", "Scheduler", "at every",
           "sim.schedule", how="schedule"),
    *_rows("sim", "repro.sim.scheduler", "Scheduler",
           "run_until run_until_idle step", "sim.run", result="sum"),
    *_rows("sim", "repro.sim.clock", "VirtualClock", "advance advance_to",
           "sim.clock_advance", how="count"),
    # -- trace ---------------------------------------------------------
    *_rows("trace", "repro.trace.collector", "TraceCollector", "span",
           "trace.span"),
    *_rows("trace", "repro.trace.collector", "TraceCollector",
           "start_trace", "trace.other"),
    *_rows("trace", "repro.trace.span", "Span", "tag finish",
           "trace.other"),
    # -- heal ----------------------------------------------------------
    *_rows("heal", "repro.heal.detector", "PhiAccrualDetector", "observe",
           "heal.observe"),
    *_rows("heal", "repro.heal.detector", "PhiAccrualDetector", "phi",
           "heal.phi"),
    *_rows("heal", "repro.heal.detector", "PhiAccrualDetector",
           "poll node_alive", "heal.detector"),
    *_rows("heal", "repro.heal.supervisor", "Supervisor",
           "start stop node_dead node_alive diagnose vetoes_suspicion",
           "heal.supervisor"),
    # -- check (names as run_seed looks them up) -----------------------
    *_rows("check", "repro.check.explorer", None, "generate_plan",
           "check.plan"),
    *_rows("check", "repro.check.explorer", None, "run_plan", "check.run"),
    *_rows("check", "repro.check.oracles", None, "run_all",
           "check.oracles"),
    # -- access-path layers: one transparency, one span ----------------
    *_rows(None, "repro.engine.layers", "ClientLayer", "request",
           "{pkg}.layer", subclasses=True),
    *_rows(None, "repro.engine.layers", "ServerLayer", "handle",
           "{pkg}.layer", subclasses=True),
    # -- mechanisms that sit in the access path without a layer class --
    *_rows("perf", "repro.perf.batching", "BatchClient", "call flush",
           "perf.batch"),
    *_rows(None, "repro.perf.admission", "AdmissionController", "admit",
           "{pkg}.admit", subclasses=True),
    *_rows("lease", "repro.lease.cache", "LeaseClient", "lookup",
           "lease.lookup", result="nonnull"),
    *_rows("lease", "repro.lease.cache", "LeaseClient",
           "store apply_invalidation", "lease.client"),
    *_rows("lease", "repro.lease.authority", "LeaseAuthority",
           "contact acquire note_write revoke_holder drain_interface",
           "lease.authority"),
    *_rows("overload", "repro.overload.deadline", "DeadlineGate",
           "expired note_execution", "overload.gate"),
    *_rows("overload", "repro.overload.admission", "BrownoutController",
           "observe", "overload.brownout"),
    *_rows("overload", "repro.overload.budget", "RetryBudgetRegistry",
           "note_first try_spend can_spend", "overload.budget"),
    *_rows("resilience", "repro.resilience.breaker", "CircuitBreaker",
           "allow record_success record_failure", "resilience.breaker"),
    *_rows("resilience", "repro.resilience.breaker", "BreakerRegistry",
           "breaker_for", "resilience.breaker"),
    *_rows("resilience", "repro.resilience.dedup", "ReplyCache",
           "lookup store purge_expired", "resilience.dedup"),
    *_rows("resilience", "repro.resilience.retry", "RetryPolicy",
           "delay_ms", "resilience.retry"),
    *_rows("tx", "repro.tx.layer", "ConcurrencyControlLayer", "txctl",
           "tx.control"),
    *_rows("tx", "repro.tx.transaction", "TransactionManager",
           "begin exchange resolve_indoubt atomically", "tx.manager"),
    *_rows("tx", "repro.tx.transaction", "Transaction", "commit abort",
           "tx.manager"),
    *_rows("tx", "repro.tx.versions", "VersionStore",
           "save_before_image restore", "tx.versions"),
    *_rows("groups", "repro.groups.registry", "GroupRegistry",
           "suspect join leave revive", "groups.registry"),
    *_rows("shard", "repro.shard.space", "ShardSpace", "publish owner_of",
           "shard.space"),
    *_rows("shard", "repro.shard.rebalancer", "Rebalancer",
           "node_joined node_left rebalance", "shard.rebalance"),
]
