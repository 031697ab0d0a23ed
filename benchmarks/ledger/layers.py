"""Per-layer metrics, computed from a traced run's per-stem totals.

Every time is a *self* time per op, in wall µs.  A metric fed only by
boundaries that no longer exist is ``None``.
"""

from __future__ import annotations

from typing import Dict, Optional

from benchmarks.ledger.boundaries import LAYERS
from benchmarks.ledger.tracing import Tracer

#: Access-path mechanisms that get a ``<layer>.self_us_per_op``.
ACCESS_PATH = ("tx", "groups", "shard", "lease", "overload", "resilience",
               "perf")
_LOST = ("MessageLostError", "NodeUnreachableError")


def percentile(ordered, percent: int):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, -(-len(ordered) * percent // 100)) - 1]


def _ratio(numerator: Optional[float], denominator: Optional[float]):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, ops: int,
                  phase_invocations: Dict[str, int]) -> Dict[str, object]:
    """Every ``per_layer`` metric of BENCHMARK.json for *ops* traced ops."""
    stats = tracer.stats

    def patched(stem: str, template: str = "") -> bool:
        return (template or stem) in tracer.patched_stems

    def calls(stem: str, template: str = ""):
        if not patched(stem, template):
            return None
        return stats[stem].calls if stem in stats else 0

    def extra(stem: str):
        return stats[stem].extra if patched(stem) else None

    def errors(stem: str, kinds=(), template: str = ""):
        if not patched(stem, template):
            return None
        found = stats[stem].errors if stem in stats else {}
        return sum(found.values()) if not kinds else \
            sum(found.get(kind, 0) for kind in kinds)

    def self_us(stem: str, template: str = ""):
        if not patched(stem, template):
            return None
        return stats[stem].self_ns / 1000.0 if stem in stats else 0.0

    def total(*values):
        return None if None in values else sum(values)

    by_layer = tracer.layer_self_ns()
    wall_ns = sum(by_layer.values())

    def layer_us(layer: str) -> float:
        return by_layer.get(layer, 0) / 1000.0

    metrics: Dict[str, object] = {}

    def per_op(name: str, value) -> None:
        metrics[name] = _ratio(value, ops)

    # -- ndr ---------------------------------------------------------------
    per_op("ndr.encode_calls_per_op", calls("ndr.encode"))
    per_op("ndr.encode_self_us_per_op", self_us("ndr.encode"))
    per_op("ndr.decode_calls_per_op", calls("ndr.decode"))
    per_op("ndr.decode_self_us_per_op", self_us("ndr.decode"))
    per_op("ndr.marshal_self_us_per_op", self_us("ndr.marshal"))
    built = _ratio(calls("ndr.plan_build"), calls("ndr.plan_for"))
    metrics["ndr.plan_hit_share"] = \
        None if built is None else \
        (1.0 - built if calls("ndr.plan_for") else 0.0)
    per_op("ndr.wire_bytes_per_op",
           total(extra("net.request"), extra("net.post")))
    for phase in ("put", "get"):
        spent = tracer.phases.get(phase, {}).get("ndr", 0) / 1000.0
        metrics[f"ndr.{phase}_self_us_per_inv"] = \
            _ratio(spent, phase_invocations.get(phase, 0))

    # -- engine ------------------------------------------------------------
    per_op("engine.channel_self_us_per_op", self_us("engine.channel"))
    per_op("engine.transport_self_us_per_op", self_us("engine.transport"))
    per_op("engine.nucleus_self_us_per_op", total(
        self_us("engine.request_handler", "{pkg}.request_handler"),
        self_us("engine.deliver_handler", "{pkg}.deliver_handler")))
    per_op("engine.dispatch_self_us_per_op", self_us("engine.dispatch"))
    per_op("engine.app_us_per_op", self_us("engine.app"))
    per_op("engine.invocations_per_op", calls("engine.channel"))
    metrics["engine.attempts_per_invocation"] = _ratio(
        calls("net.request"), calls("engine.channel"))
    per_op("engine.invoke_errors_per_op", errors("engine.channel"))
    durations = sorted(stats["engine.channel"].durations) \
        if patched("engine.channel") else None
    for percent in (50, 99):
        metrics[f"engine.invoke_wall_us_p{percent}"] = \
            None if durations is None else \
            (percentile(durations, percent) / 1000.0 if durations else 0.0)

    # -- net ---------------------------------------------------------------
    per_op("net.request_calls_per_op", calls("net.request"))
    per_op("net.request_self_us_per_op", self_us("net.request"))
    per_op("net.post_calls_per_op", calls("net.post"))
    per_op("net.post_self_us_per_op", self_us("net.post"))
    metrics["net.failed_share"] = _ratio(
        errors("net.request", _LOST), calls("net.request"))

    # -- sim ---------------------------------------------------------------
    per_op("sim.scheduled_per_op", calls("sim.schedule"))
    per_op("sim.fired_per_op", extra("sim.run"))
    per_op("sim.run_self_us_per_op", self_us("sim.run"))
    metrics["sim.wall_us_per_event"] = _ratio(
        None if not patched("sim.run") else layer_us("sim"),
        extra("sim.run"))
    per_op("sim.clock_advances_per_op", calls("sim.clock_advance"))

    # -- trace -------------------------------------------------------------
    per_op("trace.span_calls_per_op", calls("trace.span"))
    per_op("trace.self_us_per_op",
           total(self_us("trace.span"), self_us("trace.other")))
    metrics["trace.missing_boundaries"] = len(tracer.missing)

    # -- heal --------------------------------------------------------------
    per_op("heal.heartbeats_per_op", calls("heal.observe"))
    per_op("heal.phi_calls_per_op", calls("heal.phi"))
    detector = total(self_us("heal.observe"), self_us("heal.phi"),
                     self_us("heal.detector"))
    per_op("heal.detector_self_us_per_op", detector)
    per_op("heal.supervisor_self_us_per_op",
           None if detector is None else layer_us("heal") - detector)

    # -- check -------------------------------------------------------------
    per_op("check.plan_us_per_op", self_us("check.plan"))
    per_op("check.oracles_us_per_op", self_us("check.oracles"))
    per_op("check.run_self_us_per_op", self_us("check.run"))

    # -- access-path layers ------------------------------------------------
    for layer in ACCESS_PATH:
        per_op(f"{layer}.self_us_per_op", layer_us(layer))
    busy, admit = ("ServerBusyError",), "{pkg}.admit"
    metrics["perf.admission_shed_share"] = _ratio(
        total(errors("perf.admit", busy, admit),
              errors("overload.admit", busy, admit)),
        total(calls("perf.admit", admit), calls("overload.admit", admit)))
    metrics["lease.lookup_hit_share"] = _ratio(
        extra("lease.lookup"), calls("lease.lookup"))

    # -- split -------------------------------------------------------------
    for layer in LAYERS:
        metrics[f"{layer}.wall_share"] = _ratio(by_layer.get(layer, 0),
                                                wall_ns)
    metrics["other.wall_share"] = _ratio(
        sum(value for layer, value in by_layer.items()
            if layer not in LAYERS), wall_ns)
    return metrics
