"""Run one workload once: untraced for the end-to-end metrics, or traced
for the per-layer metrics.  This is the command BENCHMARK.json names:

    python3 benchmarks/ledger/run.py --workload rpc_small --seed 0 \\
        --seconds 20 --trace 0

It prints every metric by name and unit, then — as the last line — one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``python -m benchmarks.ledger`` runs it once per workload and arm, each
in a fresh interpreter, and collects the ``--report`` files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Repetitions an untraced run makes at least, however short --seconds.
MIN_REPS = 3
#: Cold set-ups are timed in fresh interpreters, half of them before
#: the measurement and half after it so that they see different moments
#: of the host: at least MIN, then as many as fit in SETUP_SHARE of
#: --seconds, up to MAX.
SETUP_SAMPLES_MIN = 4
SETUP_SAMPLES_MAX = 16
SETUP_SHARE = 0.3


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _cold_setup(name: str, seed: int, scale: float):
    """Set up from cold: the workload, and seconds spent in each stage
    (imports; generating the inputs; world build, bind and warm-up).

    Must be the first thing a fresh interpreter does with ``repro``.
    """
    marks = [time.perf_counter()]
    from benchmarks.ledger.workloads import WORKLOADS
    marks.append(time.perf_counter())
    workload = WORKLOADS[name](seed, scale)
    marks.append(time.perf_counter())
    workload.setup()
    marks.append(time.perf_counter())
    return workload, [after - before
                      for before, after in zip(marks, marks[1:])]


def _cold_setups(name: str, seed: int, scale: float, budget_s: float):
    """Stage times of cold set-ups in fresh interpreters, one after
    another, until *budget_s* is spent."""
    samples = []
    started = time.perf_counter()
    while len(samples) < SETUP_SAMPLES_MAX // 2 and (
            len(samples) < SETUP_SAMPLES_MIN // 2
            or time.perf_counter() - started < budget_s):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--scale", str(scale), "--setup-only"],
            check=True, capture_output=True, text=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def floor_s(samples) -> float:
    """Seconds of one sample with the host's noise taken out.

    Each sample is a list of part times (a unit's slices, a set-up's
    stages).  Part *i* is the same work in every sample, and noise from
    the host only ever adds time, so the fastest of its samples is the
    best estimate of what the part costs; the whole costs the sum of its
    parts.  On a shared box, where bursts of interference inflate the
    median unit by 10-30%, this repeats to a few per cent where the
    median does not.
    """
    return sum(map(min, zip(*samples)))


def floor_us_per_op(reps) -> float:
    return floor_s([rep.slice_s for rep in reps]) / reps[0].ops * 1e6


def _halves_gap(estimate, samples) -> float:
    """How far apart the estimates from the even and the odd samples
    are: what one run can say about how well its own number repeats."""
    if len(samples) < 4:
        return 0.0
    return abs(estimate(samples[0::2]) - estimate(samples[1::2]))


def _judge_reps(reps) -> Dict[str, object]:
    """Fold repetitions of one unit: attempted, failed, and whether the
    exact observations agree across every repetition."""
    first = reps[0]
    failed = 0
    exact = True
    for rep in reps:
        failed += rep.failed
        # A seed (or reply stream) whose digest differs between
        # repetitions failed, whatever the oracles said.
        failed += sum(a != b for a, b in zip(rep.digests, first.digests))
        exact = exact and (rep.net_msgs == first.net_msgs
                           and sorted(rep.virt_ms) == sorted(first.virt_ms))
    return {
        "attempted": sum(rep.ops for rep in reps),
        "failed": failed,
        "correct": failed == 0 and exact,
        "run_digest": hashlib.sha256(
            ",".join(first.digests).encode("ascii")).hexdigest(),
    }


def run_untraced(name: str, seed: int, scale: float,
                 seconds: float) -> dict:
    from benchmarks.ledger.calibration import Calibration
    from benchmarks.ledger.layers import percentile

    workload, own_setup = _cold_setup(name, seed, scale)
    calibration = Calibration()
    calibration.sample()
    setups = [own_setup] + _cold_setups(name, seed, scale,
                                        SETUP_SHARE * seconds / 2)

    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        workload.fresh()
        calibration.sample()
        reps.append(workload.unit())
    calibration.sample()
    setups += _cold_setups(name, seed, scale, SETUP_SHARE * seconds / 2)
    calibration.sample()

    record = _judge_reps(reps)
    first = reps[0]
    per_op_us = [sum(rep.slice_s) / rep.ops * 1e6 for rep in reps]
    virt = sorted(first.virt_ms)
    # Wall metrics are reported relative to the calibration kernel.
    scale_by = calibration.scale()
    wall = floor_us_per_op(reps) * scale_by
    record["end_to_end"] = {
        "setup_s": floor_s(setups) * scale_by,
        "wall_us_per_op": wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virt_ms_per_req_p50": percentile(virt, 50),
        "virt_ms_per_req_p99": percentile(virt, 99),
        "net_msgs_per_op": first.net_msgs / first.ops,
    }
    per_hour = "seeds_per_hour" if workload.op_noun == "seed" \
        else "inv_per_wall_s"
    record["info"] = {
        "reps": len(reps),
        "ops_per_unit": first.ops,
        "virt_samples": len(virt),
        # The raw numbers: the floors as measured, the calibration
        # kernel's floor, and how noisy the repetitions were.
        "raw_wall_us_per_op": floor_us_per_op(reps),
        "raw_setup_s": floor_s(setups),
        "calibration_ms": min(calibration.samples_ms),
        "unit_wall_us_per_op_median": statistics.median(per_op_us),
        "unit_wall_us_per_op_iqr": _iqr(per_op_us),
        "setup_samples": len(setups),
        "setup_s_median": statistics.median(map(sum, setups)),
        # What compare.py holds against the bound to call a row
        # unresolved.
        "wall_us_per_op_spread":
            _halves_gap(floor_us_per_op, reps) * scale_by,
        "setup_s_spread": _halves_gap(floor_s, setups) * scale_by,
        per_hour: (3600.0 if workload.op_noun == "seed" else 1.0)
        * 1e6 / wall,
    }
    return record


def run_traced(name: str, seed: int, scale: float, seconds: float,
               spans_path: str = "") -> dict:
    from benchmarks.ledger.layers import layer_metrics
    from benchmarks.ledger.tracing import Tracer
    from benchmarks.ledger.workloads import WORKLOADS

    tracer = Tracer()
    tracer.install()
    try:
        workload = WORKLOADS[name](seed, scale)
        workload.setup()
        unit = tracer.span_wrapper(
            workload.unit, "unit", tracer.stat("other.harness", "other"))
        reps = []
        deadline = time.perf_counter() + seconds
        while not reps or time.perf_counter() < deadline:
            gc.collect()
            workload.fresh()
            tracer.recording = bool(spans_path) and not reps
            tracer.active = True
            reps.append(unit(tracer.phase))
            tracer.active = False
    finally:
        tracer.restore()

    record = _judge_reps(reps)
    ops = record["attempted"]
    # Only rpc_bulk marks phases; half its invocations are puts.
    phase_invocations = {phase: ops // 2 for phase in tracer.phases}
    record["per_layer"] = layer_metrics(tracer, ops, phase_invocations)
    record["info"] = {
        "reps": len(reps),
        "traced_wall_us_per_op": floor_us_per_op(reps),
        "missing_boundaries": tracer.missing,
    }
    if spans_path:
        tracer.write_spans(spans_path)
    return record


def _parse(argv) -> argparse.Namespace:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every unit (tests and debugging only)")
    parser.add_argument("--report", default="",
                        help="also write the full record here as JSON")
    parser.add_argument("--spans", default="",
                        help="traced run: write the first unit's spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print it and exit")
    args = parser.parse_args(argv)
    args.spec = spec
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_only:
        print(json.dumps(_cold_setup(args.workload, args.seed,
                                     args.scale)[1]))
        return 0
    if args.trace:
        record = run_traced(args.workload, args.seed, args.scale,
                            args.seconds, args.spans)
        arm = "per_layer"
    else:
        record = run_untraced(args.workload, args.seed, args.scale,
                              args.seconds)
        arm = "end_to_end"
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"measured {repro.__file__}, which is not this "
                         f"checkout's src/")
    units = {metric["name"]: metric["unit"] for metric in args.spec[arm]}
    values = record[arm]
    assert set(values) == set(units), set(values) ^ set(units)
    record[arm] = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    record.update(workload=args.workload, seed=args.seed, scale=args.scale,
                  seconds=args.seconds)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(record, handle, indent=1)

    for name, cell in record[arm].items():
        print(f"{args.workload} {name} = {cell['value']} {cell['unit']}")
    for name, value in record["info"].items():
        print(f"{args.workload} info.{name} = {value}")
    print(f"{args.workload} run_digest = {record['run_digest']}")
    # The driver's line: numbers only, so a metric whose boundaries are
    # all gone (None; counted by trace.missing_boundaries) reads 0.
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": cell["value"] or 0.0,
                           "unit": cell["unit"]}
                    for name, cell in record[arm].items()},
    }))
    return 0


if __name__ == "__main__":
    # Run by path: make ``repro`` and ``benchmarks.ledger`` importable
    # from this checkout, and this directory's modules not shadow others.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
