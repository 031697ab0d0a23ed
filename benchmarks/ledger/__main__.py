"""Run the whole ledger and write ``BENCH_<label>.json``.

    PYTHONPATH=src python -m benchmarks.ledger --seed 0 --out BENCH_12a.json

Each workload runs twice, one fresh interpreter after another: untraced
for the end-to-end metrics, traced for the per-layer metrics.  End-to-end
numbers never come from the traced run; the ratio of the two unit times
is ``trace_overhead_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.ledger.run import ROOT, load_spec

RUN = Path(__file__).resolve().with_name("run.py")


def calib_spin_ms() -> float:
    """A fixed pure-Python loop: how fast this box runs bytecode now.
    The fastest of five, so that one burst of noise is not the score."""
    def spin() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return (time.perf_counter() - started) * 1000.0

    return min(spin() for _ in range(5))


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _child(workload: str, trace: int, args, scratch: str,
           spans: str = "") -> dict:
    report = os.path.join(scratch, f"{workload}-{trace}.json")
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", str(args.scale), "--trace", str(trace),
               "--report", report]
    if spans:
        command += ["--spans", spans]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace={trace}) exited "
                         f"{done.returncode}")
    sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
    with open(report) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", default="local")
    parser.add_argument("--out", default="",
                        help="file to write (default BENCH_<label>.json)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every unit (tests and debugging only)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only these (tests and debugging only)")
    args = parser.parse_args(argv)
    out = Path(args.out or f"BENCH_{args.label}.json")

    calibration = [calib_spin_ms()]
    workloads = {}
    with tempfile.TemporaryDirectory(dir=out.parent) as scratch:
        for name in args.workload or names:
            untraced = _child(name, 0, args, scratch)
            traced = _child(name, 1, args, scratch,
                            str(out.with_name(f"spans-{name}.jsonl")))
            info = dict(untraced["info"])
            info["trace_overhead_ratio"] = (
                traced["info"]["traced_wall_us_per_op"]
                / untraced["info"]["raw_wall_us_per_op"])
            info["traced_reps"] = traced["info"]["reps"]
            info["missing_boundaries"] = \
                traced["info"]["missing_boundaries"]
            workloads[name] = {
                "correct": untraced["correct"] and traced["correct"],
                "ops_attempted": untraced["attempted"],
                "ops_failed": untraced["failed"],
                "run_digest": untraced["run_digest"],
                "traced_run_digest": traced["run_digest"],
                "end_to_end": untraced["end_to_end"],
                "per_layer": traced["per_layer"],
                "info": info,
            }
            print(f"{name} info.trace_overhead_ratio = "
                  f"{info['trace_overhead_ratio']}")
    calibration.append(calib_spin_ms())

    ledger = {
        "label": args.label,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        # Judged by nobody: for normalising runs from different boxes.
        "machine": {
            "calib_spin_ms": calibration,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _git_commit(),
        },
        "noisy": abs(calibration[1] - calibration[0])
        > 0.10 * min(calibration),
        "workloads": workloads,
    }
    with open(out, "w") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")
    print(f"machine.calib_spin_ms = {calibration} noisy = {ledger['noisy']}")
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
