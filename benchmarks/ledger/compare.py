"""Judge ledger B against ledger A by the bounds in BENCHMARK.json.

    python -m benchmarks.ledger.compare BENCH_a.json BENCH_b.json

One row per (end-to-end metric, workload): both medians, the ratio B/A
(A is the base) and a verdict.  ``worse``/``better`` mean B moved past
the metric's bound; ``unresolved`` means a run's own spread (the gap
between its estimates from even and from odd repetitions, for the two
metrics that are estimated) is wider than the bound, so the row cannot
be called either way.  Failed operations and ``run_digest`` are
compared too.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

from benchmarks.ledger.run import load_spec


def verdict(a: float, b: float, spread: float, bound: float,
            better: str) -> str:
    """*spread* is the larger relative spread of the two sides."""
    if spread > bound:
        return "unresolved"
    change = (b - a) / a if a else (0.0 if b == a else float("inf"))
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[str], bool]:
    """The report lines, and whether anything got worse."""
    lines = [f"{'workload':15s} {'metric':22s} {'A':>14s} {'B':>14s} "
             f"{'B/A':>8s} {'bound':>6s}  verdict"]
    worse = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:15s} missing from B")
            worse = True
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            value_a = side_a["end_to_end"][key]["value"]
            value_b = side_b["end_to_end"][key]["value"]
            spread = max(
                side["info"].get(f"{key}_spread", 0.0) / value
                for side, value in ((side_a, value_a), (side_b, value_b)))
            call = verdict(value_a, value_b, spread, metric["bound"],
                           metric["better"])
            worse = worse or call == "worse"
            lines.append(
                f"{name:15s} {key:22s} {value_a:14.4f} {value_b:14.4f} "
                f"{value_b / value_a:8.4f} {metric['bound']:6.0%}  {call}")
        share_a = side_a["ops_failed"] / side_a["ops_attempted"]
        share_b = side_b["ops_failed"] / side_b["ops_attempted"]
        call = "worse" if share_b > share_a else "same"
        worse = worse or call == "worse"
        lines.append(
            f"{name:15s} {'ops_failed/attempted':22s} "
            f"{side_a['ops_failed']:>7d}/{side_a['ops_attempted']:<6d} "
            f"{side_b['ops_failed']:>7d}/{side_b['ops_attempted']:<6d} "
            f"{'':8s} {'':6s}  {call}")
        if side_a["run_digest"] != side_b["run_digest"]:
            lines.append(f"{name:15s} run_digest DIFFERS: "
                         f"{side_a['run_digest'][:16]} != "
                         f"{side_b['run_digest'][:16]}")
    if a.get("noisy") or b.get("noisy"):
        lines.append("note: a ledger is marked noisy (calibration moved "
                     "by more than 10% during its run)")
    return lines, worse


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.stderr.write(__doc__)
        return 2
    ledgers = []
    for path in paths:
        with open(path) as handle:
            ledgers.append(json.load(handle))
    lines, worse = compare(ledgers[0], ledgers[1], load_spec())
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
