"""``python -m repro.check`` — seed-sweep CLI for the simulation tester.

Runs N seeds through the chaos explorer, judges every run with the
oracle catalogue, re-runs the first seed to prove determinism, and
(optionally) shrinks the first failing plan into a reproduction
script.  Exit status 0 means every seed passed every oracle and the
determinism self-check held.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.check.explorer import CheckConfig, run_seed
from repro.check.modes import MODES
from repro.check.mutations import MUTATIONS
from repro.check.oracles import ORACLES
from repro.check.plan import generate_plan
from repro.check.shrink import repro_snippet, shrink
from repro.sim.scheduler import late_by_prefix


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="deterministic chaos exploration of the ODP "
                    "platform (seeds -> plans -> oracles)")
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of seeds to explore (default 20)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first seed of the sweep (default 0)")
    parser.add_argument("--ops", type=int, default=None,
                        help="operations per plan (default %d)"
                             % CheckConfig.ops)
    parser.add_argument("--mutate", action="append", default=[],
                        choices=sorted(MUTATIONS),
                        help="enable a platform mutation (repeatable); "
                             "the matching oracle is expected to fire")
    for mode in MODES:
        parser.add_argument(f"--{mode.name}", action="store_true",
                            help=mode.help)
    parser.add_argument("--shrink", action="store_true",
                        help="shrink the first failing plan and print "
                             "a reproduction script")
    parser.add_argument("--verbose", action="store_true",
                        help="print every event of failing runs")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("argument --seeds: must be at least 1")
    return args


def _late_line(results) -> str:
    """Scheduler events fired, the share fired past their due time (a
    synchronous leg held the clock), and the prefixes with the most."""
    fired = sum(result.firings["fired"] for result in results)
    late = late_by_prefix(result.firings["late"] for result in results)
    total = sum(count for count, _ in late.values())
    worst = max((w for _, w in late.values()), default=0.0)
    top = sorted(late.items(), key=lambda item: (-item[1][0], item[0]))
    return (f"late firings: {fired:,} fired, {total:,} late "
            f"({total / max(fired, 1):.1%}), max {worst:.1f} ms"
            + "".join(f"; {prefix or '(unlabelled)'} {count:,} "
                      f"(max {w:.1f} ms)" for prefix, (count, w) in top[:3]))


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    config = CheckConfig()
    if args.ops is not None:
        config = CheckConfig(ops=args.ops)
    if args.mutate:
        config = config.with_mutations(*args.mutate)
    for mode in MODES:
        if getattr(args, mode.name):
            config = replace(config, **{mode.name: True})

    print(f"repro.check: {args.seeds} seeds from {args.base_seed}, "
          f"{config.ops} ops/plan, mutations="
          f"{list(config.mutations) or 'none'}, "
          + ", ".join(
              f"{mode.name}={'on' if getattr(config, mode.name) else 'off'}"
              for mode in MODES))

    started = time.monotonic()
    per_oracle = {name: 0 for name in ORACLES}
    failing_seeds: List[int] = []
    results = {}
    for seed in range(args.base_seed, args.base_seed + args.seeds):
        result = run_seed(seed, config)
        results[seed] = result
        if result.violations:
            failing_seeds.append(seed)
            for violation in result.violations:
                per_oracle[violation.oracle] = \
                    per_oracle.get(violation.oracle, 0) + 1
            print(f"  seed {seed}: {len(result.violations)} "
                  f"violation(s)  digest {result.digest[:12]}")
            for violation in result.violations:
                print(f"    {violation}")
            if args.verbose:
                for event in result.events:
                    print(f"      {event}")
        else:
            print(f"  seed {seed}: ok  {len(result.events)} events  "
                  f"digest {result.digest[:12]}")
    elapsed = time.monotonic() - started

    print(_late_line(list(results.values())))

    print("\noracle summary:")
    width = max(len(name) for name in per_oracle)
    for name, count in per_oracle.items():
        print(f"  {name:<{width}}  {count} violation(s)")

    first = args.base_seed
    rerun = run_seed(first, config)
    deterministic = rerun.digest == results[first].digest
    print(f"\ndeterminism: seed {first} re-run digest "
          + ("matches" if deterministic else
             f"DIFFERS ({rerun.digest[:12]} != "
             f"{results[first].digest[:12]}")
          + f" ({rerun.digest[:12]})")

    rate = args.seeds / elapsed * 3600.0 if elapsed > 0 else 0.0
    print(f"{args.seeds - len(failing_seeds)}/{args.seeds} seeds clean "
          f"in {elapsed:.1f}s ({rate:.0f} seeds/hour)")

    if failing_seeds and args.shrink:
        seed = failing_seeds[0]
        print(f"\nshrinking seed {seed}...")
        report = shrink(generate_plan(seed, config), config)
        print(f"  {report.summary()}")
        print("\n# --- reproduction script "
              "---------------------------------------")
        print(repro_snippet(report.plan, config))

    return 0 if deterministic and not failing_seeds else 1


if __name__ == "__main__":
    sys.exit(main())
