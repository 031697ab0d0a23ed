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
from typing import List, Optional

from repro.check.explorer import CheckConfig, run_seed
from repro.check.mutations import MUTATIONS
from repro.check.oracles import ORACLES
from repro.check.plan import generate_plan
from repro.check.shrink import repro_snippet, shrink


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
    parser.add_argument("--supervisor", action="store_true",
                        help="run the self-healing supervisor "
                             "(repro.heal) during every plan; the "
                             "self_heal oracle then requires groups to "
                             "regain full replication factor")
    parser.add_argument("--partitions", action="store_true",
                        help="widen chaos with symmetric and asymmetric "
                             "network partition windows and record "
                             "per-member commit ledgers; the "
                             "split_brain oracle then checks no write "
                             "ever commits without quorum and no two "
                             "members diverge at a sequence number")
    parser.add_argument("--batching", action="store_true",
                        help="drive part of the workload through the "
                             "high-throughput layer (repro.perf): "
                             "batch_burst ops via a BatchClient, with "
                             "token-bucket admission control shedding "
                             "overload on every server")
    parser.add_argument("--shards", action="store_true",
                        help="stand up a sharded object space "
                             "(repro.shard) over the server nodes: "
                             "keyed ops route through the consistent-"
                             "hash ring, shard_move ops drain/re-admit "
                             "nodes mid-traffic; the shard_routing "
                             "oracle then requires every write to "
                             "execute on the epoch-current owner "
                             "exactly once")
    parser.add_argument("--leases", action="store_true",
                        help="promote the replicated kv interface to "
                             "cached mode (repro.lease): read-heavy "
                             "cached_get/cached_burst ops run through "
                             "a lease-caching client with follower "
                             "reads; the staleness_bound oracle then "
                             "requires no cached read to be staler "
                             "than the lease TTL or out of order")
    parser.add_argument("--overload", action="store_true",
                        help="run the overload-robustness stack "
                             "(repro.overload): the client propagates "
                             "deadlines and priorities end to end and "
                             "enforces retry budgets, servers shed "
                             "class-aware with brownout, and plans "
                             "gain prioritized tight-deadline ops plus "
                             "compute-stall windows; the "
                             "overload_safety oracle then requires "
                             "that expired work never executes, retry "
                             "volume stays within budget, and shedding "
                             "never inverts priority")
    parser.add_argument("--min-seeds-hour", type=float, default=None,
                        metavar="RATE",
                        help="fail the run if the sweep throughput "
                             "falls below RATE seeds/hour (CI perf "
                             "floor; the timer covers the sweep loop "
                             "only)")
    parser.add_argument("--shrink", action="store_true",
                        help="shrink the first failing plan and print "
                             "a reproduction script")
    parser.add_argument("--verbose", action="store_true",
                        help="print every event of failing runs")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    config = CheckConfig()
    if args.ops is not None:
        config = CheckConfig(ops=args.ops)
    if args.mutate:
        config = config.with_mutations(*args.mutate)
    if args.supervisor:
        config = config.with_supervisor()
    if args.batching:
        config = config.with_batching()
    if args.partitions:
        config = config.with_partitions()
    if args.shards:
        config = config.with_shards()
    if args.leases:
        config = config.with_leases()
    if args.overload:
        config = config.with_overload()

    print(f"repro.check: {args.seeds} seeds from {args.base_seed}, "
          f"{config.ops} ops/plan, mutations="
          f"{list(config.mutations) or 'none'}, "
          f"supervisor={'on' if config.supervisor else 'off'}, "
          f"batching={'on' if config.batching else 'off'}, "
          f"partitions={'on' if config.partitions else 'off'}, "
          f"shards={'on' if config.shards else 'off'}, "
          f"leases={'on' if config.leases else 'off'}, "
          f"overload={'on' if config.overload else 'off'}")

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
    rate_ok = True
    if args.min_seeds_hour is not None and rate < args.min_seeds_hour:
        rate_ok = False
        print(f"throughput floor missed: {rate:.0f} < "
              f"{args.min_seeds_hour:.0f} seeds/hour")

    if failing_seeds and args.shrink:
        seed = failing_seeds[0]
        print(f"\nshrinking seed {seed}...")
        report = shrink(generate_plan(seed, config), config)
        print(f"  {report.summary()}")
        print("\n# --- reproduction script "
              "---------------------------------------")
        print(repro_snippet(report.plan, config))

    return 0 if deterministic and rate_ok and not failing_seeds else 1


if __name__ == "__main__":
    sys.exit(main())
