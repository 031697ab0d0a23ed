"""Deterministic simulation testing for the ODP platform.

FoundationDB-style checking on top of the simulated world: a single
integer seed deterministically generates a randomized *plan* of client
operations interleaved with declarative chaos windows; the plan runs
on a fresh :class:`~repro.runtime.World`; a library of invariant
*oracles* judges the recorded run; and failing plans are minimized by
a ddmin *shrinker* into copy-pasteable reproduction scripts.

Entry points:

* ``python -m repro.check --seeds N`` — explore N seeds and report
  per-oracle results (see :mod:`repro.check.__main__`);
* :func:`run_seed` / :func:`run_plan` — programmatic exploration;
* :func:`shrink` / :func:`repro_snippet` — counterexample reduction.

Determinism contract: same seed, same config => byte-identical event
history and end-state digest.  The harness checks this about itself on
every CLI run.
"""

from repro.check.explorer import (
    CheckConfig,
    RunResult,
    run_plan,
    run_seed,
)
from repro.check.history import History, digest_run
from repro.check.mutations import MUTATIONS
from repro.check.oracles import ORACLES, Violation, run_all
from repro.check.plan import (
    CLIENT_NODE,
    SERVER_NODES,
    Op,
    Plan,
    generate_plan,
    op_kinds,
)
from repro.check.shrink import (
    Shrinker,
    ShrinkReport,
    judge,
    repro_snippet,
    shrink,
)
from repro.check.workload import Account, Counter, KvStore

__all__ = [
    "MUTATIONS",
    "CheckConfig",
    "RunResult",
    "run_plan",
    "run_seed",
    "History",
    "digest_run",
    "ORACLES",
    "Violation",
    "run_all",
    "CLIENT_NODE",
    "SERVER_NODES",
    "Op",
    "Plan",
    "generate_plan",
    "op_kinds",
    "Shrinker",
    "ShrinkReport",
    "judge",
    "repro_snippet",
    "shrink",
    "Account",
    "Counter",
    "KvStore",
]
