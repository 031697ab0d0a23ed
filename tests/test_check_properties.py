"""Properties of the simulation-test harness itself (repro.check).

Four claims are pinned here: a fixed seed corpus passes every oracle;
same-seed runs are byte-identical; each platform mutation is caught by
exactly the oracle aimed at it (oracle sensitivity — a harness whose
checks cannot fail is decorative); and the shrinker reduces a failing
plan to a handful of ops whose reproduction snippet actually runs.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import re

import pytest

from repro.check import (
    MUTATIONS,
    CheckConfig,
    Op,
    Plan,
    generate_plan,
    mutations,
    repro_snippet,
    run_plan,
    run_seed,
    shrink,
)
from repro.check.__main__ import main as check_main
from repro.check.oracles import ORACLES, run_all
from repro.runtime import World

#: The pinned corpus: every seed here must stay clean forever (a new
#: violation on one of these is a platform regression, not flakiness).
#: 27 and 37 are included because their plans drive a full
#: passivate -> lease-expiry -> collect lifecycle.
CORPUS = list(range(10)) + [27, 37]


class TestSeedCorpus:
    def test_corpus_passes_every_oracle(self):
        for seed in CORPUS:
            result = run_seed(seed)
            assert result.violations == [], (
                f"seed {seed}: {[str(v) for v in result.violations]}")

    def test_every_oracle_ran_nonvacuously(self):
        # The corpus must exercise the subsystems the oracles judge.
        saw_transfer = saw_group = saw_gc = False
        for seed in CORPUS:
            result = run_seed(seed)
            if any(e["op"].startswith("Op('transfer'")
                   for e in result.events):
                saw_transfer = True
            if any(call["op"] == "put" for call in result.calls):
                saw_group = True
            if result.collected or result.gc_observations:
                saw_gc = True
            assert result.spans, "tracer recorded nothing"
        assert saw_transfer and saw_group and saw_gc


class TestDeterminism:
    def test_same_seed_same_digest(self):
        first = run_seed(3)
        second = run_seed(3)
        assert first.digest == second.digest
        assert first.events == second.events
        assert first.end_state == second.end_state

    def test_different_seeds_diverge(self):
        digests = {run_seed(seed).digest for seed in (0, 1, 2)}
        assert len(digests) == 3

    def test_plan_generation_is_pure(self):
        config = CheckConfig()
        assert generate_plan(11, config) == generate_plan(11, config)

    def test_plan_repr_round_trips(self):
        plan = generate_plan(5, CheckConfig())
        namespace = {}
        exec("from repro.check.plan import Op, Plan\n"
             "from repro.net.fault import (CrashWindow, CutWindow, "
             "FlakyWindow, GrayWindow)\n"
             f"rebuilt = {plan!r}", namespace)
        assert namespace["rebuilt"] == plan


class TestSeedPlumbing:
    def test_world_rejects_duplicate_rng_fork_labels(self):
        world = World(seed=1)
        world.fork_rng("workload")
        with pytest.raises(ValueError):
            world.fork_rng("workload")
        # "network" is claimed by the world itself at construction.
        with pytest.raises(ValueError):
            world.fork_rng("network")

    def test_drop_decisions_do_not_perturb_latency(self):
        # Dedicated jitter stream: same seed, loss on or off, the
        # network charges identical per-leg latency for delivered legs.
        from repro.net.latency import LatencyModel

        class Jittery(LatencyModel):
            def delay(self, source, destination, size_bytes, rng):
                return 1.0 + rng.uniform(0.0, 1.0)

        def delivered_delay(drop_probability):
            world = World(seed=9, latency=Jittery())
            world.faults.drop_probability = drop_probability
            network = world.network
            delays = []
            network.add_node("n1")
            network.add_node("n2").on_deliver(
                "data", lambda m: delays.append(world.now - m.sent_at))
            while not delays:  # the first leg that gets through
                network.post("n1", "n2", bytes(100))
                world.scheduler.run_until_idle()
            return delays[0]

        assert delivered_delay(0.0) == delivered_delay(0.9)


#: Hand-crafted single-purpose plans: each touches only the subsystem
#: its mutation breaks, so exactly one oracle may fire.
REPLYCACHE_PLAN = Plan(seed=7, ops=[
    Op("lose_reply", node="n1"),
    Op("invoke", counter=0),
])
TXVERSIONS_PLAN = Plan(seed=7, ops=[
    Op("cancel_transfer", src=0, dst=1, amount=5),
])


class TestMutationSensitivity:
    @pytest.mark.parametrize("plan,mutation,oracle", [
        (REPLYCACHE_PLAN, "replycache", "linearizable"),
        (TXVERSIONS_PLAN, "txversions", "tx_atomicity"),
    ])
    def test_mutation_trips_exactly_its_oracle(self, plan, mutation,
                                               oracle):
        clean = run_plan(plan, CheckConfig())
        assert run_all(clean) == []

        mutated = run_plan(plan, CheckConfig().with_mutations(mutation))
        fired = {v.oracle for v in run_all(mutated)}
        assert fired == {oracle}

    def test_patched_methods_restored_by_identity(self):
        def installed():
            return {name: vars(cls)[method]
                    for name, (cls, method, _) in MUTATIONS.items()}

        originals = installed()
        with mutations.applied(*MUTATIONS):
            assert installed() == {name: mutant for name, (_, _, mutant)
                                   in MUTATIONS.items()}
        assert all(installed()[name] is originals[name]
                   for name in MUTATIONS)

        with pytest.raises(RuntimeError):
            with mutations.applied("deadline", "quorumbarrier"):
                raise RuntimeError("a run that dies mid-plan")
        run_plan(REPLYCACHE_PLAN,
                 CheckConfig().with_mutations("replycache",
                                              "txversions"))
        assert all(installed()[name] is originals[name]
                   for name in MUTATIONS)

    def test_production_classes_carry_no_switch(self):
        """The nine benchmark-only and test-only options are gone: fault
        models live in ``repro.check`` and are installed, not flipped.
        Nor do the management-plane arms that only tests ran come back:
        one supervisor, whose one setting is its vantage count, and
        caching by explicit registration only.  Limits no caller sets
        are class constants, and every client layer is a transparency:
        no metrics layer, no credential layer.  One interleaver (the
        activity runtime, with no waiter machinery of its own), one kind
        of nucleus (every nucleus has a domain, so no null tracer), and
        ``atomically`` runs its body once."""
        import repro
        import repro.engine
        import repro.lease
        import repro.overload
        import repro.overload.admission
        import repro.security
        import repro.sim
        import repro.sim.activity
        import repro.trace
        import repro.trace.collector
        import repro.trace.metrics
        from repro.engine.dispatcher import Dispatcher
        from repro.engine.nucleus import Nucleus
        from repro.federation.domain import Domain
        from repro.groups.client import GroupInvokeLayer
        from repro.groups.registry import GroupRegistry
        from repro.heal.supervisor import Supervisor
        from repro.lease.authority import LeaseAuthority
        from repro.mgmt.advisor import TransparencyAdvisor
        from repro.mgmt.tuning import TransparencyTuner
        from repro.ndr import formats
        from repro.ndr.plancache import PlanCache
        from repro.overload.admission import BrownoutController
        from repro.relocation.layer import RelocationLayer
        from repro.resilience.dedup import ReplyCache
        from repro.shard.space import ShardManager, ShardSpace
        from repro.streams.sync import SyncController
        from repro.transparency import access
        from repro.tx.ordering import OrderingPredicate
        from repro.tx.runner import TxRunner
        from repro.tx.transaction import TransactionManager

        root = pathlib.Path(repro.__file__).parent
        offenders = [str(path.relative_to(root))
                     for path in sorted(root.rglob("*.py"))
                     if path.parent.name != "check"
                     and re.search(r"\bmutate_", path.read_text())]
        assert offenders == []
        for name in ("set_zero_copy", "zero_copy_enabled", "_ZERO_COPY"):
            assert not hasattr(formats, name)
        assert not hasattr(PlanCache, "default_enabled")
        assert not hasattr(PlanCache(), "enabled")
        assert not hasattr(ReplyCache(), "enabled")
        for cls in (PlanCache, ReplyCache):
            assert "enabled" not in inspect.signature(cls).parameters
        assert list(inspect.signature(Supervisor).parameters) \
            == ["domain", "vantage"]
        for owner, name in ((GroupRegistry, "start_heartbeats"),
                            (GroupRegistry, "stop_heartbeats"),
                            (TransparencyTuner, "set_heartbeat_interval"),
                            (repro.lease, "PromotionPolicy"),
                            (LeaseAuthority, "unregister"),
                            (repro.engine, "MetricsLayer"),
                            (repro.engine.layers, "MetricsLayer"),
                            (repro.security, "CredentialLayer"),
                            (repro.security.guard, "CredentialLayer"),
                            (access, "selected_transparencies"),
                            (repro.sim, "WaitFor"),
                            (repro.sim.activity, "WaitFor"),
                            (repro.sim.activity, "ActivityTimeout"),
                            (repro.trace, "NULL_COLLECTOR"),
                            (repro.trace.collector, "NullCollector"),
                            (repro.trace.collector, "NULL_COLLECTOR"),
                            (repro.trace, "Gauge"),
                            (repro.trace.metrics, "Gauge"),
                            (OrderingPredicate, "any_order"),
                            (repro.overload, "ClassAdmissionController"),
                            (repro.overload.admission,
                             "ClassAdmissionController"),
                            (repro.trace.collector.TraceCollector(
                                "d", World().clock), "verbose")):
            assert not hasattr(owner, name), name
        for cls, name in ((Dispatcher, "strict"),
                          (GroupInvokeLayer, "max_view_changes"),
                          (RelocationLayer, "max_repairs"),
                          (TxRunner, "busy_backoff_ms"),
                          (TxRunner, "max_stall_rounds"),
                          (BrownoutController, "max_level"),
                          (TransparencyAdvisor, "contention_threshold"),
                          (ShardSpace, "durable"),
                          (ShardManager.create, "durable"),
                          (SyncController, "on_release"),
                          (TransactionManager.atomically, "max_attempts"),
                          (Domain.add_node, "processing_ms"),
                          (World, "processing_ms")):
            assert name not in inspect.signature(cls).parameters, \
                (cls, name)
        assert inspect.signature(Nucleus).parameters["domain"].default \
            is inspect.Parameter.empty

    def test_every_counter_has_a_reader(self):
        """No attribute that ``src/repro`` bumps with ``+=`` / ``-=`` is
        left unread: some code in the source, the tests, the benchmarks
        or the examples loads it, or names it to ``getattr`` /
        ``hasattr``.  A counter nobody reads is state without a
        purpose, paid for on every event it counts."""
        root = pathlib.Path(__file__).resolve().parent.parent
        bumped = {}
        read = set()
        for folder in ("src/repro", "tests", "benchmarks", "examples"):
            for path in sorted((root / folder).rglob("*.py")):
                tree = ast.parse(path.read_text(), str(path))
                for node in ast.walk(tree):
                    if isinstance(node, ast.AugAssign) \
                            and folder == "src/repro" \
                            and isinstance(node.op, (ast.Add, ast.Sub)) \
                            and isinstance(node.target, ast.Attribute):
                        bumped.setdefault(node.target.attr, set()).add(
                            str(path.relative_to(root)))
                    elif isinstance(node, ast.Attribute) \
                            and isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                    elif isinstance(node, ast.Call) \
                            and isinstance(node.func, ast.Name) \
                            and node.func.id in ("getattr", "hasattr") \
                            and len(node.args) >= 2 \
                            and isinstance(node.args[1], ast.Constant):
                        read.add(node.args[1].value)
        assert {name: sorted(paths) for name, paths in bumped.items()
                if name not in read} == {}

    #: Defaulted constructor parameters kept although no caller passes
    #: them, each with its reason.
    UNPASSED_SETTINGS = {
        # The network model's physics: section 5.4's per-protocol QoS
        # is a statement about bandwidth.
        ("UniformLatency", "bandwidth_bytes_per_ms"),
        ("DistanceLatency", "bandwidth_bytes_per_ms"),
        # An injection seam: a scheduler over a clock the caller owns.
        ("Scheduler", "clock"),
        # DFA data (the accepting states), not a setting.
        ("OrderingPredicate", "accepting"),
    }

    def test_every_setting_has_a_caller(self):
        """Every defaulted parameter of an ``__init__`` in ``src/repro``
        is passed — by position, by keyword or through
        ``super().__init__`` — by some call in the source, the
        benchmarks or the examples; a call that splats ``*args`` or
        ``**kwargs`` passes everything.  A setting every caller leaves
        at its default selects nothing: it is a class constant."""
        root = pathlib.Path(__file__).resolve().parent.parent
        # class -> (positional parameter names, defaulted names)
        inits, bases = {}, {}
        for path in sorted((root / "src/repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases[node.name] = [getattr(base, "id", None)
                                    or getattr(base, "attr", None)
                                    for base in node.bases]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and item.name == "__init__":
                        args = item.args
                        positional = [a.arg for a in
                                      args.posonlyargs + args.args][1:]
                        defaulted = positional[
                            len(positional) - len(args.defaults):]
                        defaulted += [a.arg for a, default in zip(
                            args.kwonlyargs, args.kw_defaults)
                            if default is not None]
                        inits[node.name] = (positional, set(defaulted))

        def owner(name):
            """The class whose ``__init__`` a call to *name* runs."""
            seen = set()
            while name is not None and name not in inits \
                    and name not in seen:
                seen.add(name)
                name = (bases.get(name) or [None])[0]
            return name

        passed = {}

        def visit(node, cls):
            for child in ast.iter_child_nodes(node):
                visit(child, child.name
                      if isinstance(child, ast.ClassDef) else cls)
            if not isinstance(node, ast.Call):
                return
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr == "__init__" \
                    and isinstance(func.value, ast.Call) \
                    and getattr(func.value.func, "id", None) == "super":
                target = owner((bases.get(cls) or [None])[0])
            else:
                target = owner(getattr(func, "id", None)
                               or getattr(func, "attr", None))
            if target not in inits:
                return
            positional, defaulted = inits[target]
            got = passed.setdefault(target, set())
            if any(isinstance(arg, ast.Starred) for arg in node.args) \
                    or any(kw.arg is None for kw in node.keywords):
                got.update(defaulted)
            else:
                got.update(positional[:len(node.args)])
                got.update(kw.arg for kw in node.keywords)

        for folder in ("src/repro", "benchmarks", "examples"):
            for path in sorted((root / folder).rglob("*.py")):
                visit(ast.parse(path.read_text(), str(path)), None)
        unpassed = {
            cls: sorted(name for name in defaulted
                        - passed.get(cls, set())
                        if (cls, name) not in self.UNPASSED_SETTINGS)
            for cls, (_, defaulted) in inits.items()}
        assert {cls: names for cls, names in unpassed.items()
                if names} == {}

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            CheckConfig().with_mutations("bitflip")


class TestShrinker:
    def test_shrinks_failing_seed_to_few_ops(self):
        config = CheckConfig().with_mutations("replycache")
        plan = generate_plan(1, config)
        report = shrink(plan, config)
        assert len(report.plan.ops) <= 10
        assert "linearizable" in report.oracles
        # Determinism of the shrink itself.
        again = shrink(plan, config)
        assert again.plan == report.plan

    def test_snippet_is_runnable_and_still_fails(self):
        config = CheckConfig().with_mutations("replycache")
        report = shrink(generate_plan(1, config), config)
        snippet = repro_snippet(report.plan, config)
        namespace = {}
        exec(compile(snippet, "<repro>", "exec"), namespace)
        assert namespace["violations"]

    def test_refuses_passing_plan(self):
        with pytest.raises(ValueError):
            shrink(generate_plan(0, CheckConfig()), CheckConfig())


class TestCli:
    def test_clean_sweep_exits_zero(self, capsys):
        assert check_main(["--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "determinism: seed 0 re-run digest matches" in out
        assert "2/2 seeds clean" in out

    def test_mutated_sweep_exits_nonzero(self, capsys):
        assert check_main(["--seeds", "3", "--mutate",
                           "replycache"]) == 1
        assert "violation" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_seed_count_below_one_is_a_usage_error(self, count, capsys):
        # Used to die with KeyError at the determinism self-check.
        with pytest.raises(SystemExit) as usage:
            check_main(["--seeds", count])
        assert usage.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_oracle_catalogue_is_complete(self):
        assert list(ORACLES) == [
            "linearizable", "tx_atomicity", "group_consistency",
            "split_brain", "shard_routing", "overload_safety",
            "relocation", "gc_safety", "clock_monotonic", "self_heal"]
