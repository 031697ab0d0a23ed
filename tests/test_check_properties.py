"""Properties of the simulation-test harness itself (repro.check).

Four claims are pinned here: a fixed seed corpus passes every oracle;
same-seed runs are byte-identical; each platform mutation is caught by
exactly the oracle aimed at it (oracle sensitivity — a harness whose
checks cannot fail is decorative); and the shrinker reduces a failing
plan to a handful of ops whose reproduction snippet actually runs.
"""

from __future__ import annotations

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
            if result.group_writes:
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
        (REPLYCACHE_PLAN, "replycache", "exactly_once"),
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
        models live in ``repro.check`` and are installed, not flipped."""
        import repro
        from repro.ndr import formats
        from repro.ndr.plancache import PlanCache
        from repro.resilience.dedup import ReplyCache

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

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            CheckConfig().with_mutations("bitflip")


class TestShrinker:
    def test_shrinks_failing_seed_to_few_ops(self):
        config = CheckConfig().with_mutations("replycache")
        plan = generate_plan(1, config)
        report = shrink(plan, config)
        assert len(report.plan.ops) <= 10
        assert "exactly_once" in report.oracles
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
            "exactly_once", "tx_atomicity", "group_consistency",
            "split_brain", "shard_routing", "staleness_bound",
            "overload_safety", "relocation", "gc_safety",
            "clock_monotonic", "self_heal"]
