"""Shrunken counterexamples promoted to permanent regression tests.

When ``python -m repro.check`` finds a violating seed, the shrinker
reduces it to a minimal plan whose repr is pasted here verbatim (see
``repro.check.shrink.repro_snippet``), pinned against the platform
ever re-growing the bug.  Each entry records the seed, the oracle that
fired, and the minimal plan.

Most entries are *mutation-backed*: the minimal plans the shrinker
produced against deliberately broken platform variants.  They double as
regression tests for the shrinker's output format staying runnable.
Genuine platform violations are pinned at the end of the file: the
divergence after an aborted group write passes since its fix, and the
revive that installs a member missing an acknowledged write is an
expected failure until its protocol fix lands.
"""

from __future__ import annotations

import itertools

import pytest

from repro.check import CheckConfig, Op, Plan, run_plan
from repro.check.modes import MODES, Leases
from repro.check.oracles import run_all
from repro.check.workload import REPLY_QUORUM
from tests import pin_records

#: Shrunk from seed 1 (60 ops, 1 window) against the ``replycache``
#: mutation: a targeted reply-leg loss forces a client retransmission;
#: without dedup the increment executes twice.
REPLYCACHE_MINIMAL = Plan(seed=1, ops=[
    Op("lose_reply", node="n3"),
    Op("relocate", obj="c1", to="n3"),
    Op("invoke", counter=1),
], windows=[])


def test_replycache_minimal_plan_still_detected():
    config = CheckConfig().with_mutations("replycache")
    violations = run_all(run_plan(REPLYCACHE_MINIMAL, config))
    assert {v.oracle for v in violations} == {"linearizable"}


def test_replycache_minimal_plan_clean_without_mutation():
    violations = run_all(run_plan(REPLYCACHE_MINIMAL, CheckConfig()))
    assert violations == []


#: Batching variant of the same bug class, shrunk by hand from the
#: batched sweep: the *combined* reply of a 3-member batch is lost, the
#: client retransmits the whole batch, and without per-member reply
#: cache dedup every member executes twice (the members return 4, 5 and
#: 6, and the final read 6, where three increments leave 3).  Pins that batch members keep
#: individual invocation_id dedup rather than message-level semantics.
BATCHING_REPLYCACHE_MINIMAL = Plan(seed=1, ops=[
    Op("lose_reply", node="n1"),
    Op("batch_burst", counter=0, n=3),
], windows=[])


def test_batching_replycache_minimal_plan_still_detected():
    config = CheckConfig().with_batching().with_mutations("replycache")
    result = run_plan(BATCHING_REPLYCACHE_MINIMAL, config)
    violations = run_all(result)
    assert {v.oracle for v in violations} == {"linearizable"}
    # The burst really went through the batch path and retransmitted.
    batcher = result.end_state["perf"]["batcher"]
    assert batcher["batches_sent"] == 1
    assert batcher["invocations_batched"] == 3
    assert batcher["retransmits"] == 1


def test_batching_replycache_minimal_plan_clean_without_mutation():
    config = CheckConfig().with_batching()
    result = run_plan(BATCHING_REPLYCACHE_MINIMAL, config)
    assert run_all(result) == []
    assert result.counter_final["c0"] == 3  # dedup absorbed the retry


# ---------------------------------------------------------------------------
# Pinned split-brain scenario (epoch fencing)
# ---------------------------------------------------------------------------
#
# Partition + crafted stale invocations are outside the explorer's op
# vocabulary, so this one is pinned as a direct World scenario: a
# 3-member group is partitioned with its sequencer in the minority,
# the majority side elects a new sequencer and keeps writing, and the
# healed zombie must be *fenced* — not allowed to apply writes under
# its stale view — until it formally rejoins via revive.

def test_split_brain_zombie_sequencer_is_fenced():
    import pytest

    from repro import ReplicationSpec, World
    from repro.comp.invocation import Invocation
    from repro.engine.remote import invoke_at
    from repro.errors import EpochFencedError
    from repro.groups.member import VIEW_KEY
    from tests.conftest import KvStore

    world = World(seed=2026)
    for name in ("n1", "n2", "n3", "client-node"):
        world.node("org", name)
    domain = world.domain("org")
    capsules = [world.capsule(n, "srv") for n in ("n1", "n2", "n3")]
    clients = world.capsule("client-node", "clients")
    group, gref = domain.groups.create(
        KvStore, capsules, ReplicationSpec(replicas=3, policy="active",
                                           reply_quorum=2),
        group_id="sb.kv")
    proxy = world.binder_for(clients).bind(gref)

    proxy.put("k", "v0")
    old_sequencer = group.view.sequencer
    assert old_sequencer.node == "n1"
    stale_view = group.view.number

    # Split: the sequencer alone on one side, the quorum on the other.
    world.partition(["n1"], ["n2", "n3", "client-node"])
    proxy.put("k", "v1")  # majority side: suspect m0, elect, commit
    assert group.view.number > stale_view
    assert not old_sequencer.alive
    world.faults.heal_partition()

    # The zombie's writes carry the stale view number: fenced.
    stale_write = Invocation(
        interface_id=group.view.sequencer.interface_id,
        operation="put", args=("k", "zombie"))
    stale_write.context.extra[VIEW_KEY] = stale_view
    with pytest.raises(EpochFencedError):
        invoke_at(clients.nucleus, clients, group.view.sequencer.node,
                  group.view.sequencer.capsule_name,
                  group.view.sequencer.interface_id, stale_write)

    # Even unstamped traffic aimed at the voted-out member is fenced.
    direct = Invocation(interface_id=old_sequencer.interface_id,
                        operation="put", args=("k", "diverged"))
    with pytest.raises(EpochFencedError):
        invoke_at(clients.nucleus, clients, old_sequencer.node,
                  old_sequencer.capsule_name,
                  old_sequencer.interface_id, direct)

    assert proxy.get("k") == "v1"  # no zombie write ever landed

    # Formal rejoin: revive + state transfer, then the ledger is one.
    domain.groups.revive("sb.kv", old_sequencer.index)
    proxy.put("k", "v2")
    states = []
    for member in group.view.members:
        _, interface = domain.groups._plumbing[("sb.kv", member.index)]
        states.append(dict(interface.implementation.data))
    assert states == [{"k": "v2"}] * 3


def test_supervisor_mode_plan_is_deterministic():
    from repro.check.explorer import run_seed

    config = CheckConfig().with_supervisor()
    first = run_seed(7, config)
    second = run_seed(7, config)
    assert run_all(first) == []
    assert first.digest == second.digest
    heal = first.end_state["heal"]
    assert heal["detector"]["heartbeats_observed"] > 0


# ---------------------------------------------------------------------------
# Pinned quorum-barrier scenario (split-brain oracle)
# ---------------------------------------------------------------------------
#
# Hand-shrunk from the --partitions --mutate quorumbarrier sweep: a
# symmetric partition strands the client with the sequencer (n1) away
# from the quorum (n2, n3), and one group write lands inside the
# window.  With the barrier skipped, the sequencer applies the write
# before counting acks and keeps it on quorum failure — the commit
# ledger then holds an under-quorum certificate, which is exactly (and
# only) what the split_brain oracle must trip on.

def _quorumbarrier_minimal():
    from repro.net.fault import PartitionWindow

    return Plan(seed=1, ops=[
        Op("group_put", key="k0", value="v0"),
    ], windows=[
        PartitionWindow((("cli", "n1"), ("n2", "n3")), 0.0, 100.0),
    ])


def test_quorumbarrier_minimal_plan_still_detected():
    config = CheckConfig().with_partitions() \
                          .with_mutations("quorumbarrier")
    result = run_plan(_quorumbarrier_minimal(), config)
    violations = run_all(result)
    assert {v.oracle for v in violations} == {"split_brain"}
    # The evidence is the dirty coordinator ledger entry itself.
    sequencer = next(m for m in result.member_states
                     if m["commits"] and m["commits"][-1][2] is not None)
    assert sequencer["commits"][-1][2] < REPLY_QUORUM


def test_quorumbarrier_minimal_plan_clean_without_mutation():
    config = CheckConfig().with_partitions()
    result = run_plan(_quorumbarrier_minimal(), config)
    assert run_all(result) == []
    # Non-vacuous: ledgers were recorded, the write simply rolled back.
    assert all(m["commits"] == [] for m in result.member_states)


def test_partitions_mode_plan_is_deterministic():
    from repro.check.explorer import run_seed

    config = CheckConfig().with_partitions()
    first = run_seed(3, config)
    second = run_seed(3, config)
    assert run_all(first) == []
    assert first.digest == second.digest
    assert "partitions" in first.end_state
    assert all("commits" in m for m in first.member_states)


# ---------------------------------------------------------------------------
# Pinned lost-invalidation scenario (lease reads, linearizable oracle)
# ---------------------------------------------------------------------------
#
# Hand-shrunk from the --leases --mutate leaseinval sweep (ddmin took
# seed 1 from 60 ops to 18; this is the same failure tightened by
# hand).  The cache fills k3 before any write, a group put supersedes
# it, and — with invalidation fan-out *and* the authority's pending
# bookkeeping skipped — every half-life renewal succeeds yet delivers
# nothing, so the client keeps serving the superseded value on an
# unbroken lease.  The advances are each under the 300ms half-life, so
# the grant never lapses (a lapse would flush and hide the bug); past
# 600ms of accumulated staleness — the lag each lease read may carry —
# the read no longer fits any order.

LEASEINVAL_MINIMAL = Plan(seed=1, ops=[
    Op("cached_get", key="k3"),
    Op("group_put", key="k3", value="v1"),
    Op("advance", ms=280.0), Op("cached_get", key="k3"),
    Op("advance", ms=280.0), Op("cached_get", key="k3"),
    Op("advance", ms=280.0), Op("cached_get", key="k3"),
], windows=[])


def test_leaseinval_minimal_plan_still_detected():
    config = CheckConfig().with_leases().with_mutations("leaseinval")
    result = run_plan(LEASEINVAL_MINIMAL, config)
    violations = run_all(result)
    assert {v.oracle for v in violations} == {"linearizable"}
    # The evidence: stale cache hits well past the bound, while the
    # authority bumped versions but posted no invalidations.
    lease = result.end_state["lease"]
    assert lease["authority"]["invalidations_posted"] == 0
    assert lease["authority"]["invalidations_skipped"] > 0
    assert lease["client"]["hits"] > 0


def test_leaseinval_minimal_plan_clean_without_mutation():
    config = CheckConfig().with_leases()
    result = run_plan(LEASEINVAL_MINIMAL, config)
    assert run_all(result) == []
    # Non-vacuous: the same reads happened, but the put's invalidation
    # fan-out (or a renewal's pending delivery) dropped the stale entry.
    lease = result.end_state["lease"]
    assert lease["authority"]["invalidations_noted"] > 0
    assert lease["reads"] > 0


def test_leases_mode_plan_is_deterministic():
    from repro.check.explorer import run_seed

    config = CheckConfig().with_leases()
    first = run_seed(3, config)
    second = run_seed(3, config)
    assert run_all(first) == []
    assert first.digest == second.digest
    lease = first.end_state["lease"]
    assert lease["client"]["hits"] > 0  # the cache actually served
    assert lease["reads"] == sum(
        1 for call in first.calls
        if call["lag"] == Leases.TTL_MS and call["outcome"] == "ok") > 0, \
        "lease reads must join the call history, lagged by the TTL"


# ---------------------------------------------------------------------------
# Pinned expired-execution scenario (overload-safety oracle)
# ---------------------------------------------------------------------------
#
# Shrunk from the --overload --mutate deadline sweep (ddmin took seed 0
# from 60 ops and 2 windows to this).  A class-0 burst drains the
# server's admission burst and builds a token deficit; the tight-tier
# burst behind it is then admitted into a queue wait longer than its
# 2.5ms deadline.  With the post-queue deadline check skipped, the
# expired members start executing past their propagated deadlines —
# exactly (and only) what the overload_safety oracle's never-execute
# clause must trip on.

OVERLOAD_DEADLINE_MINIMAL = Plan(seed=0, ops=[
    Op("prio_invoke", counter=1, n=3, prio=0, tier=1),
    Op("prio_invoke", counter=1, n=2, prio=2, tier=0),
], windows=[])


def test_overload_deadline_minimal_plan_still_detected():
    config = CheckConfig().with_overload().with_mutations("deadline")
    result = run_plan(OVERLOAD_DEADLINE_MINIMAL, config)
    violations = run_all(result)
    assert {v.oracle for v in violations} == {"overload_safety"}
    # The evidence is the gate's own execution log: dispatches whose
    # deadline had already passed when they started.
    late = [entry for entry in result.evidence["overload"]["executions"]
            if entry["deadline"] is not None
            and entry["executed_at"] > entry["deadline"]]
    assert late


def test_overload_deadline_minimal_plan_clean_without_mutation():
    config = CheckConfig().with_overload()
    result = run_plan(OVERLOAD_DEADLINE_MINIMAL, config)
    assert run_all(result) == []
    # Non-vacuous: the same queue waits occurred, but the intact gate
    # shed the expired members before dispatch instead of running them.
    gates = result.end_state["overload"]["gates"]
    assert sum(g["expired_post_queue"] for g in gates.values()) > 0


def test_overload_mode_plan_is_deterministic():
    from repro.check.explorer import run_seed

    config = CheckConfig().with_overload()
    first = run_seed(0, config)
    second = run_seed(0, config)
    assert run_all(first) == []
    assert first.digest == second.digest
    overload = first.end_state["overload"]
    # The mode is non-vacuous: deadlines expired, classes were shed,
    # and retry budgets were consulted.
    assert overload["executions"] > 0
    assert sum(g["expired_post_queue"]
               for g in overload["gates"].values()) > 0
    assert overload["budgets"]["first_attempts"] > 0


# ---------------------------------------------------------------------------
# Full-mode digest matrix: the absolute run digests of every explorer
# mode alone, of every unordered pair of modes, and of all of them
# composed are pinned in tests/pins/ (see tests/pin_records.py).  A
# hot-path refactor (zero-copy codec, event wheel, plan splicing) must
# reproduce each of these byte-for-byte — any drift means observable
# behaviour changed, not just speed, and the test says what moved from
# the record committed beside each hash.  A key is "default",
# "composed", or the sorted mode names joined by "+".  Regenerate the
# hashes and records ONLY for a deliberate, versioned semantic change:
#   PYTHONPATH=src:. python -m tests.pin_records
# ---------------------------------------------------------------------------

MODE_DIGESTS = pin_records.load_digests()


def test_mode_digest_matrix_covers_the_registry():
    names = [mode.name for mode in MODES]
    expected = {"default", "composed", *names,
                *("+".join(sorted(pair))
                  for pair in itertools.combinations(names, 2))}
    assert {mode for mode, _ in MODE_DIGESTS} == expected


def test_mode_digest_matrix_is_pinned():
    from repro.check.explorer import run_seed

    drifted, stale, failing = [], [], []
    for (mode, seed), expected in MODE_DIGESTS.items():
        result = run_seed(seed, pin_records.config_for(mode))
        text = pin_records.record(result)
        committed = pin_records.read_record(mode, seed)
        if result.digest != expected:
            drifted.append(pin_records.explain(mode, seed, committed, text))
        elif text != committed:
            stale.append((mode, seed))
        if run_all(result):
            failing.append((mode, seed))
    assert not drifted, (
        "digests drifted — the platform's observable behaviour changed, "
        "not just its speed:\n" + "\n".join(drifted))
    assert not stale, f"records that no longer match their hash: {stale}"
    assert not failing, failing


# Each mutation still trips its oracle with every mode on: the seed is
# the first at which the composed sweep trips, the oracle set what it
# trips there.  ``replycache`` trips ``linearizable``, its oracle on
# default plans, first at composed seed 8: an increment whose reply was
# lost executes again and returns a count no order of the calls
# explains (the acked <= final <= acked + ambiguous envelope that came
# before it let that seed through — see ARCHITECTURE §6).
@pytest.mark.parametrize("mutation,seed,oracles", [
    ("replycache", 2, {"tx_atomicity"}),
    ("txversions", 1, {"tx_atomicity"}),
    ("quorumbarrier", 33, {"split_brain"}),
    ("leaseinval", 5, {"linearizable"}),
    ("deadline", 0, {"overload_safety"}),
    ("replycache", 8, {"linearizable"}),
])
def test_mutation_trips_its_oracle_under_composition(mutation, seed,
                                                     oracles):
    from repro.check.explorer import run_seed

    result = run_seed(seed, pin_records.config_for("composed", mutation))
    assert {v.oracle for v in result.violations} == oracles


# ---------------------------------------------------------------------------
# Fixed divergence: an aborted group write kept by a member whose ack
# was lost (supervisor + shards sweep, seed 117; supervisor + partitions
# sweep, seed 121)
# ---------------------------------------------------------------------------
#
# Shrunk by ddmin from `repro.check --supervisor --shards` seed 117 (60
# ops and 2 windows to 23 and 2).  The two flaky windows overlap, so
# the second to close restores the rate the first set (the overlapping
# FlakyWindow debt) and loss goes on after them.  The last group_put
# falls short of quorum: its relay to n2 is lost, its relay to n3 is
# applied but n3's ack is lost.  The sequencer used to roll back itself
# and the members that acked — none — and report both as
# uncorroborated suspects, which the supervisor's panel vetoed because
# both nodes were heartbeating, so n3 stayed in the view holding the
# write the group aborted (item 1's family B).  Now the sequencer also
# rolls back each suspect the panel still hears.  The partitions plan,
# shrunk from seed 121 (60 ops and 4 windows to 13 and 3), reaches the
# same abort on the majority side of a partition.

def _ambiguous_abort_plan():
    from repro.net.fault import FlakyWindow

    return Plan(seed=117, ops=[
        Op("group_put", key="k1", value="v18"),
        Op("lose_reply", node="n1"), Op("invoke", counter=1),
        Op("invoke", counter=1), Op("shard_move", node="n1"),
        Op("shard_move", node="n3"), Op("invoke", counter=0),
        Op("group_put", key="k1", value="v31"),
        Op("group_put", key="k3", value="v32"),
        Op("relocate", obj="a0", to="n2"), Op("group_get", key="k3"),
        Op("gc_sweep"), Op("shard_get", key="s9"),
        Op("invoke", counter=0), Op("shard_incr", key="s7"),
        Op("invoke", counter=0), Op("group_get", key="k1"),
        Op("shard_incr", key="s7"),
        Op("cancel_transfer", amount=14, dst=0, src=1),
        Op("shard_incr", key="s7"), Op("advance", ms=163.394),
        Op("invoke", counter=1),
        Op("group_put", key="k0", value="v51"),
    ], windows=[
        FlakyWindow(start_ms=504.168, end_ms=602.612, drop=0.32),
        FlakyWindow(start_ms=553.439, end_ms=634.214, drop=0.177),
    ])


def _ambiguous_abort_under_partitions_plan():
    from repro.net.fault import FlakyWindow, PartitionWindow

    return Plan(seed=121, ops=[
        Op("transfer", amount=49, dst=1, src=0),
        Op("group_revive", member=1), Op("invoke", counter=0),
        Op("invoke", counter=0), Op("advance", ms=232.216),
        Op("group_put", key="k2", value="v12"), Op("group_get", key="k4"),
        Op("group_put", key="k4", value="v14"), Op("advance", ms=173.959),
        Op("group_put", key="k1", value="v17"),
        Op("cancel_transfer", amount=2, dst=1, src=0),
        Op("advance", ms=213.631), Op("group_put", key="k3", value="v20"),
    ], windows=[
        FlakyWindow(start_ms=154.636, end_ms=458.375, drop=0.338),
        FlakyWindow(start_ms=202.194, end_ms=560.155, drop=0.317),
        PartitionWindow(groups=(("n1",), ("cli", "n2", "n3")),
                        start_ms=552.605, end_ms=832.727),
    ])


def test_ambiguous_abort_leaves_no_diverged_member():
    config = CheckConfig().with_supervisor().with_shards()
    assert run_all(run_plan(_ambiguous_abort_plan(), config)) == []


def test_ambiguous_abort_under_partitions_leaves_no_diverged_member():
    config = CheckConfig().with_supervisor().with_partitions()
    result = run_plan(_ambiguous_abort_under_partitions_plan(), config)
    assert run_all(result) == []


# ---------------------------------------------------------------------------
# Known loss: a write the group acknowledged, gone after a revive
# (leases + overload sweep, seed 16)
# ---------------------------------------------------------------------------
#
# Shrunk by ddmin from `repro.check --leases --overload` seed 16 (60 ops
# and 4 windows to 11 and 1, in 103 runs).  Members 1 and 2 apply the
# acknowledged ``put('k4', 'v12')``; under the flaky window suspicions
# then leave the group no live member (the next read fails with
# ``GroupError``), and ``group_revive`` makes member 0, which missed
# the write (``applied_seq`` 0), the only live member and so the
# group.  The final read of k4 returns '', which no sequential order
# of the calls on k4 explains.  The view change must pick its source
# by quorum certificate, not ``applied_seq``; until then the test is
# an expected failure.

def _acked_write_lost_plan():
    from repro.net.fault import FlakyWindow

    return Plan(seed=16, ops=[
        Op("cached_get", key="k0"), Op("invoke", counter=1),
        Op("invoke", counter=0), Op("cached_get", key="k1"),
        Op("invoke", counter=1), Op("cached_get", key="k2"),
        Op("prio_invoke", counter=1, n=2, prio=2, tier=1),
        Op("transfer", amount=58, dst=0, src=1),
        Op("group_put", key="k4", value="v12"),
        Op("cached_get", key="k3"), Op("group_revive", member=0),
    ], windows=[
        FlakyWindow(start_ms=7.715, end_ms=417.123, drop=0.318),
    ])


def test_acked_write_lost_plan_trips_linearizable():
    config = CheckConfig().with_leases().with_overload()
    violations = run_all(run_plan(_acked_write_lost_plan(), config))
    assert {v.oracle for v in violations} == {"linearizable"}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a revive can make a member that missed an "
                          "acknowledged group write the whole group")
def test_revive_keeps_every_acknowledged_write():
    config = CheckConfig().with_leases().with_overload()
    assert run_all(run_plan(_acked_write_lost_plan(), config)) == []


# ---------------------------------------------------------------------------
# Known lease failures: the two `--leases` seeds that fail, by class
# ---------------------------------------------------------------------------
#
# A lease read may return the state at some instant at most the lease
# TTL (600 ms) before it.  Widening that lag without bound sorts a
# failing lease history into one of two classes: *stale beyond the TTL*
# (some order fits once the lag is unbounded) or *not linearizable for
# any lag* (none does).  Both seeds below are item 1's family A at the
# root — a revive makes a member that missed an acknowledged write the
# group's only live member — and they differ in what the client sees.

def _stale_beyond_ttl_plan():
    """Shrunk from `repro.check --leases` seed 810 (60 ops and 4 windows
    to 14 and 2: ddmin keeping the class, then each op that mattered
    only for its duration replaced by an advance as long).  Class:
    **stale beyond the TTL.**  The n2 crash leaves member 1 suspected;
    ``put('k2', 'v13')`` is acked by members 0 and 2 at t=439.6.  Reads
    lost to the cli–n3 cut suspect those two, and ``group_revive``
    makes member 1, which missed the write, the only live member.  The
    burst fetches '' from it at t=937.6 (498 ms after the ack, inside
    the TTL) and fills the cache, and the cache serves '' at t=1049.1,
    609.5 ms after the ack.  Reviving member 2 brings v13 back, so the
    final read returns it: with an unbounded lag every '' fits before
    the put."""
    from repro.net.fault import CrashWindow, CutWindow

    return Plan(seed=810, ops=[
        Op("cached_get", key="k0"), Op("cached_get", key="k4"),
        Op("advance", ms=330.624),
        Op("group_put", key="k2", value="v13"),
        Op("advance", ms=183.279), Op("lose_reply", node="n1"),
        Op("advance", ms=83.48), Op("cached_get", key="k2"),
        Op("advance", ms=52.053), Op("group_revive", member=1),
        Op("cached_burst", key="k2", n=4), Op("advance", ms=59.316),
        Op("cached_get", key="k2"), Op("group_revive", member=2),
    ], windows=[
        CrashWindow(node="n2", start_ms=46.242, end_ms=54.884),
        CutWindow(a="cli", b="n3", start_ms=790.362, end_ms=810.904),
    ])


def _lease_read_runs_back_plan():
    """Shrunk from `repro.check --leases` seed 516 (60 ops and 4 windows
    to 7 and 2, the same way).  Class: **not linearizable for any
    lag**, and item 1's family A, not a follower read from a member
    trailing a live sequencer.  Member 0 on n1 is down when
    ``put('k0', 'v2')`` is acked.  A burst reads v2 four times, and its
    reads lost to the flaky window then suspect members 1 and 2.
    ``group_revive`` makes member 0, with ``applied_seq`` 0, the whole
    group, and the next burst *fetches* '' from it.  Lease reads take
    effect in program order, so no lag puts that read before the four
    that saw v2."""
    from repro.net.fault import CrashWindow, FlakyWindow

    return Plan(seed=516, ops=[
        Op("advance", ms=27.053), Op("group_put", key="k0", value="v2"),
        Op("advance", ms=29.506), Op("cached_burst", key="k0", n=7),
        Op("advance", ms=25.0), Op("group_revive", member=0),
        Op("cached_burst", key="k0", n=7),
    ], windows=[
        CrashWindow(node="n1", start_ms=48.588, end_ms=223.497),
        FlakyWindow(start_ms=133.388, end_ms=180.416, drop=0.151),
    ])


def test_the_two_lease_failures_keep_their_classes():
    from repro.check.linearizable import unexplained

    config = CheckConfig().with_leases()
    stale = run_plan(_stale_beyond_ttl_plan(), config)
    lost = run_plan(_lease_read_runs_back_plan(), config)
    for result in (stale, lost):
        assert {v.oracle for v in run_all(result)} == {"linearizable"}

    def unbounded(calls):
        return [dict(call, lag=float("inf")) if call["lag"] else call
                for call in calls]

    assert unexplained(unbounded(stale.calls)) == []
    assert unexplained(unbounded(lost.calls)) != []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a cache fills from a revived member that "
                          "missed an acknowledged write and serves it "
                          "past the lease TTL")
def test_cached_reads_stay_within_the_lease_ttl():
    config = CheckConfig().with_leases()
    assert run_all(run_plan(_stale_beyond_ttl_plan(), config)) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a revive can make a member that missed an "
                          "acknowledged group write the whole group, "
                          "and a lease read then runs back past it")
def test_lease_reads_never_run_back_past_an_acked_write():
    config = CheckConfig().with_leases()
    assert run_all(run_plan(_lease_read_runs_back_plan(), config)) == []
