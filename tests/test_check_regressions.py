"""Shrunken counterexamples promoted to permanent regression tests.

When ``python -m repro.check`` finds a violating seed, the shrinker
reduces it to a minimal plan whose repr is pasted here verbatim (see
``repro.check.shrink.repro_snippet``), pinned against the platform
ever re-growing the bug.  Each entry records the seed, the oracle that
fired, and the minimal plan.

Most entries are *mutation-backed*: the minimal plans the shrinker
produced against deliberately broken platform variants.  They double as
regression tests for the shrinker's output format staying runnable.
The one genuine platform violation found so far (supervisor + shards
sweep, seed 16) is pinned at the end of the file as an expected failure
until its protocol fix lands.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.check import CheckConfig, Op, Plan, run_plan
from repro.check.modes import MODES
from repro.check.oracles import run_all
from repro.check.workload import REPLY_QUORUM

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
    assert {v.oracle for v in violations} == {"exactly_once"}


def test_replycache_minimal_plan_clean_without_mutation():
    violations = run_all(run_plan(REPLYCACHE_MINIMAL, CheckConfig()))
    assert violations == []


#: Batching variant of the same bug class, shrunk by hand from the
#: batched sweep: the *combined* reply of a 3-member batch is lost, the
#: client retransmits the whole batch, and without per-member reply
#: cache dedup every member executes twice (final=6 against an
#: exactly-once envelope of [3, 3]).  Pins that batch members keep
#: individual invocation_id dedup rather than message-level semantics.
BATCHING_REPLYCACHE_MINIMAL = Plan(seed=1, ops=[
    Op("lose_reply", node="n1"),
    Op("batch_burst", counter=0, n=3),
], windows=[])


def test_batching_replycache_minimal_plan_still_detected():
    config = CheckConfig().with_batching().with_mutations("replycache")
    result = run_plan(BATCHING_REPLYCACHE_MINIMAL, config)
    violations = run_all(result)
    assert {v.oracle for v in violations} == {"exactly_once"}
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
    world.heal_partition()

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
# Pinned lost-invalidation scenario (staleness-bound oracle)
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
# 600ms of accumulated staleness the bound clause must trip.

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
    assert {v.oracle for v in violations} == {"staleness_bound"}
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
    assert first.evidence["leases"]["reads"], \
        "read evidence must be recorded"


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
# composed are pinned here.  A hot-path refactor (zero-copy codec, event
# wheel, plan splicing) must reproduce each of these byte-for-byte —
# any drift means observable behaviour changed, not just speed.  A key
# is "default", "composed", or the sorted mode names joined by "+".
# Regenerate ONLY for a deliberate, versioned semantic change:
#   PYTHONPATH=src:. python - <<'PY'
#   from repro.check.explorer import run_seed
#   from tests.test_check_regressions import MODE_DIGESTS, _config_for
#   for mode, seed in MODE_DIGESTS:
#       print(mode, seed, run_seed(seed, _config_for(mode)).digest)
#   PY
# ---------------------------------------------------------------------------

MODE_DIGESTS = {
    ("default", 0):
        "8ae9651b8dbb4ce40660944a4bd914c6ce3ec99c1d5968abefbeb3e8edf7fd1c",
    ("default", 5):
        "1804e2affad79d9689c5ce998cc4bc8b19f769a506de32ab86f59ee57b895a86",
    ("batching", 0):
        "ac2b24ab85f3380a10b81d8df575030dc707998bd458c6ee1d8d3be3c4085979",
    ("batching", 5):
        "55177db98b9cbd01e523fadc0104624823c49449f054aaf26bb0031e3343a4e3",
    ("shards", 0):
        "b985298c3a165c11cb88bc56f1b88c9ac997c6b0dc99a9c459751e267aae6294",
    ("shards", 5):
        "8f490e6c75fb9295098382932c668b66c740ac7f04771923492ef578b44fe06c",
    ("leases", 0):
        "1938f54fede81f0d78cf4eaf816fb06eea2bb9114b70a2cc459b015d82793a2a",
    ("leases", 5):
        "5d2a8f00a0f035330fe68666af5da3e14fe9d07d8bf3c4d8ea7a1c3036f4101a",
    ("overload", 0):
        "a7eea403221b145405a99a6acfe015b367f71888652409992bd2bcde6b3874d3",
    ("overload", 5):
        "38fff332e1cd0a900d6d308606468d13c1f17d4d027081b454b2bee22592ea1f",
    ("partitions", 0):
        "5a318e0077ab0a04b87088db1859e414e71120a57e0867eb0a9c4d079b19c605",
    ("partitions", 5):
        "b82fc3ee8e23e9d8f28090ae601e3a05f3792727c5ed506597fa8f06d4b07ff4",
    ("supervisor", 0):
        "4b194f6f3950075a8b01379907fc6e47b9cd67bc9e39d7a61140ae0cc34e1b06",
    ("supervisor", 5):
        "575d7cf4219556d638dab66952bc8768899e95195217e0ab206679d69c1b2ba5",
    ("composed", 0):
        "bf65c380ebcd09e9269ad0490445f4a40ceba1ffe93830b9c888b1c2a6ced245",
    ("composed", 5):
        "3d6ec5919796fe026c8a2c66eab200c59e382ea8d05907159468b36d5db4c166",
    # Every unordered pair (values taken at the commit before the mode
    # registry landed, so the registry is pinned to the old behaviour).
    ("batching+supervisor", 0):
        "4bf60474284b056cc8794c773b2714a50a3d69c91246c3663629eefb0936aa90",
    ("partitions+supervisor", 0):
        "381b9b9e6462a60d09649c6682ca10848a6e74b60323c7e56cdf25e642386ec5",
    ("shards+supervisor", 0):
        "d3697459946a1e485e1c436e90424506a0ff29e1ea95f578ed9be9dc84a65151",
    ("leases+supervisor", 0):
        "6396a1f626f21b01a77f88e67ef05bf87a06c01057def684f75020624738408b",
    ("overload+supervisor", 0):
        "a0d5c6f7058fac24dcb660d48058d46d3b5eb5d2746e1debb326a6e0d48cf240",
    ("batching+partitions", 0):
        "240b7c6d50135f24d0d0c6761cee8ae09db64eb18e0ab9a23626b1ac22acf884",
    ("batching+shards", 0):
        "1a1186b92e34072a7a988930481fa02ad2e92a434d1c16a242537699521ab8da",
    ("batching+leases", 0):
        "40c8616727f30747f1cbce2e6226960d07bca36c45bf4bb74705acaf809095c7",
    ("batching+overload", 0):
        "e5c04078dc8fdc4f2c4c5419e33d97753405a7dfa19a33c9c9b1028066aeba58",
    ("partitions+shards", 0):
        "8576abb086b08212ec4609c712502cf09dd61cd99426583d383930cbd9408f66",
    ("leases+partitions", 0):
        "cc82670e1564727d1a9f4ccf026a21f46811346d07edf97ee5c2d364473f1c99",
    ("overload+partitions", 0):
        "a8c89c023358063007f9954ccb0fbb5a8f534858387567ef4eb362cc46a4a29f",
    ("leases+shards", 0):
        "2c6613f0579a12edb4afe8a19eb6e1c5e04f596a54463763a85e09e4acfb75aa",
    ("overload+shards", 0):
        "eba371bbcf1f8263a5ebdf889f50983f61f1e42b3ecab3b209900a995610fa6a",
    ("leases+overload", 0):
        "38b8e76555aba5b719ab57e59fe052696cd07ee804c3f57ca02fdd56c5a6f253",
}


def _config_for(key: str, *mutations: str) -> CheckConfig:
    names = {"default": [],
             "composed": [mode.name for mode in MODES]}.get(
                 key, key.split("+"))
    return dataclasses.replace(
        CheckConfig(), **{name: True for name in names}
    ).with_mutations(*mutations)


def test_mode_digest_matrix_covers_the_registry():
    names = [mode.name for mode in MODES]
    expected = {"default", "composed", *names,
                *("+".join(sorted(pair))
                  for pair in itertools.combinations(names, 2))}
    assert {mode for mode, _ in MODE_DIGESTS} == expected


def test_mode_digest_matrix_is_pinned():
    from repro.check.explorer import run_seed

    for (mode, seed), expected in MODE_DIGESTS.items():
        result = run_seed(seed, _config_for(mode))
        assert result.digest == expected, (
            f"{mode} mode seed {seed} digest drifted — the platform's "
            f"observable behaviour changed, not just its speed")
        assert run_all(result) == [], (mode, seed)


# Each mutation still trips its oracle with every mode on: the seed is
# the first at which the composed sweep trips, the oracle set what it
# trips there.  (Composition blunts ``replycache``: ``exactly_once``,
# its oracle on default plans, first fires at composed seed 85 — see
# ARCHITECTURE §6.)
@pytest.mark.parametrize("mutation,seed,oracles", [
    ("replycache", 2, {"tx_atomicity"}),
    ("txversions", 1, {"tx_atomicity"}),
    ("quorumbarrier", 16, {"split_brain"}),
    ("leaseinval", 5, {"staleness_bound"}),
    ("deadline", 0, {"overload_safety"}),
])
def test_mutation_trips_its_oracle_under_composition(mutation, seed,
                                                     oracles):
    from repro.check.explorer import run_seed

    result = run_seed(seed, _config_for("composed", mutation))
    assert {v.oracle for v in result.violations} == oracles


# ---------------------------------------------------------------------------
# Known divergence: an aborted group write kept by a member whose ack
# was lost (supervisor + shards sweep, seed 16)
# ---------------------------------------------------------------------------
#
# Shrunk by ddmin from `repro.check --supervisor --shards` seed 16 (60
# ops and 4 windows to 17 and 3).  The last group_put falls short of
# quorum: its relay to n2 is lost, its relay to n3 is applied but n3's
# ack is lost.  The sequencer rolls back itself and the members that
# acked — not n3 — and reports both as uncorroborated suspects, which
# the supervisor's panel vetoes because both nodes are heartbeating.
# n3 stays in the view holding the write the group aborted, and the run
# ends before another write's chain check would expose it.  Fixing it
# changes the abort protocol (an ambiguous relay must be rolled back or
# resynced too), which moves run digests; until then the test is an
# expected failure, and turns red when the plan comes out clean.

def _ambiguous_abort_plan():
    from repro.net.fault import CrashWindow, FlakyWindow

    return Plan(seed=16, ops=[
        Op("group_get", key="k0"), Op("invoke", counter=1),
        Op("passivate", obj="c0"), Op("invoke", counter=0),
        Op("advance", ms=42.624), Op("shard_move", node="n1"),
        Op("group_revive", member=1), Op("advance", ms=92.973),
        Op("shard_incr", key="s3"), Op("group_revive", member=1),
        Op("advance", ms=45.967), Op("shard_incr", key="s2"),
        Op("shard_get", key="s8"), Op("group_get", key="k4"),
        Op("read", counter=1),
        Op("group_put", key="k1", value="v23"),
        Op("group_put", key="k1", value="v24"),
    ], windows=[
        FlakyWindow(start_ms=7.715, end_ms=417.123, drop=0.318),
        FlakyWindow(start_ms=335.928, end_ms=521.092, drop=0.165),
        CrashWindow(node="n1", start_ms=431.197, end_ms=606.09),
    ])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a member whose ack of an aborted group write "
                          "was lost keeps the write")
def test_ambiguous_abort_leaves_no_diverged_member():
    config = CheckConfig().with_supervisor().with_shards()
    assert run_all(run_plan(_ambiguous_abort_plan(), config)) == []
