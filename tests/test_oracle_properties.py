"""Oracle-based property tests: platform algorithms checked against
independent reference implementations (networkx for graph questions,
brute force for scheduling order)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.federation.domain import Federation
from repro.net.network import Network
from repro.sim.scheduler import Scheduler
from repro.tx.deadlock import WaitsForGraph

# ---------------------------------------------------------------------------
# Deadlock detection vs networkx cycle finding
# ---------------------------------------------------------------------------

tx_ids = st.sampled_from(["t1", "t2", "t3", "t4", "t5"])
edges = st.lists(st.tuples(tx_ids, tx_ids), max_size=12)


@given(edges, tx_ids, st.sets(tx_ids, max_size=3))
@settings(max_examples=300)
def test_would_deadlock_agrees_with_networkx(existing, waiter, holders):
    graph = WaitsForGraph()
    digraph = nx.DiGraph()
    for a, b in existing:
        if a != b:
            graph.add_waits(a, {b})
            digraph.add_edge(a, b)
    ours = graph.would_deadlock(waiter, holders) is not None
    # Oracle: the candidate edges waiter->holder close a cycle exactly
    # when the existing graph already has a path holder ~> waiter.
    theirs = any(
        holder in digraph and waiter in digraph
        and nx.has_path(digraph, holder, waiter)
        for holder in holders if holder != waiter)
    assert ours == theirs


@given(edges)
@settings(max_examples=100)
def test_remove_transaction_clears_all_edges(existing):
    graph = WaitsForGraph()
    for a, b in existing:
        if a != b:
            graph.add_waits(a, {b})
    graph.remove_transaction("t1")
    assert "t1" not in graph.waiting("t2") | graph.waiting("t3") | \
        graph.waiting("t4") | graph.waiting("t5")
    assert graph.waiting("t1") == set()


# ---------------------------------------------------------------------------
# Federation routing vs networkx shortest path
# ---------------------------------------------------------------------------

domain_names = st.sampled_from(["A", "B", "C", "D", "E"])
links = st.lists(st.tuples(domain_names, domain_names), min_size=0,
                 max_size=10)


@given(links, domain_names, domain_names)
@settings(max_examples=200)
def test_route_agrees_with_networkx_shortest_path(pairs, source, target):
    federation = Federation(Scheduler(), Network(Scheduler()))
    digraph = nx.DiGraph()
    for name in ("A", "B", "C", "D", "E"):
        federation.create_domain(name)
        digraph.add_node(name)
    for a, b in pairs:
        if a != b:
            federation.link(a, b, bidirectional=False)
            digraph.add_edge(a, b)

    from repro.errors import FederationError
    try:
        route = federation.route(source, target)
        ours = len(route) - 1
    except FederationError:
        ours = None
    try:
        theirs = nx.shortest_path_length(digraph, source, target)
    except nx.NetworkXNoPath:
        theirs = None
    assert ours == theirs


# ---------------------------------------------------------------------------
# Scheduler ordering vs sorted-reference execution
# ---------------------------------------------------------------------------

event_times = st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1,
                       max_size=20)


@given(event_times)
@settings(max_examples=200)
def test_scheduler_executes_in_stable_time_order(times):
    scheduler = Scheduler()
    executed = []
    for index, when in enumerate(times):
        scheduler.at(when, lambda i=index: executed.append(i))
    scheduler.run_until_idle()
    # Reference: stable sort by time preserving submission order.
    expected = [i for _, i in sorted((t, i)
                                     for i, t in enumerate(times))]
    assert executed == expected
    assert scheduler.now == max(times)


# ---------------------------------------------------------------------------
# The staleness_bound oracle: sound on the real platform, sharp on the
# broken one, and invisible to every other mode's plans
# ---------------------------------------------------------------------------
#
# These are empirical soundness/sharpness sweeps rather than hypothesis
# properties: the generator is the check explorer itself, which is
# already a pure function of (seed, config).

def test_staleness_bound_never_fires_on_clean_seeds():
    from repro.check.explorer import CheckConfig, run_seed

    config = CheckConfig().with_leases()
    for seed in range(25):
        result = run_seed(seed, config)
        assert result.violations == [], f"seed {seed}: false positive"


def test_staleness_bound_fires_under_skipped_invalidation():
    from repro.check.explorer import CheckConfig, run_seed
    from repro.lease.authority import LeaseAuthority

    note_write = LeaseAuthority.note_write
    config = CheckConfig().with_leases().with_mutations("leaseinval")
    tripped = 0
    for seed in range(25):
        result = run_seed(seed, config)
        fired = {v.oracle for v in result.violations}
        assert fired <= {"staleness_bound"}, \
            f"seed {seed}: unexpected oracles {fired}"
        if fired:
            tripped += 1
    # Tuned sharpness floor: the sweep currently trips 12/25; anything
    # under 8 means the read mix or TTL regressed into blindness.
    assert tripped >= 8
    assert LeaseAuthority.note_write is note_write  # restored


def test_default_mode_digests_unchanged_by_lease_rows():
    """The lease op rows are strictly appended behind the config gate:
    default-mode plans and digests must stay byte-identical to the
    pre-lease baselines pinned here."""
    from repro.check.explorer import CheckConfig, run_seed
    from repro.check.plan import generate_plan

    pinned = {
        0: "8ae9651b8dbb4ce40660944a4bd914c6ce3ec99c"
           "1d5968abefbeb3e8edf7fd1c",
        1: "6faf5330fa46f4cab708529b74f3fabd7c9a68b3"
           "793721bee78d0689833c777a",
        2: "865e4d650b55fb154e6b962df90ed5154ae4dd71"
           "9bc64e01b405fe83cf59641c",
    }
    config = CheckConfig()
    for seed, digest in pinned.items():
        assert run_seed(seed, config).digest == digest
        plan = generate_plan(seed, config)
        assert not any(op.kind in ("cached_get", "cached_burst")
                       for op in plan.ops)


def test_op_weight_tables_append_strictly_in_mode_order():
    from repro.check.explorer import CheckConfig
    from repro.check.plan import (
        _OP_WEIGHTS,
        _OP_WEIGHTS_LEASES,
        _weights_for,
    )

    default = _weights_for(CheckConfig())
    assert default == _OP_WEIGHTS
    for base in (CheckConfig(), CheckConfig().with_batching(),
                 CheckConfig().with_shards(),
                 CheckConfig().with_batching().with_shards()):
        without = _weights_for(base)
        with_leases = _weights_for(base.with_leases())
        # Lease rows are appended after every earlier mode's rows, so
        # every other mode's prefix (hence its plans) is untouched.
        assert with_leases[:len(without)] == without
        assert with_leases[len(without):] == _OP_WEIGHTS_LEASES


def test_overload_rows_append_after_every_earlier_mode():
    from repro.check.explorer import CheckConfig
    from repro.check.plan import _OP_WEIGHTS_OVERLOAD, _weights_for

    for base in (CheckConfig(), CheckConfig().with_batching(),
                 CheckConfig().with_shards(),
                 CheckConfig().with_leases(),
                 CheckConfig().with_batching().with_shards()
                              .with_leases()):
        without = _weights_for(base)
        with_overload = _weights_for(base.with_overload())
        # Overload rows come strictly last, so every earlier mode's
        # prefix — and hence its pinned plans and digests — survives.
        assert with_overload[:len(without)] == without
        assert with_overload[len(without):] == _OP_WEIGHTS_OVERLOAD
