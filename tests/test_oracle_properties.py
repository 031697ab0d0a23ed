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
    for other in ("t2", "t3", "t4", "t5"):
        assert graph.would_deadlock("t1", {other}) is None
        assert graph.would_deadlock(other, {"t1"}) is None


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
# The linearizability checker vs brute force over every order
# ---------------------------------------------------------------------------

#: Per model: each operation's argument choices, and the values a
#: completed call may claim to return.
_MODELS = {
    "counter": ({"increment": (None,), "read": (None,)}, (0, 1, 2, 3)),
    "register": ({"put": ("a", "b"), "get": (None,)}, ("", "a", "b")),
}
_OUTCOMES = ("ok", "ok", "ok", "failed:MessageLostError",
             "failed:ServerBusyError")


#: A read's lag choices: none, or a lease's TTL in ticks.
_LAGS = (0, 1, 2, 4)


@st.composite
def _histories(draw):
    """One key's calls: up to seven, overlapping where the drawn event
    order interleaves them, some failed (ambiguous, shed or dropped),
    some reads lagged as a lease's are.  Each event happens at a tick
    no earlier than the one before it."""
    ops, values = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    count = draw(st.integers(1, 7))
    tokens = draw(st.permutations([(k, end) for k in range(count)
                                   for end in (0, 1)]))
    ticks = [0.0]
    for step in draw(st.lists(st.integers(0, 2), min_size=2 * count,
                              max_size=2 * count)):
        ticks.append(ticks[-1] + step)
    seq = {}
    for position, (k, end) in enumerate(tokens, start=1):
        seq.setdefault(k, []).append(position)
    calls = []
    for k in range(count):
        op = draw(st.sampled_from(sorted(ops)))
        outcome = draw(st.sampled_from(_OUTCOMES))
        inv, res = min(seq[k]), max(seq[k])
        calls.append({
            "obj": "obj", "key": "key", "op": op,
            "arg": draw(st.sampled_from(ops[op])),
            "inv": inv, "res": res, "t0": ticks[inv], "t": ticks[res],
            "lag": 0 if op in ("increment", "put")
            else draw(st.sampled_from(_LAGS)),
            "outcome": outcome,
            "value": (draw(st.sampled_from(values))
                      if outcome == "ok" and op != "put" else None)})
    return calls


def _brute_force(calls):
    """Some order of the completed calls plus some subset of the
    ambiguous writes respects real time and the lagged reads' program
    order, and replays on the sequential model."""
    import itertools

    from repro.check.linearizable import OPS

    completed = [c for c in calls if c["outcome"] == "ok"]
    ambiguous = [c for c in calls
                 if c["outcome"] == "failed:MessageLostError"
                 and OPS[c["op"]][1] is not None]
    for size in range(len(ambiguous) + 1):
        for chosen in itertools.combinations(ambiguous, size):
            for order in itertools.permutations(completed + list(chosen)):
                if _respects_real_time(order) and _replays(order):
                    return True
    return False


def _respects_real_time(order):
    for later, call in enumerate(order):
        for earlier in order[:later]:
            # A completed call that responded before *earlier* was
            # invoked must come first, unless *earlier* is a lagged read
            # and the call responded within its lag.
            if call["outcome"] == "ok" and call["res"] < earlier["inv"] \
                    and not (earlier["lag"] and call["t"]
                             >= earlier["t0"] - earlier["lag"]):
                return False
            # Lagged reads take effect in the order they were invoked.
            if call["lag"] and earlier["lag"] \
                    and call["inv"] < earlier["inv"]:
                return False
    return True


def _replays(order):
    from repro.check.linearizable import OPS

    state = OPS[order[0]["op"]][0] if order else None
    for call in order:
        _, step, returns = OPS[call["op"]]
        state = state if step is None else step(state, call["arg"])
        if call["outcome"] == "ok" and returns and call["value"] != state:
            return False
    return True


@given(_histories())
@settings(max_examples=400, deadline=None)
def test_linearizability_checker_agrees_with_brute_force(calls):
    from repro.check.linearizable import unexplained

    assert (unexplained(calls) == []) == _brute_force(calls)


def test_ambiguous_writes_are_interchangeable_only_with_equal_arguments():
    """Two unanswered puts, then reads of the later value and the
    earlier one: only an order that takes the later put first explains
    them, so the search must not treat the two puts as twins."""
    from repro.check.history import History
    from repro.check.linearizable import unexplained

    history = History()
    puts = [history.invoke("kv", "k", "put", value) for value in "ab"]
    for put in puts:
        history.respond(put, "failed:MessageLostError", None, 0.0)
    for value in "ba":
        history.respond(history.invoke("kv", "k", "get"), "ok", value, 0.0)
    assert unexplained(history.calls) == []
    history.respond(history.invoke("kv", "k", "get"), "ok", "b", 0.0)
    assert len(unexplained(history.calls)) == 1


def _register(*steps):
    """A history of one kv key from ``(op, arg, value, t0, t, lag)``
    steps, each invoked once the one before responded."""
    from repro.check.history import History

    history = History()
    for op, arg, value, t0, t, lag in steps:
        history.respond(history.invoke("kv", "k", op, arg, t0, lag),
                        "ok", value, t)
    return history.calls


def test_a_lagged_read_may_return_a_state_at_most_its_lag_old():
    """'a' was current until 'b' was acked at t=3: a read lagged by 5
    may return 'a' if invoked by t=8, and not a moment later; an
    unlagged read may not at all."""
    from repro.check.linearizable import unexplained

    writes = [("put", "a", None, 0.0, 1.0, 0.0),
              ("put", "b", None, 2.0, 3.0, 0.0)]
    assert unexplained(_register(*writes, ("get", None, "a", 8.0, 8.0,
                                           5.0))) == []
    assert len(unexplained(_register(*writes, ("get", None, "a", 8.5,
                                               8.5, 5.0)))) == 1
    assert len(unexplained(_register(*writes, ("get", None, "a", 4.0,
                                               4.0, 0.0)))) == 1


def test_lagged_reads_of_one_key_do_not_run_backwards():
    """Each read alone fits its window; once one has returned 'b', a
    later one may not return 'a', which 'b' superseded."""
    from repro.check.linearizable import unexplained

    writes = [("put", "a", None, 0.0, 1.0, 0.0),
              ("put", "b", None, 2.0, 3.0, 0.0)]
    forwards = [("get", None, "a", 4.0, 4.0, 10.0),
                ("get", None, "b", 5.0, 5.0, 10.0)]
    assert unexplained(_register(*writes, *forwards)) == []
    assert len(unexplained(_register(*writes, *forwards[::-1]))) == 1
    # A longer lag moves the later read back past the earlier one, to
    # before put('b'): it still takes effect after that read.
    shorter_first = [("get", None, "b", 5.0, 5.0, 1.0),
                     ("get", None, "a", 6.0, 6.0, 10.0)]
    assert len(unexplained(_register(*writes, *shorter_first))) == 1


def test_lagged_reads_moved_to_one_point_keep_their_invocation_order():
    """Both lagged reads may take effect before put('x'); the one
    invoked first, which answers last, still goes first, so '' then
    'a' fits."""
    from repro.check.history import History
    from repro.check.linearizable import unexplained

    history = History()
    history.respond(history.invoke("kv", "k", "put", "x", 0.0), "ok",
                    None, 0.0)
    early = history.invoke("kv", "k", "get", None, 5.0, 10.0)
    history.respond(history.invoke("kv", "k", "put", "a", 5.0), "ok",
                    None, 5.0)
    history.respond(history.invoke("kv", "k", "get", None, 5.0, 10.0),
                    "ok", "a", 5.0)
    history.respond(early, "ok", "", 5.0)
    assert unexplained(history.calls) == []


# ---------------------------------------------------------------------------
# The lease staleness bound (``linearizable`` with each lease read lagged
# by the TTL): sound on the real platform, sharp on the broken one, and
# invisible to every other mode's plans
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
        assert fired <= {"linearizable"}, \
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


# ---------------------------------------------------------------------------
# The mode registry: order is data, and a test checks it
# ---------------------------------------------------------------------------

def _flags(config_type, names):
    import dataclasses

    return dataclasses.replace(config_type(),
                               **{name: True for name in names})


def _assert_only_inserted(table_on, table_off, earlier, own):
    # The modes registered before it still form the front of the table
    # (so every lower roll maps as before), its own entries follow at
    # once, and the later modes' entries keep their order behind them.
    assert table_on[:len(earlier)] == earlier
    assert table_on[len(earlier):len(earlier) + len(own)] == own
    assert (table_on[:len(earlier)]
            + table_on[len(earlier) + len(own):]) == table_off


def test_switching_a_mode_on_only_appends_to_earlier_modes():
    """For every mode and every set of other modes: switching it on
    leaves the op table and the window-kind rolls of the modes
    registered before it a prefix, and drops or reorders nothing — so
    a mode registered last moves no pinned plan."""
    import itertools

    from repro.check.explorer import CheckConfig
    from repro.check.modes import MODES
    from repro.check.plan import op_table, window_kinds

    names = [mode.name for mode in MODES]
    assert op_table(CheckConfig())[-1][0] == "lose_reply"
    assert len(window_kinds(CheckConfig())) == 4
    for position, mode in enumerate(MODES):
        others = names[:position] + names[position + 1:]
        for size in range(len(others) + 1):
            for subset in itertools.combinations(others, size):
                off = _flags(CheckConfig, subset)
                on = _flags(CheckConfig, subset + (mode.name,))
                earlier = _flags(CheckConfig, [
                    name for name in subset
                    if names.index(name) < position])
                _assert_only_inserted(op_table(on), op_table(off),
                                      op_table(earlier), mode.rows)
                _assert_only_inserted(
                    window_kinds(on), window_kinds(off),
                    window_kinds(earlier), mode.windows)


def test_a_seventh_mode_needs_no_core_edit(monkeypatch, capsys):
    """A toy mode — one op kind, one end-state key, one oracle, one
    flag — registered here shows up in ``--help``, plans, the digest
    input and the oracle summary, and is gone once unregistered."""
    import dataclasses

    import pytest

    from repro.check import __main__ as cli
    from repro.check.explorer import CheckConfig, run_plan, run_seed
    from repro.check.modes import MODES, Mode, register, unregister
    from repro.check.oracles import ORACLES, Violation, run_all
    from repro.check.plan import Op, Plan, generate_plan

    def toy_total(result, total):
        judged.append(total)
        asked = sum(int(event["detail"]) for event in result.events
                    if event["op"].startswith("Op('toy_add'"))
        return [] if total == asked else [Violation(
            "toy_total", f"added {total}, plans asked for {asked}")]

    class Toy(Mode):
        name = "toy"
        help = "add small numbers; the toy_total oracle sums them"
        rows = (("toy_add", 40,
                 lambda rng, index: {"n": rng.randint(1, 9)}),)
        oracle = staticmethod(toy_total)

        def __init__(self, run) -> None:
            super().__init__(run)
            self.total = 0

        def op_toy_add(self, op):
            self.total += op.get("n")
            return "ok", op.get("n")

        def finish(self, end_state):
            end_state["toy"] = self.total
            return self.total

    @dataclasses.dataclass(frozen=True)
    class ToyConfig(CheckConfig):
        toy: bool = False

    def help_text():
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        return capsys.readouterr().out

    judged = []
    default_digest = run_seed(0, CheckConfig()).digest
    monkeypatch.setattr(cli, "CheckConfig", ToyConfig)
    register(Toy)
    try:
        assert "--toy" in help_text() and Toy.help in help_text()
        plan = generate_plan(0, ToyConfig(toy=True))
        assert any(op.kind == "toy_add" for op in plan.ops)
        result = run_seed(0, ToyConfig(toy=True))
        assert result.violations == [] and judged
        assert result.end_state["toy"] == result.evidence["toy"] > 0
        assert list(ORACLES)[-1] == "toy_total"
        assert cli.main(["--seeds", "1", "--toy"]) == 0
        out = capsys.readouterr().out
        assert "toy=on" in out and "toy_total" in out
        # Registered but off: nothing moves, and its op kind is a no-op.
        assert run_seed(0, ToyConfig()).digest == default_digest
        idle = run_plan(Plan(seed=1, ops=[Op("toy_add", n=3)]),
                        CheckConfig())
        assert idle.events[0]["outcome"] == "noop"
        assert "toy" not in idle.end_state and run_all(idle) == []
    finally:
        unregister(Toy)
    assert Toy not in MODES and "toy_total" not in ORACLES
    assert "--toy" not in help_text()
    with pytest.raises(ValueError):
        Op("toy_add", n=3)
    assert run_seed(0, CheckConfig()).digest == default_digest
