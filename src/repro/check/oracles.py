"""Invariant oracles: what must hold at the end of *any* run.

Every oracle is a pure function of a
:class:`~repro.check.explorer.RunResult` returning a list of
:class:`Violation`\\ s.  Oracles are written to be *fault-aware*: an
operation that failed at the client is ambiguous (it executed zero or
one times), an in-doubt 2PC participant may legally hold an unresolved
before-image, and an object the collector legally reclaimed has no
final state to compare.  The oracles bound what chaos can do instead
of assuming it did nothing — so a clean pass over random seeds means
the platform's guarantees held, not that the checks were vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Interface-id prefix shared by every explorer-placed object.
_PREFIX = "check."


@dataclass(frozen=True)
class Violation:
    """One invariant breach found in one run."""

    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


def exactly_once(result) -> List[Violation]:
    """Non-idempotent ops execute once per acknowledgement.

    Every acknowledged increment executed exactly once (the reply cache
    absorbed retransmissions); every failed one executed zero or one
    times.  So: acked <= final <= acked + ambiguous.

    Shed increments (``ServerBusyError`` from admission control) are a
    *stronger* promise than failure: the server rejected them before
    dispatch, so they executed exactly zero times.  They count as
    unacked — widening neither bound — which makes this oracle the
    check that shedding really does happen before execution: a server
    that sheds after executing shows up as final > acked + ambiguous.
    """
    violations = []
    for name in sorted(result.counters):
        final = result.counter_final.get(name)
        if final is None:
            continue  # collected or unreadable: no final observation
        acked = result.counters[name]["acked"]
        ambiguous = result.counters[name]["ambiguous"]
        shed = result.counters[name].get("shed", 0)
        if not acked <= final <= acked + ambiguous:
            violations.append(Violation(
                "exactly_once",
                f"counter {name}: final={final} outside "
                f"[{acked}, {acked + ambiguous}] "
                f"(acked={acked}, ambiguous={ambiguous}, "
                f"shed={shed} — shed must not execute)"))
    return violations


def tx_atomicity(result) -> List[Violation]:
    """Transfers are all-or-nothing and roll back on abort.

    With no in-doubt participants the client-side model is exact per
    account.  In-doubt outcomes (a participant unreachable during the
    commit/abort phase) may legally strand one leg until resolution, so
    the check degrades to money conservation within the recorded
    allowance.
    """
    surviving = [name for name in sorted(result.accounts_model)
                 if name not in result.collected
                 and result.accounts_final.get(name) is not None]
    violations = []
    if not result.had_indoubt:
        for name in surviving:
            expected = result.accounts_model[name]
            actual = result.accounts_final[name]
            if actual != expected:
                violations.append(Violation(
                    "tx_atomicity",
                    f"account {name}: final balance {actual} != "
                    f"model {expected} (no in-doubt outcomes to "
                    f"explain the drift)"))
        return violations
    expected_sum = sum(result.accounts_model[name] for name in surviving)
    actual_sum = sum(result.accounts_final[name] for name in surviving)
    drift = abs(actual_sum - expected_sum)
    if drift > result.indoubt_allowance:
        violations.append(Violation(
            "tx_atomicity",
            f"money drift {drift} exceeds in-doubt allowance "
            f"{result.indoubt_allowance} "
            f"(expected {expected_sum}, got {actual_sum})"))
    return violations


def group_consistency(result) -> List[Violation]:
    """Alive, in-sync replicas agree; final values trace to real writes.

    The write ledger orders every ``group_put``: after the last
    acknowledged write to a key, only trailing ambiguous writes can
    explain a different final value.
    """
    violations = []
    synced = [m for m in result.member_states
              if m["alive"] and not m["out_of_sync"]
              and m["data"] is not None]
    if len(synced) > 1:
        reference = synced[0]
        for member in synced[1:]:
            if member["data"] != reference["data"]:
                violations.append(Violation(
                    "group_consistency",
                    f"member {member['index']} state "
                    f"{member['data']} != member "
                    f"{reference['index']} state {reference['data']}"))
    for key in sorted(result.group_writes):
        final = result.group_final.get(key)
        if final is None:
            continue  # group unreachable at the end: no observation
        ledger = result.group_writes[key]
        last_acked = None
        tail_ambiguous: List[str] = []
        for value, acked in ledger:
            if acked:
                last_acked = value
                tail_ambiguous = []
            else:
                tail_ambiguous.append(value)
        allowed = set(tail_ambiguous)
        allowed.add(last_acked if last_acked is not None else "")
        if final not in allowed:
            violations.append(Violation(
                "group_consistency",
                f"key {key!r}: final value {final!r} not among "
                f"last acked {last_acked!r} or trailing ambiguous "
                f"writes {tail_ambiguous!r}"))
    return violations


def relocation(result) -> List[Violation]:
    """No object is lost or duplicated by relocation forwarding.

    Every surviving object resolves (via forward hints / the
    relocator) to exactly the node the explorer last moved it to, and
    is still invocable through its original binding.
    """
    stuck = {iid[len(_PREFIX):] for iid in result.unresolved_iids
             if iid.startswith(_PREFIX)}
    violations = []
    for probe in result.relocation_probes:
        if probe["obj"] in stuck:
            continue  # an unresolved in-doubt lock, not a lost object
        if probe["resolved_node"] != probe["expected_node"]:
            violations.append(Violation(
                "relocation",
                f"object {probe['obj']}: relocator resolves to "
                f"{probe['resolved_node']!r}, explorer last placed it "
                f"on {probe['expected_node']!r}"))
        if not probe["final_ok"]:
            violations.append(Violation(
                "relocation",
                f"object {probe['obj']}: survived the run but is no "
                f"longer invocable through its original binding"))
    return violations


def gc_safety(result) -> List[Violation]:
    """The collector only reclaims passive objects with no live lease."""
    violations = []
    for obs in result.gc_observations:
        if obs["state"] != "passive" or obs["live_lease"]:
            violations.append(Violation(
                "gc_safety",
                f"{obs['iid']} collected while state={obs['state']!r} "
                f"live_lease={obs['live_lease']}"))
    return violations


def clock_monotonic(result) -> List[Violation]:
    """Virtual time never runs backwards, anywhere it is observed."""
    violations = []
    previous_end = None
    for event in result.events:
        if event["t1"] < event["t0"]:
            violations.append(Violation(
                "clock_monotonic",
                f"op {event['i']} ends at {event['t1']} before it "
                f"starts at {event['t0']}"))
        if previous_end is not None and event["t0"] < previous_end:
            violations.append(Violation(
                "clock_monotonic",
                f"op {event['i']} starts at {event['t0']}, before "
                f"the previous op ended at {previous_end}"))
        previous_end = event["t1"]
    by_id = {span["id"]: span for span in result.spans}
    for span in result.spans:
        if span["end"] is not None and span["end"] < span["start"]:
            violations.append(Violation(
                "clock_monotonic",
                f"span {span['id']} ends at {span['end']} before "
                f"its start {span['start']}"))
        parent = by_id.get(span["parent"])
        if parent is not None and span["start"] < parent["start"]:
            violations.append(Violation(
                "clock_monotonic",
                f"span {span['id']} starts at {span['start']} before "
                f"its parent {parent['id']} at {parent['start']}"))
    return violations


#: The oracle catalogue, in reporting order.  ``None`` holds the place
#: of a built-in mode's oracle (the mode registry fills it on import);
#: a mode registered later reports last.
ORACLES: Dict[str, Optional[Callable]] = {
    "exactly_once": exactly_once,
    "tx_atomicity": tx_atomicity,
    "group_consistency": group_consistency,
    "split_brain": None,
    "shard_routing": None,
    "staleness_bound": None,
    "overload_safety": None,
    "relocation": relocation,
    "gc_safety": gc_safety,
    "clock_monotonic": clock_monotonic,
    "self_heal": None,
}


def run_all(result) -> List[Violation]:
    """Judge one run against every oracle."""
    violations: List[Violation] = []
    for oracle in ORACLES.values():
        violations.extend(oracle(result))
    return violations
