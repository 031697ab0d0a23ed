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

from repro.check.linearizable import unexplained

#: Interface-id prefix shared by every explorer-placed object.
_PREFIX = "check."


@dataclass(frozen=True)
class Violation:
    """One invariant breach found in one run."""

    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


def linearizable(result) -> List[Violation]:
    """Every counter, kv key and shard key behaves as one sequential
    object (:mod:`repro.check.linearizable`): a retransmission executed
    twice, a shed call that executed and a group that lost an acked
    write each leave a history no sequential order explains.  A read a
    lease may serve is judged against the state at some instant at most
    the lease TTL before it, and one key's such reads in program
    order."""
    return [Violation("linearizable", message)
            for message in unexplained(result.calls)]


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
    """Alive, in-sync replicas hold the same state (what the group
    returned to the client is ``linearizable``'s to judge)."""
    violations = []
    synced = [m for m in result.member_states
              if m["alive"] and not m["out_of_sync"]
              and m["data"] is not None]
    for member in synced[1:]:
        if member["data"] != synced[0]["data"]:
            violations.append(Violation(
                "group_consistency",
                f"member {member['index']} state {member['data']} != "
                f"member {synced[0]['index']} state {synced[0]['data']}"))
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
    "linearizable": linearizable,
    "tx_atomicity": tx_atomicity,
    "group_consistency": group_consistency,
    "split_brain": None,
    "shard_routing": None,
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
