"""Linearizability of the client's call history, one key at a time.

Paper §5.3 says a replica group is used "as if it were a singleton";
exactly, that is linearizability (Herlihy & Wing, TOPLAS 1990).  Each
counter, kv key and shard key is judged alone against the model its
operations name (:data:`OPS`), by Wing & Gong's search (JPDC 1993),
memoised on (linearized set, state) as Lowe (2017) does.

Outcomes are classified here only: ``ok`` completed; a shed call
(``failed:ServerBusyError``: no attempt ran, since one that had would
be answered from the reply cache) and a failed read are dropped; any
other failed write is ambiguous, pending from its invocation with a
later effect or none (Herlihy & Wing's completion rule).  Ambiguous
calls with equal (op, arg) are interchangeable: only the earliest is
tried.

A read a lease may serve carries a lag Δ, the lease TTL: it may return
a state that was current at some instant at most Δ before it was
invoked, which is *timed consistency* (Torres-Rojas, Ahamad & Raynal,
1999).  Such a read may take effect before any call on its key that
responded at or after ``t0 − Δ``; the lagged reads of one key take
effect in program order, so one client's reads never run backwards.
Nothing else about the search changes."""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple

#: operation -> (initial state, step(state, arg) or None for a read,
#: whether the response carries the state left).  A counter's
#: ``increment`` returns the post-value; a register's ``put`` nothing.
OPS: Dict[str, Tuple[Any, Optional[Callable], bool]] = {
    "increment": (0, lambda state, arg: state + 1, True),
    "read": (0, None, True),
    "put": ("", lambda state, arg: arg, False),
    "get": ("", None, True),
}


def _entries(calls) -> List[tuple]:
    """The calls that constrain the order, in invocation order, as
    ``(inv, res, op, arg, value, prior)``; ``res`` is None when
    ambiguous.  A read with a lag Δ is invoked, in effect, just before
    the first response on its key at or after ``t0 − Δ`` (responses
    are in time order, so one bisect finds it), and ``prior`` is the
    position of the lagged read before it, which it must follow, or
    -1."""
    answered = sorted((call["res"], call["t"]) for call in calls)
    times = [t for _, t in answered]
    rows = []
    for call in calls:
        if call["outcome"] == "ok":
            res, value = call["res"], call["value"]
        elif OPS[call["op"]][1] and \
                call["outcome"] != "failed:ServerBusyError":
            res = value = None
        else:
            continue
        inv = call["inv"]
        if call["lag"]:
            since = bisect_left(times, round(call["t0"] - call["lag"], 6))
            inv = min(inv, answered[since][0] - 0.5)
        # Ties (lagged reads moved to one point) keep invocation order.
        rows.append((inv, call["inv"], res, call["op"], call["arg"],
                     value, bool(call["lag"])))
    entries: List[tuple] = []
    last = -1
    for inv, _, res, op, arg, value, lagged in sorted(rows):
        entries.append((inv, res, op, arg, value, last if lagged else -1))
        if lagged:
            last = len(entries) - 1
    return entries


def _stuck(entries: List[tuple]) -> Optional[Tuple[tuple, int, Any]]:
    """``None`` when some sequential order explains *entries*.  Else,
    for the order that took the most completed calls: the first one it
    could not take, how many it took, and the state it left."""
    done = sum(1 << index for index, entry in enumerate(entries)
               if entry[1] is not None)
    stack = [(0, OPS[entries[0][2]][0])]
    seen = set()
    furthest = None
    while stack:
        node = stack.pop()
        mask, state = node
        open_ = done & ~mask
        if not open_:
            return None
        if node in seen:
            continue
        seen.add(node)
        # Any call invoked before the first outstanding response may go
        # next: no unlinearized completed call precedes it.
        first = None
        for index, entry in enumerate(entries):
            if open_ >> index & 1 and (first is None
                                       or entry[1] < first[1]):
                first = entry
        taken = bin(done).count("1") - bin(open_).count("1")
        if furthest is None or taken > furthest[1]:
            furthest = (first, taken, state)
        twins = set()
        for index, (inv, res, op, arg, value, prior) in enumerate(entries):
            if inv > first[1]:
                break
            if mask >> index & 1 or res is None and (op, arg) in twins \
                    or prior >= 0 and not mask >> prior & 1:
                continue
            if res is None:
                twins.add((op, arg))
            _, step, returns = OPS[op]
            after = state if step is None else step(state, arg)
            if res is None or not returns or value == after:
                stack.append((mask | 1 << index, after))
    return furthest


def unexplained(calls) -> List[str]:
    """One message for each key whose calls no sequential history of
    its model explains."""
    by_key: Dict[Tuple[str, Optional[str]], list] = {}
    for call in calls:
        by_key.setdefault((call["obj"], call["key"]), []).append(call)
    messages = []
    for (obj, key), keyed in by_key.items():
        entries = _entries(keyed)
        stuck = _stuck(entries) if entries else None
        if stuck is None:
            continue
        (_, res, op, arg, value, _), taken, state = stuck
        at = next(call["t"] for call in keyed if call["res"] == res)
        messages.append(
            f"{obj if key is None else f'{obj}[{key}]'}: "
            f"{op}({'' if arg is None else repr(arg)})"
            f"{f' -> {value!r}' if OPS[op][2] else ''} at t={at} fits no "
            f"sequential order (the best takes {taken} completed calls "
            f"and leaves {state!r})")
    return messages
