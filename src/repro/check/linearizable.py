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
tried."""

from __future__ import annotations

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
    ``(inv, res, op, arg, value)``; ``res`` is None when ambiguous."""
    return sorted((call["inv"], call["res"], call["op"], call["arg"],
                   call["value"]) if call["outcome"] == "ok" else
                  (call["inv"], None, call["op"], call["arg"], None)
                  for call in calls
                  if call["outcome"] == "ok" or OPS[call["op"]][1]
                  and call["outcome"] != "failed:ServerBusyError")


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
        first = min((index for index in range(len(entries))
                     if open_ >> index & 1), key=lambda i: entries[i][1])
        taken = bin(done).count("1") - bin(open_).count("1")
        if furthest is None or taken > furthest[1]:
            furthest = (entries[first], taken, state)
        twins = set()
        for index, (inv, res, op, arg, value) in enumerate(entries):
            if inv > entries[first][1]:
                break
            if mask >> index & 1 or res is None and (op, arg) in twins:
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
        (_, res, op, arg, value), taken, state = stuck
        at = next(call["t"] for call in keyed if call["res"] == res)
        messages.append(
            f"{obj if key is None else f'{obj}[{key}]'}: "
            f"{op}({'' if arg is None else repr(arg)})"
            f"{f' -> {value!r}' if OPS[op][2] else ''} at t={at} fits no "
            f"sequential order (the best takes {taken} completed calls "
            f"and leaves {state!r})")
    return messages
