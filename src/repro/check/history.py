"""Run histories: what happened, as comparable data.

The explorer records one event per plan operation plus an end-of-run
state snapshot; a :class:`History` turns that into a stable digest so
"same seed, same run" is a checkable claim rather than a hope.  The
digest hashes a canonical JSON rendering (sorted keys, ``repr`` for
anything non-primitive), so any nondeterminism — an unsorted set, a
wall-clock timestamp, an id-dependent ordering — changes the digest
and fails the determinism check loudly.

Beside the events, a history keeps the client's *call history*, one
record per proxy call on a counter, kv key or shard key, for
:mod:`repro.check.linearizable`.  Calls stay out of the digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional


class History:
    """The ordered record of one explorer run."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        #: One dict per proxy call: the model operation ``op``
        #: (``linearizable.OPS``) with ``arg`` on ``obj``'s ``key``
        #: (None: a counter), its ``outcome`` and ``value``, the sequence
        #: numbers of its invocation ``inv`` and response ``res`` (the
        #: client is single-threaded, so they are real-time order), the
        #: virtual invocation and response times ``t0`` and ``t`` (no
        #: order: a call may take no virtual time) and its ``lag``: how
        #: far before ``t0`` the state it reads may date (a lease's TTL,
        #: else 0).
        self.calls: List[Dict[str, Any]] = []
        self._seq = 0

    def record(self, index: int, op_repr: str, outcome: str,
               detail: Any, t0: float, t1: float) -> None:
        self.events.append({
            "i": index,
            "op": op_repr,
            "outcome": outcome,
            "detail": detail,
            "t0": round(t0, 3),
            "t1": round(t1, 3),
        })

    def invoke(self, obj: str, key: Optional[str], op: str,
               arg: Any = None, now: float = 0.0,
               lag: float = 0.0) -> Dict[str, Any]:
        self._seq += 1
        call = {"obj": obj, "key": key, "op": op, "arg": arg,
                "inv": self._seq, "t0": round(now, 6), "lag": lag}
        self.calls.append(call)
        return call

    def respond(self, call: Dict[str, Any], outcome: str, value: Any,
                now: float) -> None:
        self._seq += 1
        call.update(res=self._seq, outcome=outcome, value=value,
                    t=round(now, 6))


def canonical_json(payload: Any) -> str:
    """Deterministic rendering: sorted keys, repr for exotic values."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)


def digest_run(plan_repr: str, events: List[Dict[str, Any]],
               end_state: Dict[str, Any]) -> str:
    """One hex digest naming this exact run of this exact plan."""
    blob = canonical_json({
        "plan": plan_repr,
        "events": events,
        "end_state": end_state,
    })
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
