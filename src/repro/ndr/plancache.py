"""Codec plan caching: memoised marshalling plans for hot invocations.

The generic encoder (``WireFormat.dumps``) walks the envelope dict on
every invocation: sort the keys, dispatch on the type of every value,
re-encode the interface id, operation name, epoch and framing bytes that
have not changed since the last call on the same channel.  On the hot
path that walk dominates marshalling cost.

An :class:`InvocationPlan` freezes the constant parts of one
(wire format, capsule, interface, operation, kind, epoch) combination
into pre-encoded byte chunks, leaving *holes* for the three values that
genuinely vary per call — the argument list, the invocation context,
and the invocation id.  Encoding then appends the cached
chunks and the three holes to one buffer instead of re-walking the
whole envelope.

The plan holds keys, constant chunks and caching; the bytes around them
are its format's.  The format module (:mod:`repro.ndr.packed`,
:mod:`repro.ndr.tagged`) lays the chunks out as its framing needs —
PACKED containers carry only an entry *count*, so its constant runs
splice byte for byte; TAGGED containers length-prefix their body, so its
writer assembles the body from the same chunks and splices the header
in front — and the plan binds that writer once, when it is built.
Either way the output is byte-identical to the generic walk;
``tests/test_ndr_golden.py`` pins that equivalence so the cache can
never silently drift the wire format.  A request is read the way it is
written: the formats' compiled readers test the same key chunks
(``formats._key_chunks``) in the same order.

One table: :data:`PLANS` holds every plan the process has built, keyed
by everything a plan embeds — format, capsule, interface id, operation,
kind, epoch and whether an invocation id is present.  A rebind to a new
reference or epoch simply looks up a different key, so there is nothing
to invalidate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.ndr.formats import WireFormat, _chunk, _key_chunks


class InvocationPlan:
    """Frozen encoding plan for one invocation shape on one path.

    ``encode_request`` produces the classic ``{"capsule", "inv"}``
    request; ``encode_member_zero`` produces the bytes of the ``inv``
    dict alone (a *member*), which :func:`encode_batch` wraps many of
    into a ``{"batch", "capsule"}`` multi-invocation message.

    ``encode_member`` + ``encode_single`` are the same two steps on the
    tree writer, fed a context *dict*.  No production code calls them
    any more; they stay because the perf ledger's boundary table names
    them and the golden tests pin them against the generic walk.
    """

    __slots__ = ("fmt", "has_inv_id", "entries", "capsule_kv", "inv_key",
                 "pre_args", "pre_ctx", "k_cred", "k_extra", "k_origin",
                 "k_principal", "k_trace", "k_tx", "k_via", "pre_inv_id",
                 "tail", "runs", "_encode")

    def __init__(self, fmt: WireFormat, capsule: str, interface_id: str,
                 operation: str, kind: str, epoch: int,
                 has_inv_id: bool) -> None:
        self.fmt = fmt
        self.has_inv_id = has_inv_id
        # The keys, in the order ``formats._request`` states once for
        # this writer and the compiled readers: the context is written
        # straight from the ``InvocationContext`` fields in that order —
        # no intermediate dict, no copy, no per-call key sort.
        ((k_capsule, self.inv_key),
         (self.pre_args, self.pre_ctx, k_epoch, k_id, k_inv_id, k_kind, k_op),
         (self.k_cred, self.k_extra, self.k_origin, self.k_principal,
          self.k_trace, self.k_tx, self.k_via)) = _key_chunks(fmt)
        self.entries = 7 if has_inv_id else 6
        self.pre_inv_id = (k_epoch + _chunk(fmt, epoch) + k_id
                           + _chunk(fmt, interface_id))
        if has_inv_id:
            self.pre_inv_id += k_inv_id
        self.tail = (k_kind + _chunk(fmt, kind) + k_op
                     + _chunk(fmt, operation))
        self.capsule_kv = k_capsule + _chunk(fmt, capsule)
        # The constant runs between the holes, merged as the format's
        # writer appends them, and that writer, bound once: a warm
        # encode is one call into the format.
        self.runs = fmt._inv_runs(self)
        self._encode = fmt._put_inv

    def encode_member(self, args_obj: List[Any], ctx_obj: Dict[str, Any],
                      inv_id: Optional[str]) -> bytes:
        """The ``inv`` dict bytes: cached chunks + three variable holes."""
        fmt = self.fmt
        buf = bytearray(self.pre_args)
        fmt._put_tree(args_obj, buf, fmt)
        buf += self.pre_ctx
        fmt._put_tree(ctx_obj, buf, fmt)
        buf += self.pre_inv_id
        if self.has_inv_id:
            fmt._put_tree(inv_id, buf, fmt)
        buf += self.tail
        buf[0:0] = fmt._map_header(self.entries, len(buf))
        return bytes(buf)

    def encode_single(self, member: bytes) -> bytes:
        """Wrap one member into a complete request envelope."""
        body = self.capsule_kv + self.inv_key + member
        return self.fmt._MAGIC + self.fmt._map_header(2, len(body)) + body

    def encode_request(self, args: Any, context: Any,
                       inv_id: Optional[str], marshaller: Any) -> bytes:
        """One-buffer single-request assembly: cached chunks spliced
        around the three variable holes, with the argument *values*
        written by the format's value lane (*marshaller* is its
        two-pass fallback) and the context directly from its fields.
        Byte-identical to ``encode_single(encode_member(...))`` over
        ``marshal_args`` and ``Nucleus.encode_context``'s dict — the
        golden tests pin it."""
        return self._encode(self, True, args, context, inv_id, marshaller)

    def encode_member_zero(self, args: Any, context: Any,
                           inv_id: Optional[str], marshaller: Any) -> bytes:
        """Zero-copy member bytes (batch building block) — the same
        output as ``encode_member`` fed ``marshal_args`` and
        ``Nucleus.encode_context``."""
        return self._encode(self, False, args, context, inv_id, marshaller)


def encode_batch(fmt: WireFormat, capsule: str,
                 members: List[bytes]) -> bytes:
    """Wrap member bytes into a ``{"batch": [...], "capsule": ...}``
    multi-invocation envelope (sorted key order: batch < capsule)."""
    return fmt._put_batch(capsule, members)


class PlanCache:
    """The process-wide table of invocation plans.

    An :class:`InvocationPlan` is a pure value of its key — immutable
    once built — so identical shapes are shared across channels,
    batchers *and* worlds (the check harness builds a fresh world per
    seed; without sharing every seed re-derives the same few dozen
    plans).  The one instance is :data:`PLANS`.
    """

    def __init__(self) -> None:
        self._plans: Dict[Tuple, InvocationPlan] = {}
        self.hits = 0
        self.misses = 0

    def plan_for(self, fmt: WireFormat, capsule: str, interface_id: str,
                 operation: str, kind: str, epoch: int,
                 has_inv_id: bool) -> InvocationPlan:
        key = (fmt.name, capsule, interface_id, operation, kind, epoch,
               has_inv_id)
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            plan = self._plans[key] = InvocationPlan(
                fmt, capsule, interface_id, operation, kind, epoch,
                has_inv_id)
        else:
            self.hits += 1
        return plan


#: Every plan the process has built: the transport, the batcher and
#: ``invoke_at`` all encode through it.
PLANS = PlanCache()
