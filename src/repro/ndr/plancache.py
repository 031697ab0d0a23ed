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

Format subtlety: PACKED containers carry only an entry *count*, so
constant chunks splice byte-for-byte.  TAGGED containers length-prefix
their body (``map[n]#bodylen#``), so the plan assembles the body from
the same chunks and recomputes the header — structural caching rather
than blind splicing.  Either way the output is byte-identical to the
generic walk; ``tests/test_ndr_golden.py`` pins that equivalence so the
cache can never silently drift the wire format.  A request is read the
way it is written: the compiled readers in :mod:`repro.ndr.formats`
test the same key chunks (``formats._key_chunks``) in the same order.

Invalidation: plans embed the reference's identity and epoch, so a
channel drops its cache whenever the reference changes —
:meth:`~repro.engine.channel.Channel.rebind` (relocation repair,
federation re-translation) calls :meth:`PlanCache.invalidate`.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.ndr.formats import (_PACK_U, PackedFormat, WireFormat, _chunk,
                               _key_chunks, _packed_write, _tagged_write)


class InvocationPlan:
    """Frozen encoding plan for one invocation shape on one path.

    ``encode_request`` produces the classic ``{"capsule", "inv"}``
    request; ``encode_member_zero`` produces the bytes of the ``inv``
    dict alone (a *member*), which :func:`encode_batch` wraps many of
    into a ``{"batch", "capsule"}`` multi-invocation message.

    ``encode_member`` + ``encode_single`` are the chunk-list form of the
    same two steps, fed a context *dict*.  No production code calls them
    any more; they stay because the perf ledger's boundary table names
    them and the golden tests pin them against the generic walk.
    """

    __slots__ = ("fmt", "packed", "entries", "pre_args", "pre_ctx",
                 "pre_inv_id", "tail", "has_inv_id", "_packed_header",
                 "_single_prefix", "_capsule_kv", "_inv_key",
                 "_req_head", "_mem_head", "_ctx_seg6", "_ctx_seg7",
                 "_k_cred", "_k_extra", "_k_origin", "_k_principal",
                 "_k_trace", "_k_tx", "_k_via", "_tagged_mid")

    def __init__(self, fmt: WireFormat, capsule: str, interface_id: str,
                 operation: str, kind: str, epoch: int,
                 has_inv_id: bool) -> None:
        self.fmt = fmt
        self.packed = isinstance(fmt, PackedFormat)
        self.has_inv_id = has_inv_id
        # The keys, in the order ``formats._request`` states once for
        # this writer and the compiled readers: the context is written
        # straight from the ``InvocationContext`` fields in that order —
        # no intermediate dict, no copy, no per-call key sort.
        ((k_capsule, self._inv_key),
         (self.pre_args, self.pre_ctx, k_epoch, k_id, k_inv_id, k_kind, k_op),
         (self._k_cred, self._k_extra, self._k_origin, self._k_principal,
          self._k_trace, self._k_tx, self._k_via)) = _key_chunks(fmt)
        self.entries = 7 if has_inv_id else 6
        self.pre_inv_id = (k_epoch + _chunk(fmt, epoch) + k_id
                           + _chunk(fmt, interface_id))
        if has_inv_id:
            self.pre_inv_id += k_inv_id
        self.tail = (k_kind + _chunk(fmt, kind) + k_op
                     + _chunk(fmt, operation))
        self._packed_header = (
            b"d" + struct.pack(">I", self.entries) if self.packed else b"")
        self._capsule_kv = k_capsule + _chunk(fmt, capsule)
        if self.packed:
            self._single_prefix = (fmt._MAGIC + b"d\x00\x00\x00\x02"
                                   + self._capsule_kv + self._inv_key)
        else:
            self._single_prefix = b""
        # Constant byte runs between the variable holes, merged into
        # single precomputed segments so the hot path appends a handful
        # of slices instead of re-joining chunk after chunk per call.
        if self.packed:
            self._req_head = (self._single_prefix + self._packed_header
                              + self.pre_args)
            self._mem_head = self._packed_header + self.pre_args
            self._ctx_seg7 = (self.pre_ctx + b"d" + _PACK_U(7)
                              + self._k_cred)
            self._ctx_seg6 = (self.pre_ctx + b"d" + _PACK_U(6)
                              + self._k_cred)
            self._tagged_mid = b""
        else:
            self._req_head = self._mem_head = b""
            self._ctx_seg6 = self._ctx_seg7 = b""
            self._tagged_mid = self._capsule_kv + self._inv_key

    def encode_member(self, args_obj: List[Any], ctx_obj: Dict[str, Any],
                      inv_id: Optional[str]) -> bytes:
        """The ``inv`` dict bytes: cached chunks + three variable holes."""
        fmt = self.fmt
        out: List[bytes] = [self.pre_args]
        fmt._write(args_obj, out)
        out.append(self.pre_ctx)
        fmt._write(ctx_obj, out)
        out.append(self.pre_inv_id)
        if self.has_inv_id:
            fmt._write(inv_id, out)
        out.append(self.tail)
        body = b"".join(out)
        if self.packed:
            return self._packed_header + body
        return f"map[{self.entries}]#{len(body)}#".encode("ascii") + body

    def encode_single(self, member: bytes) -> bytes:
        """Wrap one member into a complete request envelope."""
        if self.packed:
            return self._single_prefix + member
        body = self._capsule_kv + self._inv_key + member
        return (self.fmt._MAGIC
                + f"map[2]#{len(body)}#".encode("ascii") + body)

    # -- zero-copy assembly --------------------------------------------------
    #
    # The context is written straight from ``InvocationContext`` fields
    # in pinned sorted-key order — byte-identical to encoding the dict
    # ``Nucleus.encode_context`` would have built, without building it
    # (no dict copies, no per-call key sort).  String-typed fields are
    # framed inline; anything else falls through to the format writer.

    def _packed_body(self, buf: bytearray, args: Any, context: Any,
                     inv_id: Optional[str], marshaller: Any) -> None:
        """Everything after ``_req_head``/``_mem_head`` for PACKED."""
        fmt = self.fmt
        fmt.write_value(args, buf, marshaller)
        trace = context.trace
        wire_trace = None
        if trace is not None and trace.sampled and trace.trace_id:
            wire_trace = trace.to_wire()
            buf += self._ctx_seg7
        else:
            buf += self._ctx_seg6
        _packed_write(context.credentials, buf, fmt)
        buf += self._k_extra
        _packed_write(context.extra, buf, fmt)
        buf += self._k_origin
        value = context.origin_domain
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        else:
            _packed_write(value, buf, fmt)
        buf += self._k_principal
        value = context.principal
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        else:
            _packed_write(value, buf, fmt)
        if wire_trace is not None:
            buf += self._k_trace
            raw = wire_trace.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        buf += self._k_tx
        value = context.transaction_id
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        elif value is None:
            buf += b"N"
        else:
            _packed_write(value, buf, fmt)
        buf += self._k_via
        _packed_write(context.via_domains, buf, fmt)
        buf += self.pre_inv_id
        if self.has_inv_id:
            raw = inv_id.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        buf += self.tail

    def _tagged_body(self, buf: bytearray, args: Any, context: Any,
                     inv_id: Optional[str], marshaller: Any) -> None:
        """The inv-dict body for TAGGED (headers spliced by callers)."""
        fmt = self.fmt
        buf += self.pre_args
        fmt.write_value(args, buf, marshaller)
        buf += self.pre_ctx
        trace = context.trace
        wire_trace = None
        if trace is not None and trace.sampled and trace.trace_id:
            wire_trace = trace.to_wire()
        start = len(buf)
        buf += self._k_cred
        _tagged_write(context.credentials, buf, fmt)
        buf += self._k_extra
        _tagged_write(context.extra, buf, fmt)
        buf += self._k_origin
        value = context.origin_domain
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
        else:
            _tagged_write(value, buf, fmt)
        buf += self._k_principal
        value = context.principal
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
        else:
            _tagged_write(value, buf, fmt)
        if wire_trace is not None:
            buf += self._k_trace
            raw = wire_trace.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
        buf += self._k_tx
        _tagged_write(context.transaction_id, buf, fmt)
        buf += self._k_via
        _tagged_write(context.via_domains, buf, fmt)
        buf[start:start] = b"map[%d]#%d#" % (
            7 if wire_trace is not None else 6, len(buf) - start)
        buf += self.pre_inv_id
        if self.has_inv_id:
            raw = inv_id.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
        buf += self.tail

    def encode_request(self, args: Any, context: Any,
                       inv_id: Optional[str], marshaller: Any) -> bytes:
        """One-buffer single-request assembly: cached chunks spliced
        around the three variable holes, with the argument *values*
        written by the format's value lane (*marshaller* is its
        two-pass fallback) and the context directly from its fields.
        Byte-identical to ``encode_single(encode_member(...))`` over
        ``marshal_args`` and ``Nucleus.encode_context``'s dict — the
        golden tests pin it."""
        if self.packed:
            buf = bytearray(self._req_head)
            self._packed_body(buf, args, context, inv_id, marshaller)
            return bytes(buf)
        buf = bytearray()
        self._tagged_body(buf, args, context, inv_id, marshaller)
        buf[0:0] = (self._tagged_mid
                    + b"map[%d]#%d#" % (self.entries, len(buf)))
        return self.fmt._MAGIC + b"map[2]#%d#" % len(buf) + buf

    def encode_member_zero(self, args: Any, context: Any,
                           inv_id: Optional[str], marshaller: Any) -> bytes:
        """Zero-copy member bytes (batch building block) — the same
        output as ``encode_member`` fed ``marshal_args`` and
        ``Nucleus.encode_context``."""
        if self.packed:
            buf = bytearray(self._mem_head)
            self._packed_body(buf, args, context, inv_id, marshaller)
            return bytes(buf)
        buf = bytearray()
        self._tagged_body(buf, args, context, inv_id, marshaller)
        buf[0:0] = b"map[%d]#%d#" % (self.entries, len(buf))
        return bytes(buf)


def encode_batch(fmt: WireFormat, capsule: str,
                 members: List[bytes]) -> bytes:
    """Wrap member bytes into a ``{"batch": [...], "capsule": ...}``
    multi-invocation envelope (sorted key order: batch < capsule)."""
    joined = b"".join(members)
    if isinstance(fmt, PackedFormat):
        return (fmt._MAGIC + b"d\x00\x00\x00\x02"
                + _chunk(fmt, "batch")
                + b"l" + struct.pack(">I", len(members)) + joined
                + _chunk(fmt, "capsule", capsule))
    body = (_chunk(fmt, "batch")
            + f"list[{len(members)}]#{len(joined)}#".encode("ascii")
            + joined
            + _chunk(fmt, "capsule", capsule))
    return fmt._MAGIC + f"map[2]#{len(body)}#".encode("ascii") + body


#: Process-wide plan intern table.  An :class:`InvocationPlan` is a pure
#: value of its key — immutable once built — so identical shapes are
#: shared across channels *and* across worlds (the check harness builds
#: a fresh world per seed; without interning every seed re-derives the
#: same few dozen plans).  Per-cache hit/miss counters and invalidation
#: stay per-:class:`PlanCache`; interning only removes the rebuild cost.
_INTERNED: Dict[Tuple, InvocationPlan] = {}


def interned_plan(fmt: WireFormat, *shape: Any) -> InvocationPlan:
    """The shared plan of one *shape* — ``InvocationPlan``'s arguments
    after *fmt* — for :class:`PlanCache`, and for a sender that keeps
    no cache of its own (``invoke_at``)."""
    key = (fmt.name,) + shape
    plan = _INTERNED.get(key)
    if plan is None:
        plan = _INTERNED[key] = InvocationPlan(fmt, *shape)
    return plan


class PlanCache:
    """Per-channel (or per-batcher) store of invocation plans."""

    def __init__(self) -> None:
        self._plans: Dict[Tuple, InvocationPlan] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def plan_for(self, fmt: WireFormat, capsule: str, interface_id: str,
                 operation: str, kind: str, epoch: int,
                 has_inv_id: bool) -> InvocationPlan:
        key = (fmt.name, capsule, interface_id, operation, kind, epoch,
               has_inv_id)
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            plan = self._plans[key] = interned_plan(fmt, *key[1:])
        else:
            self.hits += 1
        return plan

    def invalidate(self) -> None:
        """Drop every plan (rebind: the whole path may have changed)."""
        self.invalidations += len(self._plans)
        self._plans.clear()

    def stats(self) -> Dict[str, int]:
        return {"plans": len(self._plans), "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations}
