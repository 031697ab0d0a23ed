"""PACKED: 1-byte tag + struct-packed payloads — every byte of it.

This module owns the format: the tree codec (:func:`_packed_write` /
:func:`_packed_read`), the value lane (:func:`_packed_put`, which writes
a large record once and splices its kept image after, /
:func:`_packed_value`), the compiled readers of the request and reply
envelopes, and the writers of the request, member and batch envelopes
that :class:`repro.ndr.plancache.InvocationPlan` and ``encode_batch``
call — with the constant byte runs they share.  A container carries an
entry *count* and no body length, so constant chunks splice byte for
byte.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional

from repro.comp.outcomes import Termination
from repro.errors import MarshalError
from repro.ndr.formats import (_ABSENT, _NAMES_CAP, _PLAIN, REUSE_MIN_BYTES,
                               WireFormat, _chunk, _Cursor, _key_chunks,
                               _OffLane, _request, register_format)
from repro.util.freeze import FrozenRecord

_PACK_Q = struct.Struct(">q").pack
_PACK_U = struct.Struct(">I").pack
_PACK_D = struct.Struct(">d").pack
_UNPACK_Q = struct.Struct(">q").unpack_from
_UNPACK_U = struct.Struct(">I").unpack_from
_UNPACK_D = struct.Struct(">d").unpack_from

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def _packed_write(obj: Any, buf: bytearray, fmt: "PackedFormat") -> None:
    """Append *obj*'s packed encoding to *buf* — exact-type dispatch
    with container loops inlining the dominant scalar cases."""
    tp = type(obj)
    if tp is str:
        raw = obj.encode("utf-8")
        buf += b"s"
        buf += _PACK_U(len(raw))
        buf += raw
    elif tp is int:
        if _I64_MIN <= obj <= _I64_MAX:
            buf += b"i"
            buf += _PACK_Q(obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big",
                               signed=True)
            buf += b"I"
            buf += _PACK_U(len(raw))
            buf += raw
    elif obj is None:
        buf += b"N"
    elif obj is True:
        buf += b"T"
    elif obj is False:
        buf += b"F"
    elif tp is float:
        buf += b"f"
        buf += _PACK_D(obj)
    elif tp is dict:
        buf += b"d"
        buf += _PACK_U(len(obj))
        for key in sorted(obj):
            if type(key) is str:
                raw = key.encode("utf-8")
                buf += b"s"
                buf += _PACK_U(len(raw))
                buf += raw
            else:
                fmt._check_key(key)
                _packed_write(key, buf, fmt)
            value = obj[key]
            vt = type(value)
            if vt is str:
                raw = value.encode("utf-8")
                buf += b"s"
                buf += _PACK_U(len(raw))
                buf += raw
            elif vt is int and _I64_MIN <= value <= _I64_MAX:
                buf += b"i"
                buf += _PACK_Q(value)
            elif value is None:
                buf += b"N"
            elif vt is float:
                buf += b"f"
                buf += _PACK_D(value)
            else:
                _packed_write(value, buf, fmt)
    elif tp is list or tp is tuple:
        buf += b"l"
        buf += _PACK_U(len(obj))
        for item in obj:
            it = type(item)
            if it is str:
                raw = item.encode("utf-8")
                buf += b"s"
                buf += _PACK_U(len(raw))
                buf += raw
            elif it is int and _I64_MIN <= item <= _I64_MAX:
                buf += b"i"
                buf += _PACK_Q(item)
            elif item is None:
                buf += b"N"
            elif it is float:
                buf += b"f"
                buf += _PACK_D(item)
            else:
                _packed_write(item, buf, fmt)
    elif tp is bytes:
        buf += b"b"
        buf += _PACK_U(len(obj))
        buf += obj
    else:
        _packed_write(fmt._plain(obj), buf, fmt)


def _packed_read(data: bytes, cur: _Cursor, values: bool = False) -> Any:
    """Decode one packed value at ``cur.pos``, advancing the cursor —
    with *values*, as the value lane reads it (:func:`_packed_value`).
    A length that runs past the end of *data* is a truncation: the slice
    would clip it silently."""
    pos = cur.pos
    tag = data[pos]
    if values and (tag == 0x64 or tag == 0x6C):
        return _packed_value(data, cur, pos, tag)
    pos += 1
    if tag == 0x73 or tag == 0x62 or tag == 0x49:  # "s", "b", "I"
        (length,) = _UNPACK_U(data, pos)
        pos += 4
        end = pos + length
        if end > len(data):
            raise MarshalError("truncated packed payload")
        cur.pos = end
        if tag == 0x73:
            return data[pos:end].decode("utf-8")
        if tag == 0x62:
            return bytes(data[pos:end])
        return int.from_bytes(data[pos:end], "big", signed=True)
    if tag == 0x69:  # "i"
        (value,) = _UNPACK_Q(data, pos)
        cur.pos = pos + 8
        return value
    if tag == 0x64:  # "d"
        (count,) = _UNPACK_U(data, pos)
        pos += 4
        result: Dict[str, Any] = {}
        for _ in range(count):
            # Every encoder writes keys as strings: decode inline.
            if data[pos] != 0x73:
                raise MarshalError("packed map key is not a string")
            (length,) = _UNPACK_U(data, pos + 1)
            kp = pos + 5
            pos = kp + length
            if pos > len(data):
                raise MarshalError("truncated packed payload")
            key = data[kp:pos].decode("utf-8")
            # Values: inline the dominant scalar cases, recurse for
            # containers and the rare tags.
            t = data[pos]
            if t == 0x73:
                (length,) = _UNPACK_U(data, pos + 1)
                vp = pos + 5
                pos = vp + length
                if pos > len(data):
                    raise MarshalError("truncated packed payload")
                result[key] = data[vp:pos].decode("utf-8")
            elif t == 0x69:
                (value,) = _UNPACK_Q(data, pos + 1)
                pos += 9
                result[key] = value
            elif t == 0x4E:
                pos += 1
                result[key] = None
            else:
                cur.pos = pos
                result[key] = _packed_read(data, cur)
                pos = cur.pos
        cur.pos = pos
        return result
    if tag == 0x6C:  # "l"
        (count,) = _UNPACK_U(data, pos)
        pos += 4
        items = []
        append = items.append
        for _ in range(count):
            t = data[pos]
            if t == 0x73:
                (length,) = _UNPACK_U(data, pos + 1)
                vp = pos + 5
                pos = vp + length
                if pos > len(data):
                    raise MarshalError("truncated packed payload")
                append(data[vp:pos].decode("utf-8"))
            elif t == 0x69:
                (value,) = _UNPACK_Q(data, pos + 1)
                pos += 9
                append(value)
            elif t == 0x4E:
                pos += 1
                append(None)
            elif t == 0x54:
                pos += 1
                append(True)
            elif t == 0x46:
                pos += 1
                append(False)
            elif t == 0x66:
                (value,) = _UNPACK_D(data, pos + 1)
                pos += 9
                append(value)
            else:
                cur.pos = pos
                append(_packed_read(data, cur))
                pos = cur.pos
        cur.pos = pos
        return items
    if tag == 0x4E:  # "N"
        cur.pos = pos
        return None
    if tag == 0x54:  # "T"
        cur.pos = pos
        return True
    if tag == 0x46:  # "F"
        cur.pos = pos
        return False
    if tag == 0x66:  # "f"
        (value,) = _UNPACK_D(data, pos)
        cur.pos = pos + 8
        return value
    raise MarshalError(f"unknown packed tag {bytes((tag,))!r}")


def _packed_key(name: str, names: Dict[str, bytes]) -> bytes:
    """*name* as the key chunk every encoder writes it, remembered in
    the writer's *names* while there is room."""
    raw = name.encode("utf-8")
    chunk = b"s" + _PACK_U(len(raw)) + raw
    if len(names) < _NAMES_CAP:
        names[name] = chunk
    return chunk


def _packed_put(value: Any, buf: bytearray, fmt: "PackedFormat") -> None:
    """The value lane's writer: *value*'s ``marshal`` tree, encoded
    without being built.  Raises ``_OffLane`` on anything not plain."""
    tp = type(value)
    if tp is tuple or tp is list:
        buf += b"l"
        buf += _PACK_U(len(value))
        for item in value:
            _packed_put(item, buf, fmt)
    elif tp is dict or tp is FrozenRecord:
        kept = fmt._images.get(id(value)) if tp is FrozenRecord else None
        if kept is not None and kept[0] is value:
            buf += kept[1]
            return
        start = len(buf)
        buf += _P_RECORD
        buf += _PACK_U(len(value))
        # Exact ``str`` before either table: a subclass equal to a
        # stored name hashes to it, and must go off-lane as it did.
        if tp is FrozenRecord:
            names = fmt._names
            for key, item in value._items:
                if type(key) is not str:
                    raise _OffLane
                buf += names.get(key) or _packed_key(key, names)
                _packed_put(item, buf, fmt)
        else:
            for key in value:
                if type(key) is not str:
                    raise _OffLane
            for key, chunk in (fmt._layouts.get(tuple(value))
                               or fmt._layout(value)):
                buf += chunk
                _packed_put(value[key], buf, fmt)
        if tp is FrozenRecord and len(buf) - start >= REUSE_MIN_BYTES:
            fmt._keep(value, bytes(buf[start:]))
    elif tp in _PLAIN:
        _packed_write(value, buf, fmt)
    elif tp is Termination:
        if type(value.name) is not str or type(value.values) is not tuple:
            raise _OffLane
        buf += _P_TERM
        _packed_write(value.name, buf, fmt)
        buf += _P_VALUES
        _packed_put(value.values, buf, fmt)
    else:
        raise _OffLane


def _packed_value(data: bytes, cur: _Cursor, pos: int, tag: int) -> Any:
    """The value lane's reader, entered from :func:`_packed_read` for
    the container *tag* at *pos*: ``unmarshal`` of its tree, decoded
    without being built (a scalar is its own value)."""
    if tag == 0x6C:  # "l"
        (count,) = _UNPACK_U(data, pos + 1)
        cur.pos = pos + 5
        return tuple([_packed_read(data, cur, True) for _ in range(count)])
    if data.startswith(_P_RECORD, pos):  # "d" must be a wrapper
        pos += len(_P_RECORD)
        (count,) = _UNPACK_U(data, pos)
        cur.pos = pos + 4
        pairs = []
        last = None
        for _ in range(count):
            key = _packed_read(data, cur)
            # Strictly increasing names are what every encoder emits
            # and what makes the pairs a FrozenRecord's as they stand.
            if type(key) is not str or (last is not None and key <= last):
                raise _OffLane
            last = key
            pairs.append((key, _packed_read(data, cur, True)))
        return FrozenRecord._trusted(tuple(pairs))
    if data.startswith(_P_TERM, pos):
        cur.pos = pos + len(_P_TERM)
        name = _packed_read(data, cur)
        if type(name) is str and data.startswith(_P_VALUES, cur.pos):
            cur.pos += len(_P_VALUES)
            values = _packed_read(data, cur, True)
            if type(values) is tuple:
                return Termination(name, values)
    raise _OffLane


def _packed_request(data: bytes) -> Dict[str, Any]:
    """The request envelope, read the way ``InvocationPlan`` writes it:
    each key is one ``startswith`` of the chunk the plan holds, each
    value the one type the plan writes there (``credentials`` and
    ``via_domains`` empty, so part of their neighbours' chunks)."""
    starts = data.startswith
    if not starts(_P_HEAD):
        raise _OffLane
    pos = _PN_HEAD
    end = pos + 4 + _UNPACK_U(data, pos)[0]
    capsule = data[pos + 4:end].decode()
    # ``inv`` holds six entries, or seven with ``inv_id``; ``ctx`` six,
    # or seven with ``trace``: the map header says which.
    inv_id = trace = _ABSENT
    has_inv_id = starts(_P_INV7, end)
    if not has_inv_id and not starts(_P_INV6, end):
        raise _OffLane
    cur = _Cursor(end + _PN_INV + 4)
    args = tuple([_packed_read(data, cur, True)
                  for _ in range(_UNPACK_U(data, cur.pos - 4)[0])])
    pos = cur.pos
    has_trace = starts(_P_CTX7, pos)
    if not has_trace and not starts(_P_CTX6, pos):
        raise _OffLane
    pos += _PN_CTX
    if starts(_P_NO_ENTRIES, pos):
        extra = {}
        pos += 5
    else:
        cur.pos = pos
        extra = _packed_read(data, cur)
        pos = cur.pos
    if not starts(_PK_ORIGIN, pos):
        raise _OffLane
    pos += _PN_ORIGIN
    if data[pos] == 0x4E:  # "N"
        origin = None
        pos += 1
    elif data[pos] == 0x73:  # "s"
        end = pos + 5 + _UNPACK_U(data, pos + 1)[0]
        origin = data[pos + 5:end].decode()
        pos = end
    else:
        raise _OffLane
    if not starts(_PK_PRINCIPAL, pos):
        raise _OffLane
    pos += _PN_PRINCIPAL
    if data[pos] == 0x4E:
        principal = None
        pos += 1
    elif data[pos] == 0x73:
        end = pos + 5 + _UNPACK_U(data, pos + 1)[0]
        principal = data[pos + 5:end].decode()
        pos = end
    else:
        raise _OffLane
    if has_trace:
        if not starts(_PK_TRACE, pos):
            raise _OffLane
        pos += _PN_TRACE
        end = pos + 4 + _UNPACK_U(data, pos)[0]
        trace = data[pos + 4:end].decode()
        pos = end
    if not starts(_PK_TX, pos):
        raise _OffLane
    pos += _PN_TX
    if data[pos] == 0x4E:
        transaction_id = None
        pos += 1
    elif data[pos] == 0x73:
        end = pos + 5 + _UNPACK_U(data, pos + 1)[0]
        transaction_id = data[pos + 5:end].decode()
        pos = end
    else:
        raise _OffLane
    if not starts(_PK_EPOCH, pos):
        raise _OffLane
    pos += _PN_EPOCH
    (epoch,) = _UNPACK_Q(data, pos)
    if not starts(_PK_ID, pos + 8):
        raise _OffLane
    pos += 8 + _PN_ID
    end = pos + 4 + _UNPACK_U(data, pos)[0]
    interface_id = data[pos + 4:end].decode()
    if has_inv_id:
        if not starts(_PK_INV_ID, end):
            raise _OffLane
        pos = end + _PN_INV_ID
        end = pos + 4 + _UNPACK_U(data, pos)[0]
        inv_id = data[pos + 4:end].decode()
    if not starts(_PK_KIND, end):
        raise _OffLane
    pos = end + _PN_KIND
    end = pos + 4 + _UNPACK_U(data, pos)[0]
    kind = data[pos + 4:end].decode()
    if not starts(_PK_OP, end):
        raise _OffLane
    pos = end + _PN_OP
    end = pos + 4 + _UNPACK_U(data, pos)[0]
    if end != len(data):
        raise _OffLane
    # Fresh containers per message: the nucleus adopts them uncopied.
    return _request(capsule, args, {}, extra, origin, principal, trace,
                    transaction_id, [], epoch, interface_id, inv_id, kind,
                    data[pos + 4:end].decode())


def _packed_reply(data: bytes) -> Dict[str, Any]:
    """The reply envelope ``{"term": Termination}``."""
    if not data.startswith(_P_REPLY):
        raise _OffLane
    pos = _PN_REPLY
    end = pos + 4 + _UNPACK_U(data, pos)[0]
    if not data.startswith(_P_VALUES_LIST, end):
        raise _OffLane
    cur = _Cursor(end + _PN_VALUES_LIST + 4)
    values = tuple([_packed_read(data, cur, True)
                    for _ in range(_UNPACK_U(data, cur.pos - 4)[0])])
    if cur.pos != len(data):
        raise _OffLane
    return {"term": Termination(data[pos + 4:end].decode(), values)}


class PackedFormat(WireFormat):
    """Compact binary format: 1-byte tag + struct-packed payloads."""

    name = "packed"

    _MAGIC = b"\xa5P"

    _put = staticmethod(_packed_put)
    _put_tree = staticmethod(_packed_write)
    _get_tree = staticmethod(_packed_read)
    _key = staticmethod(_packed_key)
    _PLANS = {("inv", "args"): _packed_request, ("term",): _packed_reply}

    def _map_header(self, count: int, size: int) -> bytes:
        return b"d" + _PACK_U(count)

    # -- the envelopes an InvocationPlan writes ------------------------------

    def _inv_runs(self, plan: Any) -> Any:
        """*plan*'s constant runs as :meth:`_put_inv` appends them: the
        start of a request and of a member, up to the ``args`` value,
        and the context's start, untraced and traced."""
        member = b"d" + _PACK_U(plan.entries) + plan.pre_args
        return (self._MAGIC + b"d" + _PACK_U(2) + plan.capsule_kv
                + plan.inv_key + member, member,
                plan.pre_ctx + b"d" + _PACK_U(6) + plan.k_cred,
                plan.pre_ctx + b"d" + _PACK_U(7) + plan.k_cred)

    def _put_inv(self, plan: Any, whole: bool, args: Any, context: Any,
                 inv_id: Optional[str], marshaller: Any) -> bytes:
        """The ``inv`` member *plan* encodes — *whole*, inside its
        request envelope: cached chunks around the three holes, the
        argument values written by the value lane (*marshaller* is its
        two-pass fallback) and the context straight from its fields, in
        the order ``_request`` states — no intermediate dict, no copy,
        no per-call key sort.  String-typed fields are framed inline;
        anything else falls through to the tree writer."""
        request_head, member_head, ctx_untraced, ctx_traced = plan.runs
        buf = bytearray(request_head if whole else member_head)
        self.write_value(args, buf, marshaller)
        trace = context.trace
        wire_trace = None
        if trace is not None and trace.sampled and trace.trace_id:
            wire_trace = trace.to_wire()
            buf += ctx_traced
        else:
            buf += ctx_untraced
        _packed_write(context.credentials, buf, self)
        buf += plan.k_extra
        _packed_write(context.extra, buf, self)
        buf += plan.k_origin
        value = context.origin_domain
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        else:
            _packed_write(value, buf, self)
        buf += plan.k_principal
        value = context.principal
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        else:
            _packed_write(value, buf, self)
        if wire_trace is not None:
            buf += plan.k_trace
            raw = wire_trace.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        buf += plan.k_tx
        value = context.transaction_id
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        elif value is None:
            buf += b"N"
        else:
            _packed_write(value, buf, self)
        buf += plan.k_via
        _packed_write(context.via_domains, buf, self)
        buf += plan.pre_inv_id
        if plan.has_inv_id:
            raw = inv_id.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
        buf += plan.tail
        return bytes(buf)

    def _put_batch(self, capsule: str, members: List[bytes]) -> bytes:
        """The ``{"batch": [...], "capsule": ...}`` request around
        member bytes :meth:`_put_inv` wrote."""
        return (_P_BATCH + _PACK_U(len(members)) + b"".join(members)
                + _PK_CAPSULE + _chunk(self, capsule))


_FORMAT = PackedFormat()
register_format(_FORMAT)

#: What ``marshal`` wraps around a record's fields and a termination's
#: name and values, as the constant byte runs they are on the wire.
_P_RECORD = (b"d\x00\x00\x00\x02"
             + _chunk(_FORMAT, "__kind__", "record", "fields") + b"d")
_P_TERM = b"d\x00\x00\x00\x03" + _chunk(_FORMAT, "__kind__", "term", "name")
_P_VALUES = _chunk(_FORMAT, "values")

# The compiled request reader reads values inline, so each key chunk
# ends in the tag of the one type its reader takes there.
((_PK_CAPSULE, _PK_INV),
 (_PK_ARGS, _PK_CTX, _PK_EPOCH, _PK_ID, _PK_INV_ID, _PK_KIND, _PK_OP),
 (_PK_CREDENTIALS, _PK_EXTRA, _PK_ORIGIN, _PK_PRINCIPAL, _PK_TRACE, _PK_TX,
  _PK_VIA)) = _key_chunks(_FORMAT)
_PK_TRACE += b"s"
_PK_EPOCH = _PK_VIA + b"l\x00\x00\x00\x00" + _PK_EPOCH + b"i"
_PK_ID += b"s"
_PK_INV_ID += b"s"
_PK_KIND += b"s"
_PK_OP += b"s"
_P_HEAD = PackedFormat._MAGIC + b"d\x00\x00\x00\x02" + _PK_CAPSULE + b"s"
_P_INV6 = _PK_INV + b"d\x00\x00\x00\x06" + _PK_ARGS + b"l"
_P_INV7 = _PK_INV + b"d\x00\x00\x00\x07" + _PK_ARGS + b"l"
_P_NO_ENTRIES = b"d\x00\x00\x00\x00"
_P_CTX6 = (_PK_CTX + b"d\x00\x00\x00\x06" + _PK_CREDENTIALS + _P_NO_ENTRIES
           + _PK_EXTRA)
_P_CTX7 = (_PK_CTX + b"d\x00\x00\x00\x07" + _PK_CREDENTIALS + _P_NO_ENTRIES
           + _PK_EXTRA)
# ... and its length is a constant to step by, not a call per key.
(_PN_HEAD, _PN_INV, _PN_CTX, _PN_ORIGIN, _PN_PRINCIPAL, _PN_TRACE, _PN_TX,
 _PN_EPOCH, _PN_ID, _PN_INV_ID, _PN_KIND, _PN_OP) = map(len, (
     _P_HEAD, _P_INV7, _P_CTX7, _PK_ORIGIN, _PK_PRINCIPAL, _PK_TRACE, _PK_TX,
     _PK_EPOCH, _PK_ID, _PK_INV_ID, _PK_KIND, _PK_OP))
PackedFormat._TERM_KEY = _chunk(_FORMAT, "term")
_P_REPLY = (PackedFormat._MAGIC + b"d\x00\x00\x00\x01"
            + PackedFormat._TERM_KEY + _P_TERM + b"s")
_P_VALUES_LIST = _P_VALUES + b"l"
_PN_REPLY, _PN_VALUES_LIST = len(_P_REPLY), len(_P_VALUES_LIST)
_P_BATCH = (PackedFormat._MAGIC + b"d\x00\x00\x00\x02"
            + _chunk(_FORMAT, "batch") + b"l")
