"""TAGGED: self-describing ``tag#len#payload`` framing — every byte of it.

This module owns the format: the tree codec (:func:`_tagged_write` /
:func:`_tagged_read`), the value lane (:func:`_tagged_put` /
:func:`_tagged_value`, with the record shapes that let sibling records
read their field names once per message, and a large record's kept image
that lets it be written once), the compiled readers of the
request and reply envelopes, and the writers of the request, member and
batch envelopes that :class:`repro.ndr.plancache.InvocationPlan` and
``encode_batch`` call — with the constant byte runs they share.  A
container carries its element count *and* its body length, so a writer
assembles a body from constant chunks and splices the header in front
once the length is known: structural caching rather than blind splicing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.comp.outcomes import Termination
from repro.errors import MarshalError
from repro.ndr.formats import (_ABSENT, _NAMES_CAP, _PLAIN, REUSE_MIN_BYTES,
                               WireFormat, _chunk, _Cursor, _key_chunks,
                               _OffLane, _request, register_format)
from repro.util.freeze import FrozenRecord


def _tagged_write(obj: Any, buf: bytearray, fmt: "TaggedFormat") -> None:
    """Append *obj*'s tagged encoding to *buf*.

    Containers write their children first, then splice the
    ``tag[n]#len#`` header in at the container's start offset — one
    buffer throughout instead of a chunk list per nesting level.
    """
    tp = type(obj)
    if tp is str:
        raw = obj.encode("utf-8")
        buf += b"text#%d#" % len(raw)
        buf += raw
    elif tp is int:
        buf += b"int#"
        raw = b"%d" % obj
        buf += b"%d#" % len(raw)
        buf += raw
    elif obj is None:
        buf += b"nil#0#"
    elif obj is True:
        buf += b"bool#4#true"
    elif obj is False:
        buf += b"bool#5#false"
    elif tp is float:
        raw = repr(obj).encode("ascii")
        buf += b"real#%d#" % len(raw)
        buf += raw
    elif tp is dict:
        start = len(buf)
        for key in sorted(obj):
            if type(key) is str:
                raw = key.encode("utf-8")
                buf += b"text#%d#" % len(raw)
                buf += raw
            else:
                fmt._check_key(key)
                _tagged_write(key, buf, fmt)
            _tagged_write(obj[key], buf, fmt)
        buf[start:start] = b"map[%d]#%d#" % (len(obj), len(buf) - start)
    elif tp is list or tp is tuple:
        start = len(buf)
        for item in obj:
            _tagged_write(item, buf, fmt)
        buf[start:start] = b"list[%d]#%d#" % (len(obj), len(buf) - start)
    elif tp is bytes:
        buf += b"octets#%d#" % len(obj)
        buf += obj
    elif isinstance(obj, int):
        # An int subclass's digits are its ``str()``, as the format has
        # always written them (an ``IntEnum``'s is its member name
        # before Python 3.11, which no reader takes).
        raw = str(obj).encode("ascii")
        buf += b"int#%d#" % len(raw)
        buf += raw
    else:
        _tagged_write(fmt._plain(obj), buf, fmt)


def _tagged_read(data: bytes, cur: _Cursor, values: bool = False) -> Any:
    """Decode one tagged value at ``cur.pos``, advancing the cursor —
    with *values*, as the value lane reads it (:func:`_tagged_value`)."""
    pos = cur.pos
    first = data.find(b"#", pos)
    if first < 0:
        raise MarshalError("truncated tagged header")
    second = data.find(b"#", first + 1)
    if second < 0:
        raise MarshalError("truncated tagged header")
    tag = data[pos:first]
    length = int(data[first + 1:second])
    start = second + 1
    end = start + length
    if end > len(data) or length < 0:
        raise MarshalError("truncated tagged payload")
    cur.pos = end
    if tag == b"text":
        return data[start:end].decode("utf-8")
    if tag == b"int":
        return int(data[start:end])
    if tag == b"nil":
        if length:
            raise MarshalError("tagged nil carries a payload")
        return None
    if tag == b"bool":
        if data[start:end] not in (b"true", b"false"):
            raise MarshalError("tagged bool is neither true nor false")
        return length == 4
    if tag == b"real":
        return float(data[start:end])
    if tag == b"octets":
        return bytes(data[start:end])
    if values:
        return _tagged_value(data, cur, tag, start, end)
    bracket = tag.find(b"[")
    if bracket >= 0:
        base = tag[:bracket]
        count = int(tag[bracket + 1:-1] if tag.endswith(b"]")
                    else tag[bracket + 1:])
        if count < 0:
            raise MarshalError("negative tagged element count")
        if base == b"list":
            cur.pos = start
            items = []
            append = items.append
            for _ in range(count):
                append(_tagged_read(data, cur))
            if cur.pos != end:
                raise MarshalError("tagged list body length mismatch")
            return items
        if base == b"map":
            cur.pos = start
            result: Dict[str, Any] = {}
            for _ in range(count):
                key = _tagged_read(data, cur)
                if type(key) is not str:
                    raise MarshalError("tagged map key is not a string")
                result[key] = _tagged_read(data, cur)
            if cur.pos != end:
                raise MarshalError("tagged map body length mismatch")
            return result
        raise MarshalError(f"unknown tagged tag {base.decode('ascii')!r}")
    raise MarshalError(f"unknown tagged tag {tag.decode('ascii')!r}")


def _tagged_key(name: str, names: Any = None) -> bytes:
    """*name* as the key chunk every encoder writes it, remembered in
    the writer's *names* while there is room; the reader, which makes a
    shape's chunks of names, has no *names* to remember them in."""
    raw = name.encode("utf-8")
    chunk = b"text#%d#%b" % (len(raw), raw)
    if names is not None and len(names) < _NAMES_CAP:
        names[name] = chunk
    return chunk


def _tagged_put(value: Any, buf: bytearray, fmt: "TaggedFormat") -> None:
    """The value lane's writer: *value*'s ``marshal`` tree, encoded
    without being built.  Raises ``_OffLane`` on anything not plain."""
    tp = type(value)
    start = len(buf)
    if tp is tuple or tp is list:
        for item in value:
            _tagged_put(item, buf, fmt)
        buf[start:start] = b"list[%d]#%d#" % (len(value), len(buf) - start)
    elif tp is dict or tp is FrozenRecord:
        kept = fmt._images.get(id(value)) if tp is FrozenRecord else None
        if kept is not None and kept[0] is value:
            buf += kept[1]
            return
        # Exact ``str`` before either table: a subclass equal to a
        # stored name hashes to it, and must go off-lane as it did.
        if tp is FrozenRecord:
            names = fmt._names
            for key, item in value._items:
                if type(key) is not str:
                    raise _OffLane
                buf += names.get(key) or _tagged_key(key, names)
                _tagged_put(item, buf, fmt)
        else:
            for key in value:
                if type(key) is not str:
                    raise _OffLane
            for key, chunk in (fmt._layouts.get(tuple(value))
                               or fmt._layout(value)):
                buf += chunk
                _tagged_put(value[key], buf, fmt)
        head = b"map[%d]#%d#" % (len(value), len(buf) - start)
        buf[start:start] = b"map[2]#%d#%b%b" % (
            len(_T_RECORD) + len(head) + len(buf) - start, _T_RECORD, head)
        if tp is FrozenRecord and len(buf) - start >= REUSE_MIN_BYTES:
            fmt._keep(value, bytes(buf[start:]))
    elif tp in _PLAIN:
        _tagged_write(value, buf, fmt)
    elif tp is Termination:
        if type(value.name) is not str or type(value.values) is not tuple:
            raise _OffLane
        buf += _T_TERM
        _tagged_write(value.name, buf, fmt)
        buf += _T_VALUES
        _tagged_put(value.values, buf, fmt)
        buf[start:start] = b"map[3]#%d#" % (len(buf) - start)
    else:
        raise _OffLane


def _tagged_value(data: bytes, cur: _Cursor, tag: bytes, start: int,
                  end: int) -> Any:
    """The value lane's reader, entered from :func:`_tagged_read` past
    the scalars: ``unmarshal`` of the container *tag*'s tree, its body
    at ``data[start:end]``, decoded without being built."""
    if tag.startswith(b"list[") and tag.endswith(b"]"):
        cur.pos = start
        count = int(tag[5:-1])
        items = tuple([_tagged_read(data, cur, True) for _ in range(count)])
        if cur.pos != end or count < 0:
            raise _OffLane
        return items
    if tag == b"map[2]" and data.startswith(_T_RECORD, start):
        # The fields map, ``map[n]#len#``, must fill the wrapper.
        pos = start + len(_T_RECORD)
        first = data.index(b"]#", pos)
        second = data.index(b"#", first + 2)
        cur.pos = second + 1
        count = int(data[pos + 4:first])
        if (count < 0 or not data.startswith(b"map[", pos)
                or cur.pos + int(data[first + 2:second]) != end):
            raise _OffLane
        pairs = []
        last = None
        # Sibling records pay for their names once per message: the
        # record is tried against a shape the cursor holds — one
        # ``startswith`` per key, the ``str`` reused — and read by the
        # generic loop from the first key that differs.  A key that *is*
        # the chunk every encoder writes for a name is what that loop
        # would read as the name, and a shape's names increase strictly,
        # so a hit is its answer; a check that fails is ``_OffLane``,
        # which abandons the cursor with all it learnt.
        shape = cur.shape
        if count and not (shape and data.startswith(shape[0][0], cur.pos)):
            # Not the previous record's sibling: the first name, read as
            # any other, says which shape the message has shown before.
            last = _tagged_read(data, cur)
            if type(last) is not str:
                raise _OffLane
            pairs.append((last, _tagged_read(data, cur, True)))
            shape = cur.shapes.get(last)
            if type(shape) is FrozenRecord:
                # The second sighting makes a shape of the first's names.
                shape = cur.shapes[last] = tuple([
                    (chunk := _tagged_key(name), len(chunk), name)
                    for name, _ in shape._items])
        if shape and len(shape) == count:
            for chunk, size, name in shape[len(pairs):]:
                if not data.startswith(chunk, cur.pos):
                    last = pairs[-1][0]
                    break
                cur.pos += size
                pairs.append((name, _tagged_read(data, cur, True)))
        for _ in range(count - len(pairs)):
            key = _tagged_read(data, cur)
            # Strictly increasing names are what every encoder emits
            # and what makes the pairs a FrozenRecord's as they stand.
            if type(key) is not str or (last is not None and key <= last):
                raise _OffLane
            last = key
            pairs.append((key, _tagged_read(data, cur, True)))
        if cur.pos != end:
            raise _OffLane
        record = FrozenRecord._trusted(tuple(pairs))
        if shape is not None:
            cur.shape = shape
        elif count:
            cur.shapes[pairs[0][0]] = record
        return record
    if tag == b"map[3]" and data.startswith(_T_TERM, start):
        cur.pos = start + len(_T_TERM)
        name = _tagged_read(data, cur)
        if type(name) is str and data.startswith(_T_VALUES, cur.pos):
            cur.pos += len(_T_VALUES)
            values = _tagged_read(data, cur, True)
            if type(values) is tuple and cur.pos == end:
                return Termination(name, values)
    raise _OffLane


def _tagged_open(data: bytes, cur: _Cursor, head: bytes) -> int:
    """Step into the map whose header opens with *head* (``map[n]#``)
    at ``cur.pos``; returns where its body must end."""
    mark = cur.pos + len(head)
    if not data.startswith(head, cur.pos):
        raise _OffLane
    cur.pos = data.index(b"#", mark) + 1
    end = cur.pos + int(data[mark:cur.pos - 1])
    if not cur.pos <= end <= len(data):
        raise _OffLane
    return end


def _tagged_member(data: bytes, cur: _Cursor, key: bytes,
                   values: bool = False) -> Any:
    """The value under *key*, which must be the next entry's."""
    if not data.startswith(key, cur.pos):
        raise _OffLane
    cur.pos += len(key)
    return _tagged_read(data, cur, values)


def _tagged_request(data: bytes) -> Dict[str, Any]:
    """The request envelope, read the way ``InvocationPlan`` writes it:
    each key the chunk the plan holds, in order; every value is read by
    the tree reader's own branch, so only the keys, the entry counts and
    the body lengths are this reader's to check."""
    cur = _Cursor(len(TaggedFormat._MAGIC))
    end = _tagged_open(data, cur, b"map[2]#")
    capsule = _tagged_member(data, cur, _TK_CAPSULE)
    inv_id = trace = _ABSENT
    has_inv_id = data.startswith(_T_INV7, cur.pos)
    inv_end = _tagged_open(data, cur, _T_INV7 if has_inv_id else _T_INV6)
    args = _tagged_member(data, cur, _TK_ARGS, True)
    has_trace = data.startswith(_T_CTX7, cur.pos)
    ctx_end = _tagged_open(data, cur, _T_CTX7 if has_trace else _T_CTX6)
    credentials = _tagged_member(data, cur, _TK_CREDENTIALS)
    extra = _tagged_member(data, cur, _TK_EXTRA)
    origin = _tagged_member(data, cur, _TK_ORIGIN)
    principal = _tagged_member(data, cur, _TK_PRINCIPAL)
    if has_trace:
        trace = _tagged_member(data, cur, _TK_TRACE)
    transaction_id = _tagged_member(data, cur, _TK_TX)
    via_domains = _tagged_member(data, cur, _TK_VIA)
    if cur.pos != ctx_end:
        raise _OffLane
    epoch = _tagged_member(data, cur, _TK_EPOCH)
    interface_id = _tagged_member(data, cur, _TK_ID)
    if has_inv_id:
        inv_id = _tagged_member(data, cur, _TK_INV_ID)
    kind = _tagged_member(data, cur, _TK_KIND)
    op = _tagged_member(data, cur, _TK_OP)
    if (not cur.pos == inv_end == end == len(data)
            or type(args) is not tuple or type(capsule) is not str
            or type(op) is not str):
        raise _OffLane
    return _request(capsule, args, credentials, extra, origin, principal,
                    trace, transaction_id, via_domains, epoch, interface_id,
                    inv_id, kind, op)


def _tagged_reply(data: bytes) -> Dict[str, Any]:
    """The reply envelope ``{"term": Termination}``."""
    cur = _Cursor(len(TaggedFormat._MAGIC))
    end = _tagged_open(data, cur, b"map[1]#")
    term = _tagged_member(data, cur, TaggedFormat._TERM_KEY, True)
    if not cur.pos == end == len(data) or type(term) is not Termination:
        raise _OffLane
    return {"term": term}


class TaggedFormat(WireFormat):
    """Self-describing textual format: ``tag#len#payload`` framing.

    Strings and bytes are length-prefixed (no escaping needed); containers
    carry an element count and concatenate their children.
    """

    name = "tagged"

    _MAGIC = b"@TAGGED@"

    _put = staticmethod(_tagged_put)
    _put_tree = staticmethod(_tagged_write)
    _get_tree = staticmethod(_tagged_read)
    _key = staticmethod(_tagged_key)
    _PLANS = {("inv", "args"): _tagged_request, ("term",): _tagged_reply}

    def _map_header(self, count: int, size: int) -> bytes:
        return b"map[%d]#%d#" % (count, size)

    # -- the envelopes an InvocationPlan writes ------------------------------

    def _inv_runs(self, plan: Any) -> bytes:
        """What a whole request holds before the ``inv`` map's header."""
        return plan.capsule_kv + plan.inv_key

    def _put_inv(self, plan: Any, whole: bool, args: Any, context: Any,
                 inv_id: Optional[str], marshaller: Any) -> bytes:
        """The ``inv`` member *plan* encodes (see
        :meth:`repro.ndr.packed.PackedFormat._put_inv`): the body first,
        each map's header spliced in front once its length is known."""
        buf = bytearray(plan.pre_args)
        self.write_value(args, buf, marshaller)
        buf += plan.pre_ctx
        trace = context.trace
        wire_trace = None
        if trace is not None and trace.sampled and trace.trace_id:
            wire_trace = trace.to_wire()
        start = len(buf)
        buf += plan.k_cred
        _tagged_write(context.credentials, buf, self)
        buf += plan.k_extra
        _tagged_write(context.extra, buf, self)
        buf += plan.k_origin
        value = context.origin_domain
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
        else:
            _tagged_write(value, buf, self)
        buf += plan.k_principal
        value = context.principal
        if type(value) is str:
            raw = value.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
        else:
            _tagged_write(value, buf, self)
        if wire_trace is not None:
            buf += plan.k_trace
            raw = wire_trace.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
        buf += plan.k_tx
        _tagged_write(context.transaction_id, buf, self)
        buf += plan.k_via
        _tagged_write(context.via_domains, buf, self)
        buf[start:start] = b"map[%d]#%d#" % (
            7 if wire_trace is not None else 6, len(buf) - start)
        buf += plan.pre_inv_id
        if plan.has_inv_id:
            raw = inv_id.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
        buf += plan.tail
        buf[0:0] = b"map[%d]#%d#" % (plan.entries, len(buf))
        if not whole:
            return bytes(buf)
        buf[0:0] = plan.runs
        return self._MAGIC + b"map[2]#%d#" % len(buf) + buf

    def _put_batch(self, capsule: str, members: List[bytes]) -> bytes:
        """The ``{"batch": [...], "capsule": ...}`` request around
        member bytes :meth:`_put_inv` wrote."""
        joined = b"".join(members)
        body = (_T_BATCH + b"list[%d]#%d#" % (len(members), len(joined))
                + joined + _TK_CAPSULE + _chunk(self, capsule))
        return self._MAGIC + b"map[2]#%d#" % len(body) + body


_FORMAT = TaggedFormat()
register_format(_FORMAT)

#: What ``marshal`` wraps around a record's fields and a termination's
#: name and values, as the constant byte runs they are on the wire (the
#: map headers carry a body length, so they stay out of these).
_T_RECORD = _chunk(_FORMAT, "__kind__", "record", "fields")
_T_TERM = _chunk(_FORMAT, "__kind__", "term", "name")
_T_VALUES = _chunk(_FORMAT, "values")

((_TK_CAPSULE, _TK_INV),
 (_TK_ARGS, _TK_CTX, _TK_EPOCH, _TK_ID, _TK_INV_ID, _TK_KIND, _TK_OP),
 (_TK_CREDENTIALS, _TK_EXTRA, _TK_ORIGIN, _TK_PRINCIPAL, _TK_TRACE, _TK_TX,
  _TK_VIA)) = _key_chunks(_FORMAT)
_T_INV6, _T_INV7 = _TK_INV + b"map[6]#", _TK_INV + b"map[7]#"
_T_CTX6, _T_CTX7 = _TK_CTX + b"map[6]#", _TK_CTX + b"map[7]#"
TaggedFormat._TERM_KEY = _chunk(_FORMAT, "term")
_T_BATCH = _chunk(_FORMAT, "batch")
