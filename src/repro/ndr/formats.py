"""Wire formats.

A wire format turns a *plain object tree* — ``None``, ``bool``, ``int``,
``float``, ``str``, ``bytes``, ``list``, ``dict`` with string keys — into
bytes and back.  The two built-in formats are intentionally incompatible:

* ``packed`` — tag-byte binary with struct-packed scalars (a caricature of
  a compiled ANSAware/CDR representation),
* ``tagged`` — length-prefixed self-describing text (a caricature of an
  ASN.1-ish / textual representation).

Feeding bytes from one format to the other fails loudly, which is what the
federation interceptor tests rely on.

Each format carries two codec implementations that must agree byte for
byte:

* the **reference walk** (``dumps_reference``/``loads_reference``) — the
  original recursive chunk-list encoder and tuple-threading decoder,
  kept as the executable specification of the wire format;
* the **zero-copy fast path** (``dumps``/``loads``, what every message
  takes) — a single ``bytearray`` output buffer appended in place,
  exact-type dispatch, precompiled ``struct`` codes, and an
  allocation-free decode cursor (one mutable position object per
  message instead of a ``(value, offset)`` tuple per node).

The reference walk is not a runtime arm: ``_write`` is the fast
encoders' fallback for scalar/container subclasses and builds every
plan chunk in :mod:`repro.ndr.plancache`, and the golden and fuzz tests
assert both paths emit identical bytes.

Both formats also carry a **value lane** for the two places where an
application value would otherwise be walked twice — marshalled into a
tree, then encoded (and back): ``write_value`` takes ``None``/``bool``/
``int``/``float``/``str``/``bytes``, ``list``/``tuple``, ``dict``,
:class:`FrozenRecord` and :class:`Termination` straight to the bytes
``dumps(Marshaller.marshal(value))`` gives, and ``loads(data, values=
path)`` reads the two envelopes that carry every invocation — the
request around ``inv.args``, the reply ``{"term": Termination}`` — with
a *compiled reader*: the keys the encoders' plans write, tested in
order as constant chunks, the values decoded straight to ``tuple`` /
``FrozenRecord`` / ``Termination``.  Decode so has two roads, planned
and hardened, and the input chooses, no caller does: the first value
that is not plain data sends the whole value down ``marshal`` + the
tree writer before anything was exported, and a message that is not
byte for byte of the planned shape is decoded again, whole, by the tree
reader — so the two-pass road stays the reference and the plan never
produces what it would not.

Bytes arrive from outside the program, so every decoder maps damage —
truncation, invalid UTF-8, a non-string map key, a non-ASCII tag,
nesting past the recursion limit, a TAGGED length that is negative or
disagrees with what the children occupy — to :class:`MarshalError` and
nothing else, in time linear in the message.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.comp.outcomes import Termination
from repro.errors import MarshalError
from repro.util.freeze import FrozenRecord


class _OffLane(Exception):
    """The value lane met what it does not take: a value that is not
    plain data (encode), bytes no encoder emits (decode).  Never leaves
    this module — the caller takes the two-pass road instead."""


class _Cursor:
    """A mutable decode position: one allocation per message — and what
    that message has shown the value lane of its records' shapes, which
    is keyed by bytes off the wire and so dies with the message."""

    __slots__ = ("pos", "shape", "shapes")

    def __init__(self, pos: int) -> None:
        self.pos = pos
        #: The shape of the record last read by one, to try on its next
        #: sibling; and first name -> the first record that opened with
        #: it, or from its second sighting on that record's shape: a
        #: ``(key chunk, its length, name)`` per field, in wire order.
        self.shape = None
        self.shapes: Dict[str, Any] = {}


#: Field names, and dict layouts, a format's writer remembers.  Names
#: can be data (``{user_id: balance}``), so the tables are capped and
#: never evict: once full, a new name is encoded afresh, as all were.
_NAMES_CAP = 512


class WireFormat:
    """Abstract encoder/decoder over the plain-object model."""

    name = "abstract"
    #: ``loads``'s *values* path -> the compiled reader of that envelope.
    _PLANS: Dict[Tuple[str, ...], Any] = {}

    def __init__(self) -> None:
        #: What the value lane's writer remembers of the records it
        #: wrote, so that sibling records encode, and a dict's sort,
        #: their names once: name -> key chunk, and a dict's names as
        #: inserted -> its ``(name, key chunk)`` pairs in wire order.
        self._names: Dict[str, bytes] = {}
        self._layouts: Dict[Tuple[str, ...], Any] = {}

    def dumps(self, obj: Any, marshaller: Any = None) -> bytes:
        """Encode the plain tree *obj*.  With a *marshaller*, *obj* is
        a flat envelope whose members are application values, each
        written by :meth:`write_value`."""
        buf = bytearray(self._MAGIC)
        if marshaller is None:
            self._put_tree(obj, buf, self)
            return bytes(buf)
        if len(obj) == 1 and "term" in obj:
            # The reply: its one key is the constant its reader tests.
            buf += self._TERM_KEY
            self.write_value(obj["term"], buf, marshaller)
        else:
            for key in sorted(obj):
                self._put_tree(self._check_key(key), buf, self)
                self.write_value(obj[key], buf, marshaller)
        mark = len(self._MAGIC)
        buf[mark:mark] = self._map_header(len(obj), len(buf) - mark)
        return bytes(buf)

    def loads(self, data: bytes, values: Any = None) -> Any:
        """Decode to a plain tree.  *values* names, as a path of map
        keys, the envelope member that holds application values —
        ``("inv", "args")`` of a request, ``("term",)`` of a reply: a
        message of exactly the shape the encoders give that envelope
        arrives with the member already unmarshalled (a ``tuple``, a
        ``Termination``); any other is the plain tree it always was."""
        if not data.startswith(self._MAGIC):
            raise MarshalError(
                f"not a {self.name}-format message (wrong magic); the "
                f"sender used an incompatible wire format")
        if values is not None:
            try:
                return self._PLANS[values](data)
            except Exception:
                # Whatever tripped the plan, hostile bytes get their
                # verdict from the tree reader, not from here.
                pass
        cur = _Cursor(len(self._MAGIC))
        try:
            obj = self._get_tree(data, cur)
        except (struct.error, IndexError) as exc:
            raise MarshalError(
                f"truncated {self.name} message: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad UTF-8, digits
            raise MarshalError(
                f"malformed {self.name} message: {exc}") from exc
        if cur.pos != len(data):
            raise MarshalError(f"trailing bytes in {self.name} message")
        return obj

    def write_value(self, value: Any, buf: bytearray,
                    marshaller: Any) -> None:
        """Append to *buf* exactly ``dumps(marshaller.marshal(value))``
        minus the magic, in one walk when *value* is plain data.

        ``marshal`` exports in dict insertion order while bytes go out
        in sorted order, so the lane bails at the first non-plain value
        — before any export — and the whole value goes down the
        two-pass road: ids, counters and bytes stay what it gives."""
        mark = len(buf)
        try:
            self._put(value, buf, self)
        except (_OffLane, TypeError):  # TypeError: unsortable field names
            del buf[mark:]
            self._put_tree(marshaller.marshal(value), buf, self)

    def _layout(self, value: Dict[str, Any]) -> Any:
        """*value*'s ``(name, key chunk)`` pairs in wire order,
        remembered under its names as inserted while every one of them
        is in ``_names`` — so no layout is wider than the cap."""
        names = self._names
        layout = tuple([(key, names.get(key) or self._key(key, names))
                        for key in sorted(value)])
        if len(names) < _NAMES_CAP > len(self._layouts):
            self._layouts[tuple(value)] = layout
        return layout

    def _check_key(self, key: Any) -> str:
        if not isinstance(key, str):
            raise MarshalError(f"dict keys must be str, got {type(key)}")
        return key


# ---------------------------------------------------------------------------
# PACKED: 1-byte tag + struct-packed payloads
# ---------------------------------------------------------------------------

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
        # Scalar/container subclasses and unencodable types: defer to
        # the reference walk so behaviour (and every error message)
        # stays identical.
        chunks: List[bytes] = []
        fmt._write(obj, chunks)
        buf += b"".join(chunks)


def _packed_read(data: bytes, cur: _Cursor, values: bool = False) -> Any:
    """Decode one packed value at ``cur.pos``, advancing the cursor —
    with *values*, as the value lane reads it (:func:`_packed_value`)."""
    pos = cur.pos
    tag = data[pos]
    if values and (tag == 0x64 or tag == 0x6C):
        return _packed_value(data, cur, pos, tag)
    pos += 1
    if tag == 0x73:  # "s"
        (length,) = _UNPACK_U(data, pos)
        pos += 4
        end = pos + length
        cur.pos = end
        return data[pos:end].decode("utf-8")
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
            key = data[kp:pos].decode("utf-8")
            # Values: inline the dominant scalar cases, recurse for
            # containers and the rare tags.
            t = data[pos]
            if t == 0x73:
                (length,) = _UNPACK_U(data, pos + 1)
                vp = pos + 5
                pos = vp + length
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
    if tag == 0x62:  # "b"
        (length,) = _UNPACK_U(data, pos)
        pos += 4
        end = pos + length
        cur.pos = end
        return bytes(data[pos:end])
    if tag == 0x49:  # "I"
        (length,) = _UNPACK_U(data, pos)
        pos += 4
        end = pos + length
        cur.pos = end
        return int.from_bytes(data[pos:end], "big", signed=True)
    raise MarshalError(f"unknown packed tag {bytes((tag,))!r}")


_PLAIN = frozenset((str, int, float, bytes, bool, type(None)))


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

    def dumps_reference(self, obj: Any) -> bytes:
        """Encode via the original chunk-list walk (the format spec)."""
        chunks: List[bytes] = [self._MAGIC]
        self._write(obj, chunks)
        return b"".join(chunks)

    def _write(self, obj: Any, out: List[bytes]) -> None:
        if obj is None:
            out.append(b"N")
        elif obj is True:
            out.append(b"T")
        elif obj is False:
            out.append(b"F")
        elif isinstance(obj, int):
            if -(2 ** 63) <= obj < 2 ** 63:
                out.append(b"i" + struct.pack(">q", obj))
            else:  # big integer fallback: sign + length + magnitude bytes
                raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big",
                                   signed=True)
                out.append(b"I" + struct.pack(">I", len(raw)) + raw)
        elif isinstance(obj, float):
            out.append(b"f" + struct.pack(">d", obj))
        elif isinstance(obj, str):
            raw = obj.encode("utf-8")
            out.append(b"s" + struct.pack(">I", len(raw)) + raw)
        elif isinstance(obj, bytes):
            out.append(b"b" + struct.pack(">I", len(obj)) + obj)
        elif isinstance(obj, (list, tuple)):
            out.append(b"l" + struct.pack(">I", len(obj)))
            for item in obj:
                self._write(item, out)
        elif isinstance(obj, dict):
            out.append(b"d" + struct.pack(">I", len(obj)))
            for key in sorted(obj):
                self._check_key(key)
                self._write(key, out)
                self._write(obj[key], out)
        else:
            raise MarshalError(
                f"packed format cannot encode {type(obj).__name__}")

    def loads_reference(self, data: bytes) -> Any:
        """Decode via the original tuple-threading walk."""
        if not data.startswith(self._MAGIC):
            raise MarshalError(
                "not a packed-format message (wrong magic); the sender "
                "used an incompatible wire format")
        obj, offset = self._read(data, len(self._MAGIC))
        if offset != len(data):
            raise MarshalError("trailing bytes in packed message")
        return obj

    def _read(self, data: bytes, offset: int) -> Tuple[Any, int]:
        try:
            tag = data[offset:offset + 1]
            offset += 1
            if tag == b"N":
                return None, offset
            if tag == b"T":
                return True, offset
            if tag == b"F":
                return False, offset
            if tag == b"i":
                (value,) = struct.unpack_from(">q", data, offset)
                return value, offset + 8
            if tag == b"I":
                (length,) = struct.unpack_from(">I", data, offset)
                offset += 4
                raw = data[offset:offset + length]
                return int.from_bytes(raw, "big", signed=True), offset + length
            if tag == b"f":
                (value,) = struct.unpack_from(">d", data, offset)
                return value, offset + 8
            if tag == b"s":
                (length,) = struct.unpack_from(">I", data, offset)
                offset += 4
                raw = data[offset:offset + length]
                return raw.decode("utf-8"), offset + length
            if tag == b"b":
                (length,) = struct.unpack_from(">I", data, offset)
                offset += 4
                return bytes(data[offset:offset + length]), offset + length
            if tag == b"l":
                (count,) = struct.unpack_from(">I", data, offset)
                offset += 4
                items = []
                for _ in range(count):
                    item, offset = self._read(data, offset)
                    items.append(item)
                return items, offset
            if tag == b"d":
                (count,) = struct.unpack_from(">I", data, offset)
                offset += 4
                result: Dict[str, Any] = {}
                for _ in range(count):
                    key, offset = self._read(data, offset)
                    if not isinstance(key, str):
                        raise MarshalError("packed map key is not a string")
                    value, offset = self._read(data, offset)
                    result[key] = value
                return result, offset
            raise MarshalError(f"unknown packed tag {tag!r}")
        except struct.error as exc:
            raise MarshalError(f"truncated packed message: {exc}") from exc
        except (UnicodeDecodeError, RecursionError) as exc:
            raise MarshalError(f"malformed packed message: {exc}") from exc


# ---------------------------------------------------------------------------
# TAGGED: self-describing ``tag#len#payload`` framing
# ---------------------------------------------------------------------------

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
    else:
        chunks: List[bytes] = []
        fmt._write(obj, chunks)
        buf += b"".join(chunks)


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
    """See :func:`_packed_key`; the reader, which makes a shape's
    chunks of names, has no *names* to remember them in."""
    raw = name.encode("utf-8")
    chunk = b"text#%d#%b" % (len(raw), raw)
    if names is not None and len(names) < _NAMES_CAP:
        names[name] = chunk
    return chunk


def _tagged_put(value: Any, buf: bytearray, fmt: "TaggedFormat") -> None:
    """The value lane's writer (see :func:`_packed_put`)."""
    tp = type(value)
    start = len(buf)
    if tp is tuple or tp is list:
        for item in value:
            _tagged_put(item, buf, fmt)
        buf[start:start] = b"list[%d]#%d#" % (len(value), len(buf) - start)
    elif tp is dict or tp is FrozenRecord:
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
    """The value lane's reader (see :func:`_packed_value`), entered from
    :func:`_tagged_read` past the scalars: the container *tag* with its
    body at ``data[start:end]``."""
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
            # See _packed_value: strictly increasing names, or no lane.
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
    """The request envelope (see :func:`_packed_request`); every value
    is read by the tree reader's own branch, so only the keys, the
    entry counts and the body lengths are this reader's to check."""
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

    def dumps_reference(self, obj: Any) -> bytes:
        """Encode via the original chunk-list walk (the format spec)."""
        chunks: List[bytes] = [self._MAGIC]
        self._write(obj, chunks)
        return b"".join(chunks)

    def _frame(self, tag: str, payload: bytes) -> bytes:
        return f"{tag}#{len(payload)}#".encode("ascii") + payload

    def _write(self, obj: Any, out: List[bytes]) -> None:
        if obj is None:
            out.append(self._frame("nil", b""))
        elif obj is True or obj is False:
            out.append(self._frame("bool", b"true" if obj else b"false"))
        elif isinstance(obj, int):
            out.append(self._frame("int", str(obj).encode("ascii")))
        elif isinstance(obj, float):
            out.append(self._frame("real", repr(obj).encode("ascii")))
        elif isinstance(obj, str):
            out.append(self._frame("text", obj.encode("utf-8")))
        elif isinstance(obj, bytes):
            out.append(self._frame("octets", obj))
        elif isinstance(obj, (list, tuple)):
            inner: List[bytes] = []
            for item in obj:
                self._write(item, inner)
            body = b"".join(inner)
            out.append(f"list[{len(obj)}]#{len(body)}#".encode("ascii")
                       + body)
        elif isinstance(obj, dict):
            inner = []
            for key in sorted(obj):
                self._check_key(key)
                self._write(key, inner)
                self._write(obj[key], inner)
            body = b"".join(inner)
            out.append(f"map[{len(obj)}]#{len(body)}#".encode("ascii")
                       + body)
        else:
            raise MarshalError(
                f"tagged format cannot encode {type(obj).__name__}")

    def loads_reference(self, data: bytes) -> Any:
        """Decode via the original tuple-threading walk."""
        if not data.startswith(self._MAGIC):
            raise MarshalError(
                "not a tagged-format message (wrong magic); the sender "
                "used an incompatible wire format")
        try:
            obj, offset = self._read(data, len(self._MAGIC))
        except (ValueError, RecursionError) as exc:
            raise MarshalError(f"malformed tagged message: {exc}") from exc
        if offset != len(data):
            raise MarshalError("trailing bytes in tagged message")
        return obj

    def _read_header(self, data: bytes, offset: int):
        first = data.find(b"#", offset)
        if first < 0:
            raise MarshalError("truncated tagged header")
        second = data.find(b"#", first + 1)
        if second < 0:
            raise MarshalError("truncated tagged header")
        tag = data[offset:first].decode("ascii")
        length = int(data[first + 1:second])
        return tag, length, second + 1

    def _read(self, data: bytes, offset: int) -> Tuple[Any, int]:
        tag, length, offset = self._read_header(data, offset)
        payload = data[offset:offset + length]
        if len(payload) != length:
            raise MarshalError("truncated tagged payload")
        end = offset + length
        count = None
        if "[" in tag:
            tag, _, rest = tag.partition("[")
            count = int(rest[:-1] if rest.endswith("]") else rest)
            if count < 0:
                raise MarshalError("negative tagged element count")
        # A count is what a container carries, and only a container.
        if (tag in ("list", "map")) != (count is not None):
            raise MarshalError(f"unknown tagged tag {tag!r}")
        if tag == "nil":
            if payload:
                raise MarshalError("tagged nil carries a payload")
            return None, end
        if tag == "bool":
            if payload not in (b"true", b"false"):
                raise MarshalError("tagged bool is neither true nor false")
            return payload == b"true", end
        if tag == "int":
            return int(payload), end
        if tag == "real":
            return float(payload), end
        if tag == "text":
            return payload.decode("utf-8"), end
        if tag == "octets":
            return bytes(payload), end
        if tag == "list":
            items = []
            inner = offset
            for _ in range(count):
                item, inner = self._read(data, inner)
                items.append(item)
            if inner != end:
                raise MarshalError("tagged list body length mismatch")
            return items, end
        if tag == "map":
            result: Dict[str, Any] = {}
            inner = offset
            for _ in range(count):
                key, inner = self._read(data, inner)
                if not isinstance(key, str):
                    raise MarshalError("tagged map key is not a string")
                value, inner = self._read(data, inner)
                result[key] = value
            if inner != end:
                raise MarshalError("tagged map body length mismatch")
            return result, end
        raise MarshalError(f"unknown tagged tag {tag!r}")


_REGISTRY: Dict[str, WireFormat] = {}


def register_format(fmt: WireFormat) -> None:
    _REGISTRY[fmt.name] = fmt


def get_format(name: str) -> WireFormat:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MarshalError(f"unknown wire format {name!r}") from None


def available_formats() -> List[str]:
    return sorted(_REGISTRY)


register_format(PackedFormat())
register_format(TaggedFormat())


def _chunk(fmt: WireFormat, *objs: Any) -> bytes:
    """Encode constant values with the format's own writer."""
    out: List[bytes] = []
    for obj in objs:
        fmt._write(obj, out)
    return b"".join(out)


#: What ``marshal`` wraps around a record's fields and a termination's
#: name and values, as the constant byte runs they are on the wire (the
#: TAGGED map headers carry a body length, so they stay out of these).
_P_RECORD = (b"d\x00\x00\x00\x02"
             + _chunk(get_format("packed"), "__kind__", "record", "fields")
             + b"d")
_P_TERM = (b"d\x00\x00\x00\x03"
           + _chunk(get_format("packed"), "__kind__", "term", "name"))
_P_VALUES = _chunk(get_format("packed"), "values")
_T_RECORD = _chunk(get_format("tagged"), "__kind__", "record", "fields")
_T_TERM = _chunk(get_format("tagged"), "__kind__", "term", "name")
_T_VALUES = _chunk(get_format("tagged"), "values")


#: Stands for an optional member the message did not carry.
_ABSENT = object()


def _request(capsule, args, credentials, extra, origin, principal, trace,
             transaction_id, via_domains, epoch, interface_id, inv_id, kind,
             op) -> Dict[str, Any]:
    """The request envelope around its members — the one place its
    shape is written: every map's keys in the sorted order both formats
    emit them.  :func:`_key_chunks` reads the keys off it, for
    :class:`repro.ndr.plancache.InvocationPlan` to write and the
    readers above to test.  ``trace`` and ``inv_id`` are the two a
    message may leave out."""
    envelope = {"capsule": capsule, "inv": {
        "args": args,
        "ctx": {"credentials": credentials, "extra": extra,
                "origin_domain": origin, "principal": principal,
                "trace": trace, "transaction_id": transaction_id,
                "via_domains": via_domains},
        "epoch": epoch, "id": interface_id, "inv_id": inv_id,
        "kind": kind, "op": op}}
    if trace is _ABSENT:
        del envelope["inv"]["ctx"]["trace"]
    if inv_id is _ABSENT:
        del envelope["inv"]["inv_id"]
    return envelope


def _key_chunks(fmt: WireFormat) -> List[List[bytes]]:
    """The keys :func:`_request` states as *fmt* puts them on the wire:
    the envelope's, then ``inv``'s, then ``ctx``'s, each in order."""
    shape = _request(*[None] * 14)
    return [[_chunk(fmt, key) for key in keys]
            for keys in (shape, shape["inv"], shape["inv"]["ctx"])]


((_TK_CAPSULE, _TK_INV),
 (_TK_ARGS, _TK_CTX, _TK_EPOCH, _TK_ID, _TK_INV_ID, _TK_KIND, _TK_OP),
 (_TK_CREDENTIALS, _TK_EXTRA, _TK_ORIGIN, _TK_PRINCIPAL, _TK_TRACE, _TK_TX,
  _TK_VIA)) = _key_chunks(get_format("tagged"))
_T_INV6, _T_INV7 = _TK_INV + b"map[6]#", _TK_INV + b"map[7]#"
_T_CTX6, _T_CTX7 = _TK_CTX + b"map[6]#", _TK_CTX + b"map[7]#"

# PACKED values are read inline, so each key chunk ends in the tag of
# the one type its reader takes there.
((_PK_CAPSULE, _PK_INV),
 (_PK_ARGS, _PK_CTX, _PK_EPOCH, _PK_ID, _PK_INV_ID, _PK_KIND, _PK_OP),
 (_PK_CREDENTIALS, _PK_EXTRA, _PK_ORIGIN, _PK_PRINCIPAL, _PK_TRACE, _PK_TX,
  _PK_VIA)) = _key_chunks(get_format("packed"))
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
PackedFormat._TERM_KEY = _chunk(get_format("packed"), "term")
TaggedFormat._TERM_KEY = _chunk(get_format("tagged"), "term")
_P_REPLY = (PackedFormat._MAGIC + b"d\x00\x00\x00\x01"
            + PackedFormat._TERM_KEY + _P_TERM + b"s")
_P_VALUES_LIST = _P_VALUES + b"l"
_PN_REPLY, _PN_VALUES_LIST = len(_P_REPLY), len(_P_VALUES_LIST)
