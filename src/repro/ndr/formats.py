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
path)`` decodes the envelope member at *path* straight to ``tuple`` /
``FrozenRecord`` / ``Termination``.  The input chooses the road, no
caller does: the first value that is not plain data sends the whole
value down ``marshal`` + the tree writer before anything was exported,
and bytes no encoder emits are decoded again, whole, by the tree reader
— so the two-pass road stays the reference and the lane never produces
what it would not.

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
    """A mutable decode position: one allocation per message."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos


class WireFormat:
    """Abstract encoder/decoder over the plain-object model."""

    name = "abstract"

    def dumps(self, obj: Any, marshaller: Any = None) -> bytes:
        """Encode the plain tree *obj*.  With a *marshaller*, *obj* is
        a flat envelope whose members are application values, each
        written by :meth:`write_value`."""
        buf = bytearray(self._MAGIC)
        if marshaller is None:
            self._put_tree(obj, buf, self)
        else:
            for key in sorted(obj):
                self._put_tree(self._check_key(key), buf, self)
                self.write_value(obj[key], buf, marshaller)
            mark = len(self._MAGIC)
            buf[mark:mark] = self._map_header(len(obj), len(buf) - mark)
        return bytes(buf)

    def loads(self, data: bytes, values: Any = None) -> Any:
        """Decode to a plain tree.  *values* names, as a path of map
        keys, the envelope member that holds application values: when
        its bytes are what ``write_value`` emits it arrives already
        unmarshalled (a ``tuple``, ``FrozenRecord`` or ``Termination``,
        never a ``list`` or ``dict``); otherwise the whole message is
        the plain tree it always was."""
        raise NotImplementedError

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

    def _loads_values(self, data: bytes, path: Tuple[str, ...]) -> Any:
        """Decode a whole message, the member at *path* through the
        value lane; ``None`` when the lane stands aside."""
        cur = _Cursor(len(self._MAGIC))
        try:
            obj = self._get_at(data, cur, path)
        except Exception:
            # Whatever tripped the lane, hostile bytes get their verdict
            # from the hardened tree reader, not from here.
            return None
        return obj if cur.pos == len(data) else None

    def _get_at(self, data: bytes, cur: _Cursor,
                path: Tuple[str, ...]) -> Dict[str, Any]:
        """Decode the map at ``cur.pos`` as the tree reader would,
        except that the member at *path* is read by the value lane."""
        count, end = self._enter_map(data, cur)
        result: Dict[str, Any] = {}
        read, name = self._get_tree, path[0]
        for _ in range(count):
            key = read(data, cur)
            if type(key) is not str:
                raise _OffLane
            if key != name:
                result[key] = read(data, cur)
            elif len(path) > 1:
                result[key] = self._get_at(data, cur, path[1:])
            else:
                result[key] = read(data, cur, True)
        if end is not None and cur.pos != end:
            raise _OffLane
        return result

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
        for key, item in (value._items if tp is FrozenRecord else
                          [(key, value[key]) for key in sorted(value)]):
            if type(key) is not str:
                raise _OffLane
            raw = key.encode("utf-8")
            buf += b"s"
            buf += _PACK_U(len(raw))
            buf += raw
            _packed_put(item, buf, fmt)
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


def _packed_enter_map(data: bytes, cur: _Cursor) -> Tuple[int, None]:
    """Step over the map header at ``cur.pos``: ``(entry count, no
    body end to check)``."""
    pos = cur.pos
    if data[pos] != 0x64:
        raise _OffLane
    cur.pos = pos + 5
    return _UNPACK_U(data, pos + 1)[0], None


class PackedFormat(WireFormat):
    """Compact binary format: 1-byte tag + struct-packed payloads."""

    name = "packed"

    _MAGIC = b"\xa5P"

    _put = staticmethod(_packed_put)
    _put_tree = staticmethod(_packed_write)
    _get_tree = staticmethod(_packed_read)
    _enter_map = staticmethod(_packed_enter_map)

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

    def loads(self, data: bytes, values: Any = None) -> Any:
        if not data.startswith(self._MAGIC):
            raise MarshalError(
                "not a packed-format message (wrong magic); the sender "
                "used an incompatible wire format")
        if values is not None:
            obj = self._loads_values(data, values)
            if obj is not None:
                return obj
        cur = _Cursor(len(self._MAGIC))
        try:
            obj = _packed_read(data, cur)
        except (struct.error, IndexError) as exc:
            raise MarshalError(f"truncated packed message: {exc}") from exc
        except (UnicodeDecodeError, RecursionError) as exc:
            raise MarshalError(f"malformed packed message: {exc}") from exc
        if cur.pos != len(data):
            raise MarshalError("trailing bytes in packed message")
        return obj

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
        return None
    if tag == b"bool":
        return data[start:end] == b"true"
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


def _tagged_put(value: Any, buf: bytearray, fmt: "TaggedFormat") -> None:
    """The value lane's writer (see :func:`_packed_put`)."""
    tp = type(value)
    start = len(buf)
    if tp is tuple or tp is list:
        for item in value:
            _tagged_put(item, buf, fmt)
        buf[start:start] = b"list[%d]#%d#" % (len(value), len(buf) - start)
    elif tp is dict or tp is FrozenRecord:
        for key, item in (value._items if tp is FrozenRecord else
                          [(key, value[key]) for key in sorted(value)]):
            if type(key) is not str:
                raise _OffLane
            raw = key.encode("utf-8")
            buf += b"text#%d#" % len(raw)
            buf += raw
            _tagged_put(item, buf, fmt)
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


def _tagged_enter_map(data: bytes, cur: _Cursor) -> Tuple[int, int]:
    """Step over the ``map[n]#len#`` header at ``cur.pos``: ``(entry
    count, body end)``; anything else there is off the lane."""
    pos = cur.pos
    first = data.find(b"#", pos)
    second = data.find(b"#", first + 1)
    if (first < 0 or second < 0 or data[first - 1] != 0x5D
            or not data.startswith(b"map[", pos)):
        raise _OffLane
    cur.pos = second + 1
    end = cur.pos + int(data[first + 1:second])
    if not cur.pos <= end <= len(data):
        raise _OffLane
    return int(data[pos + 4:first - 1]), end


def _tagged_value(data: bytes, cur: _Cursor, tag: bytes, start: int,
                  end: int) -> Any:
    """The value lane's reader (see :func:`_packed_value`), entered from
    :func:`_tagged_read` past the scalars: the container *tag* with its
    body at ``data[start:end]``."""
    if tag.startswith(b"list[") and tag.endswith(b"]"):
        cur.pos = start
        items = tuple([_tagged_read(data, cur, True)
                       for _ in range(int(tag[5:-1]))])
        if cur.pos != end:
            raise _OffLane
        return items
    if tag == b"map[2]" and data.startswith(_T_RECORD, start):
        cur.pos = start + len(_T_RECORD)
        count, inner_end = _tagged_enter_map(data, cur)
        pairs = []
        last = None
        for _ in range(count):
            key = _tagged_read(data, cur)
            # See _packed_value: strictly increasing names, or no lane.
            if type(key) is not str or (last is not None and key <= last):
                raise _OffLane
            last = key
            pairs.append((key, _tagged_read(data, cur, True)))
        if cur.pos != inner_end or inner_end != end:
            raise _OffLane
        return FrozenRecord._trusted(tuple(pairs))
    if tag == b"map[3]" and data.startswith(_T_TERM, start):
        cur.pos = start + len(_T_TERM)
        name = _tagged_read(data, cur)
        if type(name) is str and data.startswith(_T_VALUES, cur.pos):
            cur.pos += len(_T_VALUES)
            values = _tagged_read(data, cur, True)
            if type(values) is tuple and cur.pos == end:
                return Termination(name, values)
    raise _OffLane


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
    _enter_map = staticmethod(_tagged_enter_map)

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

    def loads(self, data: bytes, values: Any = None) -> Any:
        if not data.startswith(self._MAGIC):
            raise MarshalError(
                "not a tagged-format message (wrong magic); the sender "
                "used an incompatible wire format")
        if values is not None:
            obj = self._loads_values(data, values)
            if obj is not None:
                return obj
        cur = _Cursor(len(self._MAGIC))
        try:
            obj = _tagged_read(data, cur)
        except (ValueError, RecursionError) as exc:
            raise MarshalError(f"malformed tagged message: {exc}") from exc
        if cur.pos != len(data):
            raise MarshalError("trailing bytes in tagged message")
        return obj

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
            base, _, rest = tag.partition("[")
            count = int(rest.rstrip("]"))
            tag = base
        if tag == "nil":
            return None, end
        if tag == "bool":
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
            for _ in range(count or 0):
                item, inner = self._read(data, inner)
                items.append(item)
            if inner != end:
                raise MarshalError("tagged list body length mismatch")
            return items, end
        if tag == "map":
            result: Dict[str, Any] = {}
            inner = offset
            for _ in range(count or 0):
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
