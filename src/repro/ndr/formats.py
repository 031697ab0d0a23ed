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

Bytes arrive from outside the program, so every decoder maps damage —
truncation, invalid UTF-8, a non-string map key, a non-ASCII tag,
nesting past the recursion limit, a TAGGED length that is negative or
disagrees with what the children occupy — to :class:`MarshalError` and
nothing else, in time linear in the message.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.errors import MarshalError

class _Cursor:
    """A mutable decode position: one allocation per message."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos


class WireFormat:
    """Abstract encoder/decoder over the plain-object model."""

    name = "abstract"

    def dumps(self, obj: Any) -> bytes:
        raise NotImplementedError

    def loads(self, data: bytes) -> Any:
        raise NotImplementedError

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


def _packed_read(data: bytes, cur: _Cursor) -> Any:
    """Decode one packed value at ``cur.pos``, advancing the cursor."""
    pos = cur.pos
    tag = data[pos]
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


class PackedFormat(WireFormat):
    """Compact binary format: 1-byte tag + struct-packed payloads."""

    name = "packed"

    _MAGIC = b"\xa5P"

    def dumps(self, obj: Any) -> bytes:
        buf = bytearray(self._MAGIC)
        _packed_write(obj, buf, self)
        return bytes(buf)

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

    def loads(self, data: bytes) -> Any:
        if not data.startswith(self._MAGIC):
            raise MarshalError(
                "not a packed-format message (wrong magic); the sender "
                "used an incompatible wire format")
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


def _tagged_read(data: bytes, cur: _Cursor) -> Any:
    """Decode one tagged value at ``cur.pos``, advancing the cursor."""
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


class TaggedFormat(WireFormat):
    """Self-describing textual format: ``tag#len#payload`` framing.

    Strings and bytes are length-prefixed (no escaping needed); containers
    carry an element count and concatenate their children.
    """

    name = "tagged"

    _MAGIC = b"@TAGGED@"

    def dumps(self, obj: Any) -> bytes:
        buf = bytearray(self._MAGIC)
        _tagged_write(obj, buf, self)
        return bytes(buf)

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

    def loads(self, data: bytes) -> Any:
        if not data.startswith(self._MAGIC):
            raise MarshalError(
                "not a tagged-format message (wrong magic); the sender "
                "used an incompatible wire format")
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
