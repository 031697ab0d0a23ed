"""The executable specification of both wire formats — a test oracle.

The original recursive chunk-list encoder and tuple-threading decoder of
PACKED and TAGGED, written apart from the production codec
(:mod:`repro.ndr.packed`, :mod:`repro.ndr.tagged`) and sharing none of
its code.  The golden, fuzz, lane and damaged-image tests, and benchmark
C27, hold the production tree codec and value lanes to it: the same
bytes for every value, the same value or a ``MarshalError`` for every
message.  Nothing in the package imports it.

    dumps_reference(fmt, obj)   -> the bytes of the plain tree *obj*
    loads_reference(fmt, data)  -> the plain tree *data* encodes

*fmt* is the production :class:`~repro.ndr.formats.WireFormat` whose
specification to apply (only its ``name`` is read).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.errors import MarshalError


def _check_key(key: Any) -> str:
    if not isinstance(key, str):
        raise MarshalError(f"dict keys must be str, got {type(key)}")
    return key


class _PackedReference:
    """PACKED: 1-byte tag + struct-packed payloads."""

    _MAGIC = b"\xa5P"

    def dumps(self, obj: Any) -> bytes:
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
                _check_key(key)
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
        obj, offset = self._read(data, len(self._MAGIC))
        if offset != len(data):
            raise MarshalError("trailing bytes in packed message")
        return obj

    @staticmethod
    def _payload(data: bytes, offset: int) -> Tuple[bytes, int]:
        """The length-prefixed payload at *offset*, and where it ends —
        which must be inside *data*."""
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise MarshalError("truncated packed payload")
        return data[offset:offset + length], offset + length

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
                raw, offset = self._payload(data, offset)
                return int.from_bytes(raw, "big", signed=True), offset
            if tag == b"f":
                (value,) = struct.unpack_from(">d", data, offset)
                return value, offset + 8
            if tag == b"s":
                raw, offset = self._payload(data, offset)
                return raw.decode("utf-8"), offset
            if tag == b"b":
                raw, offset = self._payload(data, offset)
                return bytes(raw), offset
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


class _TaggedReference:
    """TAGGED: self-describing ``tag#len#payload`` framing."""

    _MAGIC = b"@TAGGED@"

    def dumps(self, obj: Any) -> bytes:
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
                _check_key(key)
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


_REFERENCES = {"packed": _PackedReference(), "tagged": _TaggedReference()}


def dumps_reference(fmt: Any, obj: Any) -> bytes:
    """Encode the plain tree *obj* by *fmt*'s specification."""
    return _REFERENCES[fmt.name].dumps(obj)


def loads_reference(fmt: Any, data: bytes) -> Any:
    """Decode *data* by *fmt*'s specification."""
    return _REFERENCES[fmt.name].loads(data)
