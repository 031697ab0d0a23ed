"""Wire formats: the one access path both representations share.

A wire format turns a *plain object tree* — ``None``, ``bool``, ``int``,
``float``, ``str``, ``bytes``, ``list``, ``dict`` with string keys — into
bytes and back.  The two built-in formats are intentionally incompatible,
and each lives in its own module, which owns every byte it writes and
every byte it reads:

* :mod:`repro.ndr.packed` — tag-byte binary with struct-packed scalars
  (a caricature of a compiled ANSAware/CDR representation),
* :mod:`repro.ndr.tagged` — length-prefixed self-describing text (a
  caricature of an ASN.1-ish / textual representation).

Feeding bytes from one format to the other fails loudly, which is what the
federation interceptor tests rely on.

This module holds what does not depend on the format: :class:`WireFormat`
with the single ``dumps`` / ``loads`` / ``write_value`` every caller goes
through, the registry, the decode cursor, and the request envelope's
shape (:func:`_request`), which both formats' plan writers and compiled
readers take their key chunks from.

Each format runs two roads, and only two:

* the **tree codec** — plain tree to bytes and back: one ``bytearray``
  appended in place, exact-type dispatch (a scalar or container subclass
  is written as the type it extends), precompiled ``struct`` codes, and
  an allocation-free decode cursor (one mutable position object per
  message).  It is the specification the value lane is held to, and it
  builds every constant chunk.  The recursive walk it replaced is the
  test oracle ``tests/ndr_reference.py``, which the golden, fuzz and
  lane tests hold it to byte for byte; nothing in the package calls it.
* the **value lane**, for the two places where an application value
  would otherwise be walked twice — marshalled into a tree, then encoded
  (and back): ``write_value`` takes ``None``/``bool``/``int``/``float``/
  ``str``/``bytes``, ``list``/``tuple``, ``dict``, :class:`FrozenRecord`
  and :class:`Termination` straight to the bytes
  ``dumps(Marshaller.marshal(value))`` gives, and ``loads(data, values=
  path)`` reads the two envelopes that carry every invocation — the
  request around ``inv.args``, the reply ``{"term": Termination}`` —
  with a *compiled reader*: the keys the encoders' plans write, tested in
  order as constant chunks, the values decoded straight to ``tuple`` /
  ``FrozenRecord`` / ``Termination``.  The input chooses the road, no
  caller does: the first value that is not plain data sends the whole
  value down ``marshal`` + the tree writer before anything was exported,
  and a message that is not byte for byte of the planned shape is
  decoded again, whole, by the tree reader — so the plan never produces
  what the tree codec would not.  A :class:`FrozenRecord` is constant
  state (section 4.5), so each format keeps the image its lane wrote of
  a large record, and splices it into that record's next encode.

Bytes arrive from outside the program, so every decoder maps damage —
truncation, a length that runs past the end, invalid UTF-8, a non-string
map key, a non-ASCII tag, nesting past the recursion limit, a TAGGED
length that is negative or disagrees with what the children occupy — to
:class:`MarshalError` and nothing else, in time linear in the message.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Any, Dict, List, Tuple

from repro.errors import MarshalError


class _OffLane(Exception):
    """The value lane met what it does not take: a value that is not
    plain data (encode), bytes no encoder emits (decode).  Never leaves
    the codec — the caller takes the two-pass road instead."""


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

#: The scalar types the value lane writes with the tree writer as they
#: stand (``marshal`` returns them unchanged).
_PLAIN = frozenset((str, int, float, bytes, bool, type(None)))

#: A record's image (in a format's table) or a reply (in a channel's) at
#: least this long is kept for reuse; a shorter one is encoded or decoded
#: faster than it is looked up.
REUSE_MIN_BYTES = 1024
#: Bytes one such table keeps at most, oldest out first.
REUSE_MAX_BYTES = 1 << 20


class WireFormat:
    """Abstract encoder/decoder over the plain-object model.

    A format module supplies the bytes: ``_MAGIC`` and the reply's
    ``_TERM_KEY`` chunk; the tree writer and reader (``_put_tree`` /
    ``_get_tree``), the value lane's writer (``_put``) and key chunk
    (``_key``), the compiled envelope readers (``_PLANS``); and the
    envelope writers — ``_map_header``, ``_inv_runs`` / ``_put_inv`` for
    :class:`repro.ndr.plancache.InvocationPlan`, ``_put_batch``."""

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
        #: ``id(record)`` -> ``(record, image)`` for each large record
        #: the value lane wrote whole; holding the record keeps its id
        #: from being reused while the entry lives.
        self._images: OrderedDict = OrderedDict()
        self._images_bytes = 0

    def _keep(self, record: Any, image: bytes) -> None:
        """Keep *record*'s *image* for its next encode, oldest out first."""
        if len(image) <= REUSE_MAX_BYTES:
            images = self._images
            images[id(record)] = (record, image)
            self._images_bytes += len(image)
            while self._images_bytes > REUSE_MAX_BYTES:
                self._images_bytes -= len(images.popitem(last=False)[1][1])

    def dumps(self, obj: Any, marshaller: Any = None) -> bytes:
        """Encode the plain tree *obj*.  With a *marshaller*, *obj* is
        the reply envelope ``{"term": termination}``, the termination
        an application value written by :meth:`write_value`."""
        if marshaller is None:
            buf = bytearray(self._MAGIC)
            self._put_tree(obj, buf, self)
            return bytes(buf)
        # Its one key is the constant the reply's reader tests.
        buf = bytearray(self._TERM_KEY)
        self.write_value(obj["term"], buf, marshaller)
        return self._MAGIC + self._map_header(1, len(buf)) + buf

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

    def _plain(self, obj: Any) -> Any:
        """A scalar or container subclass (an ``IntEnum``, a namedtuple,
        an ``OrderedDict``) as the built-in type it extends, which is
        how the tree writers put it on the wire; anything else is no
        plain data."""
        for base in (int, float, str, bytes, list, tuple, dict):
            if isinstance(obj, base):
                return base(obj)
        raise MarshalError(
            f"{self.name} format cannot encode {type(obj).__name__}")


_REGISTRY: Dict[str, WireFormat] = {}


def register_format(fmt: WireFormat) -> None:
    _REGISTRY[fmt.name] = fmt


def get_format(name: str) -> WireFormat:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MarshalError(f"unknown wire format {name!r}") from None


def _chunk(fmt: WireFormat, *objs: Any) -> bytes:
    """Encode constant values with the format's own tree writer."""
    buf = bytearray()
    for obj in objs:
        fmt._put_tree(obj, buf, fmt)
    return bytes(buf)


#: Stands for an optional member the message did not carry.
_ABSENT = object()


def _request(capsule, args, credentials, extra, origin, principal, trace,
             transaction_id, via_domains, epoch, interface_id, inv_id, kind,
             op) -> Dict[str, Any]:
    """The request envelope around its members — the one place its
    shape is written: every map's keys in the sorted order both formats
    emit them.  :func:`_key_chunks` reads the keys off it, for
    :class:`repro.ndr.plancache.InvocationPlan` to write and the
    formats' compiled readers to test.  ``trace`` and ``inv_id`` are the
    two a message may leave out."""
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


# The built-in formats register themselves; importing this module alone
# yields both.
from repro.ndr import packed, tagged  # noqa: E402,F401
