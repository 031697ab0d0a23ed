"""A record is written once (section 4.5: constant state may be copied
freely).

Each format's value-lane writer keeps, per format, ``id(record)`` ->
``(record, image)`` for every :class:`FrozenRecord` of at least
``REUSE_MIN_BYTES`` it wrote whole, within ``REUSE_MAX_BYTES`` of
images.  What it must never do: splice bytes a fresh encode would not
write, keep a small record, keep a record whose walk left the lane,
hand one format's image to the other, or grow past its budget.
"""

from __future__ import annotations

import importlib

import pytest

from repro.comp.model import signature_of
from repro.comp.reference import AccessPath, InterfaceRef
from repro.ndr.codec import Marshaller
from repro.ndr.formats import REUSE_MAX_BYTES, REUSE_MIN_BYTES, get_format
from repro.util.freeze import FrozenRecord
from tests.conftest import Counter, deep_freeze
from tests.ndr_reference import dumps_reference

M = Marshaller()


@pytest.fixture(params=["packed", "tagged"])
def fmt(request):
    """A fresh instance of the format: its own, empty image table."""
    return type(get_format(request.param))()


@pytest.fixture
def walks(fmt, monkeypatch):
    """Every recursive step of *fmt*'s value-lane writer."""
    module = importlib.import_module(f"repro.ndr.{fmt.name}")
    name = f"_{fmt.name}_put"
    original = getattr(module, name)
    calls = []

    def counting(value, buf, owner):
        calls.append(type(value))
        return original(value, buf, owner)

    monkeypatch.setattr(module, name, counting)
    return calls


def _record(rev: int, blob_bytes: int = 1024):
    return deep_freeze({"rev": rev, "blob": bytes(blob_bytes), "rows": [
        {"id": row, "name": f"row-{row}", "score": row / 7}
        for row in range(20)]})


def _lane(fmt, value) -> bytes:
    buf = bytearray()
    fmt.write_value(value, buf, M)
    return bytes(buf)


def _fresh(fmt, value) -> bytes:
    """What the two-pass road writes for *value*: the specification."""
    return dumps_reference(fmt, M.marshal(value))[len(fmt._MAGIC):]


def test_a_large_record_is_written_once(fmt, walks):
    record = _record(1)
    image = _lane(fmt, record)
    assert image == _fresh(fmt, record) and len(image) >= REUSE_MIN_BYTES
    assert walks.count(FrozenRecord) == 20  # the rows: fields walked
    del walks[:]
    # The next encode splices the kept image, alone or inside a value.
    assert _lane(fmt, record) == image
    assert walks == []
    assert _lane(fmt, (record, 7)) == _fresh(fmt, (record, 7))
    assert walks == [FrozenRecord, int]
    assert list(fmt._images.values()) == [(record, image)]
    assert fmt._images_bytes == len(image)


def test_a_record_under_the_floor_is_never_kept(fmt, walks):
    rows = tuple(FrozenRecord({"id": row}) for row in range(4))
    empty = len(_fresh(fmt, FrozenRecord({"blob": b"", "rows": rows})))
    record = FrozenRecord({"blob": bytes(REUSE_MIN_BYTES - empty - 8),
                           "rows": rows})
    image = _fresh(fmt, record)
    assert REUSE_MIN_BYTES - 16 < len(image) < REUSE_MIN_BYTES
    for _ in range(2):
        del walks[:]
        assert _lane(fmt, record) == image
        assert walks.count(FrozenRecord) == 4
    assert not fmt._images and fmt._images_bytes == 0


def test_a_record_holding_a_reference_is_never_kept(fmt):
    """The walk reaches the floor, then leaves the lane at the
    reference: the two-pass road writes the value, nothing is kept."""
    ref = InterfaceRef("if.kept-1", signature_of(Counter),
                       (AccessPath("n1", "srv", "rrp", "packed"),))
    record = FrozenRecord({"a_blob": bytes(2 * REUSE_MIN_BYTES),
                           "z_ref": ref})
    for _ in range(2):
        assert _lane(fmt, record) == _fresh(fmt, record)
        assert not fmt._images and fmt._images_bytes == 0


def test_each_format_keeps_its_own_images():
    packed, tagged = (type(get_format(name))() for name in
                      ("packed", "tagged"))
    record = _record(1)
    assert _lane(packed, record) == _fresh(packed, record)
    assert _lane(tagged, record) == _fresh(tagged, record)
    assert _lane(packed, record) == _fresh(packed, record)
    assert packed._images[id(record)][1] != tagged._images[id(record)][1]


def test_the_table_stays_within_its_byte_budget(fmt):
    records = [FrozenRecord({"n": i, "blob": i.to_bytes(4, "big") * 512})
               for i in range(1000)]
    for record in records:
        assert _lane(fmt, record) == _fresh(fmt, record)
    table = fmt._images
    held = sum(len(image) for _, image in table.values())
    assert held == fmt._images_bytes <= REUSE_MAX_BYTES
    assert held > REUSE_MAX_BYTES - 2 * len(next(iter(table.values()))[1])
    # Oldest out first: the newest are kept, in order; the first went.
    kept = [record for record, _ in table.values()]
    assert kept == records[-len(kept):] and len(kept) < len(records)
    assert list(table) == [id(record) for record in kept]
