"""The value lanes against the two-pass road they shortcut.

``WireFormat.write_value`` / ``dumps(obj, marshaller)`` take application
values straight to bytes and ``loads(data, values=path)`` takes bytes
straight to values, through the compiled reader of the request or the
reply envelope.  ``Marshaller.marshal``/``unmarshal`` around the
reference walks of ``tests/ndr_reference.py`` is the executable
specification: the lanes must give its bytes, its values, its errors
and its side effects — on well-formed input, on every damaged image,
and on the hand-built shapes no encoder emits.
"""

from __future__ import annotations

import enum
import math
import struct
from collections import namedtuple

import pytest

from repro import World
from repro.comp.invocation import Invocation, InvocationContext
from repro.comp.model import signature_of
from repro.comp.outcomes import Termination
from repro.comp.reference import AccessPath, InterfaceRef
from repro.engine.remote import inv_object, invoke_at
from repro.errors import MarshalError
from repro.ndr import tagged
from repro.ndr.codec import Marshaller
from repro.ndr.formats import _NAMES_CAP, _chunk, get_format
from repro.ndr.plancache import PlanCache
from repro.sim.rand import DeterministicRandom
from repro.trace.context import TraceContext
from repro.util.freeze import FrozenRecord
from tests.conftest import Counter, deep_freeze
from tests.ndr_reference import dumps_reference, loads_reference
from tests.test_ndr_golden import FORMATS, HOSTILE, _corpus, _damaged
from tests.test_ndr_property import _ALPHABET, _gen_value

M = Marshaller()
#: The two envelope members the engine asks the decoder's lane for.
PATHS = (("inv", "args"), ("term",))


# -- the reference: what a receiver makes of a message ------------------------

def _same(a, b):
    """Equality that refuses type drift and lets ``nan`` equal itself."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return a == b or (a != a and b != b)
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return set(a) == set(b) and all(_same(a[k], b[k]) for k in a)
    if type(a) is FrozenRecord:
        return _same(a._items, b._items)
    if type(a) is Termination:
        return a.name == b.name and _same(a.values, b.values)
    return a == b


_ERROR = ("MarshalError",)


def _decoded(decode, *args):
    try:
        return decode(*args)
    except MarshalError:
        return _ERROR


def _valued(message, path):
    """*message* with the member at *path* as a value: left alone when
    the decoder's lane already made it one, unmarshalled when it is
    still the wire tree — what ``Nucleus._read`` and
    ``termination_of`` do.  Copies along the path only."""
    if type(message) is not dict or path[0] not in message:
        return message
    member = message[path[0]]
    if len(path) > 1:
        member = _valued(member, path[1:])
    elif type(member) in (list, dict):
        member = M.unmarshal(member)
    return {**message, path[0]: member}


def _assert_lane_agrees(fmt, data, what, paths=PATHS):
    """Fast tree == reference tree; for each path, lane == two-pass
    road, or both end in ``MarshalError``.  Anything else a decoder
    raises escapes and fails the test."""
    tree = _decoded(loads_reference, fmt, data)
    # Plain trees have unambiguous reprs (types, key order, nan, -0.0).
    assert repr(_decoded(fmt.loads, data)) == repr(tree), what
    for path in paths:
        got = _decoded(fmt.loads, data, path)
        assert (got is _ERROR) == (tree is _ERROR), (what, path)
        if tree is not _ERROR:
            assert _same(_decoded(_valued, got, path),
                         _decoded(_valued, tree, path)), (what, path)


# -- values -------------------------------------------------------------------

def _gen_adt(rng, depth):
    """Nested application values: records in lists in records, empty
    containers, bigints, non-ASCII names, bytes, every float."""
    kind = rng.randint(0, 5) if depth else 0
    if kind == 0:
        return _gen_value(rng, 0)
    if kind == 1:
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, 1e-320])
    items = [_gen_adt(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    fields = {"".join(rng.choice(_ALPHABET)
                      for _ in range(rng.randint(0, 5))): item
              for item in items}
    return fields if kind == 4 else deep_freeze(fields)


def _values():
    root = DeterministicRandom(2031, "lane-fuzz")
    fuzz = [_gen_adt(root.fork(f"case-{case}"), 4) for case in range(120)]
    return fuzz + [
        (), [], {}, FrozenRecord({}), "", b"", 2 ** 63, -(2 ** 63) - 1,
        {"rows": [{"id": 1, "tags": ("a", "b")}, {"id": 2, "tags": ()}]},
        Termination("nested", (Termination("inner", ({"k": None},)),)),
    ]


def _rows(count):
    """Sibling records of one shape, a list among their fields."""
    return [{"id": i, "name": f"row-{i}", "score": i / 7,
             "tags": ["a", "b"], "active": i % 2 == 0} for i in range(count)]


def _alternating_rows(count):
    """Two shapes by turns, one of them holding a record itself."""
    return [{"id": i, "name": f"row-{i}", "pos": {"x": i, "y": -i}} if i % 2
            else {"flags": i, "key": f"k{i}", "label": "l", "w": 1.5}
            for i in range(count)]


_TRACE = "T1@org|S2@org"


def _request(fmt, args, marshaller, reference, inv_id="cli#1", traced=False):
    """One request carrying *args*: by the plan's one-buffer assembly,
    or by the two-pass road (``inv_object`` + the reference walk)."""
    context = InvocationContext(
        principal="alice",
        trace=TraceContext.from_wire(_TRACE) if traced else None)
    if reference:
        return dumps_reference(fmt, {"capsule": "srv", "inv": inv_object(
            marshaller, "if.x-1", "op", args, "interrogation", 3, context,
            inv_id)})
    plan = PlanCache().plan_for(fmt, "srv", "if.x-1", "op",
                                "interrogation", 3, inv_id is not None)
    return plan.encode_request(args, context, inv_id, marshaller)


#: What tells the four request shapes apart: with or without ``inv_id``
#: (``invoke_at`` and the legacy discipline send none), with or without
#: ``trace`` (unsampled and traceless callers send none).
VARIANTS = [(inv_id, traced) for inv_id in ("cli#1", None)
            for traced in (False, True)]


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_lanes_match_two_pass_road_on_values(fmt_name):
    fmt = get_format(fmt_name)
    for case, value in enumerate(_values()):
        term = Termination("ok", (value, case))
        reply = fmt.dumps({"term": term}, M)
        assert reply == dumps_reference(fmt, {"term": M.marshal(term)}), case
        request = _request(fmt, (value, "k"), M, reference=False)
        assert request == _request(fmt, (value, "k"), M, True), case
        # The lane is taken, not merely survived: no wire tree is left.
        assert type(fmt.loads(reply, ("term",))["term"]) is Termination
        assert type(fmt.loads(request, PATHS[0])["inv"]["args"]) is tuple
        for image in (reply, request):
            _assert_lane_agrees(fmt, image, case)


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_lanes_match_two_pass_road_on_damaged_images(fmt_name):
    lanes_agree_on_damaged_images(fmt_name, sample=True)


def lanes_agree_on_damaged_images(fmt_name, sample=False):
    """Every truncation and bit flip of the pinned corpus and of value
    images (or tier-1's sample of them): the fast tree reader, the
    reference reader and both lanes give the same value or all raise
    ``MarshalError``."""
    fmt = get_format(fmt_name)
    images = [(name, fmt.dumps(obj)) for name, obj in _corpus()]
    for case, value in enumerate(_values()[::12]):
        images.append((f"reply-{case}", fmt.dumps(
            {"term": Termination("ok", (value,))}, M)))
        images.append((f"request-{case}",
                       _request(fmt, (value,), M, reference=False)))
    # The corpus and the requests above carry an ``inv_id``.
    images += [(f"request-no-inv-id-{traced}",
                _request(fmt, (7, "k"), M, False, None, traced))
               for traced in (False, True)]
    # Sibling records: the third and fourth are read by the shape the
    # first two taught, so damage lands on memoised keys too.
    images += [("reply-siblings", fmt.dumps(
                    {"term": Termination("ok", (_rows(4),))}, M)),
               ("request-siblings",
                _request(fmt, ("k", _rows(3)), M, reference=False))]
    for name, image in images:
        _assert_lane_agrees(fmt, image, name)
        # Damage is swept with the path the intact image answers to
        # (any other only ever sees the tree reader's own walk).
        paths = [path for path in PATHS
                 if path[0] in fmt.loads(image)] or PATHS[1:]
        for offset, damaged in enumerate(_damaged(image, sample)):
            _assert_lane_agrees(fmt, damaged, (name, offset), paths)


@pytest.mark.parametrize("probe", sorted(HOSTILE))
def test_lanes_match_two_pass_road_on_hostile_probes(probe):
    fmt_name, payload = HOSTILE[probe]
    fmt = get_format(fmt_name)
    _assert_lane_agrees(fmt, payload, probe)
    # The same damage where the lane looks: inside a term member.
    body = payload[len(fmt._MAGIC):]
    head = (b"d\x00\x00\x00\x01" if fmt_name == "packed"
            else b"map[1]#%d#" % (len(_chunk(fmt, "term")) + len(body)))
    _assert_lane_agrees(fmt, fmt._MAGIC + head + _chunk(fmt, "term") + body,
                        probe)


def _raw_map(fmt, pairs, count=None, slack=0):
    """A map written entry by entry, in the order and with the
    repetitions given — what no encoder emits; *count* and *slack* make
    its header lie about the entries and the body length."""
    body = b"".join(_chunk(fmt, key) + raw for key, raw in pairs)
    count = len(pairs) if count is None else count
    if fmt.name == "packed":
        return b"d" + struct.pack(">I", count) + body
    return b"map[%d]#%d#" % (count, len(body) + slack) + body


def _raw_list(fmt, items, count=None):
    body = b"".join(items)
    count = len(items) if count is None else count
    if fmt.name == "packed":
        return b"l" + struct.pack(">I", count) + body
    return b"list[%d]#%d#" % (count, len(body)) + body


def _raw_record(fmt, fields, wrapper=lambda kind, fields: [kind, fields],
                **lie):
    """The record wrapper around *fields*, ``(name, raw value)`` entries
    written as they stand; *lie* is for the fields map's header."""
    return _raw_map(fmt, wrapper(
        ("__kind__", _chunk(fmt, "record")),
        ("fields", _raw_map(fmt, fields, **lie))))


def _raw_reply(fmt, *values):
    """The reply ``ok(*values)`` around values already on the wire."""
    return fmt._MAGIC + _raw_map(fmt, [("term", _raw_map(fmt, [
        ("__kind__", _chunk(fmt, "term")), ("name", _chunk(fmt, "ok")),
        ("values", _raw_list(fmt, values))]))])


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_non_canonical_records_equal_the_reference_result(fmt_name):
    fmt = get_format(fmt_name)
    one, two, three = (_chunk(fmt, n) for n in (1, 2, 3))

    def reply(fields, *wrapper):
        return _raw_reply(fmt, _raw_record(fmt, fields, *wrapper))

    cases = {
        "sorted": (reply([("a", one), ("b", two)]), {"a": 1, "b": 2}),
        "unsorted": (reply([("b", two), ("a", one)]), {"a": 1, "b": 2}),
        "duplicate": (reply([("a", one), ("a", three)]), {"a": 3}),
        "wrapper reversed": (
            reply([("a", one)], lambda kind, fields: [fields, kind]),
            {"a": 1}),
    }
    for name, (image, fields) in cases.items():
        _assert_lane_agrees(fmt, image, name)
        got = _valued(fmt.loads(image, ("term",)), ("term",))
        assert _same(got, {"term": Termination(
            "ok", (FrozenRecord(fields),))}), name


# -- record shapes: field names once per message --------------------------------

@pytest.mark.parametrize("fmt_name", FORMATS)
def test_remembered_names_write_the_reference_bytes(fmt_name):
    """The writer's tables change what a name costs, never a byte — cold
    and warm, whatever order a dict was filled in."""
    fmt = type(get_format(fmt_name))()

    class Name(str):
        """Equal to a remembered name and hashing to it — not one."""

    backwards = dict(reversed(list(_rows(1)[0].items())))
    assert list(backwards) != sorted(backwards)
    values = [_rows(1), _rows(2), _rows(40), _alternating_rows(40),
              [backwards, _rows(1)[0], backwards],
              {Name("id"): 1}, FrozenRecord({Name("id"): 1}),
              {"id": 1, Name("name"): "n"}]
    for warm in (False, True):
        for case, value in enumerate(values):
            for image in (value, deep_freeze(value)):
                term = Termination("ok", (image,))
                assert fmt.dumps({"term": term}, M) == dumps_reference(
                    fmt, {"term": M.marshal(term)}), (warm, case)
    assert set(fmt._names) == {name for row in _rows(1) + _alternating_rows(2)
                               for name in [*row, *row.get("pos", ())]}
    assert not any(type(name) is Name for name in fmt._names)


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_writer_tables_stop_at_their_cap(fmt_name):
    """More names than the tables hold: bytes as ever before, at and
    past the cap, and nothing grows once it is reached."""
    fmt = type(get_format(fmt_name))()
    for start in range(0, _NAMES_CAP + 60, 3):
        row = {f"name-{start + i:04d}": i for i in (2, 0, 1)}
        for value in ([row, row], deep_freeze([row, row])):
            term = Termination("ok", (value,))
            assert fmt.dumps({"term": term}, M) == dumps_reference(
                fmt, {"term": M.marshal(term)}), start
        assert len(fmt._names) == min(start + 3, _NAMES_CAP)
        # A layout is kept only while every name of it is.
        assert len(fmt._layouts) == min(start // 3 + 1,
                                        (_NAMES_CAP - 1) // 3)
    # Full of names, the tables still serve the ones they hold.
    assert fmt._layouts[("name-0002", "name-0000", "name-0001")] == tuple(
        (name, _chunk(fmt, name))
        for name in ("name-0000", "name-0001", "name-0002"))


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_records_off_a_learnt_shape_equal_the_reference_result(fmt_name):
    """Two sibling records teach the reader a shape; whatever a third
    then does to it, the lane gives the reference's answer or stands
    aside for it."""
    fmt = get_format(fmt_name)
    one, two, text = _chunk(fmt, 1), _chunk(fmt, 2), _chunk(fmt, "n")
    taught = [[("id", one), ("name", text)]] * 2
    cases = {
        "on the shape": [("id", two), ("name", text)],
        "first name a byte longer": [("idx", one), ("name", text)],
        "second name a byte longer": [("id", one), ("namex", text)],
        "a name that is a prefix": [("i", one), ("name", text)],
        "unsorted": [("name", text), ("id", one)],
        "duplicate": [("id", one), ("id", two)],
        "one field fewer": [("id", one)],
        "one field more": [("id", one), ("name", text), ("zone", two)],
        "second field another": [("id", one), ("zone", two)],
        "empty": [],
    }
    for name, fields in cases.items():
        # Once as the third sibling, once with a fourth back on the
        # shape — a miss must not cost the records after it their hit.
        for tail in ([], taught[:1]):
            image = _raw_reply(fmt, _raw_list(fmt, [
                _raw_record(fmt, entries)
                for entries in taught + [fields] + tail]))
            _assert_lane_agrees(fmt, image, name)
            got = fmt.loads(image, ("term",))["term"]
            rows = [dict(entries) for entries in taught + [fields] + tail]
            want = Termination("ok", (tuple(
                FrozenRecord({key: {one: 1, two: 2, text: "n"}[raw]
                              for key, raw in row.items()})
                for row in rows),))
            assert _same(_valued({"term": got}, ("term",))["term"], want), name
            # Only names out of order or twice send the message back.
            assert (type(got) is Termination) \
                == (name not in ("unsorted", "duplicate")), name
    # Headers that lie, and a cut inside a remembered key: no reader
    # takes them, with or without a shape to try.
    lies = {"packed": [{"count": 3}, {"count": 1}],
            "tagged": [{"count": 3}, {"count": 1}, {"slack": 1},
                       {"slack": -1}]}[fmt_name]
    for lie in lies:
        image = _raw_reply(fmt, _raw_list(fmt, [
            _raw_record(fmt, entries) for entries in taught]
            + [_raw_record(fmt, taught[0], **lie)]))
        _assert_lane_agrees(fmt, image, lie)
        with pytest.raises(MarshalError):
            fmt.loads(image, ("term",))
    # A record that stops short of its body, where what it leaves fits
    # the containers around it entry for entry: only the record's own
    # end check can tell (TAGGED; PACKED frames nothing by length).
    short = _raw_record(fmt, [("b", one), ("c", two)], count=1)
    image = _raw_reply(fmt, _raw_list(fmt, [_raw_record(
        fmt, [("a", short), ("z", one)])], count=3))
    _assert_lane_agrees(fmt, image, "leftovers the list could take")
    image = _raw_reply(fmt, _raw_list(fmt, [
        _raw_record(fmt, entries) for entries in taught * 2]))
    cut = image.rindex(_chunk(fmt, "name")) + len(_chunk(fmt, "name")) - 2
    for damaged in (image[:cut], image[:cut] + b"\x00" + image[cut + 1:]):
        _assert_lane_agrees(fmt, damaged, "cut inside a key chunk")


def test_a_negative_count_among_values_is_no_empty_container():
    fmt = get_format("tagged")
    for raw in (b"list[-1]#0#", b"map[-1]#0#"):
        image = _raw_reply(fmt, raw)
        _assert_lane_agrees(fmt, image, raw)
        with pytest.raises(MarshalError):
            fmt.loads(image, ("term",))
    # ... nor among a record's fields.
    record = _raw_record(fmt, [("a", _chunk(fmt, 1))]).replace(
        b"map[1]", b"map[-1]")
    with pytest.raises(MarshalError):
        fmt.loads(_raw_reply(fmt, record), ("term",))


def _tagged_reads(monkeypatch, image):
    """Calls of ``_tagged_read`` to decode the reply *image* by its
    lane: each key a shape answers is one call fewer."""
    calls = []
    real = tagged._tagged_read

    def counted(data, cur, values=False):
        calls.append(cur.pos)
        return real(data, cur, values)

    with monkeypatch.context() as patch:
        patch.setattr(tagged, "_tagged_read", counted)
        got = get_format("tagged").loads(image, ("term",))["term"]
    assert type(got) is Termination
    return len(calls)


def test_shapes_are_taken_not_merely_survived(monkeypatch):
    """Green tests do not show a shape is *hit* (a miss gives the same
    record): the count of generic reads does."""
    fmt = get_format("tagged")
    rng = DeterministicRandom(20, "bulk-value")
    # The ledger's ``rpc_bulk`` value: 40 rows of one record type.
    bulk = {"rev": 0, "index": 7, "blob": bytes(1024), "rows": [
        {"id": row, "name": f"row-{rng.randint(0, 10 ** 6)}",
         "score": rng.random(), "tags": ["t1", "t22", "t3"],
         "active": bool(row % 3)} for row in range(40)]}
    # 572 before records had shapes: 5 names x 38 rows fewer with them.
    assert _tagged_reads(monkeypatch, fmt.dumps(
        {"term": Termination("ok", (bulk,))}, M)) <= 430
    # Alternating and nested shapes hit too (404 before): the table,
    # not only the previous record, is asked.
    assert _tagged_reads(monkeypatch, fmt.dumps(
        {"term": Termination("ok", (_alternating_rows(40),))}, M)) <= 300


# -- the compiled envelope readers ------------------------------------------------

@pytest.mark.parametrize("fmt_name", FORMATS)
def test_envelope_plans_are_taken(fmt_name):
    """Green tests do not show a plan is *taken* (a fallback gives the
    same values): the types do — a ``tuple``, a ``Termination``."""
    fmt = get_format(fmt_name)
    for inv_id, traced in VARIANTS:
        for reference in (False, True):
            image = _request(fmt, (1, "k"), M, reference, inv_id, traced)
            inv = fmt.loads(image, PATHS[0])["inv"]
            assert type(inv["args"]) is tuple, (inv_id, traced, reference)
            assert ("inv_id" in inv, "trace" in inv["ctx"]) \
                == (inv_id is not None, traced)
            # The nucleus adopts and writes into these: never shared.
            again = fmt.loads(image, PATHS[0])["inv"]["ctx"]
            for member in ("credentials", "extra", "via_domains"):
                assert again[member] is not inv["ctx"][member], member
            _assert_lane_agrees(fmt, image, (inv_id, traced, reference))
    for term in (Termination("ok", (1,)), Termination("ok"),
                 Termination("insufficient_funds", (5, {"owed": 2.5}))):
        reply = fmt.dumps({"term": term}, M)
        assert reply == dumps_reference(fmt, {"term": M.marshal(term)})
        got = fmt.loads(reply, PATHS[1])["term"]
        assert type(got) is Termination and got == term
        _assert_lane_agrees(fmt, reply, term)


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_invoke_at_requests_take_the_plan(fmt_name):
    world = World(seed=3)
    world.node("org", "s", fmt_name)
    world.node("org", "c")
    ref = world.capsule("s", "srv").export(Counter())
    clients = world.capsule("c", "cli")
    sent = []
    serve = world.nucleus("s")._handle_request
    world.network.node("s").on_request(
        lambda source, payload: sent.append(payload) or serve(source,
                                                              payload))
    for trace in (None, TraceContext.from_wire(_TRACE)):
        invocation = Invocation(
            interface_id="relayed-from-elsewhere", operation="increment",
            args=(), context=InvocationContext(trace=trace))
        assert invoke_at(world.nucleus("c"), clients, "s", "srv",
                         ref.interface_id, invocation) \
            == Termination("ok", (len(sent),))
    fmt = get_format(fmt_name)
    for payload, traced in zip(sent, (False, True)):
        inv = fmt.loads(payload, PATHS[0])["inv"]
        assert type(inv["args"]) is tuple
        assert "inv_id" not in inv and ("trace" in inv["ctx"]) == traced
        # ... and the bytes are the two-pass road's.
        assert payload == dumps_reference(fmt, fmt.loads(payload))


class _Pairs(list):
    """A map as the ``(key, value)`` entries to write, in this order —
    so a test can reorder, repeat, drop and add them."""


def _raw(fmt, node, lie=None):
    """*node* on the wire; the map that *is* ``lie[0]`` gets the header
    ``lie[1]`` (see :func:`_raw_map`) instead of a true one."""
    if type(node) is not _Pairs:
        return _chunk(fmt, node)
    header = lie[1] if lie and node is lie[0] else {}
    return _raw_map(fmt, [(key, _raw(fmt, value, lie))
                          for key, value in node], **header)


def _canonical():
    """The request every encoder emits, as ``(envelope, inv, ctx)``."""
    ctx = _Pairs([("credentials", {}), ("extra", {}),
                  ("origin_domain", "org"), ("principal", None),
                  ("trace", _TRACE), ("transaction_id", None),
                  ("via_domains", [])])
    inv = _Pairs([("args", [1, "k"]), ("ctx", ctx), ("epoch", 3),
                  ("id", "if.x-1"), ("inv_id", "cli#1"),
                  ("kind", "interrogation"), ("op", "op")])
    return _Pairs([("capsule", "srv"), ("inv", inv)]), inv, ctx


def _swap(pairs, i, j):
    pairs[i], pairs[j] = pairs[j], pairs[i]


#: name -> what to do to ``(envelope, inv, ctx)`` before writing it.
MISPLACED = {
    "inv keys reordered": lambda env, inv, ctx: _swap(inv, 5, 6),
    "ctx keys reordered": lambda env, inv, ctx: _swap(ctx, 0, 1),
    "envelope keys reordered": lambda env, inv, ctx: _swap(env, 0, 1),
    "duplicate key": lambda env, inv, ctx: inv.__setitem__(
        5, ("op", "earlier")),
    "extra inv key": lambda env, inv, ctx: inv.append(("zone", 1)),
    "extra ctx key": lambda env, inv, ctx: ctx.append(("zone", 1)),
    # The async request: ``call_id`` and ``reply_to`` beside ``inv``.
    "extra envelope keys": lambda env, inv, ctx: env.__setitem__(
        slice(1, 1), [("call_id", "c1"), ("reply_to", "c")]),
    "missing ctx member": lambda env, inv, ctx: ctx.__delitem__(0),
    "missing inv member": lambda env, inv, ctx: inv.__delitem__(2),
    "capsule not text": lambda env, inv, ctx: env.__setitem__(
        0, ("capsule", 5)),
    "op not text": lambda env, inv, ctx: inv.__setitem__(6, ("op", 7)),
}

#: name -> (which map's header lies, how).  Neither reader accepts these.
LYING_HEADERS = {
    "packed": {"count one too many": {"count": 8},
               "count one too few": {"count": 6}},
    "tagged": {"body one byte longer": {"slack": 1},
               "body one byte shorter": {"slack": -1}},
}


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_envelope_plans_stand_aside_for_the_tree_reader(fmt_name):
    """Anything but the shape the encoders emit is the hardened tree
    reader's to decode, whole: its tree, its errors."""
    fmt = get_format(fmt_name)
    images = {"canonical": fmt._MAGIC + _raw(fmt, _canonical()[0])}
    assert type(fmt.loads(images["canonical"],
                          PATHS[0])["inv"]["args"]) is tuple
    for name, misplace in MISPLACED.items():
        shape = _canonical()
        misplace(*shape)
        images[name] = fmt._MAGIC + _raw(fmt, shape[0])
    for name, obj in (
            ("txctl", {"capsule": "srv", "txctl": {
                "tx": "tx-1", "phase": "prepare", "iface": "if.x-1"}}),
            ("fedfwd", {"capsule": "gw", "fedfwd": {
                "ref": None, "inv": fmt.loads(images["canonical"])["inv"]}}),
            ("batch", dict(_corpus())["batch_envelope"]),
            ("error reply", dict(_corpus())["error_reply_stale"]),
            ("async reply", {"call_id": "c1", "term": M.marshal(
                Termination("ok", (1,)))})):
        images[name] = fmt.dumps(obj)
    for name, image in images.items():
        _assert_lane_agrees(fmt, image, name)
        if name != "canonical":
            for path in PATHS:
                assert repr(fmt.loads(image, path)) \
                    == repr(loads_reference(fmt, image)), (name, path)
    for name, header in LYING_HEADERS[fmt_name].items():
        for which in (0, 1, 2):
            shape = _canonical()
            image = fmt._MAGIC + _raw(fmt, shape[0], (shape[which], header))
            _assert_lane_agrees(fmt, image, (name, which))
            with pytest.raises(MarshalError):
                fmt.loads(image, PATHS[0])


# -- rule (2): the encoder bails before any side effect ------------------------

class _Mutable:
    """An application object: crosses an interface by reference."""


class _Exports:
    """An exporter that mints ids in call order and remembers it."""

    def __init__(self):
        self.seen = []

    def __call__(self, obj):
        self.seen.append(obj)
        return InterfaceRef(
            f"if.exported-{len(self.seen)}", signature_of(Counter),
            (AccessPath("n1", "srv", "rrp", "packed"),))


Point = namedtuple("Point", "x y")


class Colour(enum.IntEnum):
    RED = 1


_BIG_RECORD = {f"field-{i:02d}": [i, str(i), {"deep": (i,)}]
               for i in range(40)}


def _off_lane_args():
    first, second = _Mutable(), _Mutable()
    ref = _Exports()(_Mutable())
    return {
        # marshal exports "b" first, the bytes carry "a" first.
        "mutables out of key order": ({"b": first, "a": second}, first),
        "ref after a large record": (_BIG_RECORD, ref),
        "frozenset": (frozenset({1, 2, 3}),),
        "namedtuple": (Point(1, 2.5),),
        "int enum": (Colour.RED, {"c": Colour.RED}),
        "bigint": (2 ** 70, [-(2 ** 70)]),
        "mutable behind plain data": (1, "k", [{"x": (first,)}]),
    }


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_non_plain_values_take_the_two_pass_road_whole(fmt_name):
    """Same bytes, same exported objects in the same order and the same
    ``refs_exported`` as ``dumps_reference`` over ``marshal_args`` —
    the lane truncates to its mark before the exporter is ever called."""
    fmt = get_format(fmt_name)
    # Twice: the second pass finds every name in the writer's tables.
    for name, args in 2 * list(_off_lane_args().items()):
        lane, road = Marshaller(_Exports()), Marshaller(_Exports())
        assert _request(fmt, args, lane, reference=False) \
            == _request(fmt, args, road, reference=True), name
        assert [id(o) for o in lane.exporter.seen] \
            == [id(o) for o in road.exporter.seen], name
        assert lane.refs_exported == road.refs_exported, name
        term = Termination("ok", args)
        assert fmt.dumps({"term": term}, lane) \
            == dumps_reference(fmt, {"term": road.marshal(term)}), name
        assert [id(o) for o in lane.exporter.seen] \
            == [id(o) for o in road.exporter.seen], name
        assert lane.refs_exported == road.refs_exported, name


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_unencodable_values_fail_as_the_two_pass_road_does(fmt_name):
    fmt = get_format(fmt_name)
    for args in (({1: "int key"},), ({1: 1, "a": 2},), (_Mutable(),)):
        with pytest.raises(MarshalError) as road:
            _request(fmt, args, Marshaller(), reference=True)
        with pytest.raises(MarshalError) as lane:
            _request(fmt, args, Marshaller(), reference=False)
        assert str(lane.value) == str(road.value)


def test_trusted_record_is_indistinguishable_from_the_public_one():
    public = FrozenRecord({"b": (2, None), "a": 1, "é": FrozenRecord({})})
    trusted = FrozenRecord._trusted(
        (("a", 1), ("b", (2, None)), ("é", FrozenRecord._trusted(()))))
    for fmt_name in FORMATS:
        fmt = get_format(fmt_name)
        decoded, = fmt.loads(
            fmt.dumps({"term": Termination("ok", (public,))}, M),
            ("term",))["term"].values
        for record in (trusted, decoded):
            assert type(record) is FrozenRecord
            assert record == public and public == record
            assert hash(record) == hash(public)
            assert repr(record) == repr(public)
            assert record == {"a": 1, "b": (2, None), "é": {}}
            with pytest.raises(AttributeError):
                record.a = 2
