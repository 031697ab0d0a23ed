"""Golden wire tests: the byte encodings are pinned, forever.

Two independent guarantees live here:

1. **Format stability** — the exact PACKED and TAGGED bytes of a
   representative envelope corpus (invocations, interface signatures
   with nested records and references, error replies, batch envelopes)
   are pinned by digest.  Any change to these digests is a wire-format
   break: old and new nodes could no longer interoperate, and every
   pinned run digest in the repo would silently shift.

2. **Plan-cache equivalence** — the memoised codec plans of
   ``repro.ndr.plancache`` must produce *byte-identical* output to the
   generic envelope walk, for both formats, first use and re-hit, single
   and batch — above all the one-buffer assembly every request takes.
   The cache is a pure accelerator; the moment it drifts a byte it is a
   federation bug, and this file is what catches it.

3. **Damage tolerance** — bytes come from outside the program: every
   truncation, a bit flip in every byte and every length field set past
   the end of the pinned images, on the production decoder and the
   specification's (``tests/ndr_reference.py``) alike, yields a value or
   a ``MarshalError`` and nothing else — for a length past the end, the
   same truncation error from every decoder.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.comp.invocation import Invocation, InvocationContext
from repro.comp.model import signature_of
from repro.engine.remote import inv_object
from repro.engine.wire_errors import _CODES, encode_error
from repro.errors import MarshalError, ServerBusyError, StaleReferenceError
from repro.ndr.codec import Marshaller
from repro.ndr.formats import get_format
from repro.ndr.plancache import PlanCache, encode_batch
from repro.ndr.sigcodec import signature_to_obj, term_to_obj
from repro.trace.context import TraceContext
from repro.types.terms import INT, RecordType, RefType, SeqType, STR
from tests.conftest import Account, Counter
from tests.ndr_reference import dumps_reference, loads_reference

FORMATS = ("packed", "tagged")


def _corpus():
    """The pinned envelope corpus; must stay deterministic forever."""
    inv_a = {
        "id": "if.n1-0-1-2",
        "op": "add",
        "args": [7, "x", 3.5, b"\x00\xffbytes", True, None],
        "kind": "interrogation",
        "epoch": 3,
        "ctx": {"principal": "alice",
                "credentials": {"role": "admin"},
                "transaction_id": None,
                "origin_domain": "org",
                "via_domains": ["org"],
                "extra": {},
                "trace": "T1@org|S2@org"},
        "inv_id": "cli/app#7",
    }
    inv_b = {
        "id": "if.n1-0-1-2",
        "op": "increment",
        "args": [],
        "kind": "interrogation",
        "epoch": 0,
        "ctx": {"principal": None, "credentials": {},
                "transaction_id": None, "origin_domain": None,
                "via_domains": [], "extra": {}},
        "inv_id": "cli/app#8",
    }
    nested = RecordType({
        "items": SeqType(RefType(signature_of(Counter))),
        "count": INT,
        "label": STR,
        "matrix": SeqType(SeqType(INT)),
    })
    # Twelve levels of alternating dict/list nesting with every scalar
    # kind at the leaves — the recursion depth the codec must survive
    # without changing a byte.
    deep = {"leaf": [1, 2.5, "s", b"\x00", True, None]}
    for level in range(12):
        deep = {"lvl": level, "child": [deep, {"side": level * 1.5}]}
    # A max-size batch envelope: 32 members exercising every arg shape.
    batch_inv = {
        "id": "if.n1-0-1-2",
        "op": "increment",
        "args": [],
        "kind": "interrogation",
        "epoch": 0,
        "ctx": {"principal": None, "credentials": {},
                "transaction_id": None, "origin_domain": None,
                "via_domains": [], "extra": {}},
    }
    big_batch = []
    for i in range(32):
        member = dict(batch_inv)
        member["args"] = [i, f"key-{i}", [i] * (i % 5),
                         {"n": i, "blob": bytes([i % 256]) * (i % 7)}]
        member["inv_id"] = f"cli/app#{i}"
        big_batch.append(member)
    # Every wire-error code in the catalogue, as one reply envelope.
    error_catalog = [
        {"error": encode_error(cls(f"{code} happened"), None)}
        for code, cls in _CODES]
    # Lease traffic: the invalidation push (kind ``lease-inval``) and a
    # cached read stamped with the shard ring epoch.
    lease_inv = {
        "id": "if.n1-0-2-1",
        "op": "invalidate",
        "args": [["alpha", "beta"], "*"],
        "kind": "lease-inval",
        "epoch": 1,
        "ctx": {"principal": None, "credentials": {},
                "transaction_id": None, "origin_domain": "core",
                "via_domains": ["core"], "extra": {"shard": 4},
                "trace": "T9@core|S14@core"},
        "inv_id": "n1/kv-abc123-9",
    }
    # Overload stamps: absolute deadline + priority class in ``extra``.
    overload_inv = {
        "id": "if.n1-0-1-2",
        "op": "put",
        "args": ["k", 7],
        "kind": "interrogation",
        "epoch": 2,
        "ctx": {"principal": "alice", "credentials": {},
                "transaction_id": None, "origin_domain": "edge",
                "via_domains": ["edge"],
                "extra": {"deadline_at": 120.25, "priority": 3},
                "trace": "T3@edge|S7@edge"},
        "inv_id": "cli/app#42",
    }
    # Integer-width and text edges: 64-bit boundary, bigints beyond it,
    # multibyte unicode, empty containers.
    edges = {
        "i64_max": 2 ** 63 - 1,
        "i64_min": -(2 ** 63),
        "big": 2 ** 80,
        "neg_big": -(2 ** 80),
        "uni": "héllo — ✓ 日本語",
        "empty": [[], {}, "", b""],
    }
    return [
        ("single_invocation", {"capsule": "srv", "inv": inv_a}),
        ("account_signature",
         {"sig": signature_to_obj(signature_of(Account))}),
        ("nested_record_with_refs", {"term": term_to_obj(nested)}),
        ("error_reply_busy",
         {"error": encode_error(
             ServerBusyError("server overloaded: dispatch queue at "
                             "bound 3, invocation shed (retryable)"),
             None)}),
        ("error_reply_stale",
         {"error": encode_error(
             StaleReferenceError("no capsule 'gone' on n2"), None)}),
        ("batch_envelope", {"batch": [inv_a, inv_b], "capsule": "srv"}),
        ("batch_reply",
         {"replies": [{"term": {"name": "ok", "values": [41]}},
                      {"error": {"code": "server_busy",
                                 "msg": "shed"}}]}),
        ("deep_nesting", {"capsule": "srv", "inv": dict(
            batch_inv, args=[deep], inv_id="cli/app#deep")}),
        ("max_batch_envelope",
         {"batch": big_batch, "capsule": "srv"}),
        ("wire_error_catalog", {"replies": error_catalog}),
        ("lease_context_stamp", {"capsule": "kv", "inv": lease_inv}),
        ("overload_context_stamp",
         {"capsule": "srv", "inv": overload_inv}),
        ("scalar_edges", {"edges": edges}),
    ]


#: sha256 of every corpus entry per format.  Regenerate ONLY for a
#: deliberate, versioned wire-format change:
#:   PYTHONPATH=src python tests/test_ndr_golden.py
GOLDEN = {
    "packed": {
        "single_invocation":
            "43295a2a7d7bd8019d81d657810d3f36052a05520747897c5b394a2f8277d4f2",
        "account_signature":
            "c33e28f89ead52916a65477b582aff9bfdaf7f7080105d5300aa6cea4f548be9",
        "nested_record_with_refs":
            "4fcb5054f4767c74155fa66721d03ea7ce1d4e217af215dbf89232e85a539737",
        "error_reply_busy":
            "aa9e4b11528dd2b61eba541413d06a048b90d281c5ffe57471133b081215824b",
        "error_reply_stale":
            "bfbd2d76ae48bd47d6d7b597cf2f7096106a05fe15f78b4e2747bd4127fdf5c7",
        "batch_envelope":
            "4f614ea835e384e83815b805cddb9411b9e5707335906398271007fd76e7b625",
        "batch_reply":
            "ac7462a0886ed4c3718d92b3b71b842b7cf671a8b20ac8f4262b9529b2410b10",
        "deep_nesting":
            "75a75eb8c14f0913d475694568b06c6002ef4a9b2ea67b1dbc46330d2bcdf9f9",
        "max_batch_envelope":
            "9c1b929756f554ffdb7aedb23886f8d1186e746db38be262d6a67cf782d9f80d",
        "wire_error_catalog":
            "b4bc63495adf31613b4eb9bfab132e9de7909081cc980dfa276a78b4e2ff98d0",
        "lease_context_stamp":
            "16c52df3c26b96c03414e7b0ca42c5aaee875593bbe129dab4c09f54534a6f3c",
        "overload_context_stamp":
            "440c0007e43fc61d1eb5c879eb81b3895b380a3c28ed94cef7893bc8ffaf190e",
        "scalar_edges":
            "d990196fd55f495418e01d612d096a4fca11f3ac544b15a9fc9a7b3bd136e293",
    },
    "tagged": {
        "single_invocation":
            "8863f1ca99a20cc03b3b81fe4cf79880fe43612434a2fbdfb9429782ca34c95e",
        "account_signature":
            "63d93a7fb7df235d282905bc4ad519d7a206f9c16329fe85bd5c14fd77f17ce1",
        "nested_record_with_refs":
            "80f5249b807d3639045fb6e240c00c872c3efe5368599da050887e6c567a1443",
        "error_reply_busy":
            "8f47828502ca16367b3778ca2d2571f2cd63513cfec3f746ec5e2fe48d6bd87a",
        "error_reply_stale":
            "31431ea2bad632340ff507fe6cb02abcf10c280b749969458c60972d537b6cb8",
        "batch_envelope":
            "8444ab0405a91ff196e45ee6019b4f5bfd02b6eab4ffe2c446c54b7266e5108a",
        "batch_reply":
            "9b444c6a753f144320ac2c10e09215569f0eacb0dd3c3448c82cf6ee96bca8bb",
        "deep_nesting":
            "e30e72c454e0a3068dd338a9448e3a673b48a3f9d1a610b440f476b4ac3d6240",
        "max_batch_envelope":
            "c36f1c230ffd3c0bf8b9099969ae5f51226c5bad018e7d3d84cf6b0c5d57ed6f",
        "wire_error_catalog":
            "74844ac26db53ecdae713007fe61142fc9a138967268fdfe9fc7e43eb7e74fc4",
        "lease_context_stamp":
            "ea9cff470b1c41700a542982c3ae4f594e8d16edce2c5c801731d276082f68bc",
        "overload_context_stamp":
            "7414c37d0baa3959ff78653841c8861e43e85ebbbed0edeee36aee0ce81dfbe9",
        "scalar_edges":
            "3d27aff75ce20ec2634ed44838b4b2553e13103354b01b85b9d89e321e83ee5f",
    },
}


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_golden_bytes_are_pinned(fmt_name):
    fmt = get_format(fmt_name)
    for name, obj in _corpus():
        digest = hashlib.sha256(fmt.dumps(obj)).hexdigest()
        assert digest == GOLDEN[fmt_name][name], (
            f"{fmt_name}:{name} wire bytes changed — this is a "
            f"wire-format break, not a test failure to appease")


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_corpus_round_trips(fmt_name):
    fmt = get_format(fmt_name)
    for name, obj in _corpus():
        assert fmt.loads(fmt.dumps(obj)) == obj, name


# ---------------------------------------------------------------------------
# Plan-cache equivalence: cached encoding == the generic walk, always
# ---------------------------------------------------------------------------

_MEMBER_CASES = [
    # (args, ctx, inv_id, epoch, kind)
    ([], {"principal": None, "credentials": {}, "transaction_id": None,
          "origin_domain": None, "via_domains": [], "extra": {}},
     "cli/app#1", 0, "interrogation"),
    ([5, "k", [1, [2, 3]], {"nested": {"deep": b"\x01"}}],
     {"principal": "bob", "credentials": {"cap": "rw"},
      "transaction_id": "tx-9", "origin_domain": "org",
      "via_domains": ["org", "edge"], "extra": {"hop": 2},
      "trace": "T4@org|S9@org"},
     "cli/app#2", 7, "interrogation"),
    ([True, None, 2.25], {"principal": None, "credentials": {},
                          "transaction_id": None, "origin_domain": None,
                          "via_domains": [], "extra": {}},
     None, 2, "announcement"),
]


def _manual_envelope(args, ctx, inv_id, epoch, kind):
    inv = {"id": "if.x-1", "op": "mixed_op", "args": args,
           "kind": kind, "epoch": epoch, "ctx": ctx}
    if inv_id is not None:
        inv["inv_id"] = inv_id
    return {"capsule": "srv", "inv": inv}


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_plan_single_encoding_matches_generic_walk(fmt_name):
    fmt = get_format(fmt_name)
    cache = PlanCache()
    for args, ctx, inv_id, epoch, kind in _MEMBER_CASES:
        plan = cache.plan_for(fmt, "srv", "if.x-1", "mixed_op", kind,
                              epoch, inv_id is not None)
        member = plan.encode_member(args, ctx, inv_id)
        expected = fmt.dumps(_manual_envelope(args, ctx, inv_id,
                                              epoch, kind))
        assert plan.encode_single(member) == expected
    # Second pass hits the cache and must still splice identically.
    for args, ctx, inv_id, epoch, kind in _MEMBER_CASES:
        plan = cache.plan_for(fmt, "srv", "if.x-1", "mixed_op", kind,
                              epoch, inv_id is not None)
        member = plan.encode_member(args, ctx, inv_id)
        assert plan.encode_single(member) == fmt.dumps(
            _manual_envelope(args, ctx, inv_id, epoch, kind))
    assert cache.hits == len(_MEMBER_CASES)


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_plan_batch_encoding_matches_generic_walk(fmt_name):
    fmt = get_format(fmt_name)
    cache = PlanCache()
    members, objs = [], []
    for args, ctx, inv_id, epoch, kind in _MEMBER_CASES:
        plan = cache.plan_for(fmt, "srv", "if.x-1", "mixed_op", kind,
                              epoch, inv_id is not None)
        members.append(plan.encode_member(args, ctx, inv_id))
        objs.append(_manual_envelope(args, ctx, inv_id,
                                     epoch, kind)["inv"])
    expected = fmt.dumps({"batch": objs, "capsule": "srv"})
    assert encode_batch(fmt, "srv", members) == expected
    assert encode_batch(fmt, "srv", []) == fmt.dumps(
        {"batch": [], "capsule": "srv"})


def _context_of(ctx):
    """The InvocationContext whose wire form is the dict *ctx*."""
    return InvocationContext(
        principal=ctx["principal"],
        credentials=dict(ctx["credentials"]),
        transaction_id=ctx["transaction_id"],
        origin_domain=ctx["origin_domain"],
        via_domains=tuple(ctx["via_domains"]),
        extra=dict(ctx["extra"]),
        trace=TraceContext.from_wire(ctx.get("trace")))


def _reference_inv(marshaller, args, ctx, inv_id, epoch, kind):
    """The ``inv`` object the two-pass road builds for argument
    *values*: ``marshal_args``, then ``encode_context``'s dict."""
    return inv_object(marshaller, "if.x-1", "mixed_op", args, kind, epoch,
                      _context_of(ctx), inv_id)


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_one_buffer_request_matches_generic_walk(fmt_name):
    """``encode_request`` is what every single request takes: argument
    values go straight to bytes, the context is written from the fields
    of a real InvocationContext."""
    fmt = get_format(fmt_name)
    cache = PlanCache()
    marshaller = Marshaller()
    for _pass in ("first use", "re-hit"):
        for args, ctx, inv_id, epoch, kind in _MEMBER_CASES:
            plan = cache.plan_for(fmt, "srv", "if.x-1", "mixed_op", kind,
                                  epoch, inv_id is not None)
            assert plan.encode_request(tuple(args), _context_of(ctx),
                                       inv_id, marshaller) \
                == dumps_reference(fmt, {
                    "capsule": "srv",
                    "inv": _reference_inv(marshaller, args, ctx, inv_id,
                                          epoch, kind)}), _pass
    assert cache.hits == len(_MEMBER_CASES)


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_one_buffer_batch_matches_generic_walk(fmt_name):
    """``encode_member_zero`` + ``encode_batch`` is what every batched
    member takes."""
    fmt = get_format(fmt_name)
    cache = PlanCache()
    marshaller = Marshaller()
    members, objs = [], []
    for args, ctx, inv_id, epoch, kind in _MEMBER_CASES:
        plan = cache.plan_for(fmt, "srv", "if.x-1", "mixed_op", kind,
                              epoch, inv_id is not None)
        members.append(plan.encode_member_zero(
            tuple(args), _context_of(ctx), inv_id, marshaller))
        objs.append(_reference_inv(marshaller, args, ctx, inv_id, epoch,
                                   kind))
    assert encode_batch(fmt, "srv", members) == dumps_reference(
        fmt, {"batch": objs, "capsule": "srv"})


def test_transport_encoding_matches_generic_walk(single_domain):
    """The live transport emits the bytes the generic walk would emit
    for the same invocation, on the plan's first use and on a re-hit."""
    world, domain, servers, clients = single_domain
    ref = servers.export(Counter(), interface_id="golden.c")
    proxy = world.binder_for(clients).bind(ref)
    transport = proxy._channel.transport
    path = ref.primary_path()
    invocation = Invocation(
        interface_id=ref.interface_id, operation="add", args=(5,),
        epoch=ref.epoch, invocation_id="golden-inv-1",
        context=_context_of(_MEMBER_CASES[1][1]))
    generic = get_format(path.wire_format).dumps({
        "capsule": path.capsule,
        "inv": inv_object(
            transport.capsule.marshaller,
            invocation.interface_id, invocation.operation,
            invocation.args, invocation.kind.value, invocation.epoch,
            invocation.context, invocation.invocation_id)})
    assert transport._encode(invocation, path) == generic
    assert transport._encode(invocation, path) == generic
    assert transport.plan_cache.stats()["hits"] == 1


# ---------------------------------------------------------------------------
# Damage tolerance: a decoder answers damage with MarshalError, only
# ---------------------------------------------------------------------------

def _zero_length_nesting(depth):
    body = b"nil#0#"
    for count in range(1, depth + 1):
        body = b"list[%d]#0#" % count + body
    return b"@TAGGED@" + body


#: Short hostile messages that once escaped as something else: an
#: unbounded allocation (a negative child length lets the container
#: count alone bound the loop), ``UnicodeDecodeError``, ``TypeError:
#: unhashable type``, a decode that doubles in cost per nesting level
#: (a container claiming length 0 rewinds the cursor, so its siblings
#: re-read its children: 60 levels never finish) and ``RecursionError``.
HOSTILE = {
    "tagged_negative_length":
        ("tagged", b"@TAGGED@list[2000000]#8#text#-8#"),
    "packed_invalid_utf8":
        ("packed", b"\xa5Ps\x00\x00\x00\x01\xff"),
    "packed_unhashable_map_key":
        ("packed", b"\xa5Pd\x00\x00\x00\x01l\x00\x00\x00\x00N"),
    "tagged_zero_length_nesting": ("tagged", _zero_length_nesting(60)),
    "packed_nesting_bomb":
        ("packed", b"\xa5P" + b"l\x00\x00\x00\x01" * 5000 + b"N"),
    "tagged_nesting_bomb":
        ("tagged", b"@TAGGED@" + b"list[1]#9#" * 5000 + b"nil#0#"),
    # Bytes no encoder emits that a reader used to take for a value:
    # the fast reader refused the first, the reference reader made it
    # ``[]``; ``trua`` is one bit from ``true`` and decoded to ``False``.
    "tagged_bare_list": ("tagged", b"@TAGGED@list#0#"),
    "tagged_bad_bool": ("tagged", b"@TAGGED@bool#4#trua"),
    "tagged_nil_payload": ("tagged", b"@TAGGED@nil#3#abc"),
    "tagged_negative_count": ("tagged", b"@TAGGED@map[-3]#0#"),
    # ... and two only the reference reader took: a count on a scalar,
    # a count closed twice.
    "tagged_counted_scalar": ("tagged", b"@TAGGED@text[3]#2#ab"),
    "tagged_double_bracket": ("tagged", b"@TAGGED@list[0]]#0#"),
    # PACKED lengths that run past the end, which a slice clips without
    # a word: both readers called the first two trailing bytes, and
    # inside a list they disagreed about what the message was.
    "packed_text_past_end":
        ("packed", b"\xa5Ps\x00\x00\x03\xe8hello"),
    "packed_octets_past_end":
        ("packed", b"\xa5Pb\x80\x00\x00\x00" + b"x" * 10),
    "packed_text_past_end_in_list":
        ("packed", b"\xa5Pl\x00\x00\x00\x02s\x00\x00\x03\xe8hello"
                   b"i\x00\x00\x00\x00\x00\x00\x00\x01"),
}

#: Decoder name -> how it decodes *data* as *fmt*: the production tree
#: reader and the specification's.
DECODERS = {"loads": lambda fmt, data: fmt.loads(data),
            "loads_reference": loads_reference}


def _packed_lengths(image, pos, found):
    """Append to *found* the ``(offset, width)`` of every ``s`` / ``b`` /
    ``I`` length field of the PACKED value at *pos*; returns its end."""
    tag = image[pos]
    if tag in b"sbI":
        found.append((pos + 1, 4))
        return pos + 5 + struct.unpack_from(">I", image, pos + 1)[0]
    if tag in b"if":
        return pos + 9
    if tag in b"NTF":
        return pos + 1
    count = struct.unpack_from(">I", image, pos + 1)[0]
    pos += 5
    for _ in range(2 * count if tag == ord("d") else count):
        pos = _packed_lengths(image, pos, found)
    return pos


def _tagged_lengths(image, pos, found):
    """The same for the TAGGED value at *pos*: every frame's ``#len#``."""
    first = image.index(b"#", pos)
    second = image.index(b"#", first + 1)
    found.append((first + 1, second - first - 1))
    end = second + 1 + int(image[first + 1:second])
    if b"[" in image[pos:first]:
        pos = second + 1
        while pos < end:
            pos = _tagged_lengths(image, pos, found)
    return end


def _stride(image, sample):
    """Decoding a damaged image costs as much as decoding the image, so
    tier-1 takes a *sample*: every n-th offset and length field, n odd
    (a flipped bit still takes all eight values) and growing with the
    image, about 128 an image.  ``python -m tests.damaged_images``
    takes every one."""
    return len(image) // 128 | 1 if sample else 1


def _oversized(image, sample=False):
    """*image* with each of its length fields in turn set to run past
    the end of the message."""
    found = []
    if image.startswith(get_format("packed")._MAGIC):
        _packed_lengths(image, 2, found)
        past = struct.pack(">I", len(image))
    else:
        _tagged_lengths(image, len(get_format("tagged")._MAGIC), found)
        past = b"%d" % len(image)
    for at, width in found[::_stride(image, sample)]:
        yield image[:at] + past + image[at + width:]


def _damaged(image, sample=False):
    """Every truncation of *image*, a one-bit flip in every byte (the
    bit rotates with the offset, so each of the eight is exercised on
    every kind of field), and every length field set past the end (or
    a *sample* of them, see :func:`_stride`)."""
    for k in range(0, len(image), _stride(image, sample)):
        yield image[:k]
        yield image[:k] + bytes((image[k] ^ (1 << (k % 8)),)) \
            + image[k + 1:]
    yield from _oversized(image, sample)


def decode_or_raise(fmt_name, decoder, sample=False):
    """Each damaged corpus image decodes, or raises ``MarshalError``."""
    fmt = get_format(fmt_name)
    decode = DECODERS[decoder]
    for name, obj in _corpus():
        for case, damaged in enumerate(_damaged(fmt.dumps(obj), sample)):
            try:
                decode(fmt, damaged)
            except MarshalError:
                pass
            except Exception as exc:
                raise AssertionError((name, case, sample)) from exc


@pytest.mark.parametrize("decoder", sorted(DECODERS))
@pytest.mark.parametrize("fmt_name", FORMATS)
def test_damaged_images_decode_or_raise_marshal_error(fmt_name, decoder):
    decode_or_raise(fmt_name, decoder, sample=True)


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_lengths_past_the_end_are_truncations(fmt_name):
    lengths_past_the_end_are_truncations(fmt_name, sample=True)


def lengths_past_the_end_are_truncations(fmt_name, sample=False):
    """Every decoder — the tree reader, the specification's, and each
    compiled envelope reader with its lanes — calls a length that runs
    past the end of the message what it is: a truncation, not trailing
    bytes or an unknown tag."""
    fmt = get_format(fmt_name)
    decoders = [*DECODERS.values(),
                lambda fmt, data: fmt.loads(data, ("inv", "args")),
                lambda fmt, data: fmt.loads(data, ("term",))]
    damaged = [bad for _, obj in _corpus()
               for bad in _oversized(fmt.dumps(obj), sample)]
    damaged += [payload for name, (where, payload) in HOSTILE.items()
                if where == fmt_name and "past_end" in name]
    for data in damaged:
        for decode in decoders:
            with pytest.raises(MarshalError) as caught:
                decode(fmt, data)
            assert str(caught.value) == f"truncated {fmt_name} payload"


@pytest.mark.parametrize("decoder", sorted(DECODERS))
@pytest.mark.parametrize("probe", sorted(HOSTILE))
def test_hostile_probes_raise_marshal_error(probe, decoder):
    fmt_name, payload = HOSTILE[probe]
    with pytest.raises(MarshalError):
        DECODERS[decoder](get_format(fmt_name), payload)


def test_signature_objects_are_memoised():
    signature = signature_of(Account)
    assert signature_to_obj(signature) is signature_to_obj(signature)


if __name__ == "__main__":  # digest regeneration helper
    for fmt_name in FORMATS:
        fmt = get_format(fmt_name)
        print(f'    "{fmt_name}": {{')
        for name, obj in _corpus():
            digest = hashlib.sha256(fmt.dumps(obj)).hexdigest()
            print(f'        "{name}":\n            "{digest}",')
        print("    },")
