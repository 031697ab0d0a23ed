"""C10 — Generated marshalling (section 5.1).

Claim: "From a description of the signatures of the operations in an
interface, a compiler can automatically generate code to marshal data
from the local representation format to a network format and vice versa."

Series produced:
  * encode+decode wall time and wire size by value shape and depth, for
    both wire formats (packed binary vs tagged text) — by the two-pass
    road (marshal, encode, decode, unmarshal) and by the formats' value
    lane, which walks each leg once; 40 sibling records of one shape,
    of two alternating shapes (one nested) and of all-distinct names
    say what a record's shape saves and what a miss costs, by direction,
  * end-to-end invocation cost vs argument size (the network part of
    access transparency),
  * reference marshalling (identity + paths + full signature) vs a
    primitive of similar wire size.
Expected shape: cost scales with value complexity; tagged is bulkier and
slower than packed; both round-trip losslessly.
"""

import pytest

from repro.comp.outcomes import Termination
from repro.comp.reference import AccessPath, InterfaceRef
from repro.comp.model import signature_of
from repro.ndr.codec import Marshaller
from repro.ndr.formats import get_format

from benchmarks.workloads import (
    Counter,
    Echo,
    as_report,
    rate_pair_us,
    two_node_world,
    write_report,
)

VALUES = {
    "int": 42,
    "string-100": "x" * 100,
    "string-10k": "x" * 10_000,
    "flat-list-100": list(range(100)),
    "nested-depth-6": None,  # built below
    "record-tree": None,
    "rows-40": None,
    "rows-40-alternating-nested": None,
    "rows-40-distinct-names": None,
}
#: The sibling-record shapes: the lanes remember a record's field names.
ROWS = [shape for shape in VALUES if shape.startswith("rows-40")]


def _build_values():
    nested = 1
    for _ in range(6):
        nested = [nested, nested]
    VALUES["nested-depth-6"] = nested
    VALUES["record-tree"] = {
        f"field{i}": {"id": i, "name": f"item-{i}",
                      "tags": ["a", "b", "c"]}
        for i in range(20)
    }
    VALUES["rows-40"] = [
        {"id": i, "name": f"row-{i}", "score": i / 7,
         "tags": ["a", "b", "c"], "active": bool(i & 1)} for i in range(40)]
    VALUES["rows-40-alternating-nested"] = [
        {"id": i, "name": f"row-{i}", "pos": {"x": i, "y": -i}} if i % 2 == 0
        else {"flags": i, "key": f"k{i}", "label": "l", "w": 1.5}
        for i in range(40)]
    VALUES["rows-40-distinct-names"] = [
        {f"a{i}": i, f"b{i}": f"row-{i}", f"c{i}": i / 7, f"d{i}": None}
        for i in range(40)]


_build_values()


def _roundtrip(fmt_name, value):
    fmt = get_format(fmt_name)
    marshaller = Marshaller()
    wire = fmt.dumps(marshaller.marshal(value))
    return marshaller.unmarshal(fmt.loads(wire)), len(wire)


def _two_pass(fmt, marshaller, value):
    """marshal, encode, decode, unmarshal — as the result of a reply,
    the way the engine carries values."""
    wire = fmt.dumps({"term": marshaller.marshal(Termination("ok", (value,)))})
    return marshaller.unmarshal(fmt.loads(wire)["term"]).single()


def _lane(fmt, marshaller, value):
    """The same trip through the reply's compiled reader and the
    formats' value lane."""
    wire = fmt.dumps({"term": Termination("ok", (value,))}, marshaller)
    return fmt.loads(wire, ("term",))["term"].single()


@pytest.mark.parametrize("fmt", ["packed", "tagged"])
@pytest.mark.parametrize("shape", ["int", "string-10k", "record-tree"])
def test_c10_roundtrip(benchmark, fmt, shape):
    benchmark.group = f"C10 marshalling ({fmt})"
    value = VALUES[shape]
    benchmark(lambda: _roundtrip(fmt, value))


def test_c10_report(benchmark):
    as_report(benchmark, _report)


def _report():
    rows = ["-- wire size; two-pass and value-lane wall time per round "
            "trip, by shape and format --"]
    sizes = {}
    for shape, value in VALUES.items():
        line = f"  {shape:>26}:"
        for fmt_name in ("packed", "tagged"):
            fmt, marshaller = get_format(fmt_name), Marshaller()
            result, size = _roundtrip(fmt_name, value)
            assert (_lane(fmt, marshaller, value)
                    == _two_pass(fmt, marshaller, value) == result)
            two_pass_us, lane_us = rate_pair_us(
                lambda: _two_pass(fmt, marshaller, value),
                lambda: _lane(fmt, marshaller, value), rounds=20)
            sizes[(shape, fmt_name)] = size
            line += (f"  {fmt_name} {size:>7}B {two_pass_us / 1000:7.3f}ms "
                     f"lane {lane_us / 1000:6.3f}ms")
        rows.append(line)
    # Tagged text is bulkier for string- and record-heavy payloads;
    # interestingly, packed's fixed 8-byte integers lose to tagged's
    # short decimal integers on deep int-only trees — reported above.
    for shape in ("string-100", "string-10k", "record-tree"):
        assert sizes[(shape, "tagged")] > sizes[(shape, "packed")]

    rows.append("-- value lane by direction on sibling records: "
                "encode / decode per reply --")
    for shape in ROWS:
        line = f"  {shape:>26}:"
        for fmt_name in ("packed", "tagged"):
            fmt, marshaller = get_format(fmt_name), Marshaller()
            reply = {"term": Termination("ok", (VALUES[shape],))}
            wire = fmt.dumps(reply, marshaller)
            encode_us, decode_us = rate_pair_us(
                lambda: fmt.dumps(reply, marshaller),
                lambda: fmt.loads(wire, ("term",)), rounds=20)
            line += (f"  {fmt_name} {encode_us / 1000:6.3f}ms / "
                     f"{decode_us / 1000:6.3f}ms")
        rows.append(line)

    rows.append("-- end-to-end invocation vs argument size --")
    world, servers, clients = two_node_world()
    proxy = world.binder_for(clients).bind(servers.export(Echo()))
    for size in (10, 1000, 100_000):
        payload = "x" * size
        start = world.now
        for _ in range(10):
            proxy.echo(payload)
        rows.append(f"  arg {size:>7}B: "
                    f"{(world.now - start) / 10:8.4f} virtual ms/call")

    rows.append("-- reference vs primitive marshalling --")
    ref = InterfaceRef("if-1", signature_of(Counter),
                       (AccessPath("n", "c"),))
    _, ref_size = _roundtrip("packed", ref)
    _, str_size = _roundtrip("packed", "x" * ref_size)
    rows.append(f"  interface ref wire size: {ref_size}B "
                f"(identity + paths + full signature)")
    rows.append(f"  equal-sized string:      {str_size}B")
    write_report("C10", "generated marshalling: cost scales with "
                        "complexity; formats interchangeable in function "
                        "(section 5.1)", rows)
