"""Tests for wire formats, signature codec and the marshaller."""

import ast
import pathlib

import pytest

import repro

from repro.comp.outcomes import Termination
from repro.comp.reference import AccessPath, InterfaceRef
from repro.errors import MarshalError
from repro.ndr.codec import Marshaller
from repro.ndr import PackedFormat, TaggedFormat
from repro.ndr.formats import get_format
from repro.ndr.sigcodec import signature_from_obj, signature_to_obj
from repro.types import InterfaceSignature, OperationSig, TerminationSig
from repro.types.terms import INT, RecordType, RefType, SeqType, STR
from repro.util.freeze import FrozenRecord

SAMPLES = [
    None,
    True,
    False,
    0,
    -17,
    2 ** 80,            # big integer fallback
    3.25,
    "",
    "héllo wörld",
    b"",
    b"\x00\xffraw",
    [1, 2, 3],
    ["mixed", 1, None, [True]],
    {"a": 1, "b": [2.5, "x"], "nested": {"k": None}},
]


@pytest.mark.parametrize("fmt", [PackedFormat(), TaggedFormat()])
class TestWireFormats:
    @pytest.mark.parametrize("value", SAMPLES)
    def test_roundtrip(self, fmt, value):
        decoded = fmt.loads(fmt.dumps(value))
        if isinstance(value, list):
            assert decoded == value
        else:
            assert decoded == value
            assert type(decoded) is type(value) or isinstance(value, bool)

    def test_rejects_non_string_keys(self, fmt):
        with pytest.raises(MarshalError):
            fmt.dumps({1: "x"})

    def test_rejects_unencodable(self, fmt):
        with pytest.raises(MarshalError):
            fmt.dumps(object())

    def test_rejects_truncation(self, fmt):
        data = fmt.dumps({"k": [1, 2, 3]})
        with pytest.raises(MarshalError):
            fmt.loads(data[:-3])


class TestHeterogeneity:
    """The two formats must be genuinely incompatible (section 4.2)."""

    def test_cross_decode_fails_loudly(self):
        packed, tagged = PackedFormat(), TaggedFormat()
        data = packed.dumps({"x": 1})
        with pytest.raises(MarshalError, match="incompatible wire format"):
            tagged.loads(data)
        data = tagged.dumps({"x": 1})
        with pytest.raises(MarshalError, match="incompatible wire format"):
            packed.loads(data)

    def test_registry(self):
        assert get_format("packed").name == "packed"
        with pytest.raises(MarshalError):
            get_format("morse")

    def test_tagged_is_bulkier_than_packed(self):
        value = {"key": [1, 2, 3], "other": "text"}
        assert len(TaggedFormat().dumps(value)) > \
               len(PackedFormat().dumps(value))


def make_signature():
    return InterfaceSignature("Acct", [
        OperationSig("deposit", [INT],
                     [TerminationSig("ok", [INT]),
                      TerminationSig("overdrawn", [INT])]),
        OperationSig("note", [STR], announcement=True),
        OperationSig("history", [],
                     [TerminationSig("ok", [SeqType(RecordType(
                         {"amount": INT, "memo": STR}))])]),
    ])


class TestSignatureCodec:
    def test_roundtrip(self):
        signature = make_signature()
        assert signature_from_obj(signature_to_obj(signature)) == signature

    def test_roundtrip_through_both_wire_formats(self):
        signature = make_signature()
        for fmt in (PackedFormat(), TaggedFormat()):
            obj = fmt.loads(fmt.dumps(signature_to_obj(signature)))
            assert signature_from_obj(obj) == signature

    def test_ref_types_nest(self):
        inner = make_signature()
        outer = InterfaceSignature("Factory", [
            OperationSig("open", [],
                         [TerminationSig("ok", [RefType(inner)])])])
        assert signature_from_obj(signature_to_obj(outer)) == outer

    def test_malformed_rejected(self):
        with pytest.raises(MarshalError):
            signature_from_obj({"name": "x"})


def make_ref():
    return InterfaceRef(
        "if-1", make_signature(),
        (AccessPath("node-a", "caps", "rrp", "packed"),
         AccessPath("node-b", "caps", "rrp", "tagged")),
        epoch=3, context=("domA",))


class TestMarshaller:
    def test_primitives_copied(self):
        m = Marshaller()
        for value in (1, "x", 2.5, True, None, b"raw"):
            assert m.unmarshal(m.marshal(value)) == value

    def test_tuples_become_tuples(self):
        m = Marshaller()
        assert m.unmarshal(m.marshal((1, 2, (3, 4)))) == (1, 2, (3, 4))

    def test_dicts_become_frozen_records(self):
        m = Marshaller()
        out = m.unmarshal(m.marshal({"a": 1, "b": {"c": 2}}))
        assert isinstance(out, FrozenRecord)
        assert out["a"] == 1
        assert out["b"]["c"] == 2

    def test_sets_roundtrip(self):
        m = Marshaller()
        assert m.unmarshal(m.marshal({1, 2, 3})) == frozenset({1, 2, 3})

    def test_reference_roundtrip_preserves_everything(self):
        m = Marshaller()
        ref = make_ref()
        out = m.unmarshal(m.marshal(ref))
        assert out == ref
        assert out.signature == ref.signature
        assert out.epoch == 3
        assert out.context == ("domA",)
        assert out.paths[1].wire_format == "tagged"

    def test_termination_roundtrip(self):
        m = Marshaller()
        term = Termination("overdrawn", (42, "why"))
        out = m.unmarshal(m.marshal(term))
        assert out == term

    def test_mutable_object_without_exporter_rejected(self):
        class Thing:
            pass

        with pytest.raises(MarshalError, match="by reference"):
            Marshaller().marshal(Thing())

    def test_mutable_object_with_exporter_becomes_ref(self):
        ref = make_ref()

        class Thing:
            pass

        m = Marshaller(exporter=lambda obj: ref)
        out = m.unmarshal(m.marshal(Thing()))
        assert out == ref
        assert m.refs_exported == 1

    def test_marshal_through_wire_formats(self):
        m = Marshaller()
        value = {"refs": [make_ref()], "n": 3}
        for name in ("packed", "tagged"):
            fmt = get_format(name)
            wired = fmt.loads(fmt.dumps(m.marshal(value)))
            out = m.unmarshal(wired)
            assert out["n"] == 3
            assert out["refs"][0] == make_ref()


class TestEngineeringAnnotationsOnWire:
    def test_readonly_survives_the_wire(self):
        """The separation constraint travels with the signature: a
        remote binder must know which operations take shared locks."""
        from repro.types import InterfaceSignature, OperationSig
        signature = InterfaceSignature("S", [
            OperationSig("peek", readonly=True),
            OperationSig("poke"),
        ])
        out = signature_from_obj(signature_to_obj(signature))
        assert out.operation("peek").readonly is True
        assert out.operation("poke").readonly is False


#: The specification walk's names: a test oracle (``tests/ndr_reference.py``).
_REFERENCE_WALK = {"_write", "_read", "dumps_reference", "loads_reference"}


def test_one_module_per_wire_format():
    """Each format's bytes are its own module's; the package neither
    defines nor calls the reference walk; the plan cache holds keys and
    constant chunks and calls its format, with no wire literal and no
    format fork of its own."""
    root = pathlib.Path(repro.__file__).parent
    trees = {path.relative_to(root).as_posix(): ast.parse(path.read_text())
             for path in sorted(root.rglob("*.py"))}

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.alias):
                yield node.name

    def literals(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, bytes)]

    def walk_names(path, tree):
        # The nucleus reads inbound invocations with a ``_read`` of its own.
        walk = (_REFERENCE_WALK - {"_read"} if path == "engine/nucleus.py"
                else _REFERENCE_WALK)
        return sorted(walk.intersection(names(tree)))

    assert {path: walk_names(path, tree) for path, tree in trees.items()
            if walk_names(path, tree)} == {}
    assert sorted(path for path, tree in trees.items()
                  if path.startswith("ndr/") and literals(tree)) \
        == ["ndr/packed.py", "ndr/tagged.py"]
    assert not {"PackedFormat", "TaggedFormat", "packed", "tagged"} \
        & set(names(trees["ndr/plancache.py"]))
    assert {path: length for path in trees if path.startswith("ndr/")
            for length in [len((root / path).read_text().splitlines())]
            if length > 700} == {}
