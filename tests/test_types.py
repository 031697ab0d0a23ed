"""Tests for type terms, signatures and structural conformance."""

import pytest

from repro.errors import SignatureError
from repro.types import (
    ANY,
    BOOL,
    BYTES,
    FLOAT,
    INT,
    STR,
    VOID,
    InterfaceSignature,
    OperationSig,
    RecordType,
    RefType,
    SeqType,
    TerminationSig,
    conforms,
    explain_mismatch,
    parse_type,
    signature_conforms,
)
from repro.types.signature import STREAM


def sig(name, *ops):
    return InterfaceSignature(name, ops)


def op(name, params=(), results=(), extra_terms=(), announcement=False):
    terms = [TerminationSig("ok", results)] + list(extra_terms)
    if announcement:
        terms = None
    return OperationSig(name, params, terms, announcement=announcement)


class TestParseType:
    def test_primitive_names(self):
        assert parse_type("int") is INT
        assert parse_type("str") is STR
        assert parse_type("any") is ANY

    def test_python_types(self):
        assert parse_type(int) is INT
        assert parse_type(float) is FLOAT
        assert parse_type(bool) is BOOL
        assert parse_type(bytes) is BYTES
        assert parse_type(None) is VOID

    def test_sequence_and_record(self):
        assert parse_type([int]) == SeqType(INT)
        assert parse_type({"a": int, "b": str}) == \
               RecordType({"a": INT, "b": STR})

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_type("frobnicate")
        with pytest.raises(ValueError):
            parse_type([int, str])
        with pytest.raises(ValueError):
            parse_type(3.14)


class TestTermConformance:
    def test_reflexive(self):
        for term in (INT, STR, BOOL, FLOAT, BYTES, SeqType(INT),
                     RecordType({"x": INT})):
            assert conforms(term, term)

    def test_any_accepts_everything(self):
        assert conforms(INT, ANY)
        assert conforms(RecordType({"x": INT}), ANY)

    def test_any_source_only_flows_to_any(self):
        assert not conforms(ANY, INT)

    def test_int_widens_to_float(self):
        assert conforms(INT, FLOAT)
        assert not conforms(FLOAT, INT)

    def test_seq_covariance(self):
        assert conforms(SeqType(INT), SeqType(FLOAT))
        assert not conforms(SeqType(FLOAT), SeqType(INT))

    def test_record_width_subtyping(self):
        wide = RecordType({"x": INT, "y": STR})
        narrow = RecordType({"x": INT})
        assert conforms(wide, narrow)
        assert not conforms(narrow, wide)

    def test_record_depth_subtyping(self):
        a = RecordType({"x": INT})
        b = RecordType({"x": FLOAT})
        assert conforms(a, b)
        assert not conforms(b, a)


class TestSignatureBasics:
    def test_duplicate_operations_rejected(self):
        with pytest.raises(SignatureError):
            sig("S", op("f"), op("f"))

    def test_duplicate_terminations_rejected(self):
        with pytest.raises(SignatureError):
            OperationSig("f", (), [TerminationSig("ok"),
                                   TerminationSig("ok")])

    def test_announcement_cannot_carry_results(self):
        with pytest.raises(SignatureError):
            OperationSig("f", (), [TerminationSig("ok", [INT])],
                         announcement=True)

    def test_unknown_operation_lookup(self):
        with pytest.raises(SignatureError):
            sig("S", op("f")).operation("nope")

    def test_equality_is_structural_not_nominal(self):
        a = sig("NameA", op("f", [INT], [INT]))
        b = sig("NameB", op("f", [INT], [INT]))
        assert a == b


class TestSignatureConformance:
    def test_extra_operations_allowed(self):
        provided = sig("P", op("f"), op("extra"))
        required = sig("R", op("f"))
        assert signature_conforms(provided, required)
        assert not signature_conforms(required, provided)

    def test_missing_operation_reported(self):
        reasons = explain_mismatch(sig("P", op("f")),
                                   sig("R", op("f"), op("g")))
        assert any("missing operation 'g'" in r for r in reasons)

    def test_param_contravariance(self):
        # Server accepting float can serve a client sending int.
        provided = sig("P", op("f", [FLOAT]))
        required = sig("R", op("f", [INT]))
        assert signature_conforms(provided, required)
        assert not signature_conforms(required, provided)

    def test_result_covariance(self):
        provided = sig("P", op("f", (), [INT]))
        required = sig("R", op("f", (), [FLOAT]))
        assert signature_conforms(provided, required)
        assert not signature_conforms(required, provided)

    def test_arity_mismatch(self):
        reasons = explain_mismatch(sig("P", op("f", [INT, INT])),
                                   sig("R", op("f", [INT])))
        assert any("arity" in r for r in reasons)

    def test_server_extra_termination_rejected(self):
        # Server may produce an outcome the client does not expect.
        provided = sig("P", op("f", (), (), [TerminationSig("oops")]))
        required = sig("R", op("f"))
        assert not signature_conforms(provided, required)

    def test_client_tolerating_more_terminations_is_fine(self):
        provided = sig("P", op("f"))
        required = sig("R", op("f", (), (), [TerminationSig("oops")]))
        assert signature_conforms(provided, required)

    def test_announcement_mismatch(self):
        provided = sig("P", op("f", announcement=True))
        required = sig("R", op("f"))
        assert not signature_conforms(provided, required)

    def test_kind_mismatch(self):
        provided = InterfaceSignature("P", [op("f", announcement=True)],
                                      kind=STREAM)
        required = sig("R", op("f", announcement=True))
        assert not signature_conforms(provided, required)

    def test_ref_type_conformance_is_recursive(self):
        inner_wide = sig("W", op("f"), op("g"))
        inner_narrow = sig("N", op("f"))
        provided = sig("P", op("h", [RefType(inner_narrow)]))
        required = sig("R", op("h", [RefType(inner_wide)]))
        # Contravariance: server accepting a narrow ref serves clients
        # sending wide refs.
        assert signature_conforms(provided, required)
        assert not signature_conforms(required, provided)
