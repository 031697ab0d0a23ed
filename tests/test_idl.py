"""Tests for the IDL: parsing, constraints, conformance, codegen."""

import pytest

from repro import OdpObject, operation
from repro.errors import TypeCheckError
from repro.idl import (
    IdlError,
    check_implements,
    generate_skeleton,
    implements,
    parse_idl,
)
from repro.recovery.checkpoint import checkpoint_key
from repro.types.terms import INT, RecordType, RefType, SeqType, STR

ACCOUNT_IDL = """
// A bank account, as the computational language would declare it.
interface Account requires concurrency, failure(checkpoint_every=5) {
    deposit(amount: int) -> (int);
    withdraw(amount: int) -> (int) | overdrawn(int) | invalid();
    readonly balance_of() -> (int);
    announcement note(message: str);
}
"""


class TestParsing:
    def test_basic_document(self):
        doc = parse_idl(ACCOUNT_IDL)
        assert doc.interfaces == ["Account"]
        signature = doc["Account"]
        assert signature.operation_names() == \
               ("balance_of", "deposit", "note", "withdraw")

    def test_operation_details(self):
        signature = parse_idl(ACCOUNT_IDL)["Account"]
        withdraw = signature.operation("withdraw")
        assert withdraw.params == (INT,)
        assert withdraw.termination_names() == ("ok", "overdrawn",
                                                "invalid")
        assert withdraw.termination("overdrawn").results == (INT,)
        assert signature.operation("balance_of").readonly
        assert signature.operation("note").announcement

    def test_constraint_clause(self):
        doc = parse_idl(ACCOUNT_IDL)
        constraints = doc.constraints("Account")
        assert constraints.concurrency
        assert constraints.failure.checkpoint_every == 5
        assert "concurrency" in constraints.selected()

    def test_no_requires_gives_default(self):
        doc = parse_idl("interface T { f(); }")
        assert doc.constraints("T").selected() == \
               ("location", "federation")

    def test_security_and_shortcut_requirements(self):
        doc = parse_idl("""
            interface Vault requires security(policy='vault',
                                              audit=true),
                                     no_local_shortcut {
                open(code: str) -> (bool);
            }
        """)
        constraints = doc.constraints("Vault")
        assert constraints.security.policy == "vault"
        assert constraints.security.audit is True
        assert not constraints.allow_local_shortcut

    def test_complex_types(self):
        doc = parse_idl("""
            interface Directory {
                entries() -> (seq<record{name: str, size: int}>);
            }
        """)
        op = doc["Directory"].operation("entries")
        expected = SeqType(RecordType({"name": STR, "size": INT}))
        assert op.termination("ok").results == (expected,)

    def test_ref_types_reference_earlier_interfaces(self):
        doc = parse_idl("""
            interface Printer { submit(doc: str) -> (int); }
            interface Registry {
                find(name: str) -> (ref<Printer>);
            }
        """)
        result = doc["Registry"].operation("find").termination("ok")
        assert isinstance(result.results[0], RefType)
        assert result.results[0].signature == doc["Printer"]

    def test_forward_ref_rejected(self):
        with pytest.raises(IdlError, match="not declared"):
            parse_idl("""
                interface Registry { find() -> (ref<Printer>); }
                interface Printer { submit(doc: str); }
            """)

    def test_multiple_interfaces_and_comments(self):
        doc = parse_idl("""
            # hash comments too
            interface A { f(); }
            interface B { g(x: float) -> (float); }
        """)
        assert doc.interfaces == ["A", "B"]

    @pytest.mark.parametrize("bad, message", [
        ("interface { f(); }", "expected a name"),
        ("interface T { f() }", "expected ';'"),
        ("interface T { f(x int); }", "expected ':'"),
        ("interface T { f(x: wibble); }", "unknown type"),
        ("interface T requires levitation { f(); }",
         "unknown transparency requirement"),
        ("interface T requires failure(bogus_knob=3) { f(); }",
         "bad parameters"),
        ("interface T { announcement f() -> (int); }",
         "cannot declare results"),
        ("interface T { f(); } interface T { g(); }", "duplicate"),
    ])
    def test_errors(self, bad, message):
        with pytest.raises(IdlError, match=message):
            parse_idl(bad)


class TestImplements:
    def signature(self):
        return parse_idl(ACCOUNT_IDL)["Account"]

    def test_conforming_class_passes(self):
        declared = self.signature()

        @implements(declared)
        class GoodAccount(OdpObject):
            @operation(params=[int], returns=[int])
            def deposit(self, amount):
                return amount

            @operation(params=[int], returns=[int],
                       errors={"overdrawn": [int], "invalid": []})
            def withdraw(self, amount):
                return amount

            @operation(returns=[int], readonly=True)
            def balance_of(self):
                return 0

            @operation(params=[str], announcement=True)
            def note(self, message):
                pass

        assert GoodAccount.__odp_implements__ == declared

    def test_missing_operation_fails_at_class_definition(self):
        declared = self.signature()
        with pytest.raises(TypeCheckError, match="missing operation"):
            @implements(declared)
            class Partial(OdpObject):
                @operation(params=[int], returns=[int])
                def deposit(self, amount):
                    return amount

    def test_readonly_mismatch_detected(self):
        doc = parse_idl("interface T { readonly peek() -> (int); }")

        class Writer(OdpObject):
            @operation(returns=[int])  # not marked readonly
            def peek(self):
                return 0

        problems = check_implements(Writer, doc["T"])
        assert any("readonly" in p for p in problems)

    def test_extra_operations_are_fine(self):
        doc = parse_idl("interface T { f(); }")

        @implements(doc["T"])
        class Wide(OdpObject):
            @operation()
            def f(self):
                pass

            @operation()
            def extra(self):
                pass


class TestSkeletonGeneration:
    def test_generated_skeleton_conforms(self):
        declared = parse_idl(ACCOUNT_IDL)["Account"]
        source = generate_skeleton(declared, "GeneratedAccount")
        namespace = {}
        exec(compile(source, "<skeleton>", "exec"), namespace)
        cls = namespace["GeneratedAccount"]
        assert check_implements(cls, declared) == []

    def test_skeleton_methods_raise_until_filled(self):
        declared = parse_idl("interface T { f() -> (int); }")["T"]
        source = generate_skeleton(declared)
        namespace = {}
        exec(compile(source, "<skeleton>", "exec"), namespace)
        with pytest.raises(NotImplementedError):
            namespace["TSkeleton"]().f()

    def test_end_to_end_idl_to_deployment(self, single_domain):
        """Spec -> skeleton -> implementation -> constrained export."""
        world, domain, servers, clients = single_domain
        doc = parse_idl(ACCOUNT_IDL)
        declared = doc["Account"]

        @implements(declared)
        class Impl(OdpObject):
            def __init__(self):
                self.balance = 0

            @operation(params=[int], returns=[int])
            def deposit(self, amount):
                self.balance += amount
                return self.balance

            @operation(params=[int], returns=[int],
                       errors={"overdrawn": [int], "invalid": []})
            def withdraw(self, amount):
                self.balance -= amount
                return self.balance

            @operation(returns=[int], readonly=True)
            def balance_of(self):
                return self.balance

            @operation(params=[str], announcement=True)
            def note(self, message):
                pass

        # The IDL's requires-clause drives the export.
        ref = servers.export(Impl(),
                             constraints=doc.constraints("Account"))
        interface = servers.interfaces[ref.interface_id]
        from repro.transparency.access import describe_server_stack
        assert "concurrency" in describe_server_stack(interface)
        assert "failure" in describe_server_stack(interface)

        proxy = world.binder_for(clients).bind(ref, required=declared)
        assert proxy.deposit(10) == 10
        assert domain.repository.contains(
            checkpoint_key(ref.interface_id))
