"""The IDL parser.

Hand-written tokenizer + recursive descent.  Grammar (``//`` and ``#``
start comments; strings are single-quoted)::

    document    := interface*
    interface   := 'interface' NAME [ 'requires' req (',' req)* ]
                   '{' operation* '}'
    req         := NAME [ '(' NAME '=' literal (',' NAME '=' literal)* ')' ]
    operation   := ('readonly' | 'announcement')* NAME
                   '(' [ param (',' param)* ] ')' [ result ] ';'
    param       := NAME ':' type
    result      := '->' '(' [typelist] ')' ( '|' NAME '(' [typelist] ')' )*
    type        := 'int' | 'float' | 'str' | 'bool' | 'bytes' | 'any'
                 | 'seq' '<' type '>'
                 | 'record' '{' NAME ':' type (',' NAME ':' type)* '}'
                 | 'ref' '<' NAME '>'       -- a previously declared interface
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.comp.constraints import (
    EnvironmentConstraints,
    FailureSpec,
    ReplicationSpec,
    SecuritySpec,
)
from repro.errors import OdpError
from repro.types.signature import (
    InterfaceSignature,
    OperationSig,
    TerminationSig,
)
from repro.types.terms import (
    ANY,
    BOOL,
    BYTES,
    FLOAT,
    INT,
    RecordType,
    RefType,
    SeqType,
    STR,
    TypeTerm,
    VOID,
)


class IdlError(OdpError):
    """A syntax or semantic error in an interface specification."""


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>'[^']*')
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}()<>|,;:=])
""", re.VERBOSE)

_PRIMITIVES: Dict[str, TypeTerm] = {
    "int": INT, "float": FLOAT, "str": STR, "bool": BOOL,
    "bytes": BYTES, "any": ANY, "void": VOID,
}

_KEYWORDS = {"interface", "requires", "readonly", "announcement",
             "seq", "record", "ref", "true", "false"}


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    line = 1
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise IdlError(
                f"line {line}: unexpected character {text[position]!r}")
        kind = match.lastgroup
        value = match.group()
        line += value.count("\n")
        position = match.end()
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, value, line))
    tokens.append(("eof", "", line))
    return tokens


class IdlDocument:
    """The result of parsing: named interfaces plus their constraints."""

    def __init__(self) -> None:
        self._signatures: Dict[str, InterfaceSignature] = {}
        self._constraints: Dict[str, EnvironmentConstraints] = {}

    def add(self, name: str, signature: InterfaceSignature,
            constraints: EnvironmentConstraints) -> None:
        if name in self._signatures:
            raise IdlError(f"duplicate interface {name!r}")
        self._signatures[name] = signature
        self._constraints[name] = constraints

    def __getitem__(self, name: str) -> InterfaceSignature:
        try:
            return self._signatures[name]
        except KeyError:
            raise IdlError(f"no interface {name!r} in document") from None

    def constraints(self, name: str) -> EnvironmentConstraints:
        self[name]  # existence check
        return self._constraints[name]

    @property
    def interfaces(self) -> List[str]:
        return sorted(self._signatures)


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str, int]]) -> None:
        self.tokens = tokens
        self.index = 0
        self.document = IdlDocument()

    # -- plumbing ------------------------------------------------------------

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> Tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, message: str) -> None:
        kind, value, line = self.peek()
        raise IdlError(f"line {line}: {message} (found {value!r})")

    def expect_punct(self, char: str) -> None:
        kind, value, _ = self.advance()
        if kind != "punct" or value != char:
            self.index -= 1
            self.fail(f"expected {char!r}")

    def expect_name(self) -> str:
        kind, value, _ = self.advance()
        if kind != "name":
            self.index -= 1
            self.fail("expected a name")
        return value

    def at_punct(self, char: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "punct" and value == char

    def at_name(self, word: Optional[str] = None) -> bool:
        kind, value, _ = self.peek()
        return kind == "name" and (word is None or value == word)

    # -- grammar --------------------------------------------------------------

    def parse(self) -> IdlDocument:
        while not self.peek()[0] == "eof":
            if not self.at_name("interface"):
                self.fail("expected 'interface'")
            self.advance()
            self._interface()
        return self.document

    def _interface(self) -> None:
        name = self.expect_name()
        constraints = EnvironmentConstraints.DEFAULT
        if self.at_name("requires"):
            self.advance()
            constraints = self._requirements()
        self.expect_punct("{")
        operations = []
        while not self.at_punct("}"):
            operations.append(self._operation())
        self.expect_punct("}")
        signature = InterfaceSignature(name, operations)
        self.document.add(name, signature, constraints)

    def _requirements(self) -> EnvironmentConstraints:
        selections: Dict[str, Any] = {}
        while True:
            req_name = self.expect_name()
            kwargs: Dict[str, Any] = {}
            if self.at_punct("("):
                self.advance()
                while not self.at_punct(")"):
                    key = self.expect_name()
                    self.expect_punct("=")
                    kwargs[key] = self._literal()
                    if self.at_punct(","):
                        self.advance()
                self.expect_punct(")")
            self._apply_requirement(selections, req_name, kwargs)
            if self.at_punct(","):
                self.advance()
                continue
            break
        return EnvironmentConstraints(**selections)

    def _apply_requirement(self, selections: Dict[str, Any],
                           name: str, kwargs: Dict[str, Any]) -> None:
        try:
            if name in ("concurrency", "location", "migration",
                        "resource", "federation"):
                selections[name] = True
            elif name == "no_local_shortcut":
                selections["allow_local_shortcut"] = False
            elif name == "failure":
                selections["failure"] = FailureSpec(**kwargs)
            elif name == "security":
                selections["security"] = SecuritySpec(**kwargs)
            elif name == "replication":
                selections["replication"] = ReplicationSpec(**kwargs)
            else:
                raise IdlError(
                    f"unknown transparency requirement {name!r}")
        except TypeError as exc:
            raise IdlError(
                f"bad parameters for requirement {name!r}: {exc}") from exc

    def _literal(self) -> Any:
        kind, value, _ = self.advance()
        if kind == "number":
            return float(value) if "." in value else int(value)
        if kind == "string":
            return value[1:-1]
        if kind == "name" and value in ("true", "false"):
            return value == "true"
        self.index -= 1
        self.fail("expected a literal")

    def _operation(self) -> OperationSig:
        readonly = False
        announcement = False
        while self.at_name("readonly") or self.at_name("announcement"):
            word = self.advance()[1]
            if word == "readonly":
                readonly = True
            else:
                announcement = True
        name = self.expect_name()
        self.expect_punct("(")
        params: List[TypeTerm] = []
        while not self.at_punct(")"):
            self.expect_name()  # parameter name: documentation only
            self.expect_punct(":")
            params.append(self._type())
            if self.at_punct(","):
                self.advance()
        self.expect_punct(")")

        terminations: Optional[List[TerminationSig]] = None
        if self.peek()[0] == "arrow":
            if announcement:
                self.fail("announcement operations cannot declare results")
            self.advance()
            terminations = [TerminationSig("ok", self._result_group())]
            while self.at_punct("|"):
                self.advance()
                term_name = self.expect_name()
                terminations.append(
                    TerminationSig(term_name, self._result_group()))
        self.expect_punct(";")
        return OperationSig(name, params, terminations,
                            announcement=announcement, readonly=readonly)

    def _result_group(self) -> List[TypeTerm]:
        self.expect_punct("(")
        results: List[TypeTerm] = []
        while not self.at_punct(")"):
            results.append(self._type())
            if self.at_punct(","):
                self.advance()
        self.expect_punct(")")
        return results

    def _type(self) -> TypeTerm:
        kind, value, _ = self.peek()
        if kind != "name":
            self.fail("expected a type")
        self.advance()
        if value in _PRIMITIVES:
            return _PRIMITIVES[value]
        if value == "seq":
            self.expect_punct("<")
            element = self._type()
            self.expect_punct(">")
            return SeqType(element)
        if value == "record":
            self.expect_punct("{")
            fields: Dict[str, TypeTerm] = {}
            while not self.at_punct("}"):
                field_name = self.expect_name()
                self.expect_punct(":")
                fields[field_name] = self._type()
                if self.at_punct(","):
                    self.advance()
            self.expect_punct("}")
            return RecordType(fields)
        if value == "ref":
            self.expect_punct("<")
            target = self.expect_name()
            self.expect_punct(">")
            try:
                return RefType(self.document[target])
            except IdlError:
                raise IdlError(
                    f"ref<{target}>: interface {target!r} not declared "
                    f"earlier in the document") from None
        raise IdlError(f"unknown type {value!r}")


def parse_idl(text: str) -> IdlDocument:
    """Parse an interface-specification document."""
    return _Parser(_tokenize(text)).parse()
