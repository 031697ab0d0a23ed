"""Interface signatures.

Section 5.1 requires that each operation "be permitted to have a range of
possible outcomes, each one of which carries its own package of results" —
so an operation signature is a set of named *terminations*, each with its
own result types, rather than a single return type.  Interfaces come in two
kinds: OPERATIONAL (ADT operations) and STREAM (continuous flows, section
7.2), which share trading and reference-passing but not invocation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.errors import SignatureError
from repro.types.terms import TypeTerm, parse_type

OPERATIONAL = "operational"
STREAM = "stream"

#: Name of the conventional success termination.
OK = "ok"


class TerminationSig:
    """One possible outcome of an operation, with typed results."""

    def __init__(self, name: str, results: Iterable = ()) -> None:
        if not name or not isinstance(name, str):
            raise SignatureError("termination name must be a non-empty str")
        self.name = name
        self.results: Tuple[TypeTerm, ...] = tuple(
            parse_type(r) for r in results)

    def __repr__(self) -> str:
        inner = ", ".join(repr(r) for r in self.results)
        return f"{self.name}({inner})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, TerminationSig)
                and self.name == other.name
                and self.results == other.results)

    def __hash__(self) -> int:
        return hash((self.name, self.results))


class OperationSig:
    """A named operation: parameter types plus its set of terminations."""

    def __init__(self, name: str, params: Iterable = (),
                 terminations: Optional[Iterable[TerminationSig]] = None,
                 announcement: bool = False,
                 readonly: bool = False) -> None:
        if not name or not isinstance(name, str):
            raise SignatureError("operation name must be a non-empty str")
        self.name = name
        #: Engineering annotation (not part of structural identity): a
        #: read-only operation takes shared rather than exclusive locks
        #: under concurrency transparency (a "separation constraint",
        #: section 5.2).
        self.readonly = readonly
        self.params: Tuple[TypeTerm, ...] = tuple(
            parse_type(p) for p in params)
        terms = tuple(terminations) if terminations else (
            TerminationSig(OK, ()),)
        names = [t.name for t in terms]
        if len(set(names)) != len(names):
            raise SignatureError(
                f"duplicate termination names in operation {name!r}")
        self.terminations: Tuple[TerminationSig, ...] = terms
        #: True for request-only (Announcement) operations: no reply at all,
        #: so exactly one result-less termination is permitted.
        self.announcement = announcement
        if announcement:
            if len(terms) != 1 or terms[0].results:
                raise SignatureError(
                    f"announcement operation {name!r} cannot carry results")

    def termination(self, name: str) -> TerminationSig:
        for term in self.terminations:
            if term.name == name:
                return term
        raise SignatureError(
            f"operation {self.name!r} has no termination {name!r}")

    def termination_names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.terminations)

    def __repr__(self) -> str:
        params = ", ".join(repr(p) for p in self.params)
        terms = " | ".join(repr(t) for t in self.terminations)
        prefix = "announcement " if self.announcement else ""
        return f"{prefix}{self.name}({params}) -> {terms}"

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperationSig)
                and self.name == other.name
                and self.params == other.params
                and self.terminations == other.terminations
                and self.announcement == other.announcement)

    def __hash__(self) -> int:
        return hash((self.name, self.params, self.terminations,
                     self.announcement))


class InterfaceSignature:
    """The set of operations offered at one interface.

    ``name`` is documentation only — conformance never consults it
    (signature checking is structural).
    """

    def __init__(self, name: str,
                 operations: Iterable[OperationSig] = (),
                 kind: str = OPERATIONAL) -> None:
        if kind not in (OPERATIONAL, STREAM):
            raise SignatureError(f"unknown interface kind {kind!r}")
        self.name = name
        self.kind = kind
        ops: Dict[str, OperationSig] = {}
        for op in operations:
            if op.name in ops:
                raise SignatureError(f"duplicate operation {op.name!r}")
            ops[op.name] = op
        self.operations: Dict[str, OperationSig] = ops

    def operation(self, name: str) -> OperationSig:
        try:
            return self.operations[name]
        except KeyError:
            raise SignatureError(
                f"interface {self.name!r} has no operation {name!r}"
            ) from None

    def operation_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.operations))

    def describe(self) -> str:
        ops = ";".join(repr(self.operations[n])
                       for n in self.operation_names())
        return f"{self.kind}:{{{ops}}}"

    def __repr__(self) -> str:
        return f"InterfaceSignature({self.name!r}, {len(self.operations)} ops)"

    def __eq__(self, other) -> bool:
        return (isinstance(other, InterfaceSignature)
                and self.kind == other.kind
                and self.operations == other.operations)

    def __hash__(self) -> int:
        return hash((self.kind, tuple(sorted(self.operations.items(),
                                             key=lambda kv: kv[0]))))
