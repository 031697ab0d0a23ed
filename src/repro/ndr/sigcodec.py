"""Serialising interface signatures.

Interface references travel with their full signature so that type checks
happen at bind time on the client (no extra round trip) and traders can
match structurally (section 6).  This module converts signatures and type
terms to/from the plain-object model understood by every wire format.
"""

from __future__ import annotations

from typing import Any, Dict
from weakref import WeakKeyDictionary

from repro.errors import MarshalError, SignatureError
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

_PRIM_BY_LABEL = {t.label: t for t in (ANY, VOID, BOOL, INT, FLOAT, STR,
                                       BYTES)}


def term_to_obj(term: TypeTerm) -> Any:
    if term.label in _PRIM_BY_LABEL:
        return term.label
    if isinstance(term, SeqType):
        return {"seq": term_to_obj(term.element)}
    if isinstance(term, RecordType):
        return {"rec": {name: term_to_obj(t) for name, t in term.fields}}
    if isinstance(term, RefType):
        return {"ref": signature_to_obj(term.signature)}
    raise MarshalError(f"cannot serialise type term {term!r}")


def term_from_obj(obj: Any) -> TypeTerm:
    if isinstance(obj, str):
        try:
            return _PRIM_BY_LABEL[obj]
        except KeyError:
            raise MarshalError(f"unknown primitive label {obj!r}") from None
    if isinstance(obj, dict):
        if "seq" in obj:
            return SeqType(term_from_obj(obj["seq"]))
        if "rec" in obj:
            return RecordType({name: term_from_obj(t)
                               for name, t in obj["rec"].items()})
        if "ref" in obj:
            return RefType(signature_from_obj(obj["ref"]))
    raise MarshalError(f"malformed type term object {obj!r}")


#: Memoised plain-object forms, keyed weakly by the signature instance.
#: Signatures are immutable after construction and every exported ref of
#: one interface shares the same instance, so serialising the (deeply
#: recursive) signature tree once per interface instead of once per
#: marshalled reference is pure saving.  Entries die with the signature.
#: Callers must treat the returned tree as read-only, which every wire
#: format does (dumps never mutates its input).
_SIG_OBJ_CACHE: "WeakKeyDictionary[InterfaceSignature, Dict[str, Any]]" = \
    WeakKeyDictionary()


def signature_to_obj(signature: InterfaceSignature) -> Dict[str, Any]:
    try:
        cached = _SIG_OBJ_CACHE.get(signature)
    except TypeError:  # unhashable/exotic signature stand-in: no memo
        cached = None
    if cached is not None:
        return cached
    obj = _signature_to_obj(signature)
    try:
        _SIG_OBJ_CACHE[signature] = obj
    except TypeError:
        pass
    return obj


def _signature_to_obj(signature: InterfaceSignature) -> Dict[str, Any]:
    return {
        "name": signature.name,
        "kind": signature.kind,
        "ops": [
            {
                "name": op.name,
                "announcement": op.announcement,
                "readonly": op.readonly,
                "params": [term_to_obj(p) for p in op.params],
                "terms": [
                    {"name": t.name,
                     "results": [term_to_obj(r) for r in t.results]}
                    for t in op.terminations
                ],
            }
            for _, op in sorted(signature.operations.items())
        ],
    }


def signature_from_obj(obj: Dict[str, Any]) -> InterfaceSignature:
    try:
        operations = []
        for op in obj["ops"]:
            terminations = [
                TerminationSig(t["name"],
                               [term_from_obj(r) for r in t["results"]])
                for t in op["terms"]
            ]
            operations.append(OperationSig(
                op["name"],
                [term_from_obj(p) for p in op["params"]],
                terminations,
                announcement=op["announcement"],
                readonly=op.get("readonly", False),
            ))
        return InterfaceSignature(obj["name"], operations, kind=obj["kind"])
    except (KeyError, TypeError, SignatureError) as exc:
        raise MarshalError(f"malformed signature object: {exc}") from exc
