"""Structural conformance checking.

The rule (section 5.1): "if the interface type includes the operations
required by the client (with appropriate arguments and outcomes) it is
suitable."  Concretely, signature P (provided) conforms to signature R
(required) when, for every operation in R:

* P offers an operation of the same name and arity,
* each parameter type is **contravariant** (P must accept at least what the
  client will send: R's param conforms to P's param),
* every termination P can produce is one R expects (name subset), and each
  result type is **covariant** (what P returns conforms to what the client
  will handle),
* announcement-ness matches (a client expecting a reply cannot use a
  request-only operation and vice versa).

P may offer *extra* operations — that is exactly the width subtyping that
lets systems evolve without breaking old clients.
"""

from __future__ import annotations

from typing import List, Optional

from repro.types.signature import InterfaceSignature, OperationSig
from repro.types.terms import (
    ANY,
    FLOAT,
    INT,
    RecordType,
    RefType,
    SeqType,
    TypeTerm,
)


def conforms(provided: TypeTerm, required: TypeTerm) -> bool:
    """True when a value of type *provided* is usable as *required*."""
    if required is ANY:
        return True
    if provided is ANY:
        # An 'any' source can only flow into an 'any' sink safely.
        return required is ANY
    if provided == required:
        return True
    # Numeric widening: an int ADT value behaves as a float ADT value.
    if provided is INT and required is FLOAT:
        return True
    if isinstance(provided, SeqType) and isinstance(required, SeqType):
        return conforms(provided.element, required.element)
    if isinstance(provided, RecordType) and isinstance(required, RecordType):
        have = dict(provided.fields)
        for name, req_term in required.fields:
            if name not in have or not conforms(have[name], req_term):
                return False
        return True  # width subtyping: extra fields are fine
    if isinstance(provided, RefType) and isinstance(required, RefType):
        return signature_conforms(provided.signature, required.signature)
    return False


def _operation_conforms(provided: OperationSig,
                        required: OperationSig) -> Optional[str]:
    """None when compatible, else a human-readable reason."""
    if provided.announcement != required.announcement:
        return (f"operation {required.name!r}: announcement/interrogation "
                f"mismatch")
    if len(provided.params) != len(required.params):
        return (f"operation {required.name!r}: arity {len(provided.params)} "
                f"!= required {len(required.params)}")
    for index, (p_term, r_term) in enumerate(
            zip(provided.params, required.params)):
        if not conforms(r_term, p_term):  # contravariant
            return (f"operation {required.name!r} param {index}: client "
                    f"sends {r_term!r} but server accepts {p_term!r}")
    expected = {t.name: t for t in required.terminations}
    for term in provided.terminations:
        if term.name not in expected:
            return (f"operation {required.name!r}: server may produce "
                    f"unexpected termination {term.name!r}")
        want = expected[term.name]
        if len(term.results) != len(want.results):
            return (f"operation {required.name!r} termination "
                    f"{term.name!r}: result arity mismatch")
        for index, (p_res, r_res) in enumerate(
                zip(term.results, want.results)):
            if not conforms(p_res, r_res):  # covariant
                return (f"operation {required.name!r} termination "
                        f"{term.name!r} result {index}: {p_res!r} does not "
                        f"conform to {r_res!r}")
    return None


def explain_mismatch(provided: InterfaceSignature,
                     required: InterfaceSignature) -> List[str]:
    """All reasons *provided* fails to conform to *required* (empty = ok)."""
    reasons: List[str] = []
    if provided.kind != required.kind:
        reasons.append(
            f"interface kind {provided.kind!r} != {required.kind!r}")
        return reasons
    for name, req_op in required.operations.items():
        prov_op = provided.operations.get(name)
        if prov_op is None:
            reasons.append(f"missing operation {name!r}")
            continue
        problem = _operation_conforms(prov_op, req_op)
        if problem is not None:
            reasons.append(problem)
    return reasons


def signature_conforms(provided: InterfaceSignature,
                       required: InterfaceSignature) -> bool:
    """True when *provided* can stand in for *required*."""
    return not explain_mismatch(provided, required)
