"""C13 — Ablation: structural vs name-based type checking (§5.1).

The paper's design choice: "type checking [must] be based on interface
signature checking ... (The alternative is to name types and declare
type name hierarchies; however this fails to meet the requirements for
federation and evolution.)"

This ablation implements the rejected alternative — a nominal checker
over declared name hierarchies — and runs both checkers over an
evolution/federation scenario:

  v1      the original service,
  v2      adds an operation (compatible evolution),
  v3      widens a parameter int -> float (compatible evolution),
  foreign an independent organisation's reimplementation under its own
          type name (federation),
  broken  drops an operation (incompatible — must be rejected).

Expected shape: structural accepts v2, v3 and foreign and rejects
broken; nominal accepts only what shares a registered name lineage, so
it rejects the foreign implementation (and the evolutions, until every
organisation's registry is updated in lockstep — the coordination the
paper says cannot be assumed).
"""

from typing import Dict, Set, Tuple

from repro import OdpObject, operation, signature_of
from repro.types.conformance import signature_conforms


# --- the rejected alternative: a nominal checker -----------------------------

class NominalChecker:
    """Type-name equality plus declared subtype edges."""

    def __init__(self) -> None:
        self._edges: Dict[str, Set[str]] = {}

    def declare_subtype(self, sub: str, sup: str) -> None:
        self._edges.setdefault(sub, set()).add(sup)

    def conforms(self, provided_name: str, required_name: str) -> bool:
        if provided_name == required_name:
            return True
        seen = set()
        frontier = [provided_name]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for sup in self._edges.get(name, ()):
                if sup == required_name:
                    return True
                frontier.append(sup)
        return False


# --- the evolution/federation scenario ----------------------------------------

class PrinterV1(OdpObject):
    @operation(params=[str], returns=[int])
    def submit(self, document):
        return 1

    @operation(returns=[int], readonly=True)
    def queue_length(self):
        return 0


class PrinterV2(PrinterV1):
    """Evolution: adds an operation."""

    @operation(params=[int])
    def cancel(self, job_id):
        pass


class PrinterV3(OdpObject):
    """Evolution: widens a parameter type (int job ids -> float)."""

    @operation(params=[str], returns=[int])
    def submit(self, document):
        return 1

    @operation(returns=[int], readonly=True)
    def queue_length(self):
        return 0

    @operation(params=[float])
    def cancel(self, job_id):
        pass


class DruckDienst(OdpObject):
    """A foreign organisation's independent reimplementation."""

    @operation(params=[str], returns=[int])
    def submit(self, document):
        return 1

    @operation(returns=[int], readonly=True)
    def queue_length(self):
        return 0


class BrokenPrinter(OdpObject):
    """Incompatible: drops queue_length."""

    @operation(params=[str], returns=[int])
    def submit(self, document):
        return 1


CASES: Tuple[Tuple[str, type], ...] = (
    ("v2 adds operation", PrinterV2),
    ("v3 widens parameter", PrinterV3),
    ("foreign reimplementation", DruckDienst),
    ("broken (drops operation)", BrokenPrinter),
)


def claim():
    required = signature_of(PrinterV1)

    # The nominal world: only PrinterV2 was registered as a subtype of
    # PrinterV1 (by the one organisation that owns both names).  V3 and
    # the foreign service have no registered lineage — realistically,
    # since "there is no canonical root" across a federation.
    nominal = NominalChecker()
    nominal.declare_subtype("PrinterV2", "PrinterV1")

    verdicts = {}
    for label, cls in CASES:
        provided = signature_of(cls)
        structural = signature_conforms(provided, required)
        named = nominal.conforms(cls.__name__, "PrinterV1")
        verdicts[label] = (structural, named)

    # The claim's shape.
    assert verdicts["v2 adds operation"] == (True, True)
    assert verdicts["v3 widens parameter"][0] is True
    assert verdicts["v3 widens parameter"][1] is False
    assert verdicts["foreign reimplementation"][0] is True
    assert verdicts["foreign reimplementation"][1] is False
    assert verdicts["broken (drops operation)"] == (False, False)
    return {"structural / nominal accepts": verdicts}, {}
