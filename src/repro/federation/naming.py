"""Context-relative naming (paper section 6).

"Federation requires cross linking of autonomous traders: such a structure
is inevitably an arbitrary graph, and therefore names are potentially
ambiguous, since their meaning depends upon where they are interpreted:
there is no canonical root.  The ambiguity can be overcome by extending
names with information about how to get back to their defining context."

The name that crosses boundaries in this system is the interface
reference itself: :attr:`InterfaceRef.context` is the path back to its
defining context, :attr:`InterfaceRef.home_domain` the outermost entry,
and ``Federation.domain_of_ref`` / ``route`` resolve it from wherever it
is interpreted.  :func:`annotate_refs` is the boundary rule that extends
the path: when values cross out of a domain, any interface reference
defined in that domain gets the domain prepended to its context path.
"""

from __future__ import annotations

from typing import Any

from repro.comp.outcomes import Termination
from repro.comp.reference import InterfaceRef
from repro.util.freeze import FrozenRecord


def annotate_refs(value: Any, domain_name: str,
                  defined_here) -> Any:
    """Prefix *domain_name* onto refs defined in this domain.

    Applied to arguments and results as they cross a domain boundary.
    ``defined_here(ref)`` decides whether the reference's defining context
    is this domain (only those need annotating — "contextual information
    only has to be added to names that cross the borders").
    Returns a structurally identical value.
    """
    if isinstance(value, InterfaceRef):
        if defined_here(value):
            return value.prefixed_context(domain_name)
        return value
    if isinstance(value, Termination):
        return Termination(
            value.name,
            tuple(annotate_refs(v, domain_name, defined_here)
                  for v in value.values))
    if isinstance(value, tuple):
        return tuple(annotate_refs(v, domain_name, defined_here)
                     for v in value)
    if isinstance(value, list):
        return [annotate_refs(v, domain_name, defined_here) for v in value]
    if isinstance(value, FrozenRecord):
        return FrozenRecord({k: annotate_refs(v, domain_name, defined_here)
                             for k, v in value.items()})
    if isinstance(value, dict):
        return {k: annotate_refs(v, domain_name, defined_here)
                for k, v in value.items()}
    return value
