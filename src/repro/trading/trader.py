"""The trader.

Offers live in named *partitions* ("the set of service offers should be
structured so that separately administered portions can be clearly
identified").  Import requests state a required type (signature or named
type) and a property constraint; matching is type-safe via the type
manager.  Traders federate by named links forming an arbitrary graph;
imports traverse links breadth-first up to a hop limit, and references
found in a foreign trader come back annotated with their defining domain
(context-relative naming, section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.comp.reference import InterfaceRef
from repro.errors import NoOfferError, TradingError, TypeCheckError
from repro.trading.offer import ServiceOffer
from repro.trading.query import PropertyQuery
from repro.trading.typemanager import TypeManager
from repro.types.signature import InterfaceSignature


@dataclass
class ImportReply:
    """One matched offer returned to an importer."""

    ref: InterfaceRef
    properties: Dict[str, Any]
    offer_id: str
    service_type: str
    #: Trader names traversed to find the offer (empty = local).
    via: Tuple[str, ...] = ()


class Trader:
    """One domain's service-offer database plus federation links."""

    def __init__(self, name: str, domain=None) -> None:
        self.name = name
        self.domain = domain
        self.types = TypeManager(name)
        self._partitions: Dict[str, Dict[str, ServiceOffer]] = {
            "public": {}}
        self._links: Dict[str, "Trader"] = {}
        self._offer_counter = 0
        self.exports = 0
        self.imports = 0
        self.link_traversals = 0

    # -- export -------------------------------------------------------------------

    def export(self, signature: InterfaceSignature, ref: InterfaceRef,
               properties: Optional[Dict[str, Any]] = None,
               service_type: Optional[str] = None,
               partition: str = "public",
               resource_hook: Optional[Callable] = None) -> str:
        """Advertise a service; returns the offer id."""
        self._offer_counter += 1
        offer_id = f"{self.name}.offer-{self._offer_counter}"
        type_name = service_type or signature.name
        if service_type is not None:
            self.types.register(service_type, signature)
        offer = ServiceOffer(
            offer_id=offer_id,
            service_type=type_name,
            signature=signature,
            ref=ref,
            properties=dict(properties or {}),
            resource_hook=resource_hook)
        self._partitions.setdefault(partition, {})[offer_id] = offer
        self.exports += 1
        return offer_id

    def withdraw(self, offer_id: str) -> None:
        for offers in self._partitions.values():
            offer = offers.pop(offer_id, None)
            if offer is not None:
                offer.withdrawn = True
                return
        raise TradingError(f"no offer {offer_id!r} in trader {self.name}")

    def partitions(self) -> List[str]:
        return sorted(self._partitions)

    def offer_count(self, partition: Optional[str] = None) -> int:
        if partition is not None:
            return len(self._partitions.get(partition, {}))
        return sum(len(v) for v in self._partitions.values())

    # -- federation links ------------------------------------------------------------

    def link(self, link_name: str, peer: "Trader") -> None:
        """Cross-link to an autonomous peer trader (arbitrary graph)."""
        if peer is self:
            raise TradingError("a trader cannot link to itself")
        self._links[link_name] = peer

    # -- import -------------------------------------------------------------------

    def import_service(self, required,
                       query: str = "",
                       partition: Optional[str] = None,
                       max_hops: int = 0,
                       limit: Optional[int] = None) -> List[ImportReply]:
        """Find offers conforming to *required* and matching *query*.

        ``max_hops`` > 0 lets the search traverse federated trader links
        breadth-first.  Results are deterministic: local offers first (in
        export order), then by traversal distance.  A type name raises
        ``TypeCheckError`` only if no searched trader knows it.
        """
        self.imports += 1
        constraint = (query if isinstance(query, PropertyQuery)
                      else PropertyQuery(query))
        # A type name is read by each searched trader's own type manager,
        # falling back to the importer's reading; a trader that knows
        # neither contributes no matches.
        named = isinstance(required, str)
        importer_sig = (self.types._types.get(required) if named
                        else self.types.resolve_requirement(required))
        known = importer_sig is not None
        replies: List[ImportReply] = []
        seen_traders: Set[int] = set()
        frontier: List[Tuple[Trader, Tuple[str, ...]]] = [(self, ())]
        seen_traders.add(id(self))
        hops = 0
        while frontier and (limit is None or len(replies) < limit):
            next_frontier: List[Tuple[Trader, Tuple[str, ...]]] = []
            for trader, via in frontier:
                required_sig = (trader.types._types.get(required,
                                                        importer_sig)
                                if named else importer_sig)
                if required_sig is not None:
                    known = True
                    replies.extend(
                        trader._match_local(required_sig, constraint,
                                            partition, via, self))
                for link_name, peer in sorted(trader._links.items()):
                    if id(peer) not in seen_traders:
                        seen_traders.add(id(peer))
                        self.link_traversals += 1
                        next_frontier.append((peer, via + (link_name,)))
            hops += 1
            if hops > max_hops:
                break
            frontier = next_frontier
        if not known:
            raise TypeCheckError(
                f"no trader searched from {self.name} has a type "
                f"{required!r}")
        if limit is not None:
            replies = replies[:limit]
        return replies

    def _match_local(self, required_sig: InterfaceSignature,
                     constraint: PropertyQuery,
                     partition: Optional[str],
                     via: Tuple[str, ...],
                     importer: "Trader") -> List[ImportReply]:
        partitions = ([partition] if partition is not None
                      else sorted(self._partitions))
        matched: List[ImportReply] = []
        for part in partitions:
            for offer_id in sorted(self._partitions.get(part, {})):
                offer = self._partitions[part][offer_id]
                if offer.withdrawn:
                    continue
                if not self.types.conforms(offer.signature, required_sig):
                    continue
                if not constraint.matches(offer.properties):
                    continue
                ref = offer.select()
                ref = self._annotate_for(importer, ref)
                matched.append(ImportReply(
                    ref=ref,
                    properties=dict(offer.properties),
                    offer_id=offer.offer_id,
                    service_type=offer.service_type,
                    via=via))
        return matched

    def _annotate_for(self, importer: "Trader",
                      ref: InterfaceRef) -> InterfaceRef:
        """Context-relative naming: annotate refs leaving our domain."""
        if importer is self or self.domain is None:
            return ref
        if importer.domain is not None and \
                importer.domain.name == self.domain.name:
            return ref
        if self.domain.defined_here(ref) and not ref.context:
            return ref.prefixed_context(self.domain.name)
        return ref

    def import_one(self, required, query: str = "",
                   partition: Optional[str] = None,
                   max_hops: int = 0) -> ImportReply:
        """The common case: exactly one suitable offer, or NoOfferError."""
        replies = self.import_service(required, query, partition,
                                      max_hops, limit=1)
        if not replies:
            raise NoOfferError(
                f"trader {self.name}: no offer matches "
                f"{getattr(required, 'name', required)!r} with "
                f"constraint {query!r}")
        return replies[0]

    def __repr__(self) -> str:
        return (f"Trader({self.name}, {self.offer_count()} offers, "
                f"{len(self._links)} links)")
