"""Federation (paper sections 4.2, 5.6, 6).

"The reality is that of peer-to-peer federations of organizations
interacting with each other according to agreed contracts and retaining
their autonomy."  A :class:`Domain` owns its own infrastructure services
(relocator, trader, transaction manager, secret authority, policies,
groups, repository); a :class:`Federation` is the arbitrary graph of
domains joined by :class:`FederationLink` contracts; interceptors at the
boundaries translate technology and enforce administration, and each
link's ledger books every crossing once, at the receiving gateway.
Context-relative names are interface references whose context path
:func:`annotate_refs` extends as they cross out of a domain.
"""

from repro.federation.naming import annotate_refs
from repro.federation.links import FederationLink
from repro.federation.domain import Domain, Federation
from repro.federation.layer import FederationClientLayer

__all__ = [
    "annotate_refs",
    "FederationLink",
    "Domain",
    "Federation",
    "FederationClientLayer",
]
