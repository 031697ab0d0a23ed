"""The information language (paper section 8).

"The information language builds upon familiar notions of objects,
relations and information flows ... ODP adds a new challenge of having to
deal with issues of inconsistency and conflict between multiple versions
of the same information held by different parties in a federated
environment."

Built here: typed entity schemas with invariants, per-domain information
stores with version vectors, conflict detection between federated copies,
and pluggable reconciliation policies.
"""

from repro.info.schema import EntityType, InformationSchema
from repro.info.store import InfoStore, EntityRecord
from repro.info.reconcile import (
    compare_vectors,
    detect_conflicts,
    reconcile_stores,
    Conflict,
)

__all__ = [
    "EntityType",
    "InformationSchema",
    "InfoStore",
    "EntityRecord",
    "compare_vectors",
    "detect_conflicts",
    "reconcile_stores",
    "Conflict",
]
