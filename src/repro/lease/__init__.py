"""Read-scaling for hot objects: leases, client caching, follower reads.

The paper's constant-state copy optimisation (section 4.5, C2) lets a
client keep a private copy of state that never changes.  This package
extends the idea to *slowly-changing* state with an invalidation
protocol: a domain-level :class:`~repro.lease.authority.LeaseAuthority`
grants time-bounded leases to caching clients, every committed write
fans invalidations out to the current holders, and a grant that cannot
be renewed (partition, crash) simply expires on the holder's own
virtual clock — so a disconnected cache fences itself instead of
serving stale reads forever.  The staleness of any cached read is
bounded by the lease TTL; the bound is machine-checked by the
``linearizable`` oracle in :mod:`repro.check`, which admits a lease
read against the state at some instant at most the TTL before it.
"""

from repro.lease.authority import (
    CONTROL_COST_MS,
    FLUSH_TAG,
    INVAL_KIND,
    LeaseAuthority,
)
from repro.lease.cache import LeaseClient

__all__ = [
    "CONTROL_COST_MS",
    "FLUSH_TAG",
    "INVAL_KIND",
    "LeaseAuthority",
    "LeaseClient",
]
