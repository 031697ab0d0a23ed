"""Management (paper sections 6 and 7.4).

Two pieces: the *node manager* — "the provision of a node manager for each
computer in an ODP system which links the computer into the system after a
restart, creating any servers on that machine which are required by
default and advertising them via the trading system ... extended to
provide a management service, accessible from other computers, for
starting and stopping servers on its own node" — and *transparency
monitoring*: "identification of management interfaces for monitoring
transparency mechanisms and changing transparency parameters".

Load is balanced by moving an object (the migrator, with clients
repairing through location transparency); :mod:`repro.mgmt.placement`
is the policy that picks a healthy, least-loaded node when heal places
a replica or a recovered object.
"""

from repro.mgmt.nodemanager import NodeManager, ServerSpec, ManagementService
from repro.mgmt.monitor import TransparencyMonitor
from repro.mgmt.tuning import TransparencyTuner
from repro.mgmt.advisor import TransparencyAdvisor, Recommendation

__all__ = [
    "NodeManager",
    "ServerSpec",
    "ManagementService",
    "TransparencyMonitor",
    "TransparencyTuner",
    "TransparencyAdvisor",
    "Recommendation",
]
