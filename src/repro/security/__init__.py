"""Security (paper section 7.1).

"Security in a distributed system is founded upon trusted encapsulation and
the management of shared secrets between objects."  Each domain runs a
secret authority; principals hold shared secrets; invocations carry MAC
credentials; and *guards* — generated from declarative policy statements —
police each interface from inside its encapsulation boundary.
"""

from repro.security.secrets import SecretAuthority
from repro.security.policy import SecurityPolicy, PolicyStore
from repro.security.guard import GuardLayer
from repro.security.audit import AuditLog, AuditRecord

__all__ = [
    "SecretAuthority",
    "SecurityPolicy",
    "PolicyStore",
    "GuardLayer",
    "AuditLog",
    "AuditRecord",
]
