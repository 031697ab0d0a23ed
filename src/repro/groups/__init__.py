"""Replication transparency: object groups (paper section 5.3).

"All of these forms of redundancy place a requirement for a client to be
able to transparently invoke a group of replicas of a service - in other
words the client sees the replicated group as if [it] were a singleton,
but with increased reliability or availability."

The ordering protocol is sequencer-based total order: the current
sequencer member applies each state-changing invocation and synchronously
relays it (in sequence order) to the other members, so "all the members
process invocations from clients in the same order".  Membership is
view-based and "tolerant of failures in members of the group and of
changes of membership": crashed members are dropped from the view, the
sequencer role fails over, joiners receive a state transfer.

On top of this one mechanism sit two policies: ``active`` replication
(every member applies every write, so any survivor can take over), and
``read_spread`` (availability by spreading read demand over identical
members).
"""

from repro.groups.group import Member, View, ReplicaGroup
from repro.groups.member import GroupMemberLayer
from repro.groups.client import GroupInvokeLayer
from repro.groups.registry import GroupRegistry

__all__ = [
    "Member",
    "View",
    "ReplicaGroup",
    "GroupMemberLayer",
    "GroupInvokeLayer",
    "GroupRegistry",
]
