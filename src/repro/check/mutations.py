"""Platform mutations: fault models the harness installs over a method.

Each mutation silently breaks one guarantee; the matching oracle must
catch it or the harness is decorative.  A mutation is a replacement for
one production method, with that method's signature — the production
classes carry no test branch — and :func:`applied` is the only way one
gets installed: ``run_plan`` uses it for ``CheckConfig.mutations``, and
the tests and the C25 baseline arm use it directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.comp.invocation import Invocation
from repro.comp.outcomes import Termination
from repro.errors import NoQuorumError
from repro.groups.member import GroupMemberLayer
from repro.lease.authority import LeaseAuthority
from repro.overload.deadline import DeadlineGate
from repro.resilience.dedup import ReplyCache
from repro.tx.versions import VersionStore


def _lookup_never_hits(self, invocation_id: str) -> Optional[bytes]:
    """Every retransmission looks new: the platform degrades to
    at-least-once, which ``exactly_once`` must notice."""
    return None


def _restore_nothing(self, tx_id: str, implementation: Any) -> bool:
    """Abort claims success but leaves the rolled-back transaction's
    writes in place, which ``tx_atomicity`` must notice."""
    return self._before.pop(tx_id, None) is not None


def _coordinate_without_barrier(self, invocation: Invocation, interface,
                                next_layer) -> Termination:
    """The sequencer protocol before the quorum barrier existed: apply
    first, count acks after, never roll back.  An under-quorum write
    stays applied here and in the commit ledger — the dirty commit
    ``split_brain`` must notice."""
    group = self._as_sequencer()
    if self._is_readonly(interface, invocation):
        self.applied_ops += 1
        return next_layer(invocation)
    seq = group.next_seq()
    prev = self.applied_seq
    termination = next_layer(invocation)
    self.applied_seq = seq
    self.applied_ops += 1
    acked, suspects = self._fan_out(invocation, seq, prev)
    acks = 1 + len(acked)
    self.commit_log.append(
        (seq, group.view.number, acks, self._write_digest(invocation)))
    self._note_lease_write(invocation)
    for member, _ in suspects:
        self.registry.suspect(self.group_id, member, corroborated=True)
    quorum = group.spec.reply_quorum
    if acks < quorum:
        raise NoQuorumError(
            f"{self.group_id}: only {acks} of {quorum} required "
            f"replicas acknowledged")
    self.relayed_ops += 1
    return termination


def _note_write_without_fanout(self, interface_id: str, tag: str,
                               source: Optional[str] = None) -> None:
    """The version is bumped but neither the fan-out nor the pending
    bookkeeping happens, so a continuously renewing client keeps
    serving a superseded value past the bound ``staleness_bound``
    enforces."""
    if interface_id not in self.registered:
        return
    key = (interface_id, tag)
    self.versions[key] = self.versions.get(key, 0) + 1
    self.invalidations_skipped += 1


def _never_expired(self, deadline_at: Optional[float]) -> bool:
    """Both deadline checks pass, so expired work executes —
    ``overload_safety`` must notice."""
    return False


#: name (the CLI's ``--mutate`` choices) -> (class, method, mutant).
MUTATIONS: Dict[str, Tuple[type, str, Callable]] = {
    "replycache": (ReplyCache, "lookup", _lookup_never_hits),
    "txversions": (VersionStore, "restore", _restore_nothing),
    "quorumbarrier": (GroupMemberLayer, "_coordinate",
                      _coordinate_without_barrier),
    "leaseinval": (LeaseAuthority, "note_write",
                   _note_write_without_fanout),
    "deadline": (DeadlineGate, "expired", _never_expired),
}


@contextmanager
def applied(*names: str) -> Iterator[None]:
    """Install the named mutants for the duration of the block; every
    patched method is put back by identity on exit."""
    saved = []
    try:
        for name in names:
            cls, method, mutant = MUTATIONS[name]
            saved.append((cls, method, vars(cls)[method]))
            setattr(cls, method, mutant)
        yield
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)
