"""The checkpoint + interaction-log server layer.

Installed by the transparency compiler when an export selects failure
transparency.  Every state-changing invocation is logged to the stable
repository *before* it executes (write-ahead), and every
``checkpoint_every`` writes the layer snapshots the whole object and
truncates the log — the classic recovery-point trade-off the C8 benchmark
sweeps.

On an interface that also selected concurrency transparency, a write
inside a transaction is neither logged nor counted: its outcome is not
known yet, and recovery must never replay a write its transaction
aborted.  The commit is the durability point instead: the concurrency
layer's durability hook is :meth:`CheckpointLayer.checkpoint`, so a
committing transaction snapshots the object and truncates the log.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.comp.constraints import FailureSpec
from repro.comp.invocation import Invocation
from repro.comp.outcomes import Termination
from repro.engine.layers import ServerLayer
from repro.storage.repository import StableRepository, StoredObject
from repro.tx.versions import take_snapshot


def checkpoint_key(interface_id: str) -> str:
    return f"ckpt:{interface_id}"


def log_key(interface_id: str) -> str:
    return f"wal:{interface_id}"


class CheckpointLayer(ServerLayer):
    """Write-ahead interaction log plus periodic checkpoints."""

    name = "failure"

    def __init__(self, interface, repository: StableRepository,
                 spec: FailureSpec) -> None:
        self.interface = interface
        self.repository = repository
        self.spec = spec
        self.writes_since_checkpoint = 0
        self.checkpoints_taken = 0
        self.entries_logged = 0
        # A birth checkpoint so recovery works even before the first
        # periodic one.
        self.checkpoint()

    def _is_readonly(self, invocation: Invocation) -> bool:
        op = self.interface.signature.operations.get(invocation.operation)
        return op is not None and op.readonly

    def checkpoint(self) -> None:
        implementation = self.interface.implementation
        if implementation is None:
            return
        self.repository.store(StoredObject(
            key=checkpoint_key(self.interface.interface_id),
            cls=type(implementation),
            snapshot=take_snapshot(implementation),
            signature=self.interface.signature,
            constraints=self.interface.annotations.get("constraints"),
            epoch=self.interface.epoch,
            kind="checkpoint"))
        self.repository.truncate_log(
            log_key(self.interface.interface_id))
        self.writes_since_checkpoint = 0
        self.checkpoints_taken += 1

    def handle(self, invocation: Invocation, interface,
               next_layer) -> Termination:
        if self._is_readonly(invocation) or (
                invocation.context.transaction_id is not None
                and "concurrency_layer" in interface.annotations):
            # Reads change nothing; a transaction's writes become durable
            # at its commit (see the module docstring).
            return next_layer(invocation)
        # Write-ahead: log before executing so a crash mid-operation
        # replays it.  Arguments are restricted to plain values for the
        # log (references are stored as-is; replay re-resolves them).
        entry: Dict[str, Any] = {
            "op": invocation.operation,
            "args": invocation.args,
        }
        self.repository.append_log(
            log_key(interface.interface_id), entry)
        self.entries_logged += 1

        termination = next_layer(invocation)

        self.writes_since_checkpoint += 1
        if self.writes_since_checkpoint >= max(1, self.spec.checkpoint_every):
            self.checkpoint()
        return termination
