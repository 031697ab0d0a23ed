"""Carrying infrastructure errors across the wire.

Application outcomes travel as terminations; *infrastructure* failures
(stale references, denied access, aborted transactions ...) travel as typed
error replies so the client-side layers can react — a stale reference
triggers rebinding, a deadlock triggers an abort, and so on.
"""

from __future__ import annotations

from typing import Any, Dict

from repro import errors
from repro.ndr.codec import Marshaller

#: code -> exception class; order matters for encoding (subclasses first).
_CODES = (
    ("server_busy", errors.ServerBusyError),
    ("expired", errors.InvocationExpiredError),
    ("retry_budget", errors.RetryBudgetExhaustedError),
    ("busy", errors.LockBusyError),
    ("deadlock", errors.DeadlockError),
    ("lock_timeout", errors.LockTimeoutError),
    ("tx_aborted", errors.TransactionAborted),
    ("ordering", errors.OrderingViolation),
    ("tx_invalid", errors.InvalidTransactionState),
    ("auth", errors.AuthenticationError),
    ("access_denied", errors.AccessDeniedError),
    ("no_quorum", errors.NoQuorumError),
    ("membership", errors.MembershipError),
    ("fenced", errors.EpochFencedError),
    ("group_unavailable", errors.GroupUnavailableError),
    ("group", errors.GroupError),
    ("wrong_shard", errors.WrongShardError),
    ("stale", errors.StaleReferenceError),
    ("closed", errors.InterfaceClosedError),
    ("unknown_op", errors.UnknownOperationError),
    ("fault", errors.ServerFaultError),
    ("federation", errors.FederationError),
    ("storage", errors.StorageError),
    ("recovery", errors.RecoveryError),
    ("migration", errors.MigrationError),
    ("marshal", errors.MarshalError),
    ("type", errors.TypeCheckError),
    ("odp", errors.OdpError),
)

_BY_CODE = {code: cls for code, cls in _CODES}


def encode_error(exc: errors.OdpError,
                 marshaller: Marshaller) -> Dict[str, Any]:
    code = "odp"
    for candidate, cls in _CODES:
        if type(exc) is cls or (isinstance(exc, cls) and candidate != "odp"):
            code = candidate
            break
    payload: Dict[str, Any] = {"code": code, "msg": str(exc)}
    hint = getattr(exc, "forward_hint", None)
    if hint is not None:
        payload["hint"] = marshaller.marshal(hint)
    return payload


def raise_error(obj: Dict[str, Any], marshaller: Marshaller) -> None:
    """Re-raise the error described by a wire error object — whatever
    its shape: the object comes from outside the program."""
    if not isinstance(obj, dict):
        obj = {}
    code = obj.get("code", "odp")
    message = obj.get("msg", "remote error")
    cls = (_BY_CODE.get(code, errors.OdpError) if isinstance(code, str)
           else errors.OdpError)
    if cls is errors.StaleReferenceError:
        hint = obj.get("hint")
        raise errors.StaleReferenceError(
            message,
            forward_hint=marshaller.unmarshal(hint) if hint else None)
    raise cls(message)
