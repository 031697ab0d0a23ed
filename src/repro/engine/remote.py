"""The request/reply envelope, and one-shot remote invocation.

The wire carries an invocation as an ``inv`` object
``{"id", "op", "args", "kind", "epoch", "ctx"[, "inv_id"]}`` and answers
it with ``{"term": ...}`` or ``{"error": {"code", "msg"[, "hint"]}}``, or
with the bare :data:`~repro.engine.nucleus.FORMAT_ERROR_REPLY` sentinel
when the request could not be decoded at all.  This module is the only
client-side code that knows those shapes: senders build the object with
:func:`inv_object`, receivers open replies with :func:`open_reply`,
:func:`decode_reply` or :func:`termination_of`.  (The codec plans in
:mod:`repro.ndr.plancache` pre-encode the same object byte for byte;
``tests/test_ndr_golden.py`` pins the two against each other.)

:func:`invoke_at` aims a single invocation at an explicit (node, capsule,
interface) target that is not a channel's own bound reference — group
relays and federation gateways need that: one marshalled exchange, the
transport's wire discipline without a channel.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.comp.invocation import Invocation, InvocationKind
from repro.comp.outcomes import Termination
from repro.engine.nucleus import FORMAT_ERROR_REPLY, Nucleus
from repro.engine.wire_errors import raise_error
from repro.errors import (
    MarshalError,
    NodeUnreachableError,
    ProtocolMismatchError,
)
from repro.ndr.formats import get_format
from repro.ndr.plancache import interned_plan


def inv_object(marshaller, interface_id: str, operation: str, args,
               kind: str, epoch: int, context,
               invocation_id: Optional[str] = None) -> Dict[str, Any]:
    """The ``inv`` object of one request.  ``invocation_id`` is what
    makes server-side dedup possible; without it the call is
    at-least-once."""
    obj = {
        "id": interface_id,
        "op": operation,
        "args": marshaller.marshal_args(args),
        "kind": kind,
        "epoch": epoch,
        "ctx": Nucleus.encode_context(context),
    }
    if invocation_id:
        obj["inv_id"] = invocation_id
    return obj


def reply_field(reply: Any, key: str, marshaller, peer: str) -> Any:
    """``reply[key]`` of a decoded reply object — or the typed error the
    reply carries instead."""
    if isinstance(reply, dict):
        if "error" in reply:
            raise_error(reply["error"], marshaller)
        if key in reply:
            return reply[key]
    raise ProtocolMismatchError(
        f"reply from {peer} carries neither {key!r} nor an error")


def _loads_reply(wire, payload: bytes, peer: str, values=None) -> Any:
    """Decode reply bytes from *peer*."""
    if payload == FORMAT_ERROR_REPLY:
        raise ProtocolMismatchError(
            f"node {peer} could not decode our {wire.name!r} message")
    try:
        return wire.loads(payload, values)
    except MarshalError as exc:
        raise ProtocolMismatchError(
            f"reply from {peer} not in {wire.name!r}: {exc}") from exc


def open_reply(wire, payload: bytes, key: str, marshaller,
               peer: str) -> Any:
    """Decode reply bytes from *peer* and return their *key* member."""
    return reply_field(_loads_reply(wire, payload, peer), key, marshaller,
                       peer)


def termination_of(reply: Any, marshaller, peer: str) -> Termination:
    """The termination a decoded invocation reply (or batch member
    reply) carries — or the typed error it carries instead."""
    term = reply_field(reply, "term", marshaller, peer)
    if type(term) is list or type(term) is dict:
        # Still the wire tree: the decoder's value lane was not asked,
        # or stood aside.
        try:
            term = marshaller.unmarshal(term)
        except MarshalError as exc:
            raise ProtocolMismatchError(
                f"reply from {peer} carries a malformed termination: "
                f"{exc}") from exc
    if type(term) is not Termination:
        raise ProtocolMismatchError(
            f"reply from {peer} carries no termination but a "
            f"{type(term).__name__}")
    return term


def decode_reply(wire, payload: bytes, marshaller,
                 peer: str) -> Termination:
    """The termination an invocation's reply bytes carry."""
    return termination_of(_loads_reply(wire, payload, peer, ("term",)),
                          marshaller, peer)


def invoke_at(nucleus: Nucleus, client_capsule, node: str,
              capsule_name: str, interface_id: str,
              invocation: Invocation,
              epoch: int = 0) -> Optional[Termination]:
    """Send *invocation* to an explicit target over the network.

    Local targets short-circuit through the co-located capsule (the callers
    decide whether that is permitted).  Announcements return ``None``.
    """
    network = nucleus.network
    if network.faults.is_crashed(nucleus.node_address):
        raise NodeUnreachableError(
            f"node {nucleus.node_address} is crashed; it can invoke "
            f"nothing")
    if node == nucleus.node_address:
        target = nucleus.capsules.get(capsule_name)
        if target is not None:
            redirected = _redirect(invocation, interface_id, epoch)
            return target.dispatch(redirected)

    wire = get_format(network.node(node).native_format)
    marshaller = client_capsule.marshaller
    redirected = _redirect(invocation, interface_id, epoch)
    # No invocation id: the transport's wire discipline, at-least-once.
    payload = interned_plan(
        wire, capsule_name, interface_id, redirected.operation,
        redirected.kind.value, epoch, False).encode_request(
            redirected.args, redirected.context, None, marshaller)
    if invocation.kind == InvocationKind.ANNOUNCEMENT:
        network.post(nucleus.node_address, node, payload, kind="invoke")
        return None
    return decode_reply(
        wire, network.request(nucleus.node_address, node, payload),
        marshaller, node)


def _redirect(invocation: Invocation, interface_id: str,
              epoch: int) -> Invocation:
    """A copy of *invocation* aimed at a different interface."""
    return Invocation(
        interface_id=interface_id,
        operation=invocation.operation,
        args=invocation.args,
        kind=invocation.kind,
        qos=invocation.qos,
        context=invocation.context.copy(),
        epoch=epoch,
    )
