"""The transparency compiler.

Turns declarative :class:`~repro.comp.constraints.EnvironmentConstraints`
into concrete channel stacks.  The application never names a mechanism —
it states properties ("this interface is transactional", "mask location",
"guard with policy P") and the compiler links the corresponding layers
into the access path, exactly the division of labour section 4.5 argues
for: "the engineering is separated from the application".

Client stack (outermost first)::

    federation -> replication -> location -> transport

Server stack (outermost first)::

    type-check -> guard -> concurrency -> checkpoint -> method dispatch

Selective transparency is literal here: an unselected transparency
contributes no layer and therefore no cost (benchmark C3 measures this).
"""

from __future__ import annotations

from typing import List

from repro.comp.constraints import EnvironmentConstraints
from repro.engine.channel import Channel, TransportLayer
from repro.engine.dispatcher import Dispatcher
from repro.engine.layers import compose_server
from repro.errors import BindingError


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------

def compile_client_channel(nucleus, capsule, ref,
                           constraints: EnvironmentConstraints) -> Channel:
    """Build the client-side channel stack for *ref* under *constraints*."""
    layers: List = []
    domain = nucleus.domain

    if constraints.federation:
        from repro.federation.layer import FederationClientLayer
        layers.append(FederationClientLayer(nucleus, capsule, domain))

    if ref.group:
        from repro.groups.client import GroupInvokeLayer
        layers.append(GroupInvokeLayer(domain.groups, ref.interface_id,
                                       nucleus, capsule))

    if constraints.location and not ref.group:
        from repro.relocation.layer import RelocationLayer
        layers.append(RelocationLayer(domain.relocator))

    transport = TransportLayer(
        nucleus, capsule, allow_local=constraints.allow_local_shortcut)
    return Channel(ref, nucleus, capsule, layers, transport)


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------

def compile_server_stack(nucleus, capsule, interface,
                         constraints: EnvironmentConstraints) -> None:
    """Attach the selected server-side mechanism layers to *interface*."""
    if constraints.replication is not None:
        raise BindingError(
            "replication transparency is provided by the group registry: "
            "use domain.groups.create(factory, capsules, spec) rather than "
            "exporting a single implementation with a ReplicationSpec")

    domain = nucleus.domain
    layers: List = [Dispatcher()]

    if constraints.security is not None:
        from repro.security.guard import GuardLayer
        spec = constraints.security
        guard = GuardLayer(
            policy=domain.policies.get(spec.policy),
            authority=domain.authority,
            audit=domain.audit if spec.audit else None,
            require_authentication=spec.require_authentication,
            clock=nucleus.network.scheduler.clock)
        interface.annotations["guard_layer"] = guard
        layers.append(guard)

    checkpoint = None
    if constraints.failure is not None:
        from repro.recovery.checkpoint import CheckpointLayer
        checkpoint = CheckpointLayer(interface, domain.repository,
                                     constraints.failure)
        interface.annotations["checkpoint_layer"] = checkpoint

    if constraints.concurrency:
        from repro.tx.layer import ConcurrencyControlLayer
        # Durability: a commit that wrote here takes the checkpoint.
        concurrency = ConcurrencyControlLayer(
            interface, capsule,
            registry=domain.federation.tx_registry,
            graph=domain.federation.waits_graph,
            ordering=constraints.ordering,
            durability_hook=(None if checkpoint is None
                             else checkpoint.checkpoint))
        interface.annotations["concurrency_layer"] = concurrency
        layers.append(concurrency)

    if checkpoint is not None:
        layers.append(checkpoint)

    interface.annotations["server_layers"] = layers
    rebuild_server_chain(capsule, interface)


def rebuild_server_chain(capsule, interface) -> None:
    """Recompose the server chain after the layer list changed."""
    layers = interface.annotations.get("server_layers", [])
    interface.annotations["server_chain"] = compose_server(
        layers, interface, capsule._core_dispatch(interface))


def prepend_server_layer(capsule, interface, layer) -> None:
    """Insert a layer at the outside of an interface's server stack.

    Used by the group registry to wrap replicas with the ordering layer
    after export.
    """
    layers = interface.annotations.setdefault("server_layers", [])
    layers.insert(0, layer)
    rebuild_server_chain(capsule, interface)
