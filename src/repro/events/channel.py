"""Topic-based event channels.

The channel is an ordinary exported ADT.  Publishers *announce* events
at it; the channel re-announces to every subscriber's notify interface.
Both legs are request-only interactions, so event distribution is
asynchronous end-to-end and inherits the network's loss behaviour —
subscribers that need reliability subscribe a replicated group or poll a
blackboard instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.comp.model import OdpObject, operation, signature_of
from repro.comp.reference import InterfaceRef
from repro.types.conformance import signature_conforms


class Subscriber(OdpObject):
    """A convenience subscriber implementation collecting events."""

    def __init__(self) -> None:
        self.events: List[Tuple[str, Any]] = []

    @operation(params=[str, "any"], announcement=True)
    def notify(self, topic, payload):
        self.events.append((topic, payload))

    def topics(self) -> List[str]:
        return [topic for topic, _ in self.events]


#: The structural requirement a subscriber reference must meet.
SUBSCRIBER_SIGNATURE = signature_of(Subscriber)


class EventChannel(OdpObject):
    """A named pub/sub hub.

    Subscriptions are (topic-prefix, subscriber-ref) pairs: a subscriber
    registered for ``"stock."`` receives ``"stock.up"`` and
    ``"stock.down"``.  The empty prefix receives everything.
    """

    def __init__(self, name: str = "events") -> None:
        self.name = name
        self._subscriptions: Dict[str, List[Tuple[str, InterfaceRef]]] = {}
        #: One proxy per subscriber reference, bound at its first event:
        #: a bind registers a transport, plan cache and relocation layer
        #: with the hosting nucleus for good, so one per event would
        #: grow those lists without bound.
        self._proxies: Dict[InterfaceRef, Any] = {}
        self._counter = 0
        #: Set by the hosting capsule right after export (the channel
        #: needs a binder to reach its subscribers).
        self._binder = None

    def attach_binder(self, binder) -> None:
        self._binder = binder

    # -- subscription management (interrogations) ----------------------------

    @operation(params=[str, "any"], returns=[str],
               errors={"not_a_subscriber": []})
    def subscribe(self, topic_prefix, subscriber_ref):
        from repro.comp.outcomes import Signal

        if not isinstance(subscriber_ref, InterfaceRef) or \
                not signature_conforms(subscriber_ref.signature,
                                       SUBSCRIBER_SIGNATURE):
            raise Signal("not_a_subscriber")
        self._counter += 1
        subscription_id = f"{self.name}.sub-{self._counter}"
        self._subscriptions.setdefault(topic_prefix, []).append(
            (subscription_id, subscriber_ref))
        return subscription_id

    @operation(params=[str], errors={"unknown": []})
    def unsubscribe(self, subscription_id):
        from repro.comp.outcomes import Signal

        for prefix, subscribers in self._subscriptions.items():
            for index, (sid, _) in enumerate(subscribers):
                if sid == subscription_id:
                    del subscribers[index]
                    return
        raise Signal("unknown")

    @operation(returns=[int], readonly=True)
    def subscriber_count(self):
        return sum(len(subs) for subs in self._subscriptions.values())

    # -- publication (announcement in, announcements out) ----------------------

    @operation(params=[str, "any"], announcement=True)
    def publish(self, topic, payload):
        if self._binder is None:
            return
        for prefix, subscribers in self._subscriptions.items():
            if not topic.startswith(prefix):
                continue
            for _, subscriber_ref in list(subscribers):
                try:
                    proxy = self._proxies.get(subscriber_ref)
                    if proxy is None:
                        proxy = self._proxies[subscriber_ref] = \
                            self._binder.bind(subscriber_ref)
                    proxy.notify(topic, payload)
                except Exception:
                    # Event delivery is best-effort by construction.
                    pass


def export_channel(capsule, binder, name: str = "events"):
    """Export a channel wired to a binder; returns (channel, ref)."""
    channel = EventChannel(name)
    ref = capsule.export(channel)
    channel.attach_binder(binder)
    return channel, ref
