"""C2 — Constant-state copy optimisation (paper section 4.5).

Claim: "objects which have constant state can be copied without breaking
computational semantics ... such types can be copied across network links
that support concrete representations of them, in place of interface
references."

Series produced: cost of passing an argument by constant-copy versus the
strict by-reference alternative (implicit export + a call-back to read
the value), for several payload shapes.
Expected shape: copy is cheaper than by-reference for every payload, and
dramatically cheaper once the reader must call back.
"""

from repro import OdpObject, operation

from benchmarks.workloads import two_node_world

ROUNDS = 100


class Box(OdpObject):
    """A mutable ADT wrapping a value: the by-reference vehicle."""

    def __init__(self, value=None):
        self.value = value

    @operation(returns=["any"], readonly=True)
    def get(self):
        return self.value


class Consumer(OdpObject):
    """Receives either a copied value or a reference and uses it."""

    def __init__(self, binder):
        self._binder = binder
        self.total = 0

    @operation(params=["any"], returns=[int])
    def use_copy(self, value):
        self.total += len(str(value))
        return self.total

    @operation(params=["any"], returns=[int])
    def use_ref(self, ref):
        box = self._binder.bind(ref)
        value = box.get()  # the call-back the copy avoids
        self.total += len(str(value))
        return self.total


PAYLOADS = {
    "int": 12345,
    "string-1k": "x" * 1000,
    "record": {"name": "widget", "price": 250, "tags": ("a", "b")},
}


def _build():
    world, servers, clients = two_node_world()
    server_binder = world.binder_for(servers)
    consumer_ref = servers.export(Consumer(server_binder))
    proxy = world.binder_for(clients).bind(consumer_ref)
    return world, clients, proxy


def _copy_round(world, clients, proxy, payload):
    proxy.use_copy(payload)


def _ref_round(world, clients, proxy, payload):
    box = Box(payload)  # mutable -> implicitly exported, sent by ref
    proxy.use_ref(box)


def claim():
    numbers = {}
    for name, payload in PAYLOADS.items():
        timings = numbers[name] = {}
        for mode, round_fn in (("copy", _copy_round),
                               ("by-ref", _ref_round)):
            world, clients, proxy = _build()
            start, msgs = world.now, world.network.total_messages
            for _ in range(ROUNDS):
                round_fn(world, clients, proxy, payload)
            timings[mode] = {
                "ms": (world.now - start) / ROUNDS,
                "msgs": (world.network.total_messages - msgs) / ROUNDS,
            }
        # Shape: constant-state copy beats the reference + call-back.
        assert timings["copy"]["ms"] < timings["by-ref"]["ms"]
        assert timings["copy"]["msgs"] < timings["by-ref"]["msgs"]
    return numbers, {}
