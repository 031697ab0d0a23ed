"""Exploiting parallelism to overcome communication delays (§4.1).

A price-aggregation client queries eight quote servers scattered across
high-latency links.  Synchronously, the round trips serialise; with
split-phase futures they overlap — the virtual clock shows the paper's
point directly.  A third variant uses futures *with* a deadline so one
slow/partitioned server cannot stall the aggregate.

Run:  python examples/parallel_fanout.py
"""

from repro import OdpObject, QoS, World, operation
from repro.engine.futures import AsyncInvoker
from repro.errors import DeadlineExceededError
from repro.net.latency import LatencyModel


class QuoteServer(OdpObject):
    def __init__(self, venue, price):
        self.venue = venue
        self.price = price

    @operation(params=[str], returns=[str, int], readonly=True)
    def quote(self, symbol):
        return self.venue, self.price


def main() -> None:
    latency = LatencyModel(propagation_ms=40.0)  # a slow WAN
    world = World(seed=12, latency=latency)
    world.node("market", "hq")
    venues = []
    for i in range(8):
        node = f"venue-{i}"
        world.node("market", node)
        capsule = world.capsule(node, "srv")
        ref = capsule.export(QuoteServer(node, 100 + 3 * i))
        venues.append(ref)

    apps = world.capsule("hq", "apps")
    binder = world.binder_for(apps)

    # --- synchronous: round trips serialise -----------------------------------
    start = world.now
    quotes = [binder.bind(ref).quote("ACME") for ref in venues]
    serial_ms = world.now - start
    print(f"synchronous fan-out: {len(quotes)} quotes in "
          f"{serial_ms:7.1f} virtual ms (RTTs serialise)")

    # --- futures: round trips overlap -------------------------------------------
    invoker = AsyncInvoker(binder, apps)
    start = world.now
    futures = [invoker.call(ref, "quote", "ACME") for ref in venues]
    world.settle()
    overlapped = [future.result() for future in futures]
    parallel_ms = world.now - start
    print(f"future fan-out:      {len(overlapped)} quotes in "
          f"{parallel_ms:7.1f} virtual ms (RTTs overlap, "
          f"{serial_ms / parallel_ms:4.1f}x faster)")
    best_venue, best_price = min(overlapped, key=lambda q: q[1])
    print(f"best price: {best_price} at {best_venue}")

    # --- deadline-bounded aggregation ----------------------------------------------
    world.partition(["venue-7"], [f"venue-{i}" for i in range(7)]
                    + ["hq"])
    start = world.now
    futures = [invoker.call(ref, "quote", "ACME",
                            qos=QoS(deadline_ms=300.0))
               for ref in venues]
    world.settle()
    answered, missed = [], 0
    for future in futures:
        try:
            answered.append(future.result())
        except DeadlineExceededError:
            missed += 1
    print(f"with venue-7 partitioned: {len(answered)} quotes, "
          f"{missed} deadline-missed, aggregate still served in "
          f"{world.now - start:7.1f} virtual ms")


if __name__ == "__main__":
    main()
