"""Federated trading across organisational and technology boundaries.

Two autonomous organisations — a manufacturer running "packed"-format
machines and a retailer running legacy "tagged"-format machines — link
their traders, discover each other's services with type-safe, property-
qualified imports, and invoke across the boundary through gateways that
translate representation and map principals (paper sections 4.2, 5.6, 6).

The manufacturer also exports its trader as an ordinary service.  The
retailer finds that service's self-advertised "trading" offer by a type
name only the manufacturer knows, reads the type repository over the
wire, trades through it and advertises a service of its own.  A boundary
proxy then stands in for the foreign catalogue inside the retailer's
domain, where a type-manager rule keeps requested-readonly operations
readonly.  The settlement view at the end is each link's ledger: one
booking per crossing, made by the gateway the call arrives at.

Run:  python examples/federated_trading.py
"""

from repro import (
    EnvironmentConstraints,
    OdpObject,
    SecuritySpec,
    World,
    operation,
    signature_of,
)
from repro.federation.proxies import materialize_proxy
from repro.security.policy import SecurityPolicy
from repro.trading.service import export_trader


class CatalogueService(OdpObject):
    """The manufacturer's product catalogue."""

    def __init__(self) -> None:
        self.products = {"widget": 250, "gadget": 480}  # price in cents

    @operation(params=[str], returns=[int], errors={"unknown": []},
               readonly=True)
    def price_of(self, product):
        from repro import Signal
        if product not in self.products:
            raise Signal("unknown")
        return self.products[product]

    @operation(returns=[[str]], readonly=True)
    def list_products(self):
        return sorted(self.products)


class OrderDesk(OdpObject):
    """The manufacturer's order desk — guarded: partners only."""

    def __init__(self) -> None:
        self.orders = []

    @operation(params=[str, int], returns=[str])
    def place_order(self, product, quantity):
        order_id = f"order-{len(self.orders) + 1}"
        self.orders.append((order_id, product, quantity))
        return order_id


class PriceBoard(OdpObject):
    """The retailer's in-store price board: it counts every lookup, so
    its ``price_of`` is not readonly."""

    def __init__(self) -> None:
        self.lookups = 0

    @operation(params=[str], returns=[int], errors={"unknown": []})
    def price_of(self, product):
        self.lookups += 1
        return 299

    @operation(returns=[[str]], readonly=True)
    def list_products(self):
        return ["widget"]


class SalesFeed(OdpObject):
    """The retailer's sales figures, offered back to its supplier."""

    @operation(params=[str], returns=[int], readonly=True)
    def units_sold(self, product):
        return 40


def readonly_kept(provided, required) -> bool:
    """Type-manager rule: an operation the importer requires to be
    readonly is readonly in the offer (structural conformance alone
    does not look at the qualifier)."""
    return all(provided.operations[name].readonly
               for name, op in required.operations.items() if op.readonly)


def main() -> None:
    world = World(seed=21)
    world.node("manufacturer", "mfg-1", "packed")
    world.node("manufacturer", "mfg-2", "packed")
    world.node("retailer", "shop-1", "tagged")
    mfg = world.domain("manufacturer")
    shop = world.domain("retailer")

    # The federation contract: bidirectional link; the retailer's buyer
    # acts as 'partner-buyer' inside the manufacturer's domain.
    world.link_domains("manufacturer", "retailer",
                       principal_map={"buyer": "partner-buyer"})
    mfg.authority.enrol("partner-buyer")
    shop.authority.enrol("buyer")
    mfg.policies.register(SecurityPolicy(
        "orders", {"place_order": {"partner-buyer"}}))

    # Manufacturer exports its services and advertises them.
    services = world.capsule("mfg-2", "services")
    catalogue_ref = services.export(CatalogueService())
    orders_ref = services.export(
        OrderDesk(),
        constraints=EnvironmentConstraints(
            security=SecuritySpec(policy="orders")))
    mfg.trader.export(catalogue_ref.signature, catalogue_ref,
                      service_type="catalogue",
                      properties={"sector": "industrial", "cost": 0})
    mfg.trader.export(orders_ref.signature, orders_ref,
                      service_type="ordering",
                      properties={"sector": "industrial"})

    # Traders federate: the retailer links to the manufacturer's trader.
    shop.trader.link("supplier", mfg.trader)

    # The retailer's app discovers the catalogue through the federated
    # trader graph: note max_hops and the context-relative result.
    print("retailer imports 'catalogue' across the trader link...")
    reply = shop.trader.import_one(
        signature_of(CatalogueService),
        query="sector == 'industrial'", max_hops=1)
    print(f"  found offer {reply.offer_id} via {reply.via}, "
          f"defining context: {reply.ref.home_domain}")

    apps = world.capsule("shop-1", "apps")
    binder = world.binder_for(apps)
    catalogue = binder.bind(reply.ref, principal="buyer")
    print(f"  products: {catalogue.list_products()}")
    print(f"  widget price: {catalogue.price_of('widget')} cents")

    # Ordering is guarded: the gateway maps buyer -> partner-buyer and
    # the manufacturer's guard admits exactly that principal.
    order_reply = shop.trader.import_one(signature_of(OrderDesk),
                                         max_hops=1)
    desk = binder.bind(order_reply.ref, principal="buyer")
    order_id = desk.place_order("widget", 12)
    print(f"  placed {order_id} as 'buyer' "
          f"(mapped to 'partner-buyer' at the boundary)")

    # An unenrolled principal is stopped at the gateway/guard.
    shop.authority.enrol("intern")
    intern_desk = binder.bind(order_reply.ref, principal="intern")
    try:
        intern_desk.place_order("gadget", 1)
    except Exception as exc:
        print(f"  intern rejected: {type(exc).__name__}")

    # The manufacturer's trader is itself a service (section 6: the
    # self-describing system).  Only the manufacturer's type manager
    # knows the name "trading"; the retailer's trader finds the offer
    # through its link all the same.
    export_trader(mfg, services)
    found = shop.trader.import_one("trading", max_hops=1)
    remote = binder.bind(found.ref, principal="buyer")
    print(f"\nremote trader {found.properties['domain']!r} "
          f"holds {remote.offer_count()} offers")
    print(f"  its types: {remote.known_types()}")
    print(f"  'catalogue' is {remote.describe_type('catalogue')}")
    cheap = remote.import_by_type(
        "catalogue", "(sector == 'industrial' or sector == 'retail') "
                     "and cost <= 0", 0)
    every = remote.import_all("ordering", "", 0)
    print(f"  import_by_type: {cheap.interface_id} "
          f"(home {cheap.home_domain}); "
          f"import_all('ordering'): {len(every)} offer")

    # The retailer advertises a service of its own in the supplier's
    # trader, with structured properties, and later withdraws it.
    feed_ref = apps.export(SalesFeed())
    offer_id = remote.export_service(
        "sales-feed", feed_ref,
        {"region": {"country": "uk", "stores": 3},
         "periods": ["daily", "weekly"]})
    seen = mfg.trader.import_one("sales-feed")
    print(f"  retailer advertised {offer_id}: {seen.properties}, "
          f"defining context {seen.ref.home_domain}")
    remote.withdraw_offer(offer_id)
    print(f"  withdrawn; supplier now holds {remote.offer_count()} offers")

    # Section 5.6's second interceptor form: a representative of the
    # foreign catalogue, exported at the retailer's gateway and traded
    # in the retailer's own trader like a native object.
    shop.trader.types.add_rule("readonly-kept", readonly_kept)
    board_ref = apps.export(PriceBoard())
    shop.trader.export(board_ref.signature, board_ref,
                       properties={"origin": "retailer"})
    local_ref = materialize_proxy(shop, reply.ref, principal="buyer")
    shop.trader.export(local_ref.signature, local_ref,
                       service_type="catalogue",
                       properties={"origin": "manufacturer"})
    matches = shop.trader.import_service(signature_of(CatalogueService))
    print(f"\nretailer's own trader, readonly price_of required: "
          f"{[m.properties['origin'] for m in matches]} "
          f"(the price board's lookups are not readonly)")
    local = binder.bind(matches[0].ref)
    print(f"  representative at {matches[0].ref.primary_path().node}: "
          f"gadget price {local.price_of('gadget')} cents")

    print(f"\nsettlement view (one booking per crossing): "
          f"{world.federation.accounting_report()}")
    print(f"audit denials at manufacturer: {len(mfg.audit.denials())}")
    print(f"virtual time: {world.now:.2f} ms, traffic: {world.traffic()}")


if __name__ == "__main__":
    main()
