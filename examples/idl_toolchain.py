"""The tooling story: specification -> skeleton -> checked implementation
-> constrained deployment (paper sections 4.5 and 5.1).

The interface is written once, in the IDL, with its transparency
requirements as an environment-constraint clause.  The toolchain then:

1. generates a server skeleton whose declarations already conform,
2. verifies the hand-written implementation against the specification at
   class-definition time,
3. renders the checked implementation back to IDL text (the form a
   running system publishes its interfaces in) and parses it again,
4. exports with the constraints taken from the specification — the
   transparency compiler does the rest.

Run:  python examples/idl_toolchain.py
"""

from repro import OdpObject, Signal, World, operation, signature_of
from repro.idl import (generate_skeleton, implements, parse_idl,
                        render_interface)
from repro.transparency.access import describe_server_stack

SPECIFICATION = """
// The printing service, as its standards document would define it.
interface PrintService requires concurrency,
                                failure(checkpoint_every=3) {
    submit(document: str, copies: int) -> (int) | refused(str);
    cancel(job_id: int) -> () | unknown();
    readonly queue_length() -> (int);
    announcement wake(reason: str);
}
"""


def main() -> None:
    doc = parse_idl(SPECIFICATION)
    declared = doc["PrintService"]
    print(f"parsed interfaces: {doc.interfaces}")
    print(f"declared constraints: "
          f"{doc.constraints('PrintService').selected()}")

    print("\n--- generated skeleton "
          "(what the stub compiler hands the developer) ---")
    print(generate_skeleton(declared, "PrintServiceSkeleton"))

    # The developer fills the skeleton in; @implements re-checks it
    # against the specification at class-definition time.
    @implements(declared)
    class PrintServiceImpl(OdpObject):
        def __init__(self):
            self.queue = {}
            self.next_id = 0

        @operation(params=[str, int], returns=[int],
                   errors={"refused": [str]})
        def submit(self, document, copies):
            if copies > 100:
                raise Signal("refused", "copy limit exceeded")
            self.next_id += 1
            self.queue[self.next_id] = (document, copies)
            return self.next_id

        @operation(params=[int], errors={"unknown": []})
        def cancel(self, job_id):
            if job_id not in self.queue:
                raise Signal("unknown")
            del self.queue[job_id]

        @operation(returns=[int], readonly=True)
        def queue_length(self):
            return len(self.queue)

        @operation(params=[str], announcement=True)
        def wake(self, reason):
            pass

    print("implementation checked against the specification: OK")

    # The running system publishes what it implements in the interchange
    # form: render the checked class back to IDL, requires-clause
    # included, and parse it again.
    implemented = signature_of(PrintServiceImpl)
    published = render_interface("PrintService", implemented,
                                 doc.constraints("PrintService"))
    print("\n--- the implementation, rendered back to IDL ---")
    print(published)
    reparsed = parse_idl(published)
    assert reparsed["PrintService"] == implemented
    assert reparsed.constraints("PrintService") == \
        doc.constraints("PrintService")
    print("render -> parse gives back the signature and constraints: OK")

    # Deploy with the constraints the specification itself declares.
    world = World(seed=31)
    world.node("print-org", "spooler-node")
    world.node("print-org", "desk-node")
    servers = world.capsule("spooler-node", "services")
    ref = servers.export(PrintServiceImpl(),
                         constraints=doc.constraints("PrintService"))
    interface = servers.interfaces[ref.interface_id]
    print(f"server stack from the requires-clause: "
          f"{describe_server_stack(interface)}")

    desk = world.capsule("desk-node", "apps")
    # Clients state what they require; binding type-checks structurally.
    printer = world.binder_for(desk).bind(ref, required=declared)
    job = printer.submit("annual-report.ps", 2)
    print(f"submitted job {job}; queue length {printer.queue_length()}")
    try:
        printer.submit("flood.ps", 5000)
    except Signal as signal:
        print(f"oversized job refused: {signal.values[0]}")

    # The spec said failure(checkpoint_every=3): the spooler survives.
    domain = world.domain("print-org")
    world.node("print-org", "spare-node")
    spare = world.capsule("spare-node", "services")
    world.crash_node("spooler-node")
    domain.recovery.recover(ref.interface_id, spare)
    print(f"after crash + recovery, queue length still "
          f"{printer.queue_length()}")


if __name__ == "__main__":
    main()
