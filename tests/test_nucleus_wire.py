"""Wire-level tests of the nucleus: malformed input, format mismatch,
unknown capsules, and envelope routing edge cases."""

import pytest

from repro import World
from repro.comp.outcomes import Termination
from repro.engine.futures import AsyncInvoker
from repro.engine.nucleus import FORMAT_ERROR_REPLY
from repro.engine.remote import decode_reply
from repro.errors import (
    MarshalError,
    OdpError,
    ProtocolMismatchError,
    StaleReferenceError,
)
from repro.ndr.codec import Marshaller
from repro.ndr.formats import get_format
from repro.perf.admission import AdmissionController
from repro.perf.batching import BatchClient
from repro.tx.transaction import Participant, TransactionManager
from tests import hostile_envelopes as hostile
from tests.conftest import Counter, with_paths


class TestNucleusRequestHandling:
    def test_wrong_format_request_gets_sentinel(self, single_domain):
        world, domain, servers, clients = single_domain
        # server-node speaks 'packed'; send it 'tagged' bytes.
        tagged = get_format("tagged")
        payload = tagged.dumps({"capsule": "servers", "inv": {}})
        reply = world.network.request("client-node", "server-node",
                                      payload)
        assert reply == FORMAT_ERROR_REPLY

    @pytest.mark.parametrize("payload", [
        b"\x00\x01\x02not-a-message",
        # Right magic, hostile body: invalid UTF-8, an unhashable key.
        b"\xa5Ps\x00\x00\x00\x01\xff",
        b"\xa5Pd\x00\x00\x00\x01l\x00\x00\x00\x00N",
    ])
    def test_garbage_bytes_get_sentinel(self, single_domain, payload):
        world, domain, servers, clients = single_domain
        reply = world.network.request("client-node", "server-node",
                                      payload)
        assert reply == FORMAT_ERROR_REPLY

    def test_unknown_capsule_reports_stale(self, single_domain):
        world, domain, servers, clients = single_domain
        packed = get_format("packed")
        payload = packed.dumps({"capsule": "nonexistent",
                                "inv": {"id": "x", "op": "f",
                                        "args": [], "epoch": 0}})
        reply = packed.loads(world.network.request(
            "client-node", "server-node", payload))
        assert reply["error"]["code"] == "stale"

    def test_unknown_interface_reports_stale(self, single_domain):
        world, domain, servers, clients = single_domain
        packed = get_format("packed")
        payload = packed.dumps({"capsule": "servers",
                                "inv": {"id": "ghost-if", "op": "f",
                                        "args": [], "epoch": 0}})
        reply = packed.loads(world.network.request(
            "client-node", "server-node", payload))
        assert reply["error"]["code"] == "stale"

    def test_txctl_for_interface_without_concurrency(self,
                                                     single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        packed = get_format("packed")
        payload = packed.dumps({"capsule": "servers",
                                "txctl": {"tx": "tx-1",
                                          "phase": "prepare",
                                          "iface": ref.interface_id}})
        reply = packed.loads(world.network.request(
            "client-node", "server-node", payload))
        assert reply["txr"]["ok"] is False
        assert "no concurrency" in reply["txr"]["msg"]

    def test_txctl_for_missing_interface(self, single_domain):
        world, domain, servers, clients = single_domain
        packed = get_format("packed")
        payload = packed.dumps({"capsule": "servers",
                                "txctl": {"tx": "tx-1",
                                          "phase": "commit",
                                          "iface": "ghost"}})
        reply = packed.loads(world.network.request(
            "client-node", "server-node", payload))
        assert reply["txr"]["ok"] is False

    def test_announcement_to_unknown_capsule_is_dropped(self,
                                                        single_domain):
        world, domain, servers, clients = single_domain
        packed = get_format("packed")
        payload = packed.dumps({"capsule": "ghost",
                                "inv": {"id": "x", "op": "f",
                                        "args": [], "epoch": 0,
                                        "kind": "announcement"}})
        world.network.post("client-node", "server-node", payload,
                           kind="invoke")
        world.settle()  # must not raise

    def test_garbage_announcement_is_dropped(self, single_domain):
        world, domain, servers, clients = single_domain
        world.network.post("client-node", "server-node", b"garbage",
                           kind="invoke")
        world.settle()

    def test_epoch_ahead_of_interface_is_stale(self, single_domain):
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        packed = get_format("packed")
        payload = packed.dumps({"capsule": "servers",
                                "inv": {"id": ref.interface_id,
                                        "op": "read", "args": [],
                                        "epoch": 99}})
        reply = packed.loads(world.network.request(
            "client-node", "server-node", payload))
        assert reply["error"]["code"] == "stale"


class TestClientSideMismatch:
    def test_proxy_raises_protocol_mismatch_on_forced_wrong_format(
            self, single_domain):
        """A reference forged with the wrong wire format fails loudly,
        not silently."""
        world, domain, servers, clients = single_domain
        ref = servers.export(Counter())
        wrong = with_paths(ref, [
            p.__class__(p.node, p.capsule, p.protocol, "tagged")
            for p in ref.paths])
        from repro import EnvironmentConstraints
        proxy = world.binder_for(clients).bind(
            wrong,
            constraints=EnvironmentConstraints(location=False,
                                               federation=False))
        with pytest.raises(ProtocolMismatchError):
            proxy.increment()


class TestImplicitExportMemoisation:
    def test_same_object_exports_once(self, single_domain):
        world, domain, servers, clients = single_domain
        from tests.conftest import Echo
        echo_proxy = world.binder_for(clients).bind(servers.export(Echo()))
        shared = Counter()
        before = len(clients.interfaces)
        first = echo_proxy.echo(shared)
        second = echo_proxy.echo(shared)
        assert first == second  # same reference both times
        assert len(clients.interfaces) == before + 1

    def test_different_objects_export_separately(self, single_domain):
        world, domain, servers, clients = single_domain
        from tests.conftest import Echo
        echo_proxy = world.binder_for(clients).bind(servers.export(Echo()))
        first = echo_proxy.echo(Counter())
        second = echo_proxy.echo(Counter())
        assert first.interface_id != second.interface_id


# ---------------------------------------------------------------------------
# Decodable-but-malformed envelopes: a typed wire error, never a crash
# in whoever called Network.request (or in the scheduler, for one-way
# kinds).  One table, run on both wire formats.
# ---------------------------------------------------------------------------

#: Whole envelopes.  ``{IID}`` stands for a live interface id.
MALFORMED_ENVELOPES = {
    "no-inv": {"capsule": "srv"},
    "inv-is-int": {"capsule": "srv", "inv": 7},
    "txctl-is-int": {"capsule": "srv", "txctl": 5},
    "fedfwd-is-int": {"capsule": "srv", "fedfwd": 5},
    "fedfwd-without-inv": {"capsule": "srv", "fedfwd": {"ref": None}},
    "top-level-list": [1, 2],
    "top-level-int": 7,
    "batch-is-int": {"capsule": "srv", "batch": 5},
    "capsule-unhashable": {"capsule": [], "inv": {"id": "{IID}",
                                                  "op": "increment"}},
}

def _ref_obj(**fields):
    """A marshalled interface reference with *fields* replaced."""
    return {"__kind__": "ref", "id": "if.x", "epoch": 0, "group": False,
            "context": [],
            "paths": [{"node": "s", "capsule": "srv", "protocol": "rrp",
                       "wire_format": "packed"}],
            "signature": {"name": "S", "kind": "operational", "ops": []},
            **fields}


#: Invocation objects: served alone as ``inv`` and as a batch member.
MALFORMED_INVOCATIONS = {
    "ctx-is-int": {"id": "{IID}", "op": "increment", "ctx": 5},
    "extra-is-int": {"id": "{IID}", "op": "increment",
                     "ctx": {"extra": 3}},
    "credentials-is-int": {"id": "{IID}", "op": "increment",
                           "ctx": {"credentials": 3}},
    "no-id": {"op": "increment"},
    "args-is-int": {"id": "{IID}", "op": "increment", "args": 5},
    # Iterable, so once unmarshalled item by item into arguments.
    "args-is-text": {"id": "{IID}", "op": "increment", "args": "ab"},
    "args-is-record": {"id": "{IID}", "op": "increment",
                       "args": {"__kind__": "record", "fields": {}}},
    "deadline-unparsable": {"id": "{IID}", "op": "increment",
                            "ctx": {"extra": {"deadline_at": "soon"}}},
    "inv-id-unhashable": {"id": "{IID}", "op": "increment",
                          "inv_id": ["x"]},
    "member-is-int": 7,
    # Fields of the wrong type: once a TypeError out of the dispatch
    # (unhashable, unorderable), through whoever called the nucleus.
    "op-is-list": {"id": "{IID}", "op": ["increment"]},
    "id-is-list": {"id": ["{IID}"], "op": "increment"},
    "epoch-is-text": {"id": "{IID}", "op": "increment", "epoch": "0"},
    "epoch-is-null": {"id": "{IID}", "op": "increment", "epoch": None},
    # Iterable, so once accepted as the domains "o", "r", "g".
    "via-is-text": {"id": "{IID}", "op": "increment",
                    "ctx": {"via_domains": "org"}},
    # Once executed and cached under 7, or adopted as a context that
    # the security, federation and transaction layers would index by.
    "inv-id-is-int": {"id": "{IID}", "op": "increment", "inv_id": 7},
    "principal-is-list": {"id": "{IID}", "op": "increment",
                          "ctx": {"principal": ["x"]}},
    "via-item-is-list": {"id": "{IID}", "op": "increment",
                         "ctx": {"via_domains": [["org"]]}},
    "priority-is-text": {"id": "{IID}", "op": "increment",
                         "ctx": {"extra": {"priority": "high"}}},
    "kind-is-int": {"id": "{IID}", "op": "increment", "kind": 7},
    # A reference argument the codec cannot build: once a SignatureError
    # through whoever called the nucleus, or adopted with an epoch that
    # no comparison accepts.
    "args-hold-ref-of-unknown-kind": {
        "id": "{IID}", "op": "increment", "args": [_ref_obj(signature={
            "name": "S", "kind": "bogus", "ops": []})]},
    "args-hold-ref-with-text-epoch": {
        "id": "{IID}", "op": "increment", "args": [_ref_obj(epoch="0")]},
}


def _wire_world(fmt_name):
    world = World(seed=11)
    world.node("org", "s", fmt_name)
    world.node("org", "c", fmt_name)
    counter = Counter()
    ref = world.capsule("s", "srv").export(counter)
    world.capsule("c", "cli")
    return world, counter, ref.interface_id, get_format(fmt_name)


def _fill(obj, iid):
    if isinstance(obj, dict):
        return {key: _fill(value, iid) for key, value in obj.items()}
    return iid if obj == "{IID}" else obj


def _good(iid):
    return {"id": iid, "op": "increment", "args": [], "epoch": 0}


@pytest.mark.parametrize("fmt_name", ["packed", "tagged"])
class TestMalformedEnvelopes:
    @pytest.mark.parametrize("case", sorted(MALFORMED_ENVELOPES))
    def test_request_answers_a_typed_error(self, fmt_name, case):
        world, counter, iid, fmt = _wire_world(fmt_name)
        payload = fmt.dumps(_fill(MALFORMED_ENVELOPES[case], iid))
        reply = fmt.loads(world.network.request("c", "s", payload))
        assert reply["error"]["code"] in ("marshal", "stale")
        assert counter.value == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_INVOCATIONS))
    def test_single_invocation_answers_marshal(self, fmt_name, case):
        world, counter, iid, fmt = _wire_world(fmt_name)
        payload = fmt.dumps({"capsule": "srv", "inv": _fill(
            MALFORMED_INVOCATIONS[case], iid)})
        reply = fmt.loads(world.network.request("c", "s", payload))
        assert reply["error"]["code"] == "marshal"
        assert counter.value == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_INVOCATIONS))
    def test_batch_member_fails_alone(self, fmt_name, case):
        """The malformed member gets its own marshal error; its
        well-formed neighbours still execute."""
        world, counter, iid, fmt = _wire_world(fmt_name)
        payload = fmt.dumps({"capsule": "srv", "batch": [
            _good(iid), _fill(MALFORMED_INVOCATIONS[case], iid),
            _good(iid)]})
        replies = fmt.loads(
            world.network.request("c", "s", payload))["replies"]
        assert [sorted(reply) for reply in replies] == [
            ["term"], ["error"], ["term"]]
        assert replies[1]["error"]["code"] == "marshal"
        assert counter.value == 2

    @pytest.mark.parametrize("kind", ["invoke", "ainvoke"])
    def test_one_way_kinds_drop_silently(self, fmt_name, kind):
        world, counter, iid, fmt = _wire_world(fmt_name)
        # One-way kinds pass no gate, but every invocation is read at
        # the same door: what a request is refused for never runs (an
        # announcement drops it; an ainvoke answers the error, below).
        envelopes = list(MALFORMED_ENVELOPES.values()) + [
            {"capsule": "srv", "reply_to": "c", "call_id": "x",
             "inv": invocation}
            for invocation in MALFORMED_INVOCATIONS.values()]
        for envelope in envelopes:
            world.network.post("c", "s", fmt.dumps(_fill(envelope, iid)),
                               kind=kind)
        world.settle()  # must not raise out of the scheduler
        assert counter.value == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_INVOCATIONS))
    def test_ainvoke_fails_its_future_with_marshal(self, fmt_name, case):
        """The reply route is well-formed, so the caller hears of the
        refusal: a future without a deadline would otherwise wait
        forever."""
        world, counter, iid, fmt = _wire_world(fmt_name)
        clients = world.capsule("c", "cli")
        waiting = AsyncInvoker(world.binder_for(clients),
                               clients).router.new_future(clients)
        world.network.post("c", "s", fmt.dumps(
            {"capsule": "srv", "reply_to": "c", "call_id": waiting.call_id,
             "inv": _fill(MALFORMED_INVOCATIONS[case], iid)}),
            kind="ainvoke")
        world.settle()
        assert waiting.done
        with pytest.raises(MarshalError):
            waiting.result()
        assert counter.value == 0


def _still_serves(world, fmt, iid, counter):
    before = counter.value
    reply = fmt.loads(world.network.request("c", "s", fmt.dumps(
        {"capsule": "srv", "inv": _good(iid)})))
    assert reply == {"term": {"__kind__": "term", "name": "ok",
                              "values": [before + 1]}}


class TestHostileKindsAtALiveNode:
    """Envelopes that used to crash the run, at a live node."""

    @pytest.mark.parametrize("field", [{"reply_to": ["x"]},
                                       {"call_id": 7}])
    def test_ainvoke_without_text_reply_route_is_dropped_unexecuted(
            self, field):
        world, counter, iid, fmt = _wire_world("packed")
        envelope = {"capsule": "srv", "reply_to": "c", "call_id": "c#1",
                    "inv": _good(iid), **field}
        world.network.post("c", "s", fmt.dumps(envelope), kind="ainvoke")
        world.settle()  # once: TypeError from Network.node(["x"])
        assert counter.value == 0
        _still_serves(world, fmt, iid, counter)

    def test_fedfwd_without_ref_answers_marshal(self):
        world, counter, iid, fmt = _wire_world("packed")
        inv = {**_good(iid), "ctx": {"via_domains": ["elsewhere"]}}
        reply = fmt.loads(world.network.request("c", "s", fmt.dumps(
            {"capsule": "gateway", "fedfwd": {"inv": inv}})))
        assert reply["error"]["code"] == "marshal"  # once: KeyError 'ref'
        assert counter.value == 0
        _still_serves(world, fmt, iid, counter)

    @pytest.mark.parametrize("path,value", [
        (("signature", "kind"), "bogus"),  # once: SignatureError
        (("id",), ["x"]),                  # once: unhashable
        (("epoch",), None),                # once: unorderable
        (("paths", 0, "node"), ["s"]),     # once: unhashable
    ], ids=["kind", "id", "epoch", "node"])
    def test_fedfwd_with_malformed_ref_answers_marshal(self, path, value):
        target = hostile.Target()
        envelope = hostile.mutated(target.envelope("fedfwd"),
                                   ("fedfwd", "ref") + path, value)
        reply = target.fmt.loads(target.world.network.request(
            "f", "s", target.fmt.dumps(envelope)))
        assert reply["error"]["code"] == "marshal"
        assert target.account.balance == 0
        assert target.proxy.deposit(1) == 1

    @pytest.mark.parametrize("iface", [["x"], {"a": 1}])
    def test_txctl_with_unhashable_iface_answers_marshal(self, iface):
        world, counter, iid, fmt = _wire_world("packed")
        reply = fmt.loads(world.network.request("c", "s", fmt.dumps(
            {"capsule": "srv", "txctl": {"tx": "tx-1", "phase": "abort",
                                         "iface": iface}})))
        assert reply["error"]["code"] == "marshal"  # once: TypeError
        _still_serves(world, fmt, iid, counter)


#: Invocations the gate once let in before the execute step refused or
#: mis-served them.
REFUSED_AT_THE_DOOR = {"args-is-int": {"args": 5}, "inv-id-is-int":
                       {"inv_id": 7}}


@pytest.mark.parametrize("case", sorted(REFUSED_AT_THE_DOOR))
class TestARefusedInvocationCostsNothing:
    """Refused before the reply cache, the deadline gate or admission
    sees it: no admission token, cache entry, logged execution or
    application effect."""

    def _server(self):
        world, counter, iid, fmt = _wire_world("packed")
        nucleus = world.nucleus("s")
        nucleus.admission = AdmissionController(world.clock)
        nucleus.deadline_gate.record_executions = True
        return world, counter, iid, fmt, nucleus

    def test_single_request(self, case):
        world, counter, iid, fmt, nucleus = self._server()
        reply = fmt.loads(world.network.request("c", "s", fmt.dumps(
            {"capsule": "srv",
             "inv": {**_good(iid), **REFUSED_AT_THE_DOOR[case]}})))
        assert reply["error"]["code"] == "marshal"
        assert nucleus.admission.admitted == 0
        assert nucleus.reply_cache.replies_cached == 0
        assert nucleus.deadline_gate.execution_log == []
        assert counter.value == 0

    def test_batch_member(self, case):
        world, counter, iid, fmt, nucleus = self._server()
        members = [{**_good(iid), "inv_id": "good-1"},
                   {**_good(iid), **REFUSED_AT_THE_DOOR[case]},
                   {**_good(iid), "inv_id": "good-2"}]
        replies = fmt.loads(world.network.request("c", "s", fmt.dumps(
            {"capsule": "srv", "batch": members})))["replies"]
        assert [sorted(reply) for reply in replies] == [
            ["term"], ["error"], ["term"]]
        assert replies[1]["error"]["code"] == "marshal"
        assert nucleus.admission.admitted == 2
        assert nucleus.reply_cache.replies_cached == 2
        assert [entry["inv_id"] for entry
                in nucleus.deadline_gate.execution_log] == [
            "good-1", "good-2"]
        assert counter.value == 2


@pytest.mark.parametrize("kind,path,variant", [
    pytest.param(kind, path, variant,
                 id=f"{kind}:{'/'.join(map(str, path))}={variant!r}")
    for kind in hostile.KINDS
    for path, variant in hostile.cases(kind, sample=True)])
def test_hostile_envelope_sample(kind, path, variant):
    """One deletion or replacement per field of every kind the tables
    above do not cover (the whole sweep: ``python -m
    tests.hostile_envelopes``)."""
    hostile.Target().run(kind, path, variant)


# ---------------------------------------------------------------------------
# Decodable-but-misshapen replies: the client gets a typed error, never
# a builtin exception — from decode_reply, from a batch (where only the
# bad member's future fails) and from a one-way reply post (where the
# future fails instead of the scheduler).
# ---------------------------------------------------------------------------

#: What a reply carries as its ``term`` instead of a termination.
MISSHAPEN_TERMS = {
    "record-without-fields": {"__kind__": "record"},
    "fields-is-int": {"__kind__": "record", "fields": 3},
    "values-is-int": {"__kind__": "term", "name": "ok", "values": 5},
    "term-without-name": {"__kind__": "term", "values": []},
    "set-without-items": {"__kind__": "set"},
    "nested-in-values": {"__kind__": "term", "name": "ok",
                         "values": [{"__kind__": "record"}]},
    "ref-of-unknown-kind": {"__kind__": "term", "name": "ok", "values": [
        _ref_obj(signature={"name": "S", "kind": "bogus", "ops": []})]},
    "unknown-kind": {"name": "ok", "values": []},
    # Well-formed values that are no termination.
    "term-is-int": 5,
    "term-is-list": [1, 2],
    "term-is-record": {"__kind__": "record", "fields": {"a": 1}},
}

_OK_REPLY = {"term": {"__kind__": "term", "name": "ok", "values": [1]}}


@pytest.mark.parametrize("fmt_name", ["packed", "tagged"])
@pytest.mark.parametrize("case", sorted(MISSHAPEN_TERMS))
class TestMisshapenReplies:
    def test_unmarshal_raises_marshal_error_only(self, fmt_name, case):
        tree = get_format(fmt_name).loads(get_format(fmt_name).dumps(
            MISSHAPEN_TERMS[case]))
        try:
            Marshaller().unmarshal(tree)
        except MarshalError:
            pass

    def test_decode_reply_raises_protocol_mismatch(self, fmt_name, case):
        fmt = get_format(fmt_name)
        payload = fmt.dumps({"term": MISSHAPEN_TERMS[case]})
        with pytest.raises(ProtocolMismatchError):
            decode_reply(fmt, payload, Marshaller(), "s")
        assert decode_reply(fmt, fmt.dumps(_OK_REPLY), Marshaller(),
                            "s") == Termination("ok", (1,))

    def test_batch_settles_every_other_member(self, fmt_name, case):
        world, counter, iid, fmt = _wire_world(fmt_name)
        ref = world.capsule("s", "srv").export(Counter())
        world.network.node("s").on_request(
            lambda source, payload: fmt.dumps({"replies": [
                _OK_REPLY, {"term": MISSHAPEN_TERMS[case]}, _OK_REPLY]}))
        batch = BatchClient(world.capsule("c", "cli"))
        futures = [batch.call(ref, "increment") for _ in range(3)]
        batch.flush()
        assert [future.done for future in futures] == [True] * 3
        assert futures[0].result() == futures[2].result() == 1
        with pytest.raises(ProtocolMismatchError):
            futures[1].result()

    def test_posted_reply_fails_its_future_not_the_scheduler(
            self, fmt_name, case):
        world, counter, iid, fmt = _wire_world(fmt_name)
        ref = world.capsule("s", "srv").export(Counter())
        clients = world.capsule("c", "cli")
        invoker = AsyncInvoker(world.binder_for(clients), clients)
        waiting = invoker.router.new_future(clients)
        for reply in ([], 7, {"call_id": ["unhashable"]},
                      {"call_id": waiting.call_id,
                       "term": MISSHAPEN_TERMS[case]}):
            world.network.post("s", "c", fmt.dumps(reply), kind="reply")
        world.settle()  # must not raise out of the scheduler
        assert waiting.done
        with pytest.raises(ProtocolMismatchError):
            waiting.result()
        # ... and the node still serves a well-formed exchange.
        served = invoker.call(ref, "increment")
        world.settle()
        assert served.result() == 1


@pytest.mark.parametrize("fmt_name", ["packed", "tagged"])
@pytest.mark.parametrize("error", [
    5, [], {"code": ["unhashable"]}, {"code": 7, "msg": 3},
    {"code": "stale", "hint": {"__kind__": "record"}},
])
def test_misshapen_error_reply_is_a_typed_error(fmt_name, error):
    fmt = get_format(fmt_name)
    with pytest.raises(OdpError):
        decode_reply(fmt, fmt.dumps({"error": error}), Marshaller(), "s")


class TestTxControlReplies:
    """``TransactionManager.exchange`` opens its reply through the
    shared envelope decoder: an error reply is a typed error, not a
    ``KeyError: 'txr'``."""

    def _coordinator(self, fmt_name="packed"):
        world = World(seed=2)
        world.node("org", "s", fmt_name)
        world.node("org", "c")
        world.capsule("s", "srv")
        manager = TransactionManager(
            "org", home_nucleus=world.nucleus("c"))
        return world, manager

    def test_stale_capsule_raises_the_typed_error(self):
        world, manager = self._coordinator()
        gone = Participant("s", "no-such-capsule", "if.x", layer=None)
        with pytest.raises(StaleReferenceError):
            manager.exchange(manager.begin(), gone, "prepare")

    def test_format_error_reply_raises_protocol_mismatch(self):
        world, manager = self._coordinator()
        # The participant's node answers every request in a format the
        # coordinator does not expect it to: it cannot decode ours.
        world.nucleus("s").wire = get_format("tagged")
        participant = Participant("s", "srv", "if.x", layer=None)
        with pytest.raises(ProtocolMismatchError):
            manager.exchange(manager.begin(), participant, "commit")

    def test_reply_without_txr_is_a_typed_error(self):
        world, manager = self._coordinator()
        fmt = get_format("packed")
        world.network.node("s").on_request(
            lambda source, payload: fmt.dumps({"unexpected": True}))
        participant = Participant("s", "srv", "if.x", layer=None)
        with pytest.raises(OdpError):
            manager.exchange(manager.begin(), participant, "abort")
