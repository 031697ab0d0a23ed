"""Tests for stream interfaces, explicit binding, QoS and synchronisation."""

import pytest

from repro.errors import StreamError, TypeCheckError
from repro.net.latency import FixedLatency, UniformLatency
from repro.runtime import World
from repro.streams import FlowSpec, StreamQoS, SyncController
from repro.types.conformance import signature_conforms
from repro.types.signature import (
    STREAM,
    InterfaceSignature,
    OperationSig,
    TerminationSig,
)
from repro.types.terms import BYTES, INT


def av_world(seed=3, latency=None, drop=0.0):
    world = World(seed=seed, latency=latency or FixedLatency(1.0),
                  drop_probability=drop)
    world.node("org", "producer-node")
    world.node("org", "consumer-node")
    return world


def make_pair(world, video_rate=25.0, audio=False):
    flows_out = [FlowSpec("video", "out", "video",
                          StreamQoS(rate_hz=video_rate))]
    flows_in = [FlowSpec("video", "in", "video",
                         StreamQoS(rate_hz=video_rate))]
    if audio:
        flows_out.append(FlowSpec("audio", "out", "audio",
                                  StreamQoS(rate_hz=50.0)))
        flows_in.append(FlowSpec("audio", "in", "audio",
                                 StreamQoS(rate_hz=50.0)))
    producer = world.streams.create_endpoint("producer-node", "camera",
                                             flows_out)
    consumer = world.streams.create_endpoint("consumer-node", "player",
                                             flows_in)
    producer.attach_source("video", lambda seq: b"V" * 200)
    if audio:
        producer.attach_source("audio", lambda seq: b"A" * 40)
    return producer, consumer


def stream_signature(name, flows):
    """A STREAM-kind signature: each flow is a pseudo-operation carrying
    (seq, payload), so the structural conformance rules apply."""
    return InterfaceSignature(name, [
        OperationSig(f"flow_{flow.direction}_{flow.media}_{flow.name}",
                     params=[INT, BYTES],
                     terminations=[TerminationSig("ok", ())],
                     announcement=True)
        for flow in flows], kind=STREAM)


class TestStreamTypes:
    def test_stream_type_conformance(self):
        wide = stream_signature("av", [
            FlowSpec("video", "out", "video"),
            FlowSpec("audio", "out", "audio")])
        narrow = stream_signature("v", [FlowSpec("video", "out", "video")])
        assert signature_conforms(wide, narrow)
        assert not signature_conforms(narrow, wide)

    def test_stream_refs_tradable(self):
        """Stream interfaces trade like operational ones (section 7.2)."""
        world = av_world()
        producer, _ = make_pair(world)
        from repro.comp.reference import AccessPath, InterfaceRef
        signature = stream_signature(producer.name, producer.flows.values())
        ref = InterfaceRef(producer.endpoint_id, signature,
                           (AccessPath("producer-node", "streams"),))
        domain = world.domain("org")
        domain.trader.export(signature, ref,
                             properties={"media": "video"})
        reply = domain.trader.import_one(signature,
                                         query="media == 'video'")
        assert reply.ref.interface_id == producer.endpoint_id

    def test_flow_direction_validation(self):
        with pytest.raises(StreamError):
            FlowSpec("x", "sideways")

    def test_source_sink_direction_enforced(self):
        world = av_world()
        producer, consumer = make_pair(world)
        with pytest.raises(StreamError):
            producer.attach_sink("video", lambda *a: None)
        with pytest.raises(StreamError):
            consumer.attach_source("video", lambda s: b"")


class TestExplicitBinding:
    def test_frames_flow_after_start(self):
        world = av_world()
        producer, consumer = make_pair(world)
        frames = []
        consumer.attach_sink("video",
                             lambda seq, p, s, a: frames.append(seq))
        binding = world.streams.bind(producer, consumer)
        binding.start()
        world.scheduler.run_until(1000.0)
        binding.stop()
        world.settle()
        assert len(frames) == 25  # 25 Hz for one virtual second
        assert frames == sorted(frames)

    def test_no_flow_without_start(self):
        world = av_world()
        producer, consumer = make_pair(world)
        frames = []
        consumer.attach_sink("video",
                             lambda seq, p, s, a: frames.append(seq))
        world.streams.bind(producer, consumer)
        world.scheduler.run_until(500.0)
        assert frames == []

    def test_stop_halts_flow(self):
        world = av_world()
        producer, consumer = make_pair(world)
        frames = []
        consumer.attach_sink("video",
                             lambda seq, p, s, a: frames.append(seq))
        binding = world.streams.bind(producer, consumer)
        binding.start()
        world.scheduler.run_until(400.0)
        binding.stop()
        world.settle()
        count = len(frames)
        world.scheduler.run_until(world.now + 400.0)
        assert len(frames) == count

    def test_media_mismatch_rejected(self):
        world = av_world()
        producer = world.streams.create_endpoint(
            "producer-node", "mic",
            [FlowSpec("sound", "out", "audio")])
        consumer = world.streams.create_endpoint(
            "consumer-node", "screen",
            [FlowSpec("sound", "in", "video")])
        with pytest.raises(StreamError, match="media mismatch"):
            world.streams.bind(producer, consumer)

    def test_no_compatible_flows_rejected(self):
        world = av_world()
        producer = world.streams.create_endpoint(
            "producer-node", "a", [FlowSpec("x", "out", "data")])
        consumer = world.streams.create_endpoint(
            "consumer-node", "b", [FlowSpec("y", "in", "data")])
        with pytest.raises(StreamError, match="template"):
            world.streams.bind(producer, consumer)

    def test_explicit_template(self):
        world = av_world()
        producer = world.streams.create_endpoint(
            "producer-node", "a", [FlowSpec("feed", "out", "data")])
        consumer = world.streams.create_endpoint(
            "consumer-node", "b", [FlowSpec("intake", "in", "data")])
        producer.attach_source("feed", lambda seq: b"d")
        got = []
        consumer.attach_sink("intake", lambda *a: got.append(a))
        binding = world.streams.bind(producer, consumer,
                                     template={"feed": "intake"})
        binding.start()
        world.scheduler.run_until(200.0)
        binding.stop()
        world.settle()
        assert got

    def test_set_rate(self):
        world = av_world()
        producer, consumer = make_pair(world, video_rate=10.0)
        frames = []
        consumer.attach_sink("video",
                             lambda seq, p, s, a: frames.append(seq))
        binding = world.streams.bind(producer, consumer)
        binding.start()
        world.scheduler.run_until(1000.0)
        first_second = len(frames)
        binding.set_rate("video", 40.0)
        world.scheduler.run_until(2000.0)
        binding.stop()
        world.settle()
        assert first_second in (9, 10)  # the t=1000 frame may be in flight
        assert len(frames) - first_second >= 35

    def test_control_interface_is_remote_invocable(self):
        world = av_world()
        producer, consumer = make_pair(world)
        consumer.attach_sink("video", lambda *a: None)
        control_capsule = world.capsule("producer-node", "ctl")
        binding = world.streams.bind(producer, consumer,
                                     control_capsule=control_capsule)
        clients = world.capsule("consumer-node", "cli")
        control = world.binder_for(clients).bind(binding.control_ref)
        control.start()
        assert "running" in control.status()
        world.scheduler.run_until(world.now + 500.0)
        control.stop()
        world.settle()
        assert binding.monitor_for("video").stats().frames_received > 0


class TestQoSMonitoring:
    def test_clean_network_meets_contract(self):
        world = av_world(latency=FixedLatency(2.0))
        producer, consumer = make_pair(world)
        consumer.attach_sink("video", lambda *a: None)
        binding = world.streams.bind(producer, consumer)
        binding.start()
        world.scheduler.run_until(2000.0)
        binding.stop()
        world.settle()
        stats = binding.monitor_for("video").stats()
        assert stats.frames_lost == 0
        assert stats.contract_violations == []
        assert stats.mean_latency_ms == pytest.approx(2.0, abs=0.2)

    def test_loss_detected(self):
        world = av_world(drop=0.3, latency=FixedLatency(1.0))
        producer, consumer = make_pair(world)
        consumer.attach_sink("video", lambda *a: None)
        binding = world.streams.bind(producer, consumer)
        binding.start()
        world.scheduler.run_until(4000.0)
        binding.stop()
        world.settle()
        stats = binding.monitor_for("video").stats()
        assert stats.frames_lost > 0
        assert any("loss" in v for v in stats.contract_violations)

    def test_jitter_detected(self):
        world = av_world(latency=UniformLatency(1.0, 80.0))
        producer, consumer = make_pair(world)
        consumer.attach_sink("video", lambda *a: None)
        binding = world.streams.bind(producer, consumer)
        binding.start()
        world.scheduler.run_until(4000.0)
        binding.stop()
        world.settle()
        stats = binding.monitor_for("video").stats()
        assert stats.mean_jitter_ms > 10.0
        assert any("jitter" in v for v in stats.contract_violations)


class TestSynchronisation:
    def test_audio_video_pairing(self):
        world = av_world(latency=FixedLatency(2.0))
        producer, consumer = make_pair(world, audio=True)
        sync = SyncController("audio", "video", world.clock,
                              tolerance_ms=25.0)
        consumer.attach_sink("video", sync.sink_for("video"))
        consumer.attach_sink("audio", sync.sink_for("audio"))
        binding = world.streams.bind(producer, consumer)
        binding.start()
        world.scheduler.run_until(2000.0)
        binding.stop()
        world.settle()
        # 25 video frames/s pair with every other audio frame.
        assert len(sync.released) >= 45
        assert sync.mean_skew_ms() <= 25.0

    def test_unpairable_frames_discarded(self):
        world = av_world(latency=FixedLatency(1.0), drop=0.4)
        producer, consumer = make_pair(world, audio=True)
        sync = SyncController("audio", "video", world.clock,
                              tolerance_ms=15.0)
        consumer.attach_sink("video", sync.sink_for("video"))
        consumer.attach_sink("audio", sync.sink_for("audio"))
        binding = world.streams.bind(producer, consumer)
        binding.start()
        world.scheduler.run_until(3000.0)
        binding.stop()
        world.settle()
        assert sync.discarded > 0  # partners lost to the network
        for pair in sync.released:
            assert pair.skew_ms <= 15.0
