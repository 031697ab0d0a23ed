"""C12 — Streams: explicit binding, QoS, synchronisation (section 7.2).

Claims: streams are typed, traded interfaces with QoS contracts; binding
"produces an interface containing control and management functions";
flows need "synchronization between streams of voice, video and data".

Series produced:
  * delivered frame rate and QoS verdict vs network jitter level,
  * loss sweep: contract violation detection vs injected drop rate,
  * lip-sync skew (audio 50 Hz vs video 25 Hz) vs jitter.
Expected shape: monitors detect exactly the degradations injected; sync
skew stays within tolerance until jitter exceeds it.
"""

from repro.net.latency import FixedLatency, UniformLatency
from repro.runtime import World
from repro.streams import FlowSpec, StreamQoS, SyncController

DURATION_MS = 2000.0


def _conference(latency, drop=0.0, seed=6):
    world = World(seed=seed, latency=latency, drop_probability=drop)
    world.node("conf", "studio")
    world.node("conf", "viewer")
    camera = world.streams.create_endpoint("studio", "camera", [
        FlowSpec("video", "out", "video",
                 StreamQoS(rate_hz=25.0, max_latency_ms=30.0,
                           max_jitter_ms=10.0, max_loss=0.02)),
        FlowSpec("audio", "out", "audio",
                 StreamQoS(rate_hz=50.0, max_latency_ms=30.0,
                           max_jitter_ms=10.0, max_loss=0.02)),
    ])
    player = world.streams.create_endpoint("viewer", "player", [
        FlowSpec("video", "in", "video",
                 StreamQoS(rate_hz=25.0, max_jitter_ms=10.0,
                           max_loss=0.02)),
        FlowSpec("audio", "in", "audio",
                 StreamQoS(rate_hz=50.0, max_jitter_ms=10.0,
                           max_loss=0.02)),
    ])
    camera.attach_source("video", lambda seq: b"V" * 500)
    camera.attach_source("audio", lambda seq: b"A" * 80)
    sync = SyncController("audio", "video", world.clock,
                          tolerance_ms=25.0)
    player.attach_sink("video", sync.sink_for("video"))
    player.attach_sink("audio", sync.sink_for("audio"))
    binding = world.streams.bind(camera, player)
    return world, binding, sync


def _play(world, binding, duration=DURATION_MS):
    binding.start()
    world.scheduler.run_until(world.now + duration)
    binding.stop()
    world.settle()


def claim():
    jitter = {}
    for label, latency in (
            ("fixed 2ms", FixedLatency(2.0)),
            ("jitter 1-15ms", UniformLatency(1.0, 15.0)),
            ("jitter 1-60ms", UniformLatency(1.0, 60.0))):
        world, binding, sync = _conference(latency)
        _play(world, binding)
        stats = binding.monitor_for("video").stats()
        jitter[label] = {
            "video_fps": stats.frames_received / (DURATION_MS / 1000),
            "video_mean_jitter_ms": stats.mean_jitter_ms,
            "video_violations": stats.contract_violations,
            "sync_pairs": len(sync.released),
            "sync_mean_skew_ms": sync.mean_skew_ms(),
            "sync_discarded": sync.discarded}
        for pair in sync.released:
            assert pair.skew_ms <= 25.0  # tolerance always respected
    # Detection shape: clean network passes, heavy jitter is flagged.
    assert not jitter["fixed 2ms"]["video_violations"]
    assert jitter["jitter 1-60ms"]["video_violations"]

    loss = {}
    for drop in (0.0, 0.05, 0.2):
        world, binding, sync = _conference(FixedLatency(2.0), drop=drop)
        _play(world, binding)
        stats = binding.monitor_for("audio").stats()
        flagged = any("loss" in v for v in stats.contract_violations)
        loss[f"drop {drop}"] = {"audio_loss": stats.loss_rate,
                                "flagged": flagged}
        if drop == 0.0:
            assert not flagged
        if drop >= 0.05:
            assert flagged
    return {"by_network": jitter, "by_injected_drop": loss}, {}
