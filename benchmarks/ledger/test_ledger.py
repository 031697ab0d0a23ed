"""Tests of the ledger itself.  Not part of tier-1; run explicitly:

    PYTHONPATH=src:. python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from benchmarks.ledger import compare
from benchmarks.ledger.boundaries import BOUNDARIES, LAYERS, Boundary
from benchmarks.ledger.run import ROOT, load_spec
from benchmarks.ledger.tracing import Tracer
from benchmarks.ledger.workloads import WORKLOADS, RpcBulk, RpcSmall

SCALE = "0.02"
EXACT = ("virt_ms_per_req_p50", "virt_ms_per_req_p99", "net_msgs_per_op")


def _ledger(tmp_path, label: str) -> dict:
    out = tmp_path / f"BENCH_{label}.json"
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--seed", "0",
         "--scale", SCALE, "--seconds", "0.2", "--label", label,
         "--out", str(out)],
        check=True, cwd=ROOT, env=env, capture_output=True)
    with open(out) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ledger")
    return _ledger(tmp_path, "a"), _ledger(tmp_path, "b"), tmp_path


def test_every_named_metric_is_reported_with_its_unit(ledgers):
    spec = load_spec()
    ledger = ledgers[0]
    assert set(ledger["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, workload in ledger["workloads"].items():
        for arm in ("end_to_end", "per_layer"):
            for metric in spec[arm]:
                cell = workload[arm][metric["name"]]
                assert cell["unit"] == metric["unit"], (name, metric)
                assert isinstance(cell["value"], (int, float)), (name, metric)
        assert workload["info"]["missing_boundaries"] == []
        assert workload["info"]["trace_overhead_ratio"] > 0
        assert workload["end_to_end"]["setup_s"]["value"] > 0
    assert set(ledger["machine"]) == {"calib_spin_ms", "nproc", "python",
                                      "commit"}


def test_outputs_are_correct_and_repeat_exactly(ledgers):
    a, b, _ = ledgers
    for name in a["workloads"]:
        one, two = a["workloads"][name], b["workloads"][name]
        # ``correct`` covers agreement across the repetitions of a run.
        assert one["correct"] and two["correct"], name
        assert one["info"]["reps"] >= 2
        assert one["ops_failed"] == 0 and one["ops_attempted"] > 0
        assert one["run_digest"] == two["run_digest"], name
        assert one["run_digest"] == one["traced_run_digest"], name
        for metric in EXACT:
            assert one["end_to_end"][metric] == two["end_to_end"][metric]


def test_layer_shares_sum_to_one(ledgers):
    for name, workload in ledgers[0]["workloads"].items():
        shares = [workload["per_layer"][f"{layer}.wall_share"]["value"]
                  for layer in LAYERS + ("other",)]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name


def test_expected_layers_dominate(ledgers):
    layers = {name: workload["per_layer"]
              for name, workload in ledgers[0]["workloads"].items()}

    def share(workload, layer):
        return layers[workload][f"{layer}.wall_share"]["value"]

    assert share("rpc_bulk", "ndr") == max(
        share("rpc_bulk", layer) for layer in LAYERS)
    assert sum(share("check_composed", layer)
               for layer in ("heal", "net", "sim")) > 0.5
    for name in ("rpc_small", "rpc_bulk", "check_default"):
        assert share(name, "heal") == 0
        assert layers[name]["heal.heartbeats_per_op"]["value"] == 0
    assert layers["rpc_bulk"]["ndr.put_self_us_per_inv"]["value"] > 0
    assert layers["rpc_bulk"]["ndr.get_self_us_per_inv"]["value"] > 0


def test_spans_are_written_with_parents(ledgers):
    spans = [json.loads(line) for line in
             open(ledgers[2] / "spans-rpc_small.jsonl")]
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] == -1]
    assert [span["name"] for span in roots] == ["unit"]
    for span in spans:
        if span["parent"] != -1:
            parent = by_id[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]


def test_compare_passes_two_runs_of_one_commit_on_exact_metrics(ledgers):
    a, b, _ = ledgers
    lines, _ = compare.compare(a, b, load_spec())
    assert not any("DIFFERS" in line for line in lines)
    for line in lines:
        if any(metric in line for metric in EXACT):
            assert line.endswith("same"), line


def test_compare_verdicts():
    assert compare.verdict(100, 105, 0.0, 0.10, "lower") == "same"
    assert compare.verdict(100, 111, 0.0, 0.10, "lower") == "worse"
    assert compare.verdict(100, 89, 0.0, 0.10, "lower") == "better"
    assert compare.verdict(100, 89, 0.0, 0.10, "higher") == "worse"
    assert compare.verdict(100, 150, 0.2, 0.10, "lower") == "unresolved"


def test_compare_flags_worse_failures_and_digests(ledgers):
    a = ledgers[0]
    b = json.loads(json.dumps(a))
    broken = b["workloads"]["rpc_small"]
    broken["end_to_end"]["net_msgs_per_op"]["value"] *= 2
    broken["ops_failed"] = 1
    broken["run_digest"] = "0" * 64
    lines, worse = compare.compare(a, b, load_spec())
    assert worse
    text = "\n".join(lines)
    assert "run_digest DIFFERS" in text
    assert sum(line.endswith("worse") for line in lines) == 2


def test_a_wrong_reply_is_counted_as_failed():
    workload = RpcSmall(seed=0, scale=float(SCALE))
    workload.setup()
    assert workload.unit().failed == 0
    workload.balance += 1           # every later reply is now "wrong"
    result = workload.unit()
    assert result.failed == result.ops

    bulk = RpcBulk(seed=0, scale=float(SCALE))
    bulk.setup()
    assert bulk.unit().failed == 0
    get = bulk.proxy.get
    bulk.proxy.get = lambda key: get(key)["rows"]   # not what was put
    assert bulk.unit().failed == bulk.ROUNDS * len(bulk.keys)


def test_the_seed_sets_the_inputs():
    assert RpcBulk(1, 0.05).values == RpcBulk(1, 0.05).values
    assert RpcBulk(1, 0.05).values != RpcBulk(2, 0.05).values
    sweep = WORKLOADS["check_default"]
    assert sweep(1).plan_seeds == sweep(1).plan_seeds
    assert sweep(1).plan_seeds != sweep(2).plan_seeds
    assert sorted(sweep(1).plan_seeds) == sorted(sweep(2).plan_seeds)


def test_missing_boundaries_are_listed_and_patches_restored():
    from repro.engine.channel import Channel
    from repro.sim.scheduler import Scheduler

    originals = (vars(Channel)["invoke"], vars(Scheduler)["at"])
    gone = [Boundary("engine", "repro.engine.channel", "Channel",
                     "renamed_away", "engine.channel"),
            Boundary("engine", "repro.engine.no_such_module", None,
                     "f", "engine.nothing")]
    tracer = Tracer()
    tracer.install(BOUNDARIES + gone)
    try:
        assert vars(Channel)["invoke"] is not originals[0]
        assert tracer.missing == [
            "repro.engine.channel:Channel.renamed_away",
            "repro.engine.no_such_module:f"]
        workload = RpcSmall(seed=0, scale=float(SCALE))
        workload.setup()
        tracer.active = True
        assert workload.unit().failed == 0
        tracer.active = False
    finally:
        tracer.restore()
    assert (vars(Channel)["invoke"], vars(Scheduler)["at"]) == originals
    assert vars(Channel)["invoke"] is originals[0]

    from benchmarks.ledger.layers import layer_metrics
    metrics = layer_metrics(tracer, workload.ops_per_unit, {})
    assert metrics["trace.missing_boundaries"] == 2
    assert metrics["engine.invocations_per_op"] == 1.0
    # A metric fed only by boundaries that are gone is null, not a crash.
    tracer.patched_stems.discard("engine.channel")
    assert layer_metrics(tracer, 1, {})["engine.invocations_per_op"] is None
