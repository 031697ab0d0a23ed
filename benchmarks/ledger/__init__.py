"""The perf ledger: four workloads, two clocks, a per-layer split.

``python3 benchmarks/ledger/run.py`` runs one workload once (the command
BENCHMARK.json names); ``python -m benchmarks.ledger`` runs all four,
untraced and traced, and writes ``BENCH_<label>.json``;
``python -m benchmarks.ledger.compare A.json B.json`` judges two such
files by the bounds in BENCHMARK.json.  See README.md in this directory.
"""
