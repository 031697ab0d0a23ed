"""The committed claim figures cover exactly the claim scripts.

``python -m benchmarks.claims`` runs the ``claim()`` of every
``benchmarks/bench_c*.py`` and writes their numbers to
``benchmarks/out/claims.json``.  This reads files only and runs no
claim: a script added, renamed or deleted without regenerating the file
fails here.
"""

import ast
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_claims_json_has_one_entry_per_claim_script():
    scripts = []
    for path in sorted((ROOT / "benchmarks").glob("bench_c*.py")):
        body = ast.parse(path.read_text(), str(path)).body
        if any(isinstance(node, ast.FunctionDef) and node.name == "claim"
               for node in body):
            # bench_c12_streams.py -> C12
            scripts.append("C" + path.stem.split("_")[1][1:])
    recorded = json.loads(
        (ROOT / "benchmarks" / "out" / "claims.json").read_text())
    assert scripts
    assert sorted(recorded) == sorted(scripts)
