"""Every claim of EXPERIMENTS.md, measured and checked.

    PYTHONPATH=src:. python -m benchmarks.claims

Runs the ``claim()`` of every ``benchmarks/bench_c*.py``, each in a
fresh interpreter, so that no process-wide table (the codec's plans,
name tables and record images) carries one claim's state into the
next.  A claim asserts the shape of its series and returns two dicts:
``numbers`` (virtual times, counts and ratios: deterministic) and
``wall`` (host timings).  Both are printed; every claim's numbers are
written to ``benchmarks/out/claims.json``, keys sorted and floats at
six significant figures, so a changed figure shows as a diff of that
file.  Exits 1, writing nothing, if any claim fails.
"""

from __future__ import annotations

import ast
import importlib
import json
import multiprocessing
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out" / "claims.json"


def scripts():
    """``(claim id, script path)`` of every claim script, by number."""
    found = [(int(path.stem.split("_")[1][1:]), path)
             for path in HERE.glob("bench_c*.py")]
    return [(f"C{number}", path) for number, path in sorted(found)]


def measure(module):
    """``(numbers, wall)`` of one claim, or the traceback of its failure."""
    try:
        return importlib.import_module(f"benchmarks.{module}").claim()
    except Exception:
        return traceback.format_exc()


def rounded(value):
    """*value* with string keys and every float at six significant
    figures: the digits past those are the host's arithmetic."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {str(key): rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(item) for item in value]
    return value


def render(value, indent="    "):
    """One line per leaf of a claim's dict, nested dicts indented."""
    lines = []
    for key, item in value.items():
        if isinstance(item, dict):
            lines += [f"{indent}{key}:", *render(item, indent + "  ")]
        else:
            lines.append(f"{indent}{key}: {json.dumps(item)}")
    return lines


def main() -> int:
    spawn = multiprocessing.get_context("spawn")
    recorded, failed = {}, []
    for ident, path in scripts():
        started = time.perf_counter()
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            result = pool.submit(measure, path.stem).result()
        title = ast.get_docstring(ast.parse(path.read_text())).splitlines()[0]
        print(f"{title}  [{path.name}, {time.perf_counter() - started:.1f} s]")
        if isinstance(result, str):
            failed.append(ident)
            print(result)
            continue
        numbers, wall = rounded(result[0]), rounded(result[1])
        recorded[ident] = numbers
        print("\n".join(render(numbers)))
        if wall:
            print("  wall, host time (not recorded):")
            print("\n".join(render(wall)))
    if failed:
        print(f"FAILED: {', '.join(failed)}; {OUT.name} not written")
        return 1
    OUT.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"{len(recorded)} claims hold; wrote {OUT.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
