"""What only a unit test reaches: the functions no driver ever calls.

    python -m benchmarks.reach

Runs every driver that is not a unit test, each in its own interpreter
with a profile hook (``sys.setprofile`` and ``threading.setprofile``)
that records the code objects it calls under ``src/repro``:

* ``python -m repro.check --seeds 10`` in the eight configurations (the
  default, each of the six modes alone, all six composed);
* each ``--mutate`` run with ``--shrink``, under the mode its oracle
  watches;
* every ``examples/*.py``;
* ``benchmarks/ledger/run.py --workload W --setup-only`` for every
  workload ``BENCHMARK.json`` declares (one cold set-up each);
* the ``claim()`` of every ``benchmarks/bench_c*.py``, each in its own
  interpreter as ``python -m benchmarks.claims`` runs it (a claim
  writes no file).

Every function ``ast`` finds in ``src/repro`` that no driver called is
written to ``benchmarks/out/REACH.txt``: per package, the functions and
source lines never called, then each such function with its file and
line.  Standard library only; two drivers run at a time.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Set, Tuple

from benchmarks import claims

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
OUT = ROOT / "benchmarks" / "out" / "REACH.txt"

MODES = ("batching", "shards", "supervisor", "partitions", "leases",
         "overload")
#: Each mutation, with the mode whose oracle it trips ("" for none).
MUTATIONS = (("deadline", "overload"), ("leaseinval", "leases"),
             ("quorumbarrier", "partitions"), ("replycache", ""),
             ("txversions", ""))

#: Runs in the driver's interpreter: arm the hook, run the driver (a
#: claim script's ``claim()``, a module or a path as ``__main__``), write
#: what it called and whether the hook was found disarmed at the end (a
#: driver that installs a profiler of its own hides calls from it).
#: ``argv``: the package prefix, the out file, "claim" / "module" /
#: "path", the target, the driver's own arguments.
_BOOT = r"""
import importlib, json, runpy, sys, threading
prefix, out, how, target, *args = sys.argv[1:]
seen = set()
def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.argv = [target, *args]
sys.setprofile(hook)
threading.setprofile(hook)
try:
    if how == "claim":
        importlib.import_module(target).claim()
    elif how == "path":
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)
except SystemExit:
    pass
finally:
    lost = int(sys.getprofile() is not hook)
    sys.setprofile(None)
    with open(out, "w") as handle:
        json.dump({"lost": lost, "called": sorted(
            [code.co_filename, code.co_firstlineno, code.co_name]
            for code in seen if code.co_filename.startswith(prefix))},
            handle)
"""


def drivers() -> List[Tuple[str, str, str, List[str]]]:
    """``(label, how, target, arguments)`` of every driver, in order."""
    found = []
    for flags in ([], *[[f"--{mode}"] for mode in MODES],
                  [f"--{mode}" for mode in MODES]):
        label = "check " + (" ".join(flags) or "(default)")
        found.append((label, "module", "repro.check",
                      ["--seeds", "10", *flags]))
    for mutation, mode in MUTATIONS:
        flags = [f"--{mode}"] if mode else []
        found.append((f"check --mutate {mutation} --shrink", "module",
                      "repro.check", ["--seeds", "10", "--mutate", mutation,
                                      "--shrink", *flags]))
    for path in sorted((ROOT / "examples").glob("*.py")):
        found.append((f"examples/{path.name}", "path", str(path), []))
    ledger = ROOT / "benchmarks" / "ledger" / "run.py"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        args = ["--workload", workload["name"], "--setup-only"]
        found.append((f"benchmarks/ledger/run.py {' '.join(args)}", "path",
                      str(ledger), args))
    for ident, path in claims.scripts():
        found.append((f"{ident}: benchmarks/{path.name} claim()", "claim",
                      f"benchmarks.{path.stem}", []))
    return found


def run_driver(index: int, driver, scratch: str) -> Dict:
    label, how, target, args = driver
    out = os.path.join(scratch, f"driver-{index}.json")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", _BOOT, str(PACKAGE) + os.sep,
                    out, how, target, *args],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    with open(out) as handle:
        result = json.load(handle)
    print(f"  {time.perf_counter() - started:6.1f}s  {label}"
          f"{_lost(result)}")
    return dict(result, label=label)


def _lost(result: Dict) -> str:
    if not result["lost"]:
        return ""
    return "  (hook found disarmed: calls after that were not recorded)"


def functions() -> List[Tuple[str, int, int, str, str]]:
    """``(file, first line, last line, name, qualified name)`` of every
    function defined under the package; the first line is the first
    decorator's, as in the function's code object."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                found.append((path, first, child.end_lineno, child.name,
                              prefix + child.name))
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "")
    return found


def package_of(path: str) -> str:
    parts = Path(path).relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else "(top level)"


def report(results: List[Dict]) -> List[str]:
    called: Set[Tuple[str, int, str]] = {
        tuple(entry) for result in results for entry in result["called"]}
    every = functions()
    never = [function for function in every
             if (function[0], function[1], function[3]) not in called]
    per_package: Dict[str, List[int]] = {}
    lines: Dict[str, Set[int]] = {}
    for path, first, last, _, _ in every:
        per_package.setdefault(package_of(path), [0, 0, 0])[0] += 1
    for path, first, last, _, _ in never:
        per_package[package_of(path)][1] += 1
        lines.setdefault(path, set()).update(range(first, last + 1))
    for path, numbers in lines.items():
        per_package[package_of(path)][2] += len(numbers)
    total_lines = sum(len(numbers) for numbers in lines.values())
    out = [
        "REACH: functions in src/repro that no driver calls",
        "=" * 72,
        f"drivers ({len(results)}), each in its own interpreter:",
        *[f"  {result['label']}{_lost(result)}" for result in results],
        "",
        f"{len(every)} functions, {len(never)} never called, "
        f"{total_lines} lines",
        "",
        f"{'package':<14}{'functions':>10}{'never':>8}{'lines':>8}",
    ]
    for package in sorted(per_package):
        count, missed, missed_lines = per_package[package]
        out.append(f"{package:<14}{count:>10}{missed:>8}{missed_lines:>8}")
    out += ["", "never called (file:line  function):"]
    for path, first, _, _, qualified in never:
        where = Path(path).relative_to(PACKAGE).as_posix()
        out.append(f"  {where}:{first}  {qualified}")
    return out


def main() -> int:
    started = time.perf_counter()
    every = drivers()
    print(f"benchmarks.reach: {len(every)} drivers")
    with tempfile.TemporaryDirectory() as scratch:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(
                lambda pair: run_driver(*pair, scratch), enumerate(every)))
    OUT.write_text("\n".join(report(results)) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)} in "
          f"{time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
