"""What only a unit test reaches: the functions no driver ever calls.

    python -m benchmarks.reach

Runs every driver that is not a unit test, each in its own interpreter
with one trace hook (``sys.settrace`` and ``threading.settrace``) that
records the code objects it calls under ``src/repro`` and the lines
they run:

* ``python -m repro.check --seeds 10`` in the eight configurations (the
  default, each of the six modes alone, all six composed);
* each ``--mutate`` run with ``--shrink``, under the mode its oracle
  watches;
* every ``examples/*.py``;
* ``benchmarks/ledger/run.py --workload W --setup-only`` for every
  workload ``BENCHMARK.json`` declares (one cold set-up each);
* the ``claim()`` of every ``benchmarks/bench_c*.py``, each in its own
  interpreter as ``python -m benchmarks.claims`` runs it (a claim
  writes no file);
* ``python -m tests.hostile_envelopes``, every malformed envelope at a
  live node, and ``tests.damaged_images.sample()``, tier-1's sample of
  the damaged wire images (both need pytest importable);
* ``tests.heal_beats_reference.sample()``, the heartbeat streams held
  to the beat-by-beat reference over one fault timeline;
* ``python -m tests.exhaustive_loss``, every one-shot loss pattern of
  one group write under a supervisor.

A driver that raises (anything but ``SystemExit``: a ``--mutate`` run
that trips exits 1 on purpose) fails the audit, which prints the tail
of its stderr and exits 1 without writing the report.

Every function ``ast`` finds in ``src/repro`` that no driver called is
written to ``benchmarks/out/REACH.txt``: per package, the functions and
source lines never called, then each such function with its file and
line.  Beside them, per package, the executable lines inside functions
that some driver called which no driver ran.  CI fails when either
total rises above the committed file's.  Line tables differ between
Python minor versions, so compare files made with the same one (the
committed file: 3.11).  Standard library only; two drivers run at a
time.
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
#: ``module:function`` called with no arguments, a module or a path as
#: ``__main__``), write
#: what it called, the lines of those calls it ran and did not run, and
#: whether the hook was found disarmed at the end (a driver that
#: installs a tracer of its own hides calls from it).  A frame is traced
#: line by line only while its code has a line not yet seen to run.
#: ``argv``: the package prefix, the out file, "call" / "module" /
#: "path", the target, the driver's own arguments.
_BOOT = r"""
import importlib, json, runpy, sys, threading
prefix, out, how, target, *args = sys.argv[1:]
#: Code object -> its lines not yet seen to run (its first line, the
#: ``def``, runs with the call).
unrun = {}
def local(frame, event, arg):
    if event == "line":
        unrun[frame.f_code].discard(frame.f_lineno)
    return local
def hook(frame, event, arg):
    code = frame.f_code
    left = unrun.get(code)
    if left is None:
        left = unrun[code] = set()
        if code.co_filename.startswith(prefix):
            left.update(line for _, _, line in code.co_lines()
                        if line is not None and line != code.co_firstlineno)
    return local if left else None
sys.argv = [target, *args]
sys.settrace(hook)
threading.settrace(hook)
try:
    if how == "call":
        module, _, function = target.partition(":")
        getattr(importlib.import_module(module), function)()
    elif how == "path":
        runpy.run_path(target, run_name="__main__")
    else:
        runpy.run_module(target, run_name="__main__", alter_sys=True)
except SystemExit:
    pass
finally:
    lost = int(sys.gettrace() is not hook)
    sys.settrace(None)
    ours = [code for code in unrun if code.co_filename.startswith(prefix)]
    lines = {}
    for code in ours:
        if code.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a body
            ran, missed = lines.setdefault(code.co_filename, (set(), set()))
            left = unrun[code]
            ran.update(line for _, _, line in code.co_lines()
                       if line is not None and line not in left)
            missed.update(left)
    with open(out, "w") as handle:
        json.dump({"lost": lost, "called": sorted(
            [code.co_filename, code.co_firstlineno, code.co_name]
            for code in ours), "lines": {
                path: [sorted(ran), sorted(missed)]
                for path, (ran, missed) in lines.items()}}, handle)
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
        found.append((f"{ident}: benchmarks/{path.name} claim()", "call",
                      f"benchmarks.{path.stem}:claim", []))
    found.append(("python -m tests.hostile_envelopes", "module",
                  "tests.hostile_envelopes", []))
    found.append(("tests/damaged_images.py sample()", "call",
                  "tests.damaged_images:sample", []))
    found.append(("tests/heal_beats_reference.py sample()", "call",
                  "tests.heal_beats_reference:sample", []))
    found.append(("python -m tests.exhaustive_loss", "module",
                  "tests.exhaustive_loss", []))
    return found


def run_driver(index: int, driver, scratch: str) -> Dict:
    label, how, target, args = driver
    out = os.path.join(scratch, f"driver-{index}.json")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _BOOT,
                           str(PACKAGE) + os.sep, out, how, target, *args],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode:  # it raised: what it reached says nothing
        tail = "\n".join(done.stderr.splitlines()[-12:])
        print(f"  FAILED {label} (exit {done.returncode}):\n{tail}")
        return {"label": label, "failed": done.returncode}
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
        per_package.setdefault(package_of(path), [0, 0, 0, 0, 0])[0] += 1
    for path, first, last, _, _ in never:
        per_package[package_of(path)][1] += 1
        lines.setdefault(path, set()).update(range(first, last + 1))
    for path, numbers in lines.items():
        per_package[package_of(path)][2] += len(numbers)
    total_lines = sum(len(numbers) for numbers in lines.values())
    # Lines of called functions: run by some driver, or by none.
    ran: Dict[str, Set[int]] = {}
    missed: Dict[str, Set[int]] = {}
    for result in results:
        for path, (hit, miss) in result["lines"].items():
            ran.setdefault(path, set()).update(hit)
            missed.setdefault(path, set()).update(miss)
    for path, numbers in missed.items():
        numbers -= ran[path]
        counts = per_package[package_of(path)]
        counts[3] += len(numbers | ran[path])
        counts[4] += len(numbers)
    executable = sum(counts[3] for counts in per_package.values())
    unrun = sum(counts[4] for counts in per_package.values())
    out = [
        "REACH: functions in src/repro that no driver calls",
        "=" * 72,
        f"drivers ({len(results)}), each in its own interpreter:",
        *[f"  {result['label']}{_lost(result)}" for result in results],
        "",
        f"{len(every)} functions, {len(never)} never called, "
        f"{total_lines} lines",
        f"{executable} executable lines in called functions, {unrun} "
        f"run by no driver",
        "",
        f"{'package':<14}{'functions':>10}{'never':>8}{'lines':>8}"
        f"{'called':>8}{'unrun':>8}",
    ]
    for package in sorted(per_package):
        count, never_called, never_lines, called, not_run = \
            per_package[package]
        out.append(f"{package:<14}{count:>10}{never_called:>8}"
                   f"{never_lines:>8}{called:>8}{not_run:>8}")
    out += ["", "lines: source lines of never-called functions; called:"
                " executable lines of called functions; unrun: those no"
                " driver ran"]
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
    failed = [result["label"] for result in results if "failed" in result]
    if failed:
        print(f"benchmarks.reach: {len(failed)} driver(s) failed, "
              f"{OUT.relative_to(ROOT)} left as it was: {failed}")
        return 1
    OUT.write_text("\n".join(report(results)) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)} in "
          f"{time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
