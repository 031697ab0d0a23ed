"""Pinned check runs as text, and what moved when a pin drifts.

``MODE_DIGESTS`` (``tests/test_check_regressions.py``) pins one run per
``(mode, seed)``: default and composed, each mode alone at seeds 0 and
5, and each pair of modes at seed 0.  A pin is the run's digest, one
SHA-256 over the plan repr, the op events and the end state
(``repro.check.history.digest_run``), and the hashes are the check.
Beside each hash, ``tests/pins/<mode>.<seed>.txt`` records the run it
names as lines a diff reads:

* ``plan seed=<seed>`` and one ``window <repr>`` line per chaos window;
  the plan's ops are the op lines' ``op`` fields, so the plan repr is
  ``Plan(seed=<seed>, ops=[<op fields>], windows=[<windows>])``;
* one ``op [i, t0, t1, outcome, op, detail]`` line per op event (JSON);
* one ``end <path> = <value>`` line per leaf of the end state, sorted
  by path: dicts, and lists holding a dict, open into dotted paths
  (a segment that needs it is quoted), other values are JSON.

When a run's hash no longer matches, :func:`drift` reads the committed
record against the fresh one and says whether the plan text differs,
which op differs first (both sides), how many later ops differ in
timing only and how many in outcome or detail, and which end-state
paths differ.

Regenerate the hashes and the records together, and only for a
deliberate change of behaviour::

    PYTHONPATH=src:. python -m tests.pin_records

It prints the drift of each pin that moved, then rewrites
``tests/pins/``; it writes nothing, and exits 1, if a run it would pin
trips an oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.check import CheckConfig
from repro.check.modes import MODES

PINS = Path(__file__).with_name("pins")
DIGESTS = PINS / "digests.txt"
SEEDS = (0, 5)

Key = Tuple[str, int]


def pinned_keys() -> List[Key]:
    """Every pinned run: default, each mode and all of them composed at
    each of :data:`SEEDS`, and each unordered pair of modes at seed 0."""
    names = [mode.name for mode in MODES]
    return ([(key, seed) for key in ("default", *names, "composed")
             for seed in SEEDS]
            + [("+".join(sorted(pair)), 0)
               for pair in itertools.combinations(names, 2)])


def config_for(key: str, *mutations: str) -> CheckConfig:
    """The config a pin key names: "default", "composed" or the mode
    names joined by "+"."""
    names = {"default": [],
             "composed": [mode.name for mode in MODES]}.get(
                 key, key.split("+"))
    return dataclasses.replace(
        CheckConfig(), **{name: True for name in names}
    ).with_mutations(*mutations)


def load_digests() -> Dict[Key, str]:
    digests: Dict[Key, str] = {}
    for line in DIGESTS.read_text().splitlines():
        if line and not line.startswith("#"):
            key, seed, digest = line.split()
            digests[(key, int(seed))] = digest
    return digests


def record_path(key: str, seed: int) -> Path:
    return PINS / f"{key}.{seed}.txt"


def read_record(key: str, seed: int) -> str:
    path = record_path(key, seed)
    return path.read_text() if path.exists() else ""


# -- rendering ---------------------------------------------------------------

def _json(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


_PLAIN = re.compile(r"[A-Za-z0-9_+\-@:/]+")


def _leaves(value, path: str, out: List[str]) -> None:
    if isinstance(value, dict) and value:
        for name, item in value.items():
            name = str(name)
            if not _PLAIN.fullmatch(name):
                name = json.dumps(name)
            _leaves(item, f"{path}.{name}" if path else name, out)
    elif isinstance(value, (list, tuple)) and any(
            isinstance(item, dict) for item in value):
        for index, item in enumerate(value):
            _leaves(item, f"{path}.{index}", out)
    else:
        out.append(f"{path} = {_json(value)}")


def record(result) -> str:
    """The text record of one :class:`~repro.check.explorer.RunResult`."""
    plan = result.plan
    lines = [f"plan seed={plan.seed}"]
    lines += [f"window {window!r}" for window in plan.windows]
    lines += ["op " + _json([event["i"], event["t0"], event["t1"],
                             event["outcome"], event["op"],
                             event["detail"]])
              for event in result.events]
    ends: List[str] = []
    _leaves(result.end_state, "", ends)
    lines += [f"end {line}" for line in sorted(ends)]
    return "\n".join(lines) + "\n"


# -- drift -------------------------------------------------------------------

def _parse(text: str):
    plan: List[str] = []
    ops: List[list] = []
    end: Dict[str, str] = {}
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "op":
            ops.append(json.loads(rest))
        elif kind == "end":
            path, _, value = rest.partition(" = ")
            end[path] = value
        else:
            plan.append(line)
    # An op's repr is plan text too.
    return plan + [f"op {op[4]}" for op in ops], ops, end


def _short(text: str, width: int) -> str:
    return text if len(text) <= width else text[:width - 3] + "..."


def _timing_only(was, now) -> bool:
    """Both records have the op, and only its t0 and t1 differ."""
    return was is not None and now is not None \
        and was[:1] + was[3:] == now[:1] + now[3:]


def drift(old: str, new: str) -> List[str]:
    """What differs between two records of one pin, one finding a line."""
    old_plan, old_ops, old_end = _parse(old)
    new_plan, new_ops, new_end = _parse(new)
    report = []
    if old_plan == new_plan:
        report.append("plan text: same")
    else:
        changed = [index for index in range(max(len(old_plan),
                                                len(new_plan)))
                   if old_plan[index:index + 1] != new_plan[index:index + 1]]
        first = changed[0]
        report += [f"plan text: differs in {len(changed)} of "
                   f"{len(new_plan)} lines (seed, windows, op fields); "
                   f"the first:",
                   f"  was {' '.join(old_plan[first:first + 1])}",
                   f"  now {' '.join(new_plan[first:first + 1])}"]
    pairs = list(itertools.zip_longest(old_ops, new_ops))
    differing = [index for index, (was, now) in enumerate(pairs)
                 if was != now]
    if not differing:
        report.append(f"ops: all {len(new_ops)} the same")
    else:
        first = differing[0]
        timing = sum(_timing_only(*pairs[index])
                     for index in differing[1:])
        outcome = len(differing) - 1 - timing
        was, now = pairs[first]
        kind = ("timing only" if _timing_only(was, now)
                else "outcome or detail")
        report += [f"ops: op {first} differs first, in {kind}",
                   f"  was {_short(_json(was), 160)}",
                   f"  now {_short(_json(now), 160)}",
                   f"  of the {len(pairs) - first - 1} after it, {timing} "
                   f"differ in timing only and {outcome} in outcome or "
                   f"detail"]
    paths = sorted(path for path in old_end.keys() | new_end.keys()
                   if old_end.get(path) != new_end.get(path))
    if not paths:
        report.append("end state: same")
    else:
        report.append(f"end state: {len(paths)} path(s) differ")
        report += [f"  {path}: {_short(old_end.get(path, '(absent)'), 40)}"
                   f" -> {_short(new_end.get(path, '(absent)'), 40)}"
                   for path in paths]
    return report


def explain(key: str, seed: int, old: str, new: str) -> str:
    return "\n".join([f"{key} seed {seed}:"]
                     + [f"  {line}" for line in drift(old, new)])


# -- regeneration ------------------------------------------------------------

def regenerate() -> int:
    from repro.check.explorer import run_seed

    pinned = load_digests() if DIGESTS.exists() else {}
    runs = {}
    for key, seed in pinned_keys():
        result = run_seed(seed, config_for(key))
        if result.violations:
            print(f"{key} seed {seed} trips "
                  f"{sorted({v.oracle for v in result.violations})}: "
                  f"not pinned, nothing written")
            return 1
        runs[(key, seed)] = (result.digest, record(result))
    moved = [(key, seed) for (key, seed), (digest, _) in runs.items()
             if pinned.get((key, seed)) != digest]
    for key, seed in moved:
        print(explain(key, seed, read_record(key, seed),
                      runs[(key, seed)][1]))
    print(f"{len(moved)} of {len(runs)} pins moved")
    PINS.mkdir(exist_ok=True)
    for stale in PINS.glob("*.txt"):
        if stale != DIGESTS:
            stale.unlink()
    lines = ["# key seed digest: regenerate with "
             "PYTHONPATH=src:. python -m tests.pin_records"]
    for (key, seed), (digest, text) in runs.items():
        lines.append(f"{key} {seed} {digest}")
        record_path(key, seed).write_text(text)
    DIGESTS.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
