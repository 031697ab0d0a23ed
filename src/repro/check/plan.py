"""Plans: a randomized run of the whole stack, expressed as data.

A :class:`Plan` is one explorer scenario: the world seed, an ordered
list of client operations (:class:`Op`), and a list of declarative
chaos windows (:class:`~repro.net.fault.FaultSchedule` members).  Plans
are *literal* — ``repr(plan)`` is valid Python that rebuilds the plan —
which is what makes shrunken counterexamples copy-pasteable.

Generation forks dedicated streams from the top-level seed
(``check:plan`` for operations, ``check:chaos`` for windows) so a plan
is a pure function of its seed, independent of every stream the
simulated world itself consumes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.check.modes import MODES, enabled
from repro.check.workload import (
    ACCOUNTS,
    CLIENT_NODE,
    COUNTERS,
    GROUP_SIZE,
    KEYS,
    SERVER_NODES,
)
from repro.net.fault import CrashWindow, CutWindow, FlakyWindow, GrayWindow
from repro.sim.rand import DeterministicRandom

#: Virtual ms the explorer advances the clock before each op; also the
#: unit generation uses to aim chaos windows at the op timeline.
OP_BUDGET_MS = 25.0
#: A plan carries between zero and this many chaos windows.
MAX_WINDOWS = 4


def _counter(rng, index):
    return {"counter": rng.randint(0, COUNTERS - 1)}


def _transfer(rng, index):
    src = rng.randint(0, ACCOUNTS - 1)
    dst = rng.randint(0, ACCOUNTS - 2)
    if dst >= src:
        dst += 1
    return {"src": src, "dst": dst, "amount": rng.randint(1, 60)}


def _object(rng, index):
    return {"obj": rng.choice([f"c{i}" for i in range(COUNTERS)]
                              + [f"a{i}" for i in range(ACCOUNTS)])}


def _relocate(rng, index):
    return dict(_object(rng, index), to=rng.choice(SERVER_NODES))


def _advance(rng, index):
    # Mostly small pauses; occasionally a jump long enough for
    # leases to expire, making passivated objects collectable.
    if rng.chance(0.15):
        return {"ms": float(rng.randint(11_000, 16_000))}
    return {"ms": round(rng.uniform(2.0, 250.0), 3)}


#: The default op table, one row per kind: (kind, weight, draw), where
#: ``draw(rng, index)`` draws the op's parameters.  Invocation-heavy,
#: with enough lifecycle churn (relocation, passivation, gc, big clock
#: jumps) to stress every layer.  A row added here would change every
#: pinned plan and digest; each mode appends its own (:func:`op_table`).
DEFAULT_ROWS = (
    # counter.increment() — non-idempotent
    ("invoke", 24, _counter),
    ("read", 8, _counter),
    # transactional withdraw+deposit between accounts
    ("transfer", 14, _transfer),
    # the same transfer, deliberately aborted by the client
    ("cancel_transfer", 4, _transfer),
    # replicated kv write / read through the group ref
    ("group_put", 12, lambda rng, index: {"key": rng.choice(KEYS),
                                          "value": f"v{index}"}),
    ("group_get", 6, lambda rng, index: {"key": rng.choice(KEYS)}),
    # re-admit a suspected member after node restart
    ("group_revive", 3,
     lambda rng, index: {"member": rng.randint(0, GROUP_SIZE - 1)}),
    # migrate an object to another node
    ("relocate", 8, _relocate),
    # push an object out to the stable repository
    ("passivate", 5, _object),
    # run the distributed collector once
    ("gc_sweep", 4, lambda rng, index: {}),
    # advance the virtual clock (lease/lifecycle time)
    ("advance", 8, _advance),
    # deterministically drop the next reply leg
    ("lose_reply", 4,
     lambda rng, index: {"node": rng.choice(SERVER_NODES)}),
)

_DEFAULT_KINDS = tuple(row[0] for row in DEFAULT_ROWS)


def op_kinds() -> Tuple[str, ...]:
    """The op vocabulary: the default kinds, then each registered
    mode's (a pinned plan may name any of them under any config)."""
    return _DEFAULT_KINDS + tuple(
        row[0] for mode in MODES for row in mode.rows)


class Op:
    """One client operation; ``repr`` round-trips as a Python literal."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, **params) -> None:
        if kind not in _DEFAULT_KINDS and kind not in op_kinds():
            raise ValueError(f"unknown op kind {kind!r}")
        self.kind = kind
        self.params = dict(params)

    def get(self, key: str, default=None):
        return self.params.get(key, default)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Op) and other.kind == self.kind
                and other.params == self.params)

    def __repr__(self) -> str:
        parts = [repr(self.kind)] + [
            f"{key}={self.params[key]!r}" for key in sorted(self.params)]
        return f"Op({', '.join(parts)})"


class Plan:
    """A complete explorer scenario, reproducible from its own repr."""

    __slots__ = ("seed", "ops", "windows")

    def __init__(self, seed: int, ops: Optional[List[Op]] = None,
                 windows: Optional[list] = None) -> None:
        self.seed = seed
        self.ops: List[Op] = list(ops) if ops else []
        self.windows: list = list(windows) if windows else []

    def replace(self, ops=None, windows=None) -> "Plan":
        return Plan(self.seed,
                    self.ops if ops is None else ops,
                    self.windows if windows is None else windows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Plan) and other.seed == self.seed
                and other.ops == self.ops
                and other.windows == self.windows)

    def __repr__(self) -> str:
        ops = ", ".join(repr(op) for op in self.ops)
        windows = ", ".join(repr(w) for w in self.windows)
        return (f"Plan(seed={self.seed}, ops=[{ops}], "
                f"windows=[{windows}])")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def op_table(config) -> tuple:
    """The default rows, then each enabled mode's in registry order."""
    return DEFAULT_ROWS + tuple(row for mode in enabled(config)
                         for row in mode.rows)


def _generate_op(rng: DeterministicRandom, table, index: int) -> Op:
    roll = rng.randint(1, sum(weight for _, weight, _ in table))
    for kind, weight, draw in table:
        roll -= weight
        if roll <= 0:
            break
    return Op(kind, **draw(rng, index))


def _flaky(rng, start, end):
    return FlakyWindow(start, end, drop=round(rng.uniform(0.05, 0.35), 3))


def _crash(rng, start, end):
    return CrashWindow(rng.choice(SERVER_NODES), start, end)


def _gray(rng, start, end):
    ends = (CLIENT_NODE, rng.choice(SERVER_NODES))
    if rng.chance(0.5):
        ends = (ends[1], ends[0])
    return GrayWindow(start, end, factor=round(rng.uniform(2.0, 8.0), 3),
                      source=ends[0], destination=ends[1])


def _cut(rng, start, end):
    return CutWindow(CLIENT_NODE, rng.choice(SERVER_NODES), start, end)


#: The default chaos-window kinds, by roll: (lo, hi, build), a window
#: lasting between ``lo`` and ``hi`` of the plan's horizon, built by
#: ``build(rng, start_ms, end_ms)``.  Each mode's kinds take the rolls
#: above these (:func:`window_kinds`).
_WINDOWS = (
    (0.05, 0.30, _flaky),
    (0.05, 0.20, _crash),
    (0.05, 0.30, _gray),
    (0.03, 0.15, _cut),
)


def window_kinds(config) -> tuple:
    """The default kinds, then each enabled mode's in registry order."""
    return _WINDOWS + tuple(kind for mode in enabled(config)
                            for kind in mode.windows)


def _generate_window(rng: DeterministicRandom, horizon_ms: float, kinds):
    start = round(rng.uniform(0.0, horizon_ms * 0.7), 3)
    lo, hi, build = kinds[rng.randint(0, len(kinds) - 1)]
    duration = round(rng.uniform(horizon_ms * lo, horizon_ms * hi), 3)
    return build(rng, start, start + duration)


def generate_plan(seed: int, config) -> Plan:
    """A plan is a pure function of (seed, config): same in, same out."""
    root = DeterministicRandom(seed, path=f"check:{seed}")
    op_rng = root.fork("check:plan")
    chaos_rng = root.fork("check:chaos")

    table = op_table(config)
    ops = [_generate_op(op_rng, table, index)
           for index in range(config.ops)]

    horizon = config.ops * OP_BUDGET_MS
    kinds = window_kinds(config)
    windows = [_generate_window(chaos_rng, horizon, kinds)
               for _ in range(chaos_rng.randint(0, MAX_WINDOWS))]
    windows.sort(key=lambda w: (w.start_ms, type(w).__name__))
    return Plan(seed, ops, windows)
