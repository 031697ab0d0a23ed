"""Schedule shrinking: minimize a failing plan, deterministically.

Classic delta-debugging (ddmin) specialised for explorer plans: drop
chunks of operations (largest first), drop whole chaos windows, then
narrow surviving windows — re-running the candidate plan from the same
seed after every edit and keeping it only when it *still* fails with
at least one oracle in common with the original failure (guarding
against slippage onto an unrelated bug).  Shrinking is itself
deterministic: same failing plan in, same minimal plan out.

The payoff is :func:`repro_snippet`: a self-contained Python script —
plans are literal, ``repr`` round-trips — that replays the minimal
counterexample from a bare ``PYTHONPATH=src``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.check.explorer import CheckConfig, run_plan
from repro.check.oracles import Violation, run_all
from repro.check.plan import Plan


def judge(plan: Plan, config: CheckConfig) -> List[Violation]:
    """Run a plan and return its violations (a crash counts as one)."""
    try:
        result = run_plan(plan, config)
    except Exception as exc:  # noqa: BLE001 — a crash IS a finding
        return [Violation("crash", f"{type(exc).__name__}: {exc}")]
    return run_all(result)


@dataclass
class ShrinkReport:
    """The outcome of one shrink session."""

    plan: Plan
    violations: List[Violation]
    original_ops: int
    original_windows: int
    attempts: int = 0
    rounds: int = 0
    oracles: Set[str] = field(default_factory=set)

    def summary(self) -> str:
        return (f"shrunk {self.original_ops} ops -> "
                f"{len(self.plan.ops)}, {self.original_windows} "
                f"windows -> {len(self.plan.windows)} in "
                f"{self.attempts} runs / {self.rounds} rounds; "
                f"still failing: {sorted(self.oracles)}")


class Shrinker:
    """ddmin over one failing plan."""

    def __init__(self, plan: Plan, config: Optional[CheckConfig] = None,
                 max_attempts: int = 400) -> None:
        self.config = config or CheckConfig()
        self.max_attempts = max_attempts
        self.attempts = 0
        original = judge(plan, self.config)
        if not original:
            raise ValueError("plan does not fail: nothing to shrink")
        self.target_oracles = {v.oracle for v in original}
        self.plan = plan
        self.violations = original

    def _still_fails(self, candidate: Plan) -> Optional[List[Violation]]:
        if self.attempts >= self.max_attempts:
            return None
        self.attempts += 1
        violations = judge(candidate, self.config)
        if violations and \
                {v.oracle for v in violations} & self.target_oracles:
            return violations
        return None

    def _accept(self, candidate: Plan,
                violations: List[Violation]) -> None:
        self.plan = candidate
        self.violations = violations

    # -- reduction passes ----------------------------------------------------

    def _shrink_ops(self) -> bool:
        """One ddmin sweep over the op list; True if anything dropped."""
        progressed = False
        chunk = max(len(self.plan.ops) // 2, 1)
        while chunk >= 1:
            start = 0
            while start < len(self.plan.ops):
                ops = (self.plan.ops[:start]
                       + self.plan.ops[start + chunk:])
                if not ops and not self.plan.windows:
                    start += chunk
                    continue
                verdict = self._still_fails(self.plan.replace(ops=ops))
                if verdict is not None:
                    self._accept(self.plan.replace(ops=ops), verdict)
                    progressed = True
                    # Retry the same offset: the next chunk slid here.
                else:
                    start += chunk
            if chunk == 1:
                break
            chunk = max(chunk // 2, 1)
        return progressed

    def _shrink_windows(self) -> bool:
        """Drop whole chaos windows that are not needed to fail."""
        progressed = False
        index = 0
        while index < len(self.plan.windows):
            windows = (self.plan.windows[:index]
                       + self.plan.windows[index + 1:])
            verdict = self._still_fails(
                self.plan.replace(windows=windows))
            if verdict is not None:
                self._accept(self.plan.replace(windows=windows), verdict)
                progressed = True
            else:
                index += 1
        return progressed

    def _narrow_windows(self, halvings: int = 6) -> bool:
        """Halve surviving windows toward their start times."""
        progressed = False
        for index, window in enumerate(list(self.plan.windows)):
            if window.end_ms is None:
                continue
            for _ in range(halvings):
                window = self.plan.windows[index]
                duration = window.end_ms - window.start_ms
                if duration <= 1.0:
                    break
                narrowed = dataclasses.replace(
                    window, end_ms=round(window.start_ms
                                         + duration / 2.0, 3))
                windows = list(self.plan.windows)
                windows[index] = narrowed
                verdict = self._still_fails(
                    self.plan.replace(windows=windows))
                if verdict is None:
                    break
                self._accept(self.plan.replace(windows=windows), verdict)
                progressed = True
        return progressed

    def run(self) -> ShrinkReport:
        original_ops = len(self.plan.ops)
        original_windows = len(self.plan.windows)
        rounds = 0
        while self.attempts < self.max_attempts:
            rounds += 1
            progressed = self._shrink_ops()
            progressed |= self._shrink_windows()
            progressed |= self._narrow_windows()
            if not progressed:
                break
        return ShrinkReport(
            plan=self.plan, violations=self.violations,
            original_ops=original_ops,
            original_windows=original_windows,
            attempts=self.attempts, rounds=rounds,
            oracles={v.oracle for v in self.violations})


def shrink(plan: Plan, config: Optional[CheckConfig] = None,
           max_attempts: int = 400) -> ShrinkReport:
    """Minimize a failing plan; raises ValueError if it does not fail."""
    return Shrinker(plan, config, max_attempts).run()


def repro_snippet(plan: Plan,
                  config: Optional[CheckConfig] = None) -> str:
    """A standalone script replaying *plan* (run with PYTHONPATH=src)."""
    config = config or CheckConfig()
    return (
        "# Reproduction: run with  PYTHONPATH=src python <this file>\n"
        "from repro.check import CheckConfig, run_plan\n"
        "from repro.check.oracles import run_all\n"
        "from repro.check.plan import Op, Plan\n"
        "from repro.net.fault import (AsymPartitionWindow, "
        "CrashWindow,\n                             CutWindow, "
        "FlakyWindow, GrayWindow,\n"
        "                             PartitionWindow, StallWindow)\n"
        "\n"
        f"config = {config!r}\n"
        f"plan = {plan!r}\n"
        "\n"
        "result = run_plan(plan, config)\n"
        "violations = run_all(result)\n"
        "for violation in violations:\n"
        "    print(violation)\n"
        "assert violations, 'expected at least one violation'\n"
    )
