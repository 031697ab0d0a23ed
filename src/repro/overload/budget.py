"""Retry budgets: a shared cap on retry amplification per path.

Every retrying layer in the platform — the channel transport, the
batch retransmitter, the group and shard clients, the lease cache's
renewals — independently believes its retries are cheap.  Under a
server stall they compound: each layer multiplies the offered load of
the layer above, and the aggregate retry volume is what keeps the
server saturated long after the stall ends (the metastable state the
C26 benchmark reproduces).

The budget is the classic token-ratio design: each *first attempt*
against a (node, protocol) path deposits ``ratio`` tokens (10%)
into that path's budget, each retry withdraws one whole token, and the
balance is capped so an idle period cannot bank an unbounded burst.
All layers retrying toward the same path share one budget, so total
retry volume per path is bounded at ``ratio`` of first-attempt traffic
regardless of how many layers are stacked.

A denied withdrawal surfaces as
:class:`~repro.errors.RetryBudgetExhaustedError` — classified exactly
like ``ServerBusyError``: retryable-later, *never* evidence that a
member died, so it must not suspect group members, feed circuit
breakers, or trigger shard-router failover.

The registry starts with ``enabled`` False: it observes (counts first
attempts and retries) but always grants, so the pre-overload retry
behaviour — and the check harness's pinned default digests — are
untouched until a run opts in.
"""

from __future__ import annotations

from typing import Dict, Tuple


class RetryBudget:
    """Token-ratio retry budget for one (node, protocol) path."""

    #: Tokens each first attempt deposits.
    ratio = 0.1
    #: The balance's ceiling, and its opening value.
    cap = 10.0

    def __init__(self) -> None:
        self.tokens = self.cap  # start full: a cold path may retry
        self.first_attempts = 0
        self.retries_granted = 0
        self.retries_denied = 0

    def note_first(self) -> None:
        self.first_attempts += 1
        self.tokens = min(self.cap, self.tokens + self.ratio)

    @property
    def has_budget(self) -> bool:
        return self.tokens >= 1.0

    def try_spend(self, enforce: bool = True) -> bool:
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.retries_granted += 1
            return True
        if not enforce:
            self.retries_granted += 1
            return True
        self.retries_denied += 1
        return False

    def stats(self) -> Dict[str, object]:
        return {
            "tokens": round(self.tokens, 3),
            "first_attempts": self.first_attempts,
            "retries_granted": self.retries_granted,
            "retries_denied": self.retries_denied,
        }


class RetryBudgetRegistry:
    """Per-(node, protocol) budgets shared by every retrying layer.

    One registry hangs off each client nucleus; layers address budgets
    by the destination node and a coarse protocol label ("invoke",
    "batch", "group", "shard", "lease") so unrelated traffic classes do
    not drain each other's headroom.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._budgets: Dict[Tuple[str, str], RetryBudget] = {}

    def budget(self, node: str, protocol: str) -> RetryBudget:
        key = (node, protocol)
        budget = self._budgets.get(key)
        if budget is None:
            budget = self._budgets[key] = RetryBudget()
        return budget

    def note_first(self, node: str, protocol: str) -> None:
        self.budget(node, protocol).note_first()

    def try_spend(self, node: str, protocol: str) -> bool:
        """Withdraw one retry token; always grants when disabled."""
        return self.budget(node, protocol).try_spend(enforce=self.enabled)

    def can_spend(self, node: str, protocol: str) -> bool:
        """Peek: would a withdrawal succeed?  (For optional work —
        e.g. proactive lease renewals — that should simply be skipped
        rather than attempted and denied.)"""
        if not self.enabled:
            return True
        return self.budget(node, protocol).has_budget

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            f"{node}:{protocol}": self._budgets[(node, protocol)].stats()
            for node, protocol in sorted(self._budgets)
        }

    def totals(self) -> Dict[str, object]:
        totals = {"paths": len(self._budgets), "first_attempts": 0,
                  "retries_granted": 0, "retries_denied": 0}
        for budget in self._budgets.values():
            totals["first_attempts"] += budget.first_attempts
            totals["retries_granted"] += budget.retries_granted
            totals["retries_denied"] += budget.retries_denied
        return totals
