"""A perf guard that cannot flake: Python calls per invocation.

Wall-clock guards on a shared runner lose runs to the neighbours; the
number of Python-level calls one warm ``Account.deposit(1)`` makes into
this package is the same on every run and every machine.  It fell from
215 to 181 when the envelope got its compiled readers (PR 19), and a
layer that adds a call per invocation shows here as exactly one.
"""

from __future__ import annotations

import os
import sys

import repro
from repro import OdpObject, World, operation

#: Calls into ``src/repro`` one warm invocation may make.
BUDGET = 185

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class Account(OdpObject):
    def __init__(self) -> None:
        self.balance = 0

    @operation(params=[int], returns=[int])
    def deposit(self, amount):
        self.balance += amount
        return self.balance


def _calls_into_package(work) -> int:
    """Python-level calls *work* makes into functions defined under
    this package (C calls are no ``call`` events)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def test_warm_invocation_stays_inside_its_call_budget():
    world = World(seed=1)
    world.node("org", "server-node", native_format="packed")
    world.node("org", "client-node", native_format="packed")
    proxy = world.binder_for(world.capsule("client-node", "clients")).bind(
        world.capsule("server-node", "servers").export(Account()))
    for _ in range(200):  # plans interned, caches filled, ids widened
        proxy.deposit(1)

    def hundred():
        for _ in range(100):
            proxy.deposit(1)

    per_op = _calls_into_package(hundred) / 100
    assert per_op == _calls_into_package(hundred) / 100, "not deterministic"
    assert per_op <= BUDGET, (
        f"{per_op} Python calls per warm invocation, budget {BUDGET}")
