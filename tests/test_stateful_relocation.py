"""Stateful property test: location transparency under arbitrary
migration/passivation/crash sequences.

A hypothesis rule-based machine drives one account through random
migrations between three capsules, passivations, node crashes/restarts
and recoveries, interleaved with client invocations through a proxy
bound once at the start.  The invariants:

* the proxy keeps working whenever *some* live copy exists,
* the observed balance always equals the model's balance,
* interface identity never changes.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import EnvironmentConstraints, FailureSpec
from repro.errors import NodeUnreachableError, OdpError
from repro.recovery.checkpoint import checkpoint_key
from repro.runtime import World
from tests.conftest import Account

NODES = ("n0", "n1", "n2")


class RelocationMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.world = World(seed=77)
        for node in NODES:
            self.world.node("org", node)
        self.world.node("org", "client")
        self.capsules = {node: self.world.capsule(node, "srv")
                         for node in NODES}
        self.clients = self.world.capsule("client", "cli")
        self.domain = self.world.domain("org")
        self.ref = self.capsules["n0"].export(
            Account(500),
            constraints=EnvironmentConstraints(
                failure=FailureSpec(checkpoint_every=3)))
        self.proxy = self.world.binder_for(self.clients).bind(self.ref)
        self.home = "n0"
        self.balance = 500
        self.crashed = set()

    # -- helpers ---------------------------------------------------------------

    def _home_alive(self) -> bool:
        return self.home not in self.crashed

    def _live_other(self):
        for node in NODES:
            if node != self.home and node not in self.crashed:
                return node
        return None

    # -- rules ------------------------------------------------------------------

    @precondition(lambda self: self._home_alive())
    @rule()
    def client_deposit(self):
        assert self.proxy.deposit(10) == self.balance + 10
        self.balance += 10

    @precondition(lambda self: not self._home_alive())
    @rule()
    def client_call_fails_when_home_dead(self):
        with pytest.raises(OdpError):
            self.proxy.balance_of()

    @precondition(lambda self: self._home_alive()
                  and self._live_other() is not None)
    @rule()
    def migrate(self):
        target = self._live_other()
        self.domain.migrator.migrate(self.capsules[self.home],
                                     self.ref.interface_id,
                                     self.capsules[target])
        self.home = target

    @precondition(lambda self: self._home_alive())
    @rule()
    def passivate(self):
        self.domain.passivation.passivate(self.capsules[self.home],
                                          self.ref.interface_id)

    @precondition(lambda self: self._home_alive()
                  and self._live_other() is not None)
    @rule()
    def crash_home_and_recover(self):
        target = self._live_other()
        self.world.crash_node(self.home)
        self.crashed.add(self.home)
        if self.domain.repository.contains(
                checkpoint_key(self.ref.interface_id)):
            # Remove any stale record at the target before recovery.
            self.domain.recovery.recover(self.ref.interface_id,
                                         self.capsules[target])
            self.home = target

    @precondition(lambda self: bool(self.crashed))
    @rule()
    def restart_a_node(self):
        node = sorted(self.crashed)[0]
        self.world.restart_node(node)
        self.crashed.discard(node)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def balance_matches_model(self):
        if not hasattr(self, "world"):
            return
        if self._home_alive():
            assert self.proxy.balance_of() == self.balance

    @invariant()
    def identity_is_stable(self):
        if not hasattr(self, "world"):
            return
        current = self.domain.relocator.try_lookup(self.ref.interface_id)
        assert current is not None
        assert current.interface_id == self.ref.interface_id


class TestStatefulRelocation(RelocationMachine.TestCase):
    settings = settings(max_examples=30, stateful_step_count=20,
                        deadline=None)
