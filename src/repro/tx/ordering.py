"""Ordering predicates (the consistency constraint).

Section 5.2: consistency "can be achieved by associating ordering
predicates with interfaces, where the predicate describes the permitted
sequences of invocations within a transaction".  The predicate here is a
small DFA over operation names, checked per (transaction, interface).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.errors import OrderingViolation


class OrderingPredicate:
    """A DFA of permitted invocation sequences within one transaction.

    ``transitions`` maps state -> {operation -> next state}.  Operations
    not mentioned in the current state are violations.  ``accepting``
    states are those in which the transaction may commit; None accepts all.
    An operation name of ``"*"`` in a state is a wildcard self-loop for
    all otherwise-unmentioned operations.
    """

    def __init__(self, transitions: Dict[str, Dict[str, str]],
                 start: str,
                 accepting: Optional[Iterable[str]] = None) -> None:
        if start not in transitions:
            raise ValueError(f"start state {start!r} has no transitions")
        self.transitions = {s: dict(ops) for s, ops in transitions.items()}
        self.start = start
        self.accepting: Optional[Set[str]] = (
            set(accepting) if accepting is not None else None)

    def step(self, state: str, op_name: str) -> str:
        ops = self.transitions.get(state, {})
        if op_name in ops:
            return ops[op_name]
        if "*" in ops:
            return ops["*"]
        raise OrderingViolation(
            f"operation {op_name!r} not permitted in ordering state "
            f"{state!r}")

    def may_commit(self, state: str) -> bool:
        return self.accepting is None or state in self.accepting

    @classmethod
    def sequence(cls, *op_names: str) -> "OrderingPredicate":
        """A predicate requiring exactly the given operation sequence."""
        transitions: Dict[str, Dict[str, str]] = {}
        states = [f"s{i}" for i in range(len(op_names) + 1)]
        for index, op_name in enumerate(op_names):
            transitions[states[index]] = {op_name: states[index + 1]}
        transitions[states[-1]] = {}
        return cls(transitions, states[0], accepting=[states[-1]])
