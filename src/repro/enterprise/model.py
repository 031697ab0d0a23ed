"""Enterprise-viewpoint modelling: communities, roles, objectives."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


class Dependability(enum.Enum):
    """How much an enterprise cares about a role's resources."""

    BEST_EFFORT = "best_effort"
    STANDARD = "standard"
    MISSION_CRITICAL = "mission_critical"


@dataclass(frozen=True)
class Objective:
    """Something the community exists to achieve."""

    name: str
    description: str = ""


@dataclass
class Role:
    """A role within a community.

    ``performs`` names the operations fillers of this role invoke on the
    community's services; ``provides`` names the operations fillers offer.
    The security/dependability attributes drive requirement derivation.
    """

    name: str
    performs: Set[str] = field(default_factory=set)
    provides: Set[str] = field(default_factory=set)
    dependability: Dependability = Dependability.STANDARD
    #: Interactions performed by this role must be audited (contracts).
    audited: bool = False

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Contract:
    """An agreed interaction pattern between two roles."""

    name: str
    client_role: str
    server_role: str
    operations: Set[str]
    audited: bool = True


class Community:
    """An organisation: objectives, roles, contracts, member assignments."""

    def __init__(self, name: str,
                 objectives: Optional[List[Objective]] = None) -> None:
        self.name = name
        self.objectives: List[Objective] = list(objectives or [])
        self.roles: Dict[str, Role] = {}
        self.contracts: List[Contract] = []
        #: principal -> role names they fill.
        self.assignments: Dict[str, Set[str]] = {}

    def add_role(self, role: Role) -> Role:
        if role.name in self.roles:
            raise ValueError(f"duplicate role {role.name!r}")
        self.roles[role.name] = role
        return role

    def add_contract(self, contract: Contract) -> Contract:
        for role_name in (contract.client_role, contract.server_role):
            if role_name not in self.roles:
                raise ValueError(
                    f"contract {contract.name!r} names unknown role "
                    f"{role_name!r}")
        self.contracts.append(contract)
        return contract

    def assign(self, principal: str, role_name: str) -> None:
        if role_name not in self.roles:
            raise ValueError(f"no role {role_name!r} in {self.name}")
        self.assignments.setdefault(principal, set()).add(role_name)

    def fillers(self, role_name: str) -> Set[str]:
        return {principal for principal, roles in self.assignments.items()
                if role_name in roles}

    def audited_operations(self) -> Set[str]:
        """Operations that contracts require to be audited."""
        audited: Set[str] = set()
        for contract in self.contracts:
            if contract.audited:
                audited.update(contract.operations)
        for role in self.roles.values():
            if role.audited:
                audited.update(role.performs)
        return audited
