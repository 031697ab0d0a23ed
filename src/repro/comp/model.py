"""ADT object model and operation declaration.

An application ADT is a Python class whose externally visible methods are
decorated with :func:`operation`, declaring parameter types and the range of
terminations.  :func:`signature_of` derives the
:class:`~repro.types.signature.InterfaceSignature` from those declarations —
this plays the role of the paper's automated tooling ("from a description of
the signatures of the operations in an interface, a compiler can
automatically generate code to marshal data ... and a dispatcher",
section 5.1).
"""

from __future__ import annotations

import inspect
import weakref
from typing import Callable, Dict, Iterable, Optional

from repro.errors import SignatureError
from repro.types.signature import (
    InterfaceSignature,
    OperationSig,
    TerminationSig,
    OPERATIONAL,
)

_OP_ATTR = "_odp_operation"


def operation(params: Iterable = (), returns: Iterable = (),
              errors: Optional[Dict[str, Iterable]] = None,
              announcement: bool = False,
              readonly: bool = False) -> Callable:
    """Declare a method as an ODP operation.

    * ``params``  — type specs for the arguments (see ``parse_type``),
    * ``returns`` — result types of the ``ok`` termination,
    * ``errors``  — extra terminations: ``{name: [result types]}``,
    * ``announcement`` — request-only (no reply, no results),
    * ``readonly`` — separation constraint: does not modify state, so
      concurrency transparency grants shared locks (section 5.2).

    The decorated method keeps working as a plain Python method for direct
    (non-distributed) use and unit testing.
    """

    def decorate(func: Callable) -> Callable:
        terminations = []
        if announcement:
            if returns or errors:
                raise SignatureError(
                    f"announcement {func.__name__!r} cannot declare results")
            terminations.append(TerminationSig("ok", ()))
        else:
            terminations.append(TerminationSig("ok", returns))
            for name, results in (errors or {}).items():
                terminations.append(TerminationSig(name, results))
        sig = OperationSig(func.__name__, params, terminations,
                           announcement=announcement, readonly=readonly)
        setattr(func, _OP_ATTR, sig)
        return func

    return decorate


class OdpObject:
    """Optional base class for application ADTs.

    Using it is a convenience, not a requirement — ``signature_of`` works on
    any class with decorated methods.  It adds the self-management hooks the
    paper assigns to objects (section 5.5: "objects should manage
    themselves"): snapshot/restore for migration, resource and failure
    transparency.
    """

    def odp_snapshot(self) -> dict:
        """Capture state for migration/passivation/checkpointing.

        Default: every non-underscore instance attribute.  Objects with
        richer state override this to produce "a more compact or resilient
        form" (section 5.5).
        """
        return {k: v for k, v in vars(self).items()
                if not k.startswith("_")}

    def odp_restore(self, snapshot: dict) -> None:
        """Reinstate state captured by :meth:`odp_snapshot`."""
        for key, value in snapshot.items():
            setattr(self, key, value)

    def odp_ready_to_move(self) -> bool:
        """Objects may delay migration until convenient (section 5.5)."""
        return True


#: class -> its operations (none is added after first use), weakly keyed.
_DECLARED = weakref.WeakKeyDictionary()


def declared_operations(cls) -> Dict[str, OperationSig]:
    """All operation signatures declared on *cls* (including inherited)."""
    if cls not in _DECLARED:
        _DECLARED[cls] = {name: getattr(member, _OP_ATTR) for name, member
                          in inspect.getmembers(cls, callable)
                          if hasattr(member, _OP_ATTR)}
    return dict(_DECLARED[cls])


def signature_of(target, name: Optional[str] = None) -> InterfaceSignature:
    """Derive the interface signature of a class or instance."""
    cls = target if inspect.isclass(target) else type(target)
    ops = declared_operations(cls)
    if not ops:
        raise SignatureError(
            f"{cls.__name__} declares no @operation methods")
    return InterfaceSignature(name or cls.__name__,
                              list(ops.values()), kind=OPERATIONAL)
