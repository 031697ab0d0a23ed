"""Helpers for the constant-state copy optimisation (paper section 4.5).

"Objects which have constant state can be copied without breaking
computational semantics."  The marshalling layer copies values only when they
are immutable all the way down; anything else must travel as an interface
reference.  ``deep_freeze`` converts plain containers to their immutable
counterparts so application data can be passed by copy, and ``is_frozen``
is the predicate the codec uses to decide copy-vs-reference.
"""

from __future__ import annotations

from typing import Any

_ATOMIC = (type(None), bool, int, float, str, bytes)


def deep_freeze(value: Any) -> Any:
    """Return an immutable equivalent of *value*.

    Lists/tuples become tuples, sets become frozensets, dicts become sorted
    tuples of (key, value) pairs wrapped in :class:`FrozenRecord`.  Raises
    ``TypeError`` for values with no immutable equivalent.
    """
    if isinstance(value, _ATOMIC):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(deep_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(deep_freeze(v) for v in value)
    if isinstance(value, FrozenRecord):
        return value
    if isinstance(value, dict):
        return FrozenRecord({k: deep_freeze(v) for k, v in value.items()})
    raise TypeError(f"no immutable equivalent for {type(value).__name__}")


def is_frozen(value: Any) -> bool:
    """True if *value* is immutable all the way down (copyable state)."""
    if isinstance(value, _ATOMIC):
        return True
    if isinstance(value, tuple):
        return all(is_frozen(v) for v in value)
    if isinstance(value, frozenset):
        return all(is_frozen(v) for v in value)
    if isinstance(value, FrozenRecord):
        return True
    # Platform value types (interface references, terminations) mark
    # themselves immutable to avoid a layering cycle with this module.
    return bool(getattr(value, "__odp_frozen__", False))


class FrozenRecord:
    """An immutable mapping used to pass record-like ADT values by copy."""

    __slots__ = ("_items",)

    def __init__(self, mapping):
        items = tuple(sorted(mapping.items()))
        for _, v in items:
            if not is_frozen(v):
                raise TypeError("FrozenRecord fields must be frozen")
        object.__setattr__(self, "_items", items)

    @classmethod
    def _trusted(cls, items: tuple) -> "FrozenRecord":
        """A record over *items* as they stand.  For the wire decoder
        only: it built the values itself, frozen, and checked that the
        keys arrive strictly increasing — what ``__init__`` would sort
        and re-check."""
        record = cls.__new__(cls)
        object.__setattr__(record, "_items", items)
        return record

    def __setattr__(self, name, value):
        raise AttributeError("FrozenRecord is immutable")

    def __getitem__(self, key):
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def keys(self):
        return [k for k, _ in self._items]

    def items(self):
        return list(self._items)

    def values(self):
        return [v for _, v in self._items]

    def __contains__(self, key):
        return any(k == key for k, _ in self._items)

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return len(self._items)

    def __eq__(self, other):
        if isinstance(other, FrozenRecord):
            return self._items == other._items
        if isinstance(other, dict):
            return dict(self._items) == other
        return NotImplemented

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"FrozenRecord({fields})"

    def to_dict(self):
        """Thaw one level into a plain dict (values stay frozen)."""
        return dict(self._items)
