"""Small shared utilities (identifier minting, frozen data helpers)."""

from repro.util.ids import IdMinter
from repro.util.freeze import is_frozen

__all__ = ["IdMinter", "is_frozen"]
