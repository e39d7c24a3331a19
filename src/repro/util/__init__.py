"""Small shared utilities with no dependency on the core engine."""

from repro.util.growable import GrowableArray

__all__ = ["GrowableArray"]
