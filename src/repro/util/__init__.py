"""Small shared utilities with no dependency on the core engine."""

from repro.util.growable import GrowableArray
from repro.util.retry import backoff_delay

__all__ = ["GrowableArray", "backoff_delay"]
