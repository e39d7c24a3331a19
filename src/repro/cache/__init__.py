"""Result caching for skewed, repeated-query serving traffic.

Public surface:

- :class:`ResultCache` — bounded, thread-safe segmented-LRU cache of
  finished top-K answers, served back byte-identically on an exact
  match of the request and invalidated through index/layout
  generations.
- :class:`CacheHit` / :class:`CacheStats` — lookup result and counter
  snapshot types.

Enable it on a deployment with ``HarmonyConfig(enable_cache=True)``
(plus ``cache_size``); the CLI flags are ``--cache`` /
``--cache-size``.
"""

from repro.cache.result_cache import (
    CACHE_LANE,
    CacheHit,
    CacheStats,
    ResultCache,
)

__all__ = [
    "CACHE_LANE",
    "CacheHit",
    "CacheStats",
    "ResultCache",
]
