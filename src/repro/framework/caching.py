"""Bounded memo tables for the analysis hot paths.

The abstract domains of this library are finite (Sections 3.1-3.2), so
the same ``trans(c)(sigma)``, ``rtrans(c)(r)`` and ``rcomp(r1, r2)``
applications recur constantly: every re-analysis of a procedure body
replays the same transfers over the same states, and the bottom-up
fixpoint re-derives the same relation compositions round after round.
The caches below memoize those three operators behind the engines'
``enable_caches`` flag.

Two rules keep the experiment methodology honest:

* **Work counters are raw, not cached.**  The engines count every
  *logical* operator application in :class:`~repro.framework.metrics.
  Metrics` whether or not the result came from a cache, so the
  deterministic work counters — and therefore every ``Budget``-driven
  "timeout" row of the Table 2 reproduction — are byte-identical with
  caches on or off.  Caches change wall clock only.
* **Hits and misses are reported separately** (``*_cache_hits`` /
  ``*_cache_misses`` on ``Metrics``), so ablations can compute the
  *computed* work (raw minus hits) next to the raw work.

Eviction is deterministic FIFO (dicts preserve insertion order), so a
bounded cache never makes two runs of the same configuration diverge.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable

from repro.framework.metrics import Metrics

#: Default bound per memo table.  The finite domains of the bundled
#: analyses stay far below this; the bound only guards pathological
#: clients from unbounded growth.
DEFAULT_CACHE_SIZE = 1 << 16


class _BoundedMemo:
    """Shared machinery: a FIFO-bounded dict plus the owning metrics."""

    __slots__ = ("_data", "maxsize", "metrics")

    def __init__(self, metrics: Metrics, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self._data: Dict[Hashable, FrozenSet] = {}
        self.maxsize = maxsize
        self.metrics = metrics

    def _store(self, key: Hashable, value: FrozenSet) -> None:
        data = self._data
        if len(data) >= self.maxsize:
            # FIFO: evict the oldest insertion (deterministic).
            del data[next(iter(data))]
        data[key] = value

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class TransferCache(_BoundedMemo):
    """Memoized ``trans(c)(sigma)`` for a top-down analysis."""

    __slots__ = ("_fn",)

    def __init__(self, analysis, metrics: Metrics, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(metrics, maxsize)
        self._fn: Callable = analysis.transfer

    def __call__(self, cmd, sigma) -> FrozenSet:
        key = (cmd, sigma)
        out = self._data.get(key)
        if out is not None:
            self.metrics.transfer_cache_hits += 1
            return out
        out = self._fn(cmd, sigma)
        self.metrics.transfer_cache_misses += 1
        self._store(key, out)
        return out


class RTransferCache(_BoundedMemo):
    """Memoized ``rtrans(c)(r)`` for a bottom-up analysis."""

    __slots__ = ("_fn",)

    def __init__(self, analysis, metrics: Metrics, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(metrics, maxsize)
        self._fn: Callable = analysis.rtransfer

    def __call__(self, cmd, r) -> FrozenSet:
        key = (cmd, r)
        out = self._data.get(key)
        if out is not None:
            self.metrics.rtransfer_cache_hits += 1
            return out
        out = self._fn(cmd, r)
        self.metrics.rtransfer_cache_misses += 1
        self._store(key, out)
        return out


class RComposeCache(_BoundedMemo):
    """Memoized ``rcomp(r1, r2)`` for a bottom-up analysis."""

    __slots__ = ("_fn",)

    def __init__(self, analysis, metrics: Metrics, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(metrics, maxsize)
        self._fn: Callable = analysis.rcompose

    def __call__(self, r1, r2) -> FrozenSet:
        key = (r1, r2)
        out = self._data.get(key)
        if out is not None:
            self.metrics.rcompose_cache_hits += 1
            return out
        out = self._fn(r1, r2)
        self.metrics.rcompose_cache_misses += 1
        self._store(key, out)
        return out
