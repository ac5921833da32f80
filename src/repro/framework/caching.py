"""Bounded memo tables for the analysis hot paths.

The abstract domains of this library are finite (Sections 3.1-3.2), so
the same ``trans(c)(sigma)``, ``rtrans(c)(r)`` and ``rcomp(r1, r2)``
applications recur constantly: every re-analysis of a procedure body
replays the same transfers over the same states, and the bottom-up
fixpoint re-derives the same relation compositions round after round.
Every engine memoizes those three operators through the caches below;
there is no uncached mode.

Two rules keep the experiment methodology honest:

* **Work counters are raw, not cached.**  The engines count every
  *logical* operator application in :class:`~repro.framework.metrics.
  Metrics` whether or not the result came from a cache, so the
  deterministic work counters — and therefore every ``Budget``-driven
  "timeout" row of the Table 2 reproduction — are the counts of the
  analysis itself, whatever the caches hold.  Caches change wall clock
  only, and every stored entry equals the raw operator's result.
* **Hits and misses are reported separately** (``*_cache_hits`` /
  ``*_cache_misses`` on ``Metrics``), so reports can show the
  *computed* work (raw minus hits) next to the raw work.

Eviction is deterministic FIFO (dicts preserve insertion order), so a
bounded cache never makes two runs of the same configuration diverge.

``trans`` is memoized as **one table per command**: :class:`TransferCache`
maps each primitive command to its own ``sigma -> outputs`` dict, which
the top-down engine resolves once into the compiled successor entry of
the CFG edge carrying that command.  The tabulation loop then probes
the edge's table by state alone — no ``(cmd, sigma)`` key tuple is
built or hashed per transfer — and calls :meth:`TransferCache.fill` on
a miss.  The bound and the FIFO order span all tables through one
``(table, sigma)`` insertion queue, so eviction, hits and misses are
exactly those of a single ``(cmd, sigma)``-keyed memo.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, Hashable, Tuple

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


class TransferCache:
    """Memoized ``trans(c)(sigma)``: one ``sigma -> outputs`` table per
    command, bounded and FIFO-evicted across all tables together."""

    __slots__ = ("_fn", "_tables", "_order", "maxsize", "metrics")

    def __init__(self, analysis, metrics: Metrics, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self._fn: Callable = analysis.transfer
        self._tables: Dict[Hashable, Dict[Hashable, FrozenSet]] = {}
        # Every stored entry, oldest first: the global FIFO.
        self._order: Deque[Tuple[Dict[Hashable, FrozenSet], Hashable]] = deque()
        self.maxsize = maxsize
        self.metrics = metrics

    def table(self, cmd) -> Dict[Hashable, FrozenSet]:
        """The live ``sigma -> outputs`` table of ``cmd``.

        The same dict for the cache's whole lifetime (eviction and
        :meth:`clear` empty it in place), so callers may hold on to it.
        """
        table = self._tables.get(cmd)
        if table is None:
            table = self._tables[cmd] = {}
        return table

    def fill(self, table: Dict[Hashable, FrozenSet], cmd, sigma) -> FrozenSet:
        """Compute the miss ``trans(cmd)(sigma)`` and store it in ``table``
        (which must be ``self.table(cmd)``)."""
        out = self._fn(cmd, sigma)
        self.metrics.transfer_cache_misses += 1
        order = self._order
        if len(order) >= self.maxsize:
            # FIFO: evict the oldest insertion of any table (deterministic).
            old_table, old_sigma = order.popleft()
            del old_table[old_sigma]
        table[sigma] = out
        order.append((table, sigma))
        return out

    def __call__(self, cmd, sigma) -> FrozenSet:
        table = self.table(cmd)
        out = table.get(sigma)
        if out is not None:
            self.metrics.transfer_cache_hits += 1
            return out
        return self.fill(table, cmd, sigma)

    def clear(self) -> None:
        for table in self._tables.values():
            table.clear()
        self._order.clear()

    def __len__(self) -> int:
        return len(self._order)


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
