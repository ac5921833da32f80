"""Pluggable worklist scheduling for the tabulation engines.

The tabulation loop of :class:`repro.framework.topdown.TopDownEngine`
pops ``(program point, entry state, current state)`` work items until
the table reaches its least fixpoint.  *Which* item is popped next
never changes the computed tables (the fixpoint is order-independent)
but decides how much work reaching it takes — most visibly for SWIFT,
where the pop order controls when the bottom-up trigger fires and hence
how many call edges its summaries absorb.  This module extracts that
choice into a :class:`Scheduler` seam:

* ``lifo`` — depth-first (the default): a callee context is fully
  explored before the next incoming state is popped, so SWIFT's
  bottom-up trigger fires after only ~k contexts have been tabulated
  rather than after the whole flood is enqueued;
* ``fifo`` — breadth-first; kept for the worklist-order ablation
  (Table: ``fifo-worklist``), where summaries arrive too late to absorb
  the flooded call sites;
* ``callee-depth`` — a priority policy popping items in the procedure
  deepest in the call graph first (callees before callers regardless of
  discovery order), with FIFO tie-breaking at equal depth.  Determinism
  comes from an insertion sequence number, never from hashes.

The counters-vs-wall-clock rule (DESIGN §4) applies: switching policy
may change wall time and work *counters*, but never the reported
results — tables, error sites, and the denotational exit states are
identical under every policy (property-tested).

Engines look policies up by name via :func:`make_scheduler`, which is
what :class:`repro.framework.config.AnalysisConfig` validates against.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

from repro.ir.program import Program

#: A work item: (program point, entry state, state at the point).
WorkItem = Tuple[object, object, object]


class Scheduler:
    """Interface of a tabulation worklist.

    ``push`` enqueues a newly discovered path edge, ``pop`` selects the
    next one to process and raises ``IndexError`` when the worklist is
    empty (the engines pop until it does).  Implementations must be
    deterministic given the push sequence (no hash-order or wall-clock
    dependence): the engines' work counters are part of the reported
    results.
    """

    #: Registry name; set on instances by :func:`make_scheduler`.
    policy: str = "?"

    def push(self, item: WorkItem) -> None:
        raise NotImplementedError

    def pop(self) -> WorkItem:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LifoScheduler(Scheduler):
    """Depth-first order — the engines' historical default.

    ``push``/``pop`` are the deque's own bound methods, so no Python
    frame runs per work item.
    """

    policy = "lifo"

    def __init__(self, program: Program) -> None:
        self._items: Deque[WorkItem] = deque()
        self.push = self._items.append
        self.pop = self._items.pop

    def __len__(self) -> int:
        return len(self._items)


class FifoScheduler(Scheduler):
    """Breadth-first order — the worklist-order ablation."""

    policy = "fifo"

    def __init__(self, program: Program) -> None:
        self._items: Deque[WorkItem] = deque()
        self.push = self._items.append
        self.pop = self._items.popleft

    def __len__(self) -> int:
        return len(self._items)


class CalleeDepthScheduler(Scheduler):
    """Priority order: deepest procedure in the call graph first.

    Depth is the shortest call-chain distance from ``main`` (computed
    once per run by BFS over the static call graph, so recursion is
    handled for free).  Popping deeper procedures first finishes callee
    contexts before their callers even when discovery interleaves them
    — the same intuition as LIFO, enforced globally.  Items at equal
    depth pop in insertion order, keyed by a sequence number, so the
    schedule is a pure function of the push sequence.
    """

    policy = "callee-depth"

    def __init__(self, program: Program) -> None:
        self._depth = _call_depths(program)
        self._heap: List[Tuple[int, int, WorkItem]] = []
        self._seq = 0

    def push(self, item: WorkItem) -> None:
        point = item[0]
        depth = self._depth.get(point.proc, 0)
        self._seq += 1
        heapq.heappush(self._heap, (-depth, self._seq, item))

    def pop(self) -> WorkItem:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


def _call_depths(program: Program) -> Dict[str, int]:
    """Shortest call-chain distance from ``main`` for every procedure.

    Memoized on the program (:meth:`Program.memo`): depths never change
    for a given program, and repeated-run harnesses would otherwise
    redo one BFS per engine run.
    """
    return program.memo("call_depths", lambda: _bfs_depths(program))


def _bfs_depths(program: Program) -> Dict[str, int]:
    depths = {program.main: 0}
    frontier = deque([program.main])
    while frontier:
        proc = frontier.popleft()
        next_depth = depths[proc] + 1
        for callee in sorted(program.callees(proc)):
            if callee not in depths:
                depths[callee] = next_depth
                frontier.append(callee)
    return depths


#: Registered scheduling policies: name -> factory taking the program.
SCHEDULERS: Dict[str, Callable[[Program], Scheduler]] = {
    "lifo": LifoScheduler,
    "fifo": FifoScheduler,
    "callee-depth": CalleeDepthScheduler,
}

#: The engines' historical behaviour.
DEFAULT_SCHEDULER = "lifo"


def scheduler_names() -> List[str]:
    """Registered policy names, sorted."""
    return sorted(SCHEDULERS)


def validate_scheduler(name: str) -> str:
    """Return ``name`` if registered, else raise with the choices."""
    if name not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler policy {name!r} "
            f"(registered: {', '.join(scheduler_names())})"
        )
    return name


def make_scheduler(name: str, program: Program) -> Scheduler:
    """Instantiate the policy ``name`` for ``program``."""
    scheduler = SCHEDULERS[validate_scheduler(name)](program)
    scheduler.policy = name
    return scheduler

