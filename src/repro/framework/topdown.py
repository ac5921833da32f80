"""Tabulation-based top-down interprocedural engine (the ``TD`` baseline).

This is the standard tabulation computation of Reps, Horwitz and Sagiv
[14] that Algorithm 1 calls ``run_td``: it maintains

* ``td : PC -> 2^(S x S)`` — *path edges*.  A pair ``(sigma, sigma')``
  at program point ``pc`` means: if the procedure containing ``pc`` is
  entered with abstract state ``sigma``, then ``sigma'`` arises at
  ``pc``;
* a workset of newly discovered path edges;
* call records linking pending callee contexts back to their return
  sites, so exit path edges of a callee flow to every caller awaiting
  them.

A *top-down summary* of a procedure, in the terminology of the
evaluation section, is a pair ``(sigma, sigma')`` in ``td(exit_f)`` —
this is what Table 2 and Figure 5 count.

The engine is written so :class:`repro.framework.swift.SwiftEngine` can
subclass it and override only the handling of call edges.
"""

from __future__ import annotations

import functools
from collections import Counter, deque
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.callgraph.scc import condensation
from repro.framework.caching import TransferCache
from repro.framework.interfaces import TopDownAnalysis
from repro.framework.metrics import Budget, BudgetExceededError, Metrics
from repro.framework.tracing import NULL_SINK, TraceEvent, TraceSink
from repro.ir.cfg import CFGEdge, ControlFlowGraphs, ProgramPoint
from repro.ir.program import Program

#: Cause of a propagation when none was recorded (seeding).
_SEED_CAUSE = ("seed", None, None, None)


#: Memoized ``str(state)`` sort keys.  States are interned and
#: immutable, but ``sorted_states`` runs on every edge visit, and
#: rebuilding the string key each time was a measurable slice of the
#: TD loop on call-heavy programs.  Keyed by the state itself
#: (equality-based), bounded by clear-on-overflow like
#: ``repro.typestate.states.intern_state``.
_SORT_KEYS: Dict[object, str] = {}
_SORT_KEY_LIMIT = 1 << 20


def state_sort_key(sigma) -> str:
    """The canonical string form of ``sigma``, cached."""
    key = _SORT_KEYS.get(sigma)
    if key is None:
        if len(_SORT_KEYS) >= _SORT_KEY_LIMIT:
            _SORT_KEYS.clear()
        key = _SORT_KEYS[sigma] = str(sigma)
    return key


def sorted_states(states):
    """Canonical iteration order for a collection of abstract states.

    Frozenset iteration order varies with the interpreter hash seed,
    and the order in which states reach the workset decides *when*
    SWIFT's bottom-up trigger fires — hence which incoming multiset the
    pruner ranks against, and ultimately the work counters.  Every site
    that feeds ``_propagate`` from a set therefore sorts by the states'
    canonical string form first, making whole runs independent of
    ``PYTHONHASHSEED``.
    """
    if len(states) <= 1:
        return states
    return sorted(states, key=state_sort_key)


class TopDownResult:
    """Read-only view over the tables computed by a top-down run.

    A warm run's tables come in two parts.  ``fresh`` holds the path
    edges the run tabulated itself (value mode also installs its
    activated contexts there, DESIGN §14), ``exit_points`` the exit of
    every procedure they reach and ``call_records`` their call
    records.  ``stored``
    maps each stored context the run read in place (finite domains) to
    its :class:`~repro.incremental.invalidate.WarmContext`, which keeps
    that context's rows and records.  The two never share a context.
    :attr:`td` merges them on first access; the summary count, the
    findings and the summary store read both parts directly.
    """

    def __init__(
        self,
        program: Program,
        cfgs: ControlFlowGraphs,
        fresh: Dict[ProgramPoint, Set[Tuple]],
        entry_counts: Dict[str, Counter],
        metrics: Metrics,
        timed_out: bool = False,
        call_records: Optional[Dict[Tuple[str, object], Set[Tuple]]] = None,
        activated: FrozenSet[Tuple[str, object]] = frozenset(),
        stored: Optional[Dict[Tuple[str, object], object]] = None,
        exit_points: Optional[Dict[str, ProgramPoint]] = None,
    ) -> None:
        self.program = program
        self.cfgs = cfgs
        self.fresh = fresh
        self.entry_counts = entry_counts  # proc -> Counter, stored records replayed
        self.metrics = metrics
        self.timed_out = timed_out
        # (callee, entry state) -> {(return point, caller entry)} of the
        # fresh contexts; the summary store needs these to attach
        # spawned contexts to their creating context (repro.incremental).
        self.call_records = call_records if call_records is not None else {}
        # (proc, entry) of every stored context the run activated whose
        # rows all remain in the tables: the summary store reuses such a
        # procedure's segment without re-reading its rows
        # (repro.incremental.invalidate).
        self.activated = activated
        self.stored = stored if stored is not None else {}
        self.exit_points = exit_points if exit_points is not None else {}
        self._merged: Optional[Dict[ProgramPoint, Set[Tuple]]] = None

    @property
    def td(self) -> Dict[ProgramPoint, Set[Tuple]]:
        """Every path edge, fresh and stored: ``point -> {(entry, σ)}``.
        Built on first access; without stored contexts it is ``fresh``."""
        merged = self._merged
        if merged is None:
            fresh = self.fresh
            merged = fresh
            if self.stored:
                merged = dict(fresh)
                for ctx in self.stored.values():
                    entry = ctx.entry
                    for point, sigma in ctx.rows:
                        edges = merged.get(point)
                        if edges is None or edges is fresh.get(point):
                            edges = merged[point] = set(edges or ())
                        edges.add((entry, sigma))
            self._merged = merged
        return merged

    # -- state queries ------------------------------------------------------------
    def states_at(self, point: ProgramPoint) -> FrozenSet:
        """All abstract states arising at a program point."""
        return frozenset(sigma for (_, sigma) in self.td.get(point, ()))

    def pairs_at(self, point: ProgramPoint) -> FrozenSet[Tuple]:
        return frozenset(self.td.get(point, ()))

    def exit_states(self, proc: Optional[str] = None) -> FrozenSet:
        proc = proc or self.program.main
        return self.states_at(self.cfgs.exit(proc))

    # -- summary statistics (the quantities of Table 2 / Figure 5) ------------------
    def summaries(self, proc: str) -> FrozenSet[Tuple]:
        """Top-down summaries of ``proc``: input/output state pairs."""
        return frozenset(self.td.get(self.cfgs.exit(proc), ()))

    def summary_count(self, proc: str) -> int:
        return len(self.td.get(self.cfgs.exit(proc), ()))

    def total_summaries(self) -> int:
        """The number of top-down summaries: the fresh rows at the exits
        the run reached plus each stored context's memoized exit list,
        so no procedure the run never tabulated needs its CFG."""
        fresh = self.fresh
        cfgs = self.cfgs
        return sum(
            len(fresh.get(point, ())) for point in self.exit_points.values()
        ) + sum(len(ctx.exits(cfgs)) for ctx in self.stored.values())

    def summary_counts_by_proc(self) -> Dict[str, int]:
        return {proc: self.summary_count(proc) for proc in self.program}

    def incoming_states(self, proc: str) -> FrozenSet:
        """Distinct incoming abstract states observed for ``proc``."""
        return frozenset(self.entry_counts.get(proc, Counter()))


@functools.lru_cache(maxsize=None)
def _value_mode(engine_class: type) -> type:
    """``engine_class`` over an infinite-height domain (DESIGN §14): the
    same engine with :meth:`TopDownEngine._propagate_lattice` as its
    ``_propagate`` and :meth:`TopDownEngine._install` as its ``_adopt``.
    An engine built over such a domain switches to this class in
    ``__init__``, so the worklist loop binds the right propagation once
    per run and no call site branches on the mode."""
    return type(
        engine_class.__name__,
        (engine_class,),
        {
            "_propagate": TopDownEngine._propagate_lattice,
            "_adopt": TopDownEngine._install,
            "__module__": engine_class.__module__,
            "__qualname__": engine_class.__qualname__,
        },
    )


class TopDownEngine:
    """Worklist tabulation over the program's CFGs.

    Two structures make the loop cheap without changing the computed
    tables or the deterministic work counters (see
    :mod:`repro.framework.caching`):

    * an exit-summary index ``proc -> sigma_in -> {sigma_out}``
      maintained alongside the exit points' path edges, so summary
      reuse at a call edge reads only the matching summaries instead of
      scanning every exit path edge of the callee;
    * bounded per-command memo tables for ``trans(c)(sigma)``, resolved
      once into each point's compiled successor entries.

    ``scheduler`` is the workset's pop order, one of :attr:`POP_ORDERS`.
    The order never changes the computed tables, only the work it takes
    to reach them, and for SWIFT when the bottom-up trigger fires.  With
    ``lifo`` (depth-first, the default) a callee context is explored
    before the next incoming state pops, so the trigger fires after ~k
    contexts; ``fifo`` is the ``fifo-worklist`` ablation, where
    summaries arrive after the flood they were meant to absorb.
    """

    #: The workset's pop orders; the first is the default.
    POP_ORDERS = ("lifo", "fifo")

    @classmethod
    def check_pop_order(cls, name: str) -> None:
        """Refuse ``name`` unless it is a pop order, naming both."""
        if name not in cls.POP_ORDERS:
            raise ValueError(
                f"unknown scheduler {name!r}; expected one of "
                f"{', '.join(cls.POP_ORDERS)}"
            )

    def __init__(
        self,
        program: Program,
        analysis: TopDownAnalysis,
        budget: Optional[Budget] = None,
        cfgs: Optional[ControlFlowGraphs] = None,
        sink: Optional[TraceSink] = None,
        preload=None,
        scheduler: str = "lifo",
        widening_delay: int = 2,
        descending_iters: int = 0,
    ) -> None:
        if widening_delay < 0:
            raise ValueError("widening_delay must be non-negative")
        if descending_iters < 0:
            raise ValueError("descending_iters must be non-negative")
        self.program = program
        self.analysis = analysis
        self.budget = budget
        self.check_pop_order(scheduler)
        self.cfgs = cfgs if cfgs is not None else ControlFlowGraphs(program)
        self.metrics = Metrics()
        # Tracing: with the default NullSink the engines skip event
        # construction entirely (one `if self._tracing` test per site);
        # nested components (run_bu, the pruner) receive the same sink.
        self._sink: TraceSink = sink if sink is not None else NULL_SINK
        self._tracing = bool(self._sink.enabled)
        # Cause of the propagations currently being produced, recorded
        # by the edge handlers just before calling _propagate (only
        # when tracing): (via, source point, source state, source entry).
        self._cause = _SEED_CAUSE
        self._transfer_cache = TransferCache(analysis, self.metrics)
        # td(pc) = set of path edges (entry state, state at pc)
        self._td: Dict[ProgramPoint, Set[Tuple]] = {}
        # (callee, entry state) -> set of (return point, caller entry state)
        self._call_records: Dict[Tuple[str, object], Set[Tuple[ProgramPoint, object]]] = {}
        # proc -> multiset of incoming abstract states (the data the
        # pruning operator ranks against; Section 3.4).
        self._entry_counts: Dict[str, Counter] = {}
        # The workset's own bound methods are the push and the pop, so
        # no Python frame runs per work item.
        workset: Deque[Tuple] = deque()
        self._push = workset.append
        self._pop = workset.popleft if scheduler == "fifo" else workset.pop
        self._timed_out = False
        # Per-proc entry/exit points and per-point successor lists,
        # resolved once: the worklist loop otherwise re-derives them
        # (and copies the successor list) on every single pop.
        self._entry_points: Dict[str, ProgramPoint] = {}
        self._exit_points: Dict[str, ProgramPoint] = {}
        self._exit_point_set: Set[ProgramPoint] = set()
        self._succ_cache: Dict[ProgramPoint, Tuple] = {}
        # Exit-summary index: proc -> sigma_in -> set of sigma_out.
        self._exit_index: Dict[str, Dict[object, Set[object]]] = {}
        # Warm start (repro.incremental.invalidate.WarmStart): stored
        # tabulation contexts, lazily activated when a call edge demands
        # them.  Every entry was fingerprint-verified by the caller, so
        # activation trusts it without re-deriving anything: a finite
        # domain reads an activated context in place (``_in_place``),
        # value mode installs it into the tables.
        self._preload = preload
        self._activated: Set[Tuple[str, object]] = set()
        self._in_place: Dict[Tuple[str, object], object] = {}
        # -- lattice (value) mode: infinite-height domains (DESIGN §14) -------
        # Finite domains never enter any of the branches below: the
        # whole block is gated on ``analysis.is_finite()`` returning
        # False, so the paper's powerset saturation — and every
        # byte-locked baseline — is untouched when it returns True.
        self.widening_delay = widening_delay
        self.descending_iters = descending_iters
        self._lattice = not analysis.is_finite()
        if self._lattice:
            # One current value per (point, entry context): the latest
            # element of that key's ascending chain.  ``_td`` keeps its
            # pair-set shape, but holds exactly one pair per entry.
            self._cur: Dict[Tuple[ProgramPoint, object], object] = {}
            # Join visits per widening-point key (the crab-style delay
            # counts joins before the first widen) and per-proc widening
            # point sets, filled by _proc_points.
            self._visits: Dict[Tuple[ProgramPoint, object], int] = {}
            self._widen_points: Dict[str, FrozenSet[ProgramPoint]] = {}
            # Accumulated entry value per recursive-SCC callee: widening
            # it cuts unbounded chains of ever-larger fresh contexts.
            self._ctx_acc: Dict[str, object] = {}
            self._ctx_visits: Dict[str, int] = {}
            self._cyclic: Dict[str, bool] = {}
            # Value mode is a class, not a bound method stored on the
            # instance: that method would point back at the engine and
            # make every finished lattice solve, tables and all, cyclic
            # garbage (DESIGN §10).
            self.__class__ = _value_mode(type(self))

    # -- driver -----------------------------------------------------------------------
    def run(self, initial_states: Iterable) -> TopDownResult:
        """Analyze the program from ``main`` with the given initial states."""
        if self.budget is not None:
            self.budget.restart_clock()
        main_entry, _ = self._proc_points(self.program.main)
        self._cause = _SEED_CAUSE
        self._preload_install()
        for sigma in initial_states:
            self._record_entry(self.program.main, sigma)
            if self._preload is not None and self._activate(self.program.main, sigma):
                continue  # a stored main context is a finished fixpoint
            self._propagate(main_entry, sigma, sigma)
        try:
            self._solve()
            if self._lattice and self.descending_iters > 0:
                self._descend()
        except BudgetExceededError as exc:
            self._timed_out = True
            if self._tracing:
                self._sink.emit(
                    TraceEvent(
                        "budget_exceeded",
                        "",
                        {
                            "engine": "td",
                            "what": exc.what,
                            "spent": exc.spent,
                            "limit": exc.limit,
                        },
                    )
                )
        return TopDownResult(
            self.program,
            self.cfgs,
            self._td,
            self._entry_counts,
            self.metrics,
            timed_out=self._timed_out,
            call_records=self._call_records,
            activated=self._intact_activations(),
            stored=self._in_place,
            exit_points=self._exit_points,
        )

    def _solve(self) -> None:
        """The tabulation loop: pop path edges until the workset is empty.

        Everything the loop touches per path edge is bound to a local
        once, and each point's successors are compiled once into
        ``(edge, is_call, table)`` entries (:meth:`_compile_succs`), so a
        primitive edge costs one probe of its command's transfer table
        plus one ``_propagate`` per output.  Call edges go through
        ``_handle_call``, the seam SWIFT overrides.
        """
        tracing = self._tracing
        lattice = self._lattice
        cur = self._cur if lattice else None
        pop = self._pop
        metrics = self.metrics
        budget = self.budget
        succ_cache = self._succ_cache
        compile_succs = self._compile_succs
        exit_points = self._exit_point_set
        after_exit = self._after_exit
        propagate = self._propagate
        handle_call = self._handle_call
        fill = self._transfer_cache.fill
        while True:
            try:
                point, entry_sigma, sigma = pop()
            except IndexError:
                return
            if budget is not None:
                budget.check(metrics)
            if lattice and cur.get((point, entry_sigma)) != sigma:
                # A later join replaced this value; its successors were
                # (or will be) explored from the replacement.
                continue
            succs = succ_cache.get(point)
            if succs is None:
                succs = compile_succs(point)
            for edge, is_call, table in succs:
                if is_call:
                    handle_call(edge, entry_sigma, sigma)
                    continue
                metrics.transfers += 1
                if tracing:
                    self._cause = ("prim", point, sigma, entry_sigma)
                outs = table.get(sigma)
                if outs is None:
                    outs = fill(table, edge.label, sigma)
                else:
                    metrics.transfer_cache_hits += 1
                if len(outs) > 1:
                    outs = sorted_states(outs)
                target = edge.target
                for sigma_prime in outs:
                    propagate(target, entry_sigma, sigma_prime)
            if point in exit_points:
                after_exit(point, entry_sigma, sigma)

    # -- edge handling ------------------------------------------------------------------
    def _compile_succs(self, point: ProgramPoint) -> Tuple:
        """``point``'s successor entries ``(edge, is_call, table)``, cached.

        ``table`` is the transfer cache's table for a primitive edge's
        command (None for call edges).
        """
        cache = self._transfer_cache
        succs = self._succ_cache[point] = tuple(
            (edge, edge.is_call, None if edge.is_call else cache.table(edge.label))
            for edge in self.cfgs[point.proc].successors(point)
        )
        return succs

    def _handle_call(self, edge: CFGEdge, entry_sigma, sigma) -> None:
        """Plain tabulation handling of a call edge (``run_td``)."""
        self._tabulate_call(edge, entry_sigma, sigma)

    def _tabulate_call(self, edge: CFGEdge, entry_sigma, sigma) -> None:
        callee = edge.label.proc
        if self._lattice and self._is_cyclic_proc(callee):
            # Recursive callees would otherwise spawn an unbounded chain
            # of ever-larger fresh contexts; analyze from the widened
            # accumulated entry instead (sound: transfers are monotone).
            sigma = self._ctx_widen(callee, sigma)
        record_key = (callee, sigma)
        records = self._call_records.setdefault(record_key, set())
        record = (edge.target, entry_sigma)
        if record in records:
            return
        records.add(record)
        self._record_entry(callee, sigma)
        callee_entry, _ = self._proc_points(callee)
        if (
            (sigma, sigma) in self._td.get(callee_entry, ())
            or record_key in self._in_place
        ):
            # The callee context exists already: reuse its summaries.
            self.metrics.td_summary_reuses += 1
            outs = self._exit_summaries(callee, sigma)
            if self._tracing:
                self._sink.emit(
                    TraceEvent(
                        "td_summary_reuse",
                        callee,
                        {"state": str(sigma), "outs": len(outs)},
                    )
                )
                self._cause = ("reuse", edge.source, sigma, entry_sigma)
            for sigma_out in sorted_states(outs):
                self._propagate(edge.target, entry_sigma, sigma_out)
            return
        if self._preload is not None:
            if self._activate(callee, sigma):
                # The store held this whole context (and its children):
                # serve its exit summaries like the reuse path above.
                outs = self._exit_summaries(callee, sigma)
                if self._tracing:
                    self._cause = ("store", edge.source, sigma, entry_sigma)
                for sigma_out in sorted_states(outs):
                    self._propagate(edge.target, entry_sigma, sigma_out)
                return
            self.metrics.store_misses += 1
            if self._tracing:
                self._sink.emit(
                    TraceEvent("store_miss", callee, {"state": str(sigma)})
                )
        if self._tracing:
            self._cause = ("call", edge.source, sigma, entry_sigma)
        self._propagate(callee_entry, sigma, sigma)

    def _exit_summaries(self, callee: str, sigma) -> List:
        """Exit states of ``callee`` for the incoming state ``sigma``.  A
        tabulated context's are read from the ``(proc, sigma_in) ->
        {sigma_out}`` index, as a snapshot list since ``_propagate`` may
        grow the live sets; a context read in place, which the index
        never holds, lists its own (memoized on it, never changed)."""
        outs = self._exit_index.get(callee, _NO_INDEX).get(sigma)
        if outs:
            return list(outs)
        ctx = self._in_place.get((callee, sigma))
        return [] if ctx is None else ctx.exits(self.cfgs)

    def _after_exit(self, point: ProgramPoint, entry_sigma, sigma) -> None:
        """A path edge reached a procedure exit: return to its callers."""
        if self._tracing:
            self._cause = ("return", point, sigma, entry_sigma)
        records = list(self._call_records.get((point.proc, entry_sigma), ()))
        if len(records) > 1:
            records.sort(key=_record_sort_key)
        for (return_point, caller_entry) in records:
            self._propagate(return_point, caller_entry, sigma)

    # -- low-level table updates -----------------------------------------------------------
    def _proc_points(self, proc: str) -> Tuple[ProgramPoint, ProgramPoint]:
        """The (entry, exit) points of ``proc``, cached.

        Also registers the exit point so ``_propagate``/``_after_exit``
        can recognize it with one set lookup.  Every point that reaches
        the workset belongs to a procedure first entered through here
        (``run`` for main, ``_tabulate_call`` for callees), so the
        registry is always complete for live points.
        """
        entry = self._entry_points.get(proc)
        if entry is None:
            cfg = self.cfgs[proc]
            entry = self._entry_points[proc] = cfg.entry
            self._exit_points[proc] = cfg.exit
            self._exit_point_set.add(cfg.exit)
            if self._lattice:
                # Widening points: loop heads cut every intraprocedural
                # cycle; the exit of a recursive-SCC member cuts the
                # interprocedural summary cycle (DESIGN §14).
                heads = set(cfg.loop_heads())
                if self._is_cyclic_proc(proc):
                    heads.add(cfg.exit)
                self._widen_points[proc] = frozenset(heads)
        return entry, self._exit_points[proc]

    def _is_cyclic_proc(self, proc: str) -> bool:
        """Is ``proc`` in a cyclic call-graph SCC (or self-recursive)?"""
        cyclic = self._cyclic.get(proc)
        if cyclic is None:
            cond = condensation(self.program)
            cyclic = self._cyclic[proc] = cond.is_cyclic(cond.scc_index(proc))
        return cyclic

    def _ctx_widen(self, callee: str, sigma):
        """The entry value to use for a recursive-SCC callee context."""
        analysis = self.analysis
        acc = self._ctx_acc.get(callee)
        if acc is None:
            self._ctx_acc[callee] = sigma
            return sigma
        if analysis.leq(sigma, acc):
            return acc
        new = analysis.join(acc, sigma)
        visits = self._ctx_visits.get(callee, 0) + 1
        self._ctx_visits[callee] = visits
        if visits > self.widening_delay:
            new = analysis.widen(acc, new)
        self._ctx_acc[callee] = new
        return new

    def _propagate(self, point: ProgramPoint, entry_sigma, sigma) -> None:
        """Record the path edge ``(entry_sigma, sigma)`` at ``point`` and
        queue it if new (a value-mode engine's class, :func:`_value_mode`,
        has :meth:`_propagate_lattice` in its place)."""
        edges = self._td.get(point)
        if edges is None:
            edges = self._td[point] = set()
        before = len(edges)
        edges.add((entry_sigma, sigma))
        if len(edges) == before:
            return
        self.metrics.propagations += 1
        if point in self._exit_point_set:
            by_entry = self._exit_index.setdefault(point.proc, {})
            outs = by_entry.get(entry_sigma)
            if outs is None:
                outs = by_entry[entry_sigma] = set()
            outs.add(sigma)
        if self._tracing:
            via, src, src_state, src_entry = self._cause
            self._sink.emit(
                TraceEvent(
                    "propagate",
                    point.proc,
                    {
                        "point": str(point),
                        "entry": str(entry_sigma),
                        "state": str(sigma),
                        "via": via,
                        "src": "" if src is None else str(src),
                        "src_state": "" if src_state is None else str(src_state),
                        "src_entry": "" if src_entry is None else str(src_entry),
                    },
                )
            )
        self._push((point, entry_sigma, sigma))

    def _propagate_lattice(self, point: ProgramPoint, entry_sigma, sigma) -> None:
        """Value-mode twin of :meth:`_propagate` (DESIGN §14).

        The table holds exactly one lattice value per (point, entry
        context).  An arriving value that is subsumed (``leq``) is
        dropped; otherwise it is joined into the current value — widened
        at the procedure's widening points once ``widening_delay`` join
        visits are spent — and the *replacement* (not the increment) is
        what re-enters the workset.  The old pair is discarded from
        ``_td`` and the exit-summary index, so stale values are never
        observable: old snapshots of the chain simply cease to exist.
        """
        analysis = self.analysis
        key = (point, entry_sigma)
        cur = self._cur.get(key)
        if cur is not None:
            if analysis.leq(sigma, cur):
                return
            new = analysis.join(cur, sigma)
            if point in self._widen_points.get(point.proc, ()):
                visits = self._visits.get(key, 0) + 1
                self._visits[key] = visits
                if visits > self.widening_delay:
                    new = analysis.widen(cur, new)
            if new == cur:
                return
            edges = self._td[point]
            edges.discard((entry_sigma, cur))
            edges.add((entry_sigma, new))
            if point in self._exit_point_set:
                by_entry = self._exit_index.setdefault(point.proc, {})
                outs = by_entry.get(entry_sigma)
                if outs is None:
                    outs = by_entry[entry_sigma] = set()
                outs.discard(cur)
                outs.add(new)
        else:
            new = sigma
            edges = self._td.get(point)
            if edges is None:
                edges = self._td[point] = set()
            edges.add((entry_sigma, new))
            if point in self._exit_point_set:
                by_entry = self._exit_index.setdefault(point.proc, {})
                outs = by_entry.get(entry_sigma)
                if outs is None:
                    outs = by_entry[entry_sigma] = set()
                outs.add(new)
        self._cur[key] = new
        self.metrics.propagations += 1
        if self._tracing:
            via, src, src_state, src_entry = self._cause
            self._sink.emit(
                TraceEvent(
                    "propagate",
                    point.proc,
                    {
                        "point": str(point),
                        "entry": str(entry_sigma),
                        "state": str(new),
                        "via": via,
                        "src": "" if src is None else str(src),
                        "src_state": "" if src_state is None else str(src_state),
                        "src_entry": "" if src_entry is None else str(src_entry),
                    },
                )
            )
        self._push((point, entry_sigma, new))

    def _descend(self) -> None:
        """Descending (narrowing) pass after the ascending fixpoint.

        Interior points are recomputed from their primitive-edge
        predecessors, narrowing at widening points; entry points and
        points fed by call or return edges keep their post-fixpoint
        value.  Every iterate stays above the least fixpoint (the
        recomputation applies monotone transfers to values that are),
        so stopping after any number of ``descending_iters`` is sound.
        """
        analysis = self.analysis
        transfer = self._transfer_cache
        # Group the live (point, entry) keys per procedure once.
        per_proc: Dict[str, Dict[ProgramPoint, List]] = {}
        for (point, entry_sigma) in self._cur:
            per_proc.setdefault(point.proc, {}).setdefault(point, []).append(entry_sigma)
        for _ in range(self.descending_iters):
            changed = False
            for proc in sorted(per_proc):
                cfg = self.cfgs[proc]
                entry_point = self._entry_points.get(proc)
                widen_points = self._widen_points.get(proc, frozenset())
                by_point = per_proc[proc]
                for point in cfg.points:
                    entries = by_point.get(point)
                    if entries is None or point == entry_point:
                        continue
                    preds = cfg.predecessors(point)
                    if not preds or any(e.is_call for e in preds):
                        # Return points take callee exits, not a local
                        # transfer; leave their ascending value alone.
                        continue
                    for entry_sigma in sorted(entries, key=state_sort_key):
                        key = (point, entry_sigma)
                        cur = self._cur.get(key)
                        if cur is None:
                            continue
                        new = None
                        for edge in preds:
                            src = self._cur.get((edge.source, entry_sigma))
                            if src is None:
                                continue
                            self.metrics.transfers += 1
                            for out in transfer(edge.label, src):
                                new = out if new is None else analysis.join(new, out)
                        if new is None or new == cur:
                            continue
                        if point in widen_points:
                            new = analysis.narrow(cur, new)
                        if new == cur or not analysis.leq(new, cur):
                            continue
                        self._cur[key] = new
                        edges = self._td[point]
                        edges.discard((entry_sigma, cur))
                        edges.add((entry_sigma, new))
                        if point in self._exit_point_set:
                            outs = self._exit_index.setdefault(point.proc, {}).setdefault(
                                entry_sigma, set()
                            )
                            outs.discard(cur)
                            outs.add(new)
                        changed = True
            if not changed:
                break

    def _record_entry(self, proc: str, sigma) -> None:
        counts = self._entry_counts.get(proc)
        if counts is None:
            counts = self._entry_counts[proc] = Counter()
        counts[sigma] += 1

    # -- warm start (repro.incremental) --------------------------------------------------
    def _preload_install(self) -> None:
        """Account for the warm start once, at the beginning of a run."""
        if self._preload is None or not self._preload.invalidated:
            return
        self.metrics.store_invalidated += len(self._preload.invalidated)
        if self._tracing:
            for proc, reason in sorted(self._preload.invalidated.items()):
                self._sink.emit(
                    TraceEvent("store_invalidated", proc, {"reason": reason})
                )

    def _intact_activations(self) -> FrozenSet[Tuple[str, object]]:
        """The activated contexts whose stored rows are all still in the
        tables.  A finite domain never changes a stored context, so that
        is all of them; a value-mode run may have replaced an installed
        value since, so each context's rows are checked once, here."""
        if not self._lattice:
            return frozenset(self._activated)
        td = self._td
        return frozenset(
            key
            for key in self._activated
            if all(
                (key[1], sigma) in td.get(point, ())
                for point, sigma in self._preload.context(*key).rows
            )
        )

    def _activate(self, proc: str, entry) -> bool:
        """Activate the stored context ``(proc, entry)`` and, transitively,
        every child context its call records spawned (:meth:`_adopt`
        takes each into the run).

        A stored context is a finished fixpoint, so activation queues no
        work and counts no ``propagations`` (store traffic is excluded
        from ``total_work``, like the memo caches); it counts one
        ``store_hits`` per context.  Returns False when the store has no
        such context (the caller then tabulates it cold).
        """
        context = self._preload.context
        first = context(proc, entry)
        if first is None:
            return False
        stack = [first]
        while stack:
            ctx = stack.pop()
            key = (ctx.proc, ctx.entry)
            if key in self._activated:
                continue
            self._activated.add(key)
            self.metrics.store_hits += 1
            self._adopt(ctx)
            for callee, sigma_in, _ in ctx.records:
                child = context(callee, sigma_in)
                if child is not None:
                    stack.append(child)
            if self._tracing:
                self._sink.emit(
                    TraceEvent(
                        "store_hit",
                        ctx.proc,
                        {
                            "what": "context",
                            "entry": str(ctx.entry),
                            "rows": len(ctx.rows),
                            "records": len(ctx.records),
                        },
                    )
                )
        return True

    def _adopt(self, ctx) -> None:
        """Take an activated stored context into a finite-domain run: it
        is read in place, its rows and records never copied.  Fresh
        tabulation never reaches into it (its callees are stored
        contexts too, activated with it), so only the entry counts its
        records stand for are replayed, which keeps the incoming
        multisets exactly those of a cold run."""
        self._in_place[(ctx.proc, ctx.entry)] = ctx
        record_entry = self._record_entry
        for callee, sigma_in, _ in ctx.records:
            record_entry(callee, sigma_in)

    def _install(self, ctx) -> None:
        """Value mode's :meth:`_adopt`: copy the context's rows into the
        tables, each as the current value of its ``(point, entry)``, and
        its call records into ``_call_records``.  Widening may later
        replace an installed value (DESIGN §14), so the context cannot
        be read in place."""
        self._proc_points(ctx.proc)  # register the exit point
        entry = ctx.entry
        for point, sigma in ctx.rows:
            edges = self._td.setdefault(point, set())
            pair = (entry, sigma)
            if pair in edges:
                continue
            edges.add(pair)
            self._cur[(point, entry)] = sigma
            if point in self._exit_point_set:
                by_entry = self._exit_index.setdefault(point.proc, {})
                outs = by_entry.get(entry)
                if outs is None:
                    outs = by_entry[entry] = set()
                outs.add(sigma)
        for callee, sigma_in, return_point in ctx.records:
            records = self._call_records.setdefault((callee, sigma_in), set())
            record = (return_point, entry)
            if record not in records:
                records.add(record)
                self._record_entry(callee, sigma_in)


def _record_sort_key(record: Tuple[ProgramPoint, object]) -> Tuple[str, int, str]:
    """Canonical order for call records (see :func:`sorted_states`)."""
    return_point, caller_entry = record
    return (return_point.proc, return_point.index, state_sort_key(caller_entry))


#: Shared empty mapping for index misses (avoids allocating per lookup).
_NO_INDEX: Dict[object, Set[object]] = {}
