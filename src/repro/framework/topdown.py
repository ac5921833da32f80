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

import time
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.callgraph.scc import condensation
from repro.framework.caching import TransferCache
from repro.framework.interfaces import TopDownAnalysis, UnsupportedDomainError
from repro.framework.kernel import DEFAULT_KERNEL, StateKernel, validate_kernel
from repro.framework.metrics import Budget, BudgetExceededError, Metrics
from repro.framework.scheduling import Scheduler, make_scheduler
from repro.framework.tracing import NULL_SINK, Profile, TeeSink, TraceEvent, TraceSink
from repro.ir.cfg import CFGEdge, ControlFlowGraphs, ProgramPoint
from repro.ir.commands import Call
from repro.ir.program import Program

#: Cause of a propagation when none was recorded (seeding).
_SEED_CAUSE = ("seed", None, None, None)


#: Memoized ``str(state)`` sort keys.  States are interned and
#: immutable, but ``sorted_states`` runs on every edge visit and used
#: to rebuild the string key each time — on the flood benchmarks that
#: was a measurable slice of the TD hot path (see the
#: ``sortkey_microbench`` row of BENCH_hotpath.json).  Keyed by the
#: state itself (equality-based), bounded by clear-on-overflow like
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


class _ProcKernel:
    """One procedure compiled for the bitset solver (DESIGN §11).

    Everything the hot loop touches per point is held in lists indexed
    by a dense per-procedure point index — table mask, pending-bits
    mask, dirty flag — plus the procedure-local pair-id space
    (``pd``: packed ``(entry id << 32 | state id)`` key -> pair id,
    ``rv``: the inverse).  The solver's inner loop therefore runs on
    list indexing and int bit-ops; no :class:`ProgramPoint` or command
    hashing.
    """

    __slots__ = (
        "proc",
        "points",
        "pidx",
        "succ",
        "mask",
        "pending",
        "dirty",
        "indirty",
        "exit_idx",
        "entry_idx",
        "entry_point",
        "pd",
        "rv",
        "ptup",
        "callrecs",
        "ctx_exits",
        "ctx_pid",
    )

    def __init__(
        self,
        proc: str,
        points: List[ProgramPoint],
        pidx: Dict[ProgramPoint, int],
        succ: List[List[Tuple]],
        exit_idx: int,
        entry_point: ProgramPoint,
        nstates: int = 0,
    ) -> None:
        self.proc = proc
        self.points = points
        self.pidx = pidx
        self.succ = succ
        self.exit_idx = exit_idx
        self.entry_idx = 0  # BFS starts at the procedure entry
        self.entry_point = entry_point
        n = len(points)
        self.mask = [0] * n
        self.pending = [0] * n
        self.dirty: List[int] = []
        self.indirty = bytearray(n)
        self.pd: Dict[int, int] = {}
        self.rv: List[Tuple[int, int]] = []
        # pair id -> the materialized (entry state, state) object tuple,
        # filled lazily by _kernel_materialize.  Like pd/rv it is a pure
        # function of the pair-id space, so it survives reset() and
        # makes warm materializations mostly list lookups.
        self.ptup: List[Optional[Tuple]] = []
        # Call records against THIS procedure as callee, indexed by
        # context state id: list of (caller kernel, return-point
        # index, the call edge's record dict) or None.  The record
        # dict (one per call edge, held in its successor desc) maps
        # context state id -> caller entry-id mask.  All three
        # context-indexed lists are pre-sized to the kernel's current
        # state count and grow on demand past it.
        self.callrecs: List[Optional[list]] = [None] * nstates
        # context state id -> mask of exit state ids reached.
        self.ctx_exits: List[int] = [0] * nstates
        # context state id -> its (sid, sid) pair id in pd, -1 unknown
        # (a read-through cache of ``pd``: identity pairs can also be
        # minted by transfer outputs, which go through ``pd`` and are
        # then found here lazily).
        self.ctx_pid: List[int] = [-1] * nstates

    def reset(self) -> None:
        """Clear the per-run state, keep the compiled tables.

        Masks, pending bits, dirty stack, call records and context-exit
        masks belong to one solve; the point index, successor descs,
        pair-id space (``pd``/``rv``), context-pid cache, and the
        per-edge translation caches (``ptrans``/``ctrans``/row tables)
        are pure functions of program × domain and survive across runs
        — that is what makes a :class:`CompiledKernel` reusable.
        """
        n = len(self.points)
        self.mask = [0] * n
        self.pending = [0] * n
        self.dirty = []
        self.indirty = bytearray(n)
        k = len(self.ctx_exits)
        self.ctx_exits = [0] * k
        self.callrecs = [None] * k
        for descs in self.succ:
            for desc in descs:
                if desc[0]:
                    desc[3].clear()  # the call edge's record dict


class CompiledKernel:
    """A program × domain kernel compilation, shareable across runs.

    Holds the :class:`~repro.framework.kernel.StateKernel` (dense state
    ids + per-command transfer rows) and the per-procedure solver
    structures with their pair-id spaces and per-edge translation
    caches.  Obtain one from :meth:`TopDownEngine.compiled_kernel`
    after a run and pass it to later engines as ``kernel_tables=`` —
    they then solve on warm tables and pay no compile time (the first
    run's compile cost is what ``Metrics.kernel_compile_seconds`` and
    the lazily-filled row tables record).  Sharing never changes
    results: tables and work counters are identical on cold and warm
    runs (property-tested); only the table-size/compile metrics stay
    with the compiling engine.

    Not thread-safe: engines sharing a handle must run sequentially
    (the concurrent BU driver builds per-worker kernels instead).
    """

    __slots__ = ("states", "procs", "_flush")

    def __init__(self, states: StateKernel, procs: Dict[str, _ProcKernel]) -> None:
        self.states = states
        self.procs = procs
        # The previous borrowing engine's materializer: resetting the
        # shared run state would corrupt a result that has not read its
        # tables yet, so each new solve first forces the old one out
        # (a no-op when the result was already read).
        self._flush = None

    def flush(self) -> None:
        if self._flush is not None:
            flush, self._flush = self._flush, None
            flush()


class TopDownResult:
    """Read-only view over the tables computed by a top-down run.

    When the bitset-kernel solver produced the run, the object-level
    tables are materialized from its mask form lazily, on first access
    (``lazy`` is the converter; the dicts passed in are filled in
    place).  Object-engine results pass ``lazy=None`` and behave as
    plain attributes.
    """

    def __init__(
        self,
        program: Program,
        cfgs: ControlFlowGraphs,
        td: Dict[ProgramPoint, Set[Tuple]],
        entry_counts: Dict[str, Counter],
        metrics: Metrics,
        timed_out: bool = False,
        profile: Optional[Profile] = None,
        call_records: Optional[Dict[Tuple[str, object], Set[Tuple]]] = None,
        lazy: Optional[callable] = None,
    ) -> None:
        self.program = program
        self.cfgs = cfgs
        self._td_data = td
        self._entry_counts_data = entry_counts  # proc -> Counter
        self.metrics = metrics
        self.timed_out = timed_out
        # Per-procedure work/wall-time attribution; only populated when
        # the engine ran with a tracing sink (None otherwise).
        self.profile = profile
        # (callee, entry state) -> {(return point, caller entry)}; the
        # summary store needs these to attach spawned contexts to their
        # creating context (repro.incremental).
        self._call_records_data = call_records if call_records is not None else {}
        self._lazy = lazy

    def _force(self) -> None:
        if self._lazy is not None:
            materialize, self._lazy = self._lazy, None
            materialize()

    @property
    def td(self) -> Dict[ProgramPoint, Set[Tuple]]:
        self._force()
        return self._td_data

    @property
    def entry_counts(self) -> Dict[str, Counter]:
        self._force()
        return self._entry_counts_data

    @property
    def call_records(self) -> Dict[Tuple[str, object], Set[Tuple]]:
        self._force()
        return self._call_records_data

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
        return sum(self.summary_count(proc) for proc in self.program)

    def summary_counts_by_proc(self) -> Dict[str, int]:
        return {proc: self.summary_count(proc) for proc in self.program}

    def incoming_states(self, proc: str) -> FrozenSet:
        """Distinct incoming abstract states observed for ``proc``."""
        return frozenset(self.entry_counts.get(proc, Counter()))


class TopDownEngine:
    """Worklist tabulation over the program's CFGs.

    Two hot-path optimizations are on by default and toggleable for
    ablation; neither changes the computed tables or the deterministic
    work counters (see :mod:`repro.framework.caching`):

    * ``indexed_summaries`` — an exit-summary index
      ``proc -> sigma_in -> {sigma_out}`` maintained incrementally by
      ``_propagate``, so summary reuse at a call edge inspects only the
      matching summaries instead of scanning every exit path edge of
      the callee (O(matching) instead of O(all summaries));
    * ``enable_caches`` — a bounded memo table for ``trans(c)(sigma)``.
    """

    def __init__(
        self,
        program: Program,
        analysis: TopDownAnalysis,
        budget: Optional[Budget] = None,
        cfgs: Optional[ControlFlowGraphs] = None,
        order: str = "lifo",
        enable_caches: bool = True,
        indexed_summaries: bool = True,
        sink: Optional[TraceSink] = None,
        preload=None,
        scheduler: Optional[str] = None,
        kernel: str = DEFAULT_KERNEL,
        kernel_seeds: Optional[Iterable] = None,
        kernel_tables: Optional["CompiledKernel"] = None,
        widening_delay: int = 2,
        descending_iters: int = 0,
    ) -> None:
        if order not in ("lifo", "fifo"):
            raise ValueError("order must be 'lifo' or 'fifo'")
        if widening_delay < 0:
            raise ValueError("widening_delay must be non-negative")
        if descending_iters < 0:
            raise ValueError("descending_iters must be non-negative")
        self.program = program
        self.analysis = analysis
        self.budget = budget
        # The legacy ``order=`` knob is the lifo/fifo subset of the
        # scheduling policies; ``scheduler=`` (a registry name, see
        # repro.framework.scheduling) wins when both are given.
        self.order = order
        self.scheduler_policy = scheduler if scheduler is not None else order
        self.cfgs = cfgs if cfgs is not None else ControlFlowGraphs(program)
        self.metrics = Metrics()
        self.enable_caches = enable_caches
        self.indexed_summaries = indexed_summaries
        # Tracing: with the default NullSink the engines skip event
        # construction entirely (one `if self._tracing` test per site).
        # With a real sink, every event also feeds the per-procedure
        # Profile, and nested components (run_bu, the pruner) receive
        # the same tee so their events land in both places.
        user_sink = sink if sink is not None else NULL_SINK
        self._tracing = bool(user_sink.enabled)
        if self._tracing:
            self.profile: Optional[Profile] = Profile()
            self._sink: TraceSink = TeeSink(user_sink, self.profile)
        else:
            self.profile = None
            self._sink = user_sink
        # Cause of the propagations currently being produced, recorded
        # by the edge handlers just before calling _propagate (only
        # when tracing): (via, source point, source state, source entry).
        self._cause = _SEED_CAUSE
        self._td_wall: Dict[str, float] = {}
        self._transfer = (
            TransferCache(analysis, self.metrics)
            if enable_caches
            else analysis.transfer
        )
        # Does this engine run plain tabulation at calls?  Subclasses
        # overriding _handle_call (SWIFT) cannot use the mask solver.
        self._plain_calls = type(self)._handle_call is TopDownEngine._handle_call
        # Bitset-compiled kernel (repro.framework.kernel, DESIGN §11).
        # kernel="object" is the uncompiled engine; "bitset" compiles
        # transfers into dense-id bitmask tables.  The compiled
        # representation changes wall clock only: tables, reports and
        # work counters stay identical to the object engine.
        self.kernel = validate_kernel(kernel)
        self._kernel_tables = kernel_tables
        if kernel_tables is not None:
            # Warm start on a shared compilation (see CompiledKernel):
            # no compile time is paid here, and the table-size counters
            # stay with the engine that compiled.
            if self.kernel == DEFAULT_KERNEL:
                raise ValueError(
                    "kernel_tables requires a non-object kernel"
                )
            self._kstates: Optional[StateKernel] = kernel_tables.states
        elif self.kernel != DEFAULT_KERNEL:
            compile_started = time.perf_counter()
            self._kstates = StateKernel(
                self._transfer,
                self.metrics,
                canon=sorted_states,
                seeds=kernel_seeds if kernel_seeds is not None else (),
            )
            self.metrics.kernel_compile_seconds += (
                time.perf_counter() - compile_started
            )
        else:
            self._kstates = None
        # The mask-based solver replaces the whole worklist loop; it is
        # only valid for plain tabulation at calls (SWIFT's trigger
        # timing is order-dependent, so SWIFT keeps the object control
        # flow and swaps in compiled operators only), without tracing
        # (causes are per-item) and without a warm start (activation
        # installs object rows mid-solve).  The fallbacks still run the
        # compiled rows through the per-item handlers.
        self._kernel_solver = (
            self._kstates is not None
            and self._plain_calls
            and not self._tracing
            and preload is None
        )
        # td(pc) = set of path edges (entry state, state at pc)
        self._td: Dict[ProgramPoint, Set[Tuple]] = {}
        # The mask-solver's live structures (masks, records, pair-id
        # spaces); set by _solve_kernel, consumed once by
        # _kernel_materialize when the result tables are first read.
        self._kernel_state = None
        # (callee, entry state) -> set of (return point, caller entry state)
        self._call_records: Dict[Tuple[str, object], Set[Tuple[ProgramPoint, object]]] = {}
        # proc -> multiset of incoming abstract states (the data the
        # pruning operator ranks against; Section 3.4).
        self._entry_counts: Dict[str, Counter] = {}
        self._workset: Scheduler = make_scheduler(self.scheduler_policy, program)
        self._timed_out = False
        # Per-proc entry/exit points and per-point successor lists,
        # resolved once: the worklist loop otherwise re-derives them
        # (and copies the successor list) on every single pop.
        self._entry_points: Dict[str, ProgramPoint] = {}
        self._exit_points: Dict[str, ProgramPoint] = {}
        self._exit_point_set: Set[ProgramPoint] = set()
        self._succ_cache: Dict[ProgramPoint, List[CFGEdge]] = {}
        # Exit-summary index: proc -> sigma_in -> set of sigma_out.
        self._exit_index: Dict[str, Dict[object, Set[object]]] = {}
        # Warm start (repro.incremental.invalidate.WarmStart): stored
        # tabulation contexts, lazily activated when a call edge demands
        # them.  Every entry was fingerprint-verified by the caller, so
        # activation installs it without re-deriving anything.
        self._preload = preload
        self._activated: Set[Tuple[str, object]] = set()
        # -- lattice (value) mode: infinite-height domains (DESIGN §14) -------
        # Finite domains never enter any of the branches below: the
        # whole block is gated on ``analysis.is_finite()`` returning
        # False, so the paper's powerset saturation — and every
        # byte-locked baseline — is untouched when it returns True.
        self.widening_delay = widening_delay
        self.descending_iters = descending_iters
        self._lattice = not analysis.is_finite()
        if self._lattice:
            if self.kernel != DEFAULT_KERNEL or kernel_tables is not None:
                raise UnsupportedDomainError(
                    f"kernel {self.kernel!r} enumerates finite domains and "
                    f"cannot represent {type(analysis).__name__}; use the "
                    "'object' kernel fallback",
                    supported=(DEFAULT_KERNEL,),
                )
            self._kernel_solver = False
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
            if self._preload is not None:
                # A stored main context pre-installs its rows; the seed
                # propagation below then finds the entry row present
                # and falls through without queueing any work.
                self._activate(self.program.main, sigma)
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
        if self.profile is not None:
            for proc, seconds in self._td_wall.items():
                self.profile.add_td_wall(proc, seconds)
            self._td_wall.clear()
        return TopDownResult(
            self.program,
            self.cfgs,
            self._td,
            self._entry_counts,
            self.metrics,
            timed_out=self._timed_out,
            profile=self.profile,
            call_records=self._call_records,
            lazy=(
                self._kernel_materialize
                if self._kernel_state is not None
                else None
            ),
        )

    def _solve(self) -> None:
        if self._kernel_solver:
            self._solve_kernel()
            return
        tracing = self._tracing
        lattice = self._lattice
        while self._workset:
            if self.budget is not None:
                self.budget.check(self.metrics)
            # Pop order is the scheduling policy's choice (default LIFO
            # depth-first — see repro.framework.scheduling for why, and
            # for the other registered policies).
            point, entry_sigma, sigma = self._workset.pop()
            if lattice and self._cur.get((point, entry_sigma)) != sigma:
                # A later join replaced this value; its successors were
                # (or will be) explored from the replacement.
                continue
            if tracing:
                pop_started = time.perf_counter()
            succs = self._succ_cache.get(point)
            if succs is None:
                succs = self.cfgs[point.proc].successors(point)
                self._succ_cache[point] = succs
            for edge in succs:
                if edge.is_call:
                    self._handle_call(edge, entry_sigma, sigma)
                else:
                    self._handle_prim(edge, entry_sigma, sigma)
            self._after_exit(point, entry_sigma, sigma)
            if tracing:
                # Wall-time attribution at pop granularity: everything
                # this path edge caused (transfers, call handling,
                # inline run_bu) is billed to its procedure.
                self._td_wall[point.proc] = self._td_wall.get(
                    point.proc, 0.0
                ) + (time.perf_counter() - pop_started)

    # -- bitset-kernel solver (repro.framework.kernel, DESIGN §11) ----------------------
    def _solve_kernel(self) -> None:
        """Bitvector twin of :meth:`_solve`.

        Every ``(entry, state)`` path-edge pair of a procedure gets a
        dense *pair id* local to that procedure, the table at a point
        becomes one Python int with bit ``p`` meaning "pair ``p`` holds
        here", and the per-procedure CFG is compiled into index-based
        arrays (:class:`_ProcKernel`) so the inner loop runs on list
        indexing and int bit-ops only — the IFDS bitvector
        representation.  Intraprocedural propagation saturates each
        procedure with a local worklist of point indices
        (:meth:`_saturate_kernel`); only call/return hand-offs cross
        the scheduler.  The final counters of plain tabulation are all
        order-independent — each path edge enters its point's mask
        exactly once and is processed once per outgoing edge, so
        ``transfers``/``propagations``/``td_summary_reuses`` and the
        entry multisets are functions of the fixpoint *set*, not the
        visit order — which is what licenses replacing the whole loop
        (and its schedule): the finishing tables, reports and work
        counters are identical to the object engines
        (tests/test_kernel_matrix).  The mask structures persist on
        the engine after the drain (budget aborts included) and
        :meth:`_kernel_materialize` converts them into
        ``self._td``/``_call_records``/``_entry_counts`` lazily, on
        first access of the result's tables.
        """
        id_of = self._kstates.id_of
        # proc -> compiled per-procedure arrays.  Records and exit
        # masks live on the callee's _ProcKernel (``callrecs`` /
        # ``ctx_exits``), so the whole solver state is this one dict.
        if self._kernel_tables is not None:
            # Shared compilation: evict the previous borrower's result
            # (no-op if already read), then clear the per-run state.
            self._kernel_tables.flush()
            self._kernel_procs = self._kernel_tables.procs
            for pk in self._kernel_procs.values():
                pk.reset()
        else:
            self._kernel_procs = {}
        self._kernel_state = self._kernel_procs
        # Convert the object-seeded table and workset (run() seeds
        # through the ordinary _propagate) into mask form.  Seed rows
        # are sorted canonically so id assignment stays hash-seed
        # independent.  Seed bits land in ``pending`` directly (their
        # ``propagations`` were already counted by ``_propagate``); the
        # pushed ``(point, 0)`` items are pure wake-up tokens.
        while self._workset:
            self._workset.pop()
        for point in self._td:
            pk = self._kernel_proc(point.proc)
            i = pk.pidx[point]
            pd = pk.pd
            rv = pk.rv
            mask = 0
            for (entry_sigma, sigma) in sorted(
                self._td[point],
                key=lambda pair: (state_sort_key(pair[0]), state_sort_key(pair[1])),
            ):
                key = (id_of(entry_sigma) << 32) | id_of(sigma)
                pid = pd.get(key)
                if pid is None:
                    pid = pd[key] = len(rv)
                    rv.append((key >> 32, key & 0xFFFFFFFF))
                mask |= 1 << pid
            pk.mask[i] |= mask
            pk.pending[i] |= mask
            if not pk.indirty[i]:
                pk.indirty[i] = 1
                pk.dirty.append(i)
            self._workset.push((point, 0))
        try:
            self._drain_kernel()
        finally:
            if self._kernel_tables is not None:
                # Hand the shared tables our materializer: the next
                # borrower forces it before resetting the run state
                # (budget aborts included — partial tables survive).
                self._kernel_tables._flush = self._kernel_materialize

    def compiled_kernel(self) -> "CompiledKernel":
        """This engine's kernel compilation, for reuse via ``kernel_tables=``.

        Valid after a run with a non-object kernel; the handle keeps
        growing lazily (rows, pair ids) as later borrowing engines
        touch new territory.
        """
        if self._kstates is None:
            raise ValueError("compiled_kernel() requires a non-object kernel")
        if self._kernel_tables is not None:
            return self._kernel_tables
        handle = CompiledKernel(self._kstates, getattr(self, "_kernel_procs", {}))
        handle._flush = self._kernel_materialize
        return handle

    def _kernel_proc(self, proc: str) -> "_ProcKernel":
        """The compiled per-procedure arrays for ``proc`` (built once).

        Points are indexed densely in BFS-from-entry order over the
        procedure's CFG; each point's successor edges compile into
        ``(is_call, label, target index, ...)`` tuples so the solver
        never hashes program points or commands in its hot loop.
        """
        pk = self._kernel_procs.get(proc)
        if pk is not None:
            return pk
        entry, exit_point = self._proc_points(proc)
        cfg = self.cfgs[proc]
        points: List[ProgramPoint] = [entry]
        pidx: Dict[ProgramPoint, int] = {entry: 0}
        edge_lists: List[List[CFGEdge]] = []
        qi = 0
        while qi < len(points):
            point = points[qi]
            qi += 1
            edges = self._succ_cache.get(point)
            if edges is None:
                edges = cfg.successors(point)
                self._succ_cache[point] = edges
            edge_lists.append(edges)
            for edge in edges:
                if edge.target not in pidx:
                    pidx[edge.target] = len(points)
                    points.append(edge.target)
        if exit_point not in pidx:  # disconnected exit: index it anyway
            pidx[exit_point] = len(points)
            points.append(exit_point)
            edge_lists.append([])
        while len(edge_lists) < len(points):
            edge_lists.append([])
        succ: List[List[Tuple]] = []
        for edges in edge_lists:
            descs: List[Tuple] = []
            for edge in edges:
                j = pidx[edge.target]
                if edge.is_call:
                    # Slot 3: this call edge's record dict, context
                    # state id -> caller entry-id mask (also reachable
                    # from the callee through its ``callrecs``; cleared
                    # by reset).  Slot 4: the static caller-pair
                    # translation cache, pair id -> (sid, entry bit,
                    # context pid, eid).
                    descs.append((True, edge.label.proc, j, {}, {}))
                else:
                    # Slot 3: per-edge row table keyed by int state id,
                    # filled lazily from the StateKernel rows.  Slot 4:
                    # the static pair-level translation cache, pair id
                    # -> output pair mask.
                    descs.append((False, edge.label, j, {}, {}))
            succ.append(descs)
        pk = _ProcKernel(
            proc, points, pidx, succ, pidx[exit_point], entry,
            len(self._kstates._states),
        )
        self._kernel_procs[proc] = pk
        return pk

    def _drain_kernel(self) -> None:
        """Pop wake-up tokens, saturate the woken procedure.

        All pair bits merge into their target mask at the *production*
        site — intraprocedural flows locally, call/return hand-offs
        straight into the other procedure's arrays — so scheduler items
        carry no data: ``(point, 0)`` means "this procedure has pending
        bits".  The invariant is that a procedure with a non-empty
        dirty stack either is the one currently saturating or has a
        wake-up queued (pushed on its empty-to-dirty transition), so
        draining the queue drains every procedure.
        """
        budget = self.budget
        workset = self._workset
        procs = self._kernel_procs
        while workset:
            if budget is not None:
                budget.check_clock()
            point = workset.pop()[0]
            pk = procs[point.proc]
            if pk.dirty:
                self._saturate_kernel(pk)

    def _saturate_kernel(self, pk: "_ProcKernel") -> None:
        """Run ``pk``'s procedure to a local fixpoint.

        Pops point indices off the procedure's own dirty stack and
        pushes new intraprocedural pair bits straight back onto it;
        context creations merge into the callee's entry arrays and new
        exit pairs merge into every recorded caller's return point,
        waking the other procedure through the scheduler when needed.
        Records arriving later catch up through the reuse branch of
        :meth:`_kernel_call`; neither the local pop order nor the
        record iteration order can leak into the results — see the
        order-independence argument in :meth:`_solve_kernel`.
        """
        metrics = self.metrics
        budget = self.budget
        rows = self._kstates._rows
        fill = self._kstates._fill
        workset = self._workset
        dirty = pk.dirty
        indirty = pk.indirty
        pending = pk.pending
        mask = pk.mask
        succ = pk.succ
        pd = pk.pd
        rv = pk.rv
        exit_idx = pk.exit_idx
        while dirty:
            if budget is not None:
                budget.check_clock()
            i = dirty.pop()
            indirty[i] = 0
            m = pending[i]
            if not m:
                continue
            pending[i] = 0
            for desc in succ[i]:
                if desc[0]:
                    self._kernel_call(pk, desc, m)
                    continue
                _, cmd, j, erows, ptrans = desc
                if budget is not None:
                    budget.check_counters(metrics)
                # One logical trans(c) application per pair bit.
                metrics.transfers += m.bit_count()
                out = 0
                mm = m
                while mm:
                    low = mm & -mm
                    mm ^= low
                    p = low.bit_length() - 1
                    o = ptrans.get(p)
                    if o is None:
                        # Translate once, remember forever: the row
                        # outputs and pair-id space are static.
                        eid, sid = rv[p]
                        outs = erows.get(sid)
                        if outs is None:
                            row = rows.get((cmd, sid))
                            if row is None:
                                row = fill(cmd, sid)
                            outs = erows[sid] = row[1]
                        o = 0
                        base = eid << 32
                        for osid in outs:
                            key = base | osid
                            pid = pd.get(key)
                            if pid is None:
                                pid = pd[key] = len(rv)
                                rv.append((eid, osid))
                            o |= 1 << pid
                        ptrans[p] = o
                    out |= o
                new = out & ~mask[j]
                if new:
                    mask[j] |= new
                    metrics.propagations += new.bit_count()
                    pending[j] |= new
                    if not indirty[j]:
                        indirty[j] = 1
                        dirty.append(j)
            if i == exit_idx:
                ctx_exits = pk.ctx_exits
                callrecs = pk.callrecs
                mm = m
                while mm:
                    low = mm & -mm
                    mm ^= low
                    ctx, xsid = rv[low.bit_length() - 1]
                    if ctx >= len(ctx_exits):
                        # Geometric growth: cold runs mint state ids
                        # one at a time.
                        grow = max(ctx + 1, 2 * len(ctx_exits)) - len(ctx_exits)
                        ctx_exits.extend([0] * grow)
                        pk.callrecs.extend([None] * grow)
                        pk.ctx_pid.extend([-1] * grow)
                    ctx_exits[ctx] |= 1 << xsid
                    lst = callrecs[ctx]
                    if not lst:
                        continue
                    for cpk, cj, dr in lst:
                        tpd = cpk.pd
                        trv = cpk.rv
                        out = 0
                        cm = dr[ctx]
                        while cm:
                            cl = cm & -cm
                            cm ^= cl
                            tkey = ((cl.bit_length() - 1) << 32) | xsid
                            pid = tpd.get(tkey)
                            if pid is None:
                                pid = tpd[tkey] = len(trv)
                                trv.append((tkey >> 32, xsid))
                            out |= 1 << pid
                        new = out & ~cpk.mask[cj]
                        if not new:
                            continue
                        cpk.mask[cj] |= new
                        metrics.propagations += new.bit_count()
                        cpk.pending[cj] |= new
                        if not cpk.indirty[cj]:
                            cpk.indirty[cj] = 1
                            if cpk is not pk and not cpk.dirty:
                                workset.push((cpk.points[cj], 0))
                            cpk.dirty.append(cj)

    def _kernel_call(self, pk: "_ProcKernel", desc: Tuple, m: int) -> None:
        """Mask twin of :meth:`_tabulate_call`, one call edge per frontier.

        ``pk`` is the calling procedure's kernel (the call's return
        point lives there too: ``desc`` carries its local index).
        Context creations merge into the callee's entry mask
        *immediately* — a later record against the same context must
        see it as existing (one reuse), exactly like the object
        engine's eager ``_propagate`` — and the callee is woken through
        the scheduler only when its dirty stack was empty (otherwise a
        wake-up is already queued).
        """
        metrics = self.metrics
        budget = self.budget
        if budget is not None:
            budget.check_counters(metrics)
        _, callee, j, dr, ctrans = desc
        ck = self._kernel_procs.get(callee)
        if ck is None:
            ck = self._kernel_proc(callee)
        pd = pk.pd
        rv = pk.rv
        cpd = ck.pd
        crv = ck.rv
        ctx_exits = ck.ctx_exits
        callrecs = ck.callrecs
        ctx_pid = ck.ctx_pid
        entry_mask = ck.mask[0]  # index 0 is the callee entry
        reuses = 0
        pend_entry = 0
        pend_local = 0
        while m:
            low = m & -m
            m ^= low
            p = low.bit_length() - 1
            t = ctrans.get(p)
            if t is None:
                eid, sid = rv[p]
                nctx = len(ctx_pid)
                if sid >= nctx:
                    grow = max(sid + 1, 2 * nctx) - nctx
                    ctx_exits.extend([0] * grow)
                    callrecs.extend([None] * grow)
                    ctx_pid.extend([-1] * grow)
                bit = 1 << eid
                cpid = ctx_pid[sid]
                if cpid < 0:
                    ckey = (sid << 32) | sid
                    cpid = cpd.get(ckey)
                    if cpid is None:
                        cpid = cpd[ckey] = len(crv)
                        crv.append((sid, sid))
                    ctx_pid[sid] = cpid
                ctrans[p] = (sid, bit, cpid, eid)
            else:
                sid, bit, cpid, eid = t
            prev = dr.get(sid)
            if prev is None:
                dr[sid] = bit
                lst = callrecs[sid]
                if lst is None:
                    callrecs[sid] = [(pk, j, dr)]
                else:
                    lst.append((pk, j, dr))
            elif prev & bit:
                continue
            else:
                dr[sid] = prev | bit
            if (entry_mask >> cpid) & 1:
                # The callee context exists: reuse its summaries.
                reuses += 1
                ex = ctx_exits[sid]
                if ex:
                    base = eid << 32
                    while ex:
                        xl = ex & -ex
                        ex ^= xl
                        tkey = base | (xl.bit_length() - 1)
                        pid = pd.get(tkey)
                        if pid is None:
                            pid = pd[tkey] = len(rv)
                            rv.append((eid, xl.bit_length() - 1))
                        pend_local |= 1 << pid
            else:
                entry_mask |= 1 << cpid
                pend_entry |= 1 << cpid
        if reuses:
            metrics.td_summary_reuses += reuses
        if pend_entry:
            new = pend_entry & ~ck.mask[0]
            if new:
                ck.mask[0] |= new
                metrics.propagations += new.bit_count()
                ck.pending[0] |= new
                if not ck.indirty[0]:
                    ck.indirty[0] = 1
                    if ck is not pk and not ck.dirty:
                        self._workset.push((ck.entry_point, 0))
                    ck.dirty.append(0)
        if pend_local:
            new = pend_local & ~pk.mask[j]
            if new:
                pk.mask[j] |= new
                metrics.propagations += new.bit_count()
                pk.pending[j] |= new
                if not pk.indirty[j]:
                    pk.indirty[j] = 1
                    pk.dirty.append(j)

    def _kernel_materialize(self) -> None:
        """Convert the mask tables back into the object tables.

        Deferred until the result's tables are first read: the bench
        window then times the fixpoint, not the format conversion.  The
        conversion also runs after budget aborts — the mask structures
        persist on the engine whatever stopped the drain — so a
        timed-out run still reports the partial tables it reached,
        exactly like the object engines.  ``entry_counts`` is derived
        here too: the object engine bumps it once per new call record,
        so the multiset equals the record-mask popcounts (seed entries
        were counted eagerly by ``run``).
        """
        if self._kernel_state is None:
            return
        procs = self._kernel_state
        self._kernel_state = None
        state_of = self._kstates.state_of
        for pk in procs.values():
            rv = pk.rv
            ptup = pk.ptup
            if len(ptup) < len(rv):
                ptup.extend([None] * (len(rv) - len(ptup)))
            points = pk.points
            for i, mask in enumerate(pk.mask):
                if not mask:
                    continue
                pairs = self._td.get(points[i])
                if pairs is None:
                    pairs = self._td[points[i]] = set()
                add = pairs.add
                while mask:
                    low = mask & -mask
                    mask ^= low
                    p = low.bit_length() - 1
                    t = ptup[p]
                    if t is None:
                        eid, sid = rv[p]
                        t = ptup[p] = (state_of(eid), state_of(sid))
                    add(t)
        for ck in procs.values():
            callee = ck.proc
            for sid, lst in enumerate(ck.callrecs):
                if not lst:
                    continue
                sigma = state_of(sid)
                out = self._call_records.setdefault((callee, sigma), set())
                count = 0
                for cpk, cj, dr in lst:
                    target = cpk.points[cj]
                    callers = dr[sid]
                    count += callers.bit_count()
                    while callers:
                        low = callers & -callers
                        callers ^= low
                        out.add((target, state_of(low.bit_length() - 1)))
                counts = self._entry_counts.get(callee)
                if counts is None:
                    counts = self._entry_counts[callee] = Counter()
                counts[sigma] += count

    # -- edge handling ------------------------------------------------------------------
    def _handle_prim(self, edge: CFGEdge, entry_sigma, sigma) -> None:
        self.metrics.transfers += 1
        if self._tracing:
            self._cause = ("prim", edge.source, sigma, entry_sigma)
        if self._kstates is not None:
            # Compiled row: already the canonical sorted tuple.
            outs = self._kstates.row_states(edge.label, sigma)
        else:
            outs = sorted_states(self._transfer(edge.label, sigma))
        for sigma_prime in outs:
            self._propagate(edge.target, entry_sigma, sigma_prime)

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
        callee_entry, callee_exit = self._proc_points(callee)
        if (sigma, sigma) in self._td.get(callee_entry, ()):
            # The callee context exists already: reuse its summaries.
            self.metrics.td_summary_reuses += 1
            outs = self._exit_summaries(callee, callee_exit, sigma)
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
                # The store held this whole context: its rows (and its
                # children's) are installed, so serve the exit
                # summaries exactly like the reuse path above.
                outs = self._exit_summaries(callee, callee_exit, sigma)
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

    def _exit_summaries(self, callee: str, callee_exit: ProgramPoint, sigma) -> List:
        """Exit states of ``callee`` for the incoming state ``sigma``.

        Indexed mode reads the ``(proc, sigma_in) -> {sigma_out}`` index;
        the fallback is the original linear scan over every exit path
        edge (kept for the hot-path ablation, ``indexed_summaries=False``).
        Returns a snapshot list: ``_propagate`` may grow the live sets.
        """
        if self.indexed_summaries:
            outs = self._exit_index.get(callee, _NO_INDEX).get(sigma)
            return list(outs) if outs else []
        return [
            sigma_out
            for (sigma_in, sigma_out) in list(self._td.get(callee_exit, ()))
            if sigma_in == sigma
        ]

    def _after_exit(self, point: ProgramPoint, entry_sigma, sigma) -> None:
        """If a path edge reached a procedure exit, return to callers."""
        if point not in self._exit_point_set:
            return
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
        if self._lattice:
            self._propagate_lattice(point, entry_sigma, sigma)
            return
        edges = self._td.get(point)
        if edges is None:
            edges = self._td[point] = set()
        pair = (entry_sigma, sigma)
        if pair in edges:
            return
        edges.add(pair)
        self.metrics.propagations += 1
        if self.indexed_summaries and point in self._exit_point_set:
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
        self._workset.push((point, entry_sigma, sigma))

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
            if self.indexed_summaries and point in self._exit_point_set:
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
            if self.indexed_summaries and point in self._exit_point_set:
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
        self._workset.push((point, entry_sigma, new))

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
                            for out in self._transfer(edge.label, src):
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
                        if self.indexed_summaries and point in self._exit_point_set:
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

    def _activate(self, proc: str, entry) -> bool:
        """Install the stored context ``(proc, entry)`` — and, transitively,
        every child context its call records spawned — into the tables.

        Installed rows bypass the workset and the ``propagations``
        counter: a stored context is a finished fixpoint, so there is
        nothing left to explore inside it (store traffic is excluded
        from ``total_work``, like the memo caches).  Replaying the call
        records reproduces the entry-count multisets exactly, and the
        exit-summary index is maintained so callers read summaries the
        normal way.  Returns False when the store has no such context
        (the caller then tabulates it cold).
        """
        first = self._preload.contexts.get((proc, entry))
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
            self._proc_points(ctx.proc)  # register the exit point
            for point, sigma in ctx.rows:
                edges = self._td.setdefault(point, set())
                pair = (ctx.entry, sigma)
                if pair in edges:
                    continue
                edges.add(pair)
                if self._lattice:
                    # A stored value-mode context has exactly one value
                    # per (point, entry); install it as the current one
                    # so warm re-runs re-do zero work.
                    self._cur[(point, ctx.entry)] = sigma
                if self.indexed_summaries and point in self._exit_point_set:
                    by_entry = self._exit_index.setdefault(point.proc, {})
                    outs = by_entry.get(ctx.entry)
                    if outs is None:
                        outs = by_entry[ctx.entry] = set()
                    outs.add(sigma)
            for callee, sigma_in, return_point in ctx.records:
                records = self._call_records.setdefault((callee, sigma_in), set())
                record = (return_point, ctx.entry)
                if record not in records:
                    records.add(record)
                    self._record_entry(callee, sigma_in)
                child = self._preload.contexts.get((callee, sigma_in))
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


def _record_sort_key(record: Tuple[ProgramPoint, object]) -> Tuple[str, int, str]:
    """Canonical order for call records (see :func:`sorted_states`)."""
    return_point, caller_entry = record
    return (return_point.proc, return_point.index, state_sort_key(caller_entry))


#: Shared empty mapping for index misses (avoids allocating per lookup).
_NO_INDEX: Dict[object, Set[object]] = {}
