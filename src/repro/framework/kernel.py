"""Bitset-compiled finite-domain kernel (DESIGN §11).

Both shipped typestate domains are finite: a program mentions finitely
many allocation sites, variables and DFA states, so the abstract states
``S`` that can ever arise — and the abstract relations ``R`` of the
bottom-up domain — form small universes.  The object engines
nevertheless pay per-element Python costs on every operator
application: hashing interned state objects, allocating frozensets,
walking dict memos.  This module compiles the universes away:

* every abstract state gets a dense integer id, assigned lazily in the
  canonical order of first sight (so runs stay independent of
  ``PYTHONHASHSEED``; per-domain enumerators may pre-seed the id space,
  see :mod:`repro.typestate.enumerate`);
* each primitive command's ``trans`` is compiled, row by row and at
  most once per ``(command, state)`` pair, into a lookup table mapping
  a state id to its output state ids, which the top-down mask solver
  turns into *bitmasks* — Python ``int``s whose bit ``i`` means "pair
  ``i`` holds here";
* the relational operators ``rtrans``/``rcomp`` become boolean matrix
  rows/cells over the relation-id universe (:class:`RelationKernel`) —
  summary composition is a boolean matrix multiply evaluated sparsely,
  row masks OR-ed per set bit.

The kernel is *representation only*: every engine still bumps its raw
work counters per logical operator application, so tables, error
reports and work counters are byte-identical to the object engines
(property-tested in tests/test_kernel_matrix.py).  Table sizes and
compile wall time land in the new non-work ``Metrics.kernel_*``
fields.

Kernels: ``bitset`` is the pure-int implementation above; ``object``
means "no kernel" — the interned-state engines unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Tuple

from repro.framework.metrics import Metrics

#: Registered kernel names, in documentation order.
KERNELS: Tuple[str, ...] = ("object", "bitset")

#: The default — the uncompiled object engines.
DEFAULT_KERNEL = "object"

#: Set-level memos (keyed by input masks) are cleared wholesale past
#: this bound, like the state intern tables: memoization is an
#: optimization, never a semantic need.
_MEMO_LIMIT = 1 << 20


def validate_kernel(name: str) -> str:
    """Check a kernel name."""
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; registered kernels: {', '.join(KERNELS)}"
        )
    return name


class StateKernel:
    """Dense-id compilation of a top-down transfer function.

    Ids are assigned on first sight; at every assignment site the
    candidate states are already in canonical order (enumerator seeds,
    ``canon``-sorted transfer outputs, ascending bit iteration), so the
    id space — and hence every mask — is deterministic across runs and
    hash seeds.  Rows are compiled lazily through the engine's own
    ``transfer`` callable (the per-state memo cache when caches are
    on), so each ``(command, state)`` pair is evaluated at most once
    per run regardless of how many frontiers contain the state.
    """

    def __init__(
        self,
        transfer: Callable,
        metrics: Metrics,
        canon: Callable,
        seeds: Iterable = (),
    ) -> None:
        self._transfer = transfer
        self._metrics = metrics
        self._canon = canon
        self._ids: Dict[object, int] = {}
        self._states: List[object] = []
        # (cmd, state id) -> (canonically sorted output tuple, output
        # id tuple)
        self._rows: Dict[Tuple[object, int], Tuple[Tuple, Tuple[int, ...]]] = {}
        for sigma in seeds:
            self.id_of(sigma)

    # -- id space ---------------------------------------------------------------------
    def id_of(self, sigma) -> int:
        sid = self._ids.get(sigma)
        if sid is None:
            sid = self._ids[sigma] = len(self._states)
            self._states.append(sigma)
            self._metrics.kernel_states += 1
        return sid

    def state_of(self, sid: int):
        return self._states[sid]

    # -- compiled rows ----------------------------------------------------------------
    def _fill(self, cmd, sid: int) -> Tuple[Tuple, Tuple[int, ...]]:
        outs = tuple(self._canon(self._transfer(cmd, self._states[sid])))
        out_ids = tuple(self.id_of(sigma) for sigma in outs)
        row = self._rows[(cmd, sid)] = (outs, out_ids)
        self._metrics.kernel_rows += 1
        return row

    def row_states(self, cmd, sigma) -> Tuple:
        """``trans(cmd)(sigma)`` as the canonical sorted tuple."""
        sid = self.id_of(sigma)
        row = self._rows.get((cmd, sid))
        if row is None:
            row = self._fill(cmd, sid)
        return row[0]


class RelationKernel:
    """Dense-id compilation of the bottom-up relational operators.

    ``rtrans(c)`` compiles into per-``(command, relation)`` rows and
    ``rcomp`` into per-``(relation, relation)`` cells of a boolean
    matrix over the relation-id universe; set-level applications OR the
    row masks of the input's set bits (a sparse boolean matrix
    multiply).  Every row/cell carries the number of relations the
    object operator produced, so engines add the exact
    ``relations_created`` contribution the per-relation loops would
    have — memo hits included.
    """

    def __init__(self, analysis, metrics: Metrics, canon_states=None) -> None:
        self._analysis = analysis
        self._metrics = metrics
        self._canon_states = canon_states
        self._ids: Dict[object, int] = {}
        self._rels: List[object] = []
        # frozenset -> mask and mask -> frozenset conversion memos.
        self._set_masks: Dict[FrozenSet, int] = {}
        self._mask_sets: Dict[int, FrozenSet] = {}
        # (cmd, relation id) -> (output mask, produced count)
        self._rtrans_rows: Dict[Tuple[object, int], Tuple[int, int]] = {}
        # (cmd, input mask) -> (output frozenset, produced count)
        self._rtrans_memo: Dict[Tuple[object, int], Tuple[FrozenSet, int]] = {}
        # (rid1, rid2) -> (mask of rcomp(r1, r2), produced count)
        self._comp_cells: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # (rid1, callee mask) -> (row mask, produced count)
        self._comp_rows: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # (caller mask, callee mask) -> (output frozenset, produced count)
        self._comp_memo: Dict[Tuple[int, int], Tuple[FrozenSet, int]] = {}
        # (relation mask, sigma) -> canonically sorted instantiation tuple
        self._apply_memo: Dict[Tuple[int, object], Tuple] = {}

    # -- id space ---------------------------------------------------------------------
    def _id_of(self, r) -> int:
        rid = self._ids.get(r)
        if rid is None:
            rid = self._ids[r] = len(self._rels)
            self._rels.append(r)
            self._metrics.kernel_relations += 1
        return rid

    def _mask_of(self, relations: FrozenSet) -> int:
        relations = frozenset(relations)
        mask = self._set_masks.get(relations)
        if mask is None:
            mask = 0
            # Canonical order at the assignment site keeps ids (and
            # hence every downstream mask) hash-seed independent.
            for r in sorted(relations, key=str):
                mask |= 1 << self._id_of(r)
            if len(self._set_masks) >= _MEMO_LIMIT:
                self._set_masks.clear()
            self._set_masks[relations] = mask
        return mask

    def _set_of(self, mask: int) -> FrozenSet:
        out = self._mask_sets.get(mask)
        if out is None:
            rels = self._rels
            collected = []
            m = mask
            while m:
                low = m & -m
                m ^= low
                collected.append(rels[low.bit_length() - 1])
            out = frozenset(collected)
            if len(self._mask_sets) >= _MEMO_LIMIT:
                self._mask_sets.clear()
            self._mask_sets[mask] = out
        return out

    # -- compiled operators -------------------------------------------------------------
    def _rtrans_row(self, cmd, rid: int) -> Tuple[int, int]:
        step = self._analysis.rtransfer(cmd, self._rels[rid])
        row = self._rtrans_rows[(cmd, rid)] = (self._mask_of(step), len(step))
        self._metrics.kernel_cells += 1
        return row

    def rtransfer_set(self, cmd, relations: FrozenSet) -> Tuple[FrozenSet, int]:
        """``(U rtrans(cmd)(r), total produced)`` over the input set."""
        mask = self._mask_of(relations)
        key = (cmd, mask)
        hit = self._rtrans_memo.get(key)
        if hit is not None:
            return hit
        rows = self._rtrans_rows
        created = 0
        m = mask
        out_mask = 0
        while m:
            low = m & -m
            m ^= low
            row = rows.get((cmd, low.bit_length() - 1))
            if row is None:
                row = self._rtrans_row(cmd, low.bit_length() - 1)
            out_mask |= row[0]
            created += row[1]
        result = (self._set_of(out_mask), created)
        if len(self._rtrans_memo) >= _MEMO_LIMIT:
            self._rtrans_memo.clear()
        self._rtrans_memo[key] = result
        return result

    def _comp_row(self, rid1: int, callee_mask: int) -> Tuple[int, int]:
        cells = self._comp_cells
        analysis = self._analysis
        rels = self._rels
        row_mask = 0
        row_created = 0
        m = callee_mask
        while m:
            low = m & -m
            m ^= low
            rid2 = low.bit_length() - 1
            cell = cells.get((rid1, rid2))
            if cell is None:
                step = analysis.rcompose(rels[rid1], rels[rid2])
                cell = cells[(rid1, rid2)] = (self._mask_of(step), len(step))
                self._metrics.kernel_cells += 1
            row_mask |= cell[0]
            row_created += cell[1]
        row = self._comp_rows[(rid1, callee_mask)] = (row_mask, row_created)
        return row

    def rcompose_set(
        self, relations: FrozenSet, callee_relations: FrozenSet
    ) -> Tuple[FrozenSet, int]:
        """``(U rcomp(r, r0), total produced)`` over the cross product."""
        caller_mask = self._mask_of(relations)
        callee_mask = self._mask_of(callee_relations)
        key = (caller_mask, callee_mask)
        hit = self._comp_memo.get(key)
        if hit is not None:
            return hit
        rows = self._comp_rows
        created = 0
        m = caller_mask
        out_mask = 0
        while m:
            low = m & -m
            m ^= low
            row = rows.get((low.bit_length() - 1, callee_mask))
            if row is None:
                row = self._comp_row(low.bit_length() - 1, callee_mask)
            out_mask |= row[0]
            created += row[1]
        result = (self._set_of(out_mask), created)
        if len(self._comp_memo) >= _MEMO_LIMIT:
            self._comp_memo.clear()
        self._comp_memo[key] = result
        return result

    def apply_summary(self, relations: FrozenSet, sigma) -> Tuple:
        """Summary instantiation ``U apply(r, sigma)``, canonically sorted.

        Keyed by the relation-set *mask*, so the memo survives ``bu``
        updates that SWIFT's per-callee cache must discard (a changed
        summary simply has a different mask).
        """
        mask = self._mask_of(relations)
        key = (mask, sigma)
        out = self._apply_memo.get(key)
        if out is None:
            apply = self._analysis.apply
            rels = self._rels
            collected: set = set()
            m = mask
            while m:
                low = m & -m
                m ^= low
                collected.update(apply(rels[low.bit_length() - 1], sigma))
            out = tuple(self._canon_states(collected))
            if len(self._apply_memo) >= _MEMO_LIMIT:
                self._apply_memo.clear()
            self._apply_memo[key] = out
        return out
