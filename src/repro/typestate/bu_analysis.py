"""Bottom-up type-state analysis — Figure 3 of the paper.

Abstract relations come in two shapes::

    r ∈ R = (S × Q)  ∪  (I × 2^V × 2^V × Q)

* ``(σ, φ)`` (:class:`ConstRelation`) — the constant relation: any
  input state satisfying ``φ`` is related to the fixed output ``σ``.
* ``(ι, a0, a1, φ)`` (:class:`TransformerRelation`) — any input
  ``(h, t, a)`` satisfying ``φ`` maps to
  ``(h, ι(t), (a ∩ a0) ∪ a1)``.

Predicates ``φ`` are conjunctions of ``have(v)`` / ``notHave(v)`` atoms
(``notHave(v)`` means ``v ∉ a`` — the complement of ``have``, so the
two atoms on the same variable are contradictory).

**Representation note.**  The keep-mask ``a0`` starts as the full
variable universe ``V`` (in ``id# = (λt.t, V, ∅, true)``) and only ever
shrinks, so this implementation stores its *complement*: a finite
``removed`` set with ``a0 = V \\ removed``.  All of Figure 3's
operations translate directly (``a0 ∩ a0' ≙ removed ∪ removed'``,
``w ∈ a0 ≙ w ∉ removed``, …) and the relation needs no reference to
``V`` at all.  The canonical form keeps ``removed ∩ added = ∅``
(``added`` wins: the output is ``(a \\ removed) ∪ added``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Union

from repro.framework.interfaces import BottomUpAnalysis
from repro.framework.predicates import (
    FALSE,
    TRUE,
    Conjunction,
    GuardedRelations,
    KeyedAtom,
)
from repro.ir.commands import Assign, FieldLoad, FieldStore, Invoke, New, Prim, Skip
from repro.typestate.dfa import TSFunction, TypestateProperty
from repro.typestate.states import AbstractState, intern_state
from repro.typestate.td_analysis import SimpleTypestateTD


# ---------------------------------------------------------------------------
# Predicate atoms
# ---------------------------------------------------------------------------
class HaveAtom(KeyedAtom):
    """``have(v)``: the variable (the key) is in the must set."""

    __slots__ = ()

    def satisfied_by(self, sigma: AbstractState) -> bool:
        return self.key in sigma.must

    @staticmethod
    def group_test(variables: FrozenSet[str], sigma: AbstractState) -> bool:
        return variables <= sigma.must

    def declare_contradicted(self):
        return (NotHaveAtom(self.key),)

    def __str__(self) -> str:
        return f"have({self.key})"


class NotHaveAtom(KeyedAtom):
    """``notHave(v)``: the variable is *not* in the must set."""

    __slots__ = ()

    def satisfied_by(self, sigma: AbstractState) -> bool:
        return self.key not in sigma.must

    @staticmethod
    def group_test(variables: FrozenSet[str], sigma: AbstractState) -> bool:
        return variables.isdisjoint(sigma.must)

    def declare_contradicted(self):
        return (HaveAtom(self.key),)

    def __str__(self) -> str:
        return f"notHave({self.key})"


# ---------------------------------------------------------------------------
# Abstract relations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ConstRelation:
    """``(σ, φ)`` — constant relation."""

    output: AbstractState
    pred: Conjunction

    __slots__ = ("output", "pred")

    def __reduce__(self):
        # Rebuild through __init__: frozen fields cannot be set by the
        # default slot-state unpickling.
        return (ConstRelation, (self.output, self.pred))

    def __str__(self) -> str:
        return f"[{self.pred} => {self.output}]"


class TransformerRelation:
    """``(ι, a0, a1, φ)`` with ``a0`` stored as its complement ``removed``."""

    __slots__ = ("iota", "removed", "added", "pred", "_hash")

    def __init__(
        self,
        iota: TSFunction,
        removed: FrozenSet[str],
        added: FrozenSet[str],
        pred: Conjunction,
    ) -> None:
        self.iota = iota
        self.added = frozenset(added)
        # Canonical form: `added` wins over `removed` in
        # (a \ removed) ∪ added, so drop the overlap.
        self.removed = frozenset(removed) - self.added
        self.pred = pred
        self._hash = hash((self.iota, self.removed, self.added, self.pred))

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in
        # the unpickling process (string hashes differ per process).
        return (TransformerRelation, (self.iota, self.removed, self.added, self.pred))

    # -- semantics helpers -------------------------------------------------------
    def transform_must(self, must: FrozenSet[str]) -> FrozenSet[str]:
        return (must - self.removed) | self.added

    def keeps(self, var: str) -> bool:
        """Is ``var`` in the keep mask ``a0``?"""
        return var not in self.removed

    def adds(self, var: str) -> bool:
        """Is ``var`` in the add set ``a1``?"""
        return var in self.added

    # -- value semantics ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransformerRelation):
            return NotImplemented
        return (
            self.iota == other.iota
            and self.removed == other.removed
            and self.added == other.added
            and self.pred == other.pred
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        rem = ",".join(sorted(self.removed))
        add = ",".join(sorted(self.added))
        return f"[{self.pred} => {self.iota}, -{{{rem}}}, +{{{add}}}]"


Relation = Union[ConstRelation, TransformerRelation]


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------
class SimpleTypestateBU(GuardedRelations, BottomUpAnalysis):
    """The analysis ``B = (R, id#, γ, rtrans, rcomp)`` of Figure 3."""

    def __init__(
        self,
        prop: TypestateProperty,
        tracked_sites: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.prop = prop
        self.tracked_sites = tracked_sites
        self._td = SimpleTypestateTD(prop, tracked_sites)
        self._identity = TransformerRelation(
            prop.identity_function(), frozenset(), frozenset(), TRUE
        )
        self._error_fn = prop.error_function()

    # -- BottomUpAnalysis interface ----------------------------------------------------
    def identity(self) -> TransformerRelation:
        return self._identity

    def rtransfer(self, cmd: Prim, r: Relation) -> FrozenSet[Relation]:
        if isinstance(r, ConstRelation):
            # rtrans(c)(σ, φ) = {(σ', φ) | σ' ∈ trans(c)(σ)}
            return frozenset(
                ConstRelation(out, r.pred) for out in self._td.transfer(cmd, r.output)
            )
        if not isinstance(r, TransformerRelation):
            raise TypeError(f"unknown relation {r!r}")
        return self._rtransfer_transformer(cmd, r)

    def _rtransfer_transformer(
        self, cmd: Prim, r: TransformerRelation
    ) -> FrozenSet[Relation]:
        if isinstance(cmd, New):
            out = {
                TransformerRelation(
                    r.iota, r.removed | {cmd.lhs}, r.added - {cmd.lhs}, r.pred
                )
            }
            if self._td._tracks_site(cmd.site):
                fresh = intern_state(
                    AbstractState(cmd.site, self.prop.initial, frozenset({cmd.lhs}))
                )
                out.add(ConstRelation(fresh, r.pred))
            return frozenset(out)
        if isinstance(cmd, Assign):
            v, w = cmd.lhs, cmd.rhs
            if r.adds(w):
                # w ∈ a1: the output must set always contains w.
                return frozenset(
                    {TransformerRelation(r.iota, r.removed, r.added | {v}, r.pred)}
                )
            if not r.keeps(w):
                # w ∉ a0: the output must set never contains w.
                return frozenset(
                    {TransformerRelation(r.iota, r.removed | {v}, r.added - {v}, r.pred)}
                )
            # w passes through: case split on the incoming must set.
            out = set()
            has = r.pred.conjoin(HaveAtom(w))
            if has is not FALSE:
                out.add(TransformerRelation(r.iota, r.removed, r.added | {v}, has))
            hasnt = r.pred.conjoin(NotHaveAtom(w))
            if hasnt is not FALSE:
                out.add(
                    TransformerRelation(r.iota, r.removed | {v}, r.added - {v}, hasnt)
                )
            return frozenset(out)
        if isinstance(cmd, Invoke):
            fn = self.prop.method_function(cmd.method)
            if fn is None:
                return frozenset({r})
            v = cmd.receiver
            if r.adds(v):
                return frozenset(
                    {
                        TransformerRelation(
                            fn.compose_after(r.iota), r.removed, r.added, r.pred
                        )
                    }
                )
            if not r.keeps(v):
                return frozenset(
                    {TransformerRelation(self._error_fn, r.removed, r.added, r.pred)}
                )
            out = set()
            has = r.pred.conjoin(HaveAtom(v))
            if has is not FALSE:
                out.add(
                    TransformerRelation(fn.compose_after(r.iota), r.removed, r.added, has)
                )
            hasnt = r.pred.conjoin(NotHaveAtom(v))
            if hasnt is not FALSE:
                out.add(TransformerRelation(self._error_fn, r.removed, r.added, hasnt))
            return frozenset(out)
        if isinstance(cmd, FieldLoad):
            return frozenset(
                {
                    TransformerRelation(
                        r.iota, r.removed | {cmd.lhs}, r.added - {cmd.lhs}, r.pred
                    )
                }
            )
        if isinstance(cmd, (FieldStore, Skip)):
            return frozenset({r})
        raise TypeError(f"unsupported primitive command {cmd!r}")

    # -- composition (Figure 3, rcomp) --------------------------------------------------
    def rcompose(self, r1: Relation, r2: Relation) -> FrozenSet[Relation]:
        combined = self.precondition(r1, r2.pred)
        if combined is FALSE:
            return frozenset()
        return frozenset({self._compose_body(r1, r2, combined)})

    def _compose_body(
        self, r1: Relation, r2: Relation, pred: Conjunction
    ) -> Relation:
        if isinstance(r2, ConstRelation):
            # r ; (σ', _) = σ'
            return ConstRelation(r2.output, pred)
        if isinstance(r1, ConstRelation):
            # ((h,t,a), _) ; (ι', a0', a1', _) = (h, ι'(t), a ∩ a0' ∪ a1')
            sigma = r1.output
            out = intern_state(
                AbstractState(
                    sigma.site,
                    r2.iota(sigma.state),
                    r2.transform_must(sigma.must),
                )
            )
            return ConstRelation(out, pred)
        # (ι, a0, a1, _) ; (ι', a0', a1', _) = (ι'∘ι, a0 ∩ a0', a1 ∩ a0' ∪ a1')
        return TransformerRelation(
            r2.iota.compose_after(r1.iota),
            r1.removed | r2.removed,
            (r1.added - r2.removed) | r2.added,
            pred,
        )

    # -- weakest preconditions (Figure 3, wp) --------------------------------------------
    def wp_pred(self, r: Relation, pred: Conjunction):
        """``wp(r, φ)``: each atom of ``φ`` holds after ``r`` always
        (dropped), never (FALSE), or exactly when it held before (kept)."""
        if pred is FALSE:
            return FALSE
        if isinstance(r, ConstRelation):
            return TRUE if pred.satisfied_by(r.output) else FALSE
        kept = []
        for atom in pred.atoms:
            cls = type(atom)
            if cls is not HaveAtom and cls is not NotHaveAtom:
                raise TypeError(f"unknown atom {atom!r}")
            if r.adds(atom.key):
                if cls is NotHaveAtom:
                    return FALSE
            elif not r.keeps(atom.key):
                if cls is HaveAtom:
                    return FALSE
            else:
                kept.append(atom)
        if len(kept) == len(pred.atoms):
            return pred
        return Conjunction.of(kept)

    # -- instantiation --------------------------------------------------------------------
    def apply(self, r: Relation, sigma: AbstractState) -> FrozenSet[AbstractState]:
        if not r.pred.satisfied_by(sigma):
            return frozenset()
        if isinstance(r, ConstRelation):
            return frozenset({r.output})
        return frozenset(
            {
                intern_state(
                    AbstractState(
                        sigma.site, r.iota(sigma.state), r.transform_must(sigma.must)
                    )
                )
            }
        )
