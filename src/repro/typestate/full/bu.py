"""Relational (bottom-up) transfer functions of the full type-state
analysis — the four-component analogue of Figure 3.

Each rule is the mirror of the corresponding top-down rule in
:mod:`repro.typestate.full.td`: where the top-down rule inspects the
*status* of an access path in the current state (must / must-not /
neither), the relational rule asks the transformer built so far whether
the path's output status is already determined by its masks; when it is
not, the rule case-splits and each case is guarded by predicate atoms
on the *incoming* state — this is precisely where the bottom-up
analysis' case explosion comes from, and what SWIFT's pruning operator
tames.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional, Tuple

from repro.framework.interfaces import BottomUpAnalysis
from repro.framework.predicates import FALSE, TRUE, Conjunction, GuardedRelations
from repro.ir.commands import Assign, FieldLoad, FieldStore, Invoke, New, Prim, Skip
from repro.typestate.dfa import TypestateProperty
from repro.typestate.full.atoms import (
    InMust,
    InMustNot,
    MayAliasAtom,
    NotInMust,
    NotInMustNot,
    NotMayAliasAtom,
)
from repro.typestate.full.oracle import MayAliasOracle
from repro.typestate.full.paths import HasField, PathPattern, Rooted, matches_any
from repro.typestate.full.relations import (
    FullConstRelation,
    FullRelation,
    FullTransformerRelation,
)
from repro.typestate.full.states import FullAbstractState
from repro.typestate.full.td import MUST, MUSTNOT, NEITHER, FullTypestateTD


class FullTypestateBU(GuardedRelations, BottomUpAnalysis):
    """``B = (R, id#, γ, rtrans, rcomp)`` over four-component states."""

    def __init__(
        self,
        prop: TypestateProperty,
        oracle: MayAliasOracle,
        tracked_sites: Optional[FrozenSet[str]] = None,
        variables: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.prop = prop
        self.oracle = oracle
        self._td = FullTypestateTD(prop, oracle, tracked_sites, variables)
        empty: FrozenSet = frozenset()
        self._identity = FullTransformerRelation(
            prop.identity_function(), empty, empty, empty, empty, TRUE
        )
        self._error_fn = prop.error_function()

    # -- interface -----------------------------------------------------------------------
    def identity(self) -> FullTransformerRelation:
        return self._identity

    def rtransfer(self, cmd: Prim, r: FullRelation) -> FrozenSet[FullRelation]:
        if isinstance(r, FullConstRelation):
            return frozenset(
                FullConstRelation(out, r.pred) for out in self._td.transfer(cmd, r.output)
            )
        if not isinstance(r, FullTransformerRelation):
            raise TypeError(f"unknown relation {r!r}")
        return self._rtransfer_transformer(cmd, r)

    # -- three-way status branching ---------------------------------------------------------
    def _branches(
        self, r: FullTransformerRelation, path: str
    ) -> Iterator[Tuple[str, Conjunction]]:
        """Yield ``(status, pred)`` cases for the status of ``path`` in
        the *output* of ``r``; ``pred`` refines ``r.pred`` with the
        input-state atoms that select the case."""
        ms = r.must_status(path)
        ns = r.mustnot_status(path)
        if ms == "in":
            yield (MUST, r.pred)
            return
        if ms == "dep":
            in_must = r.pred.conjoin(InMust(path))
            if in_must is not FALSE:
                yield (MUST, in_must)
            rest = r.pred.conjoin(NotInMust(path))
            if rest is FALSE:
                return
        else:  # ms == "out"
            rest = r.pred
        if ns == "in":
            yield (MUSTNOT, rest)
            return
        if ns == "out":
            yield (NEITHER, rest)
            return
        in_mustnot = rest.conjoin(InMustNot(path))
        if in_mustnot is not FALSE:
            yield (MUSTNOT, in_mustnot)
        neither = rest.conjoin(NotInMustNot(path))
        if neither is not FALSE:
            yield (NEITHER, neither)

    # -- transformer transfers ------------------------------------------------------------------
    def _rtransfer_transformer(
        self, cmd: Prim, r: FullTransformerRelation
    ) -> FrozenSet[FullRelation]:
        if isinstance(cmd, New):
            rooted = Rooted(cmd.lhs)
            survivor = FullTransformerRelation(
                r.iota,
                r.rem_must | {rooted},
                _strip(r.add_must, rooted),
                r.rem_mustnot | {rooted},
                _strip(r.add_mustnot, rooted) | {cmd.lhs},
                r.pred,
            )
            out: set = {survivor}
            if self._td.tracks_site(cmd.site):
                out.add(
                    FullConstRelation(self._td.fresh_state(cmd.lhs, cmd.site), r.pred)
                )
            return frozenset(out)
        if isinstance(cmd, Assign):
            return self._rebind(r, cmd.lhs, cmd.rhs)
        if isinstance(cmd, FieldLoad):
            return self._rebind(r, cmd.lhs, f"{cmd.base}.{cmd.fieldname}")
        if isinstance(cmd, FieldStore):
            field = HasField(cmd.fieldname)
            stored = f"{cmd.base}.{cmd.fieldname}"
            out = set()
            for status, pred in self._branches(r, cmd.rhs):
                add_must = _strip(r.add_must, field)
                add_mustnot = _strip(r.add_mustnot, field)
                if status == MUST:
                    add_must |= {stored}
                elif status == MUSTNOT:
                    add_mustnot |= {stored}
                out.add(
                    FullTransformerRelation(
                        r.iota,
                        r.rem_must | {field},
                        add_must,
                        r.rem_mustnot | {field},
                        add_mustnot,
                        pred,
                    )
                )
            return frozenset(out)
        if isinstance(cmd, Invoke):
            fn = self.prop.method_function(cmd.method)
            if fn is None:
                return frozenset({r})
            out = set()
            for status, pred in self._branches(r, cmd.receiver):
                if status == MUST:
                    out.add(self._with_iota(r, fn.compose_after(r.iota), pred))
                elif status == MUSTNOT:
                    out.add(self._with_iota(r, r.iota, pred))
                else:
                    sites = self.oracle.sites_for(cmd.receiver)
                    # An empty site set makes the may-alias case vacuous
                    # (its domain is empty) — skip it outright.
                    may = (
                        pred.conjoin(MayAliasAtom(cmd.receiver, sites))
                        if sites
                        else FALSE
                    )
                    if may is not FALSE:
                        out.add(self._with_iota(r, self._error_fn, may))
                    # Dually, with no aliasing possible the non-alias case
                    # needs no guard at all.
                    no = (
                        pred.conjoin(NotMayAliasAtom(cmd.receiver, sites))
                        if sites
                        else pred
                    )
                    if no is not FALSE:
                        out.add(self._with_iota(r, r.iota, no))
            return frozenset(out)
        if isinstance(cmd, Skip):
            return frozenset({r})
        raise TypeError(f"unsupported primitive command {cmd!r}")

    def _rebind(
        self, r: FullTransformerRelation, lhs: str, source: str
    ) -> FrozenSet[FullRelation]:
        rooted = Rooted(lhs)
        out = set()
        for status, pred in self._branches(r, source):
            add_must = _strip(r.add_must, rooted)
            add_mustnot = _strip(r.add_mustnot, rooted)
            if status == MUST:
                add_must |= {lhs}
            elif status == MUSTNOT:
                add_mustnot |= {lhs}
            out.add(
                FullTransformerRelation(
                    r.iota,
                    r.rem_must | {rooted},
                    add_must,
                    r.rem_mustnot | {rooted},
                    add_mustnot,
                    pred,
                )
            )
        return frozenset(out)

    @staticmethod
    def _with_iota(r: FullTransformerRelation, iota, pred) -> FullTransformerRelation:
        return FullTransformerRelation(
            iota, r.rem_must, r.add_must, r.rem_mustnot, r.add_mustnot, pred
        )

    # -- composition ---------------------------------------------------------------------------
    def rcompose(self, r1: FullRelation, r2: FullRelation) -> FrozenSet[FullRelation]:
        combined = self.precondition(r1, r2.pred)
        if combined is FALSE:
            return frozenset()
        if isinstance(r2, FullConstRelation):
            return frozenset({FullConstRelation(r2.output, combined)})
        if isinstance(r1, FullConstRelation):
            return frozenset({FullConstRelation(r2.transform(r1.output), combined)})
        return frozenset(
            {
                FullTransformerRelation(
                    r2.iota.compose_after(r1.iota),
                    r1.rem_must | r2.rem_must,
                    frozenset(
                        p for p in r1.add_must if not matches_any(r2.rem_must, p)
                    )
                    | r2.add_must,
                    r1.rem_mustnot | r2.rem_mustnot,
                    frozenset(
                        p for p in r1.add_mustnot if not matches_any(r2.rem_mustnot, p)
                    )
                    | r2.add_mustnot,
                    combined,
                )
            }
        )

    # -- weakest preconditions --------------------------------------------------------------------
    def wp_pred(self, r: FullRelation, pred: Conjunction):
        """``wp(r, φ)``: each atom of ``φ`` holds after ``r`` always
        (dropped), never (FALSE), or exactly when it held before (kept)."""
        if pred is FALSE:
            return FALSE
        if isinstance(r, FullConstRelation):
            return TRUE if pred.satisfied_by(r.output) else FALSE
        kept = []
        for atom in pred.atoms:
            cls = type(atom)
            if cls is MayAliasAtom or cls is NotMayAliasAtom:
                # Transformers never change the allocation site.
                kept.append(atom)
                continue
            if cls is InMust or cls is NotInMust:
                status = r.must_status(atom.key)
            elif cls is InMustNot or cls is NotInMustNot:
                status = r.mustnot_status(atom.key)
            else:
                raise TypeError(f"unknown atom {atom!r}")
            if status == "dep":
                kept.append(atom)
            elif (status == "in") != (cls is InMust or cls is InMustNot):
                return FALSE
        if len(kept) == len(pred.atoms):
            return pred
        return Conjunction.of(kept)

    # -- instantiation --------------------------------------------------------------------------------
    def apply(self, r: FullRelation, sigma: FullAbstractState) -> FrozenSet[FullAbstractState]:
        if not r.pred.satisfied_by(sigma):
            return frozenset()
        if isinstance(r, FullConstRelation):
            return frozenset({r.output})
        return frozenset({r.transform(sigma)})


def _strip(paths: FrozenSet[str], pattern: PathPattern) -> FrozenSet[str]:
    """Concrete paths minus those a single pattern matches."""
    return frozenset(p for p in paths if not pattern.matches(p))
