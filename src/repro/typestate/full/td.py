"""Top-down transfer functions of the full type-state analysis.

These are the Fink-et-al.-style rules over ``(h, t, a, n)`` states that
the paper's evaluation uses (Section 6.1), written as the exact mirror
of the relational rules in :mod:`repro.typestate.full.bu` so that
condition C1 holds:

* ``v = new h`` — every access path rooted at ``v`` is invalidated in
  both sets of existing objects; ``v`` joins their must-not sets (it
  now points to the fresh object); a fresh abstract object
  ``(h, init, {v}, ∅)`` is created.
* ``v = w`` — ``v``-rooted paths are invalidated, then ``v`` inherits
  the status of ``w`` (must / must-not / neither).
* ``v = w.f`` — same, inheriting the status of the path ``w.f``.
* ``v.f = w`` — every path through field ``f`` is invalidated in both
  sets (any of them may now point elsewhere), then ``v.f`` inherits the
  status of ``w``.
* ``v.m()`` for a tracked method — strong update if ``v`` is in the
  must set; no-op if ``v`` is in the must-not set; otherwise a weak
  update driven by the may-alias oracle: possible alias ⇒ the error
  type-state (summary B3 of Figure 1), definite non-alias ⇒ no-op (B4).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.framework.interfaces import TopDownAnalysis
from repro.ir.commands import Assign, FieldLoad, FieldStore, Invoke, New, Prim, Skip
from repro.typestate.dfa import ERROR, TypestateProperty
from repro.typestate.full.oracle import MayAliasOracle
from repro.typestate.full.paths import strip_field, strip_rooted
from repro.typestate.full.states import FullAbstractState, intern_full_state

MUST = "must"
MUSTNOT = "mustnot"
NEITHER = "neither"


class FullTypestateTD(TopDownAnalysis):
    """``A = (S, trans)`` over four-component abstract states."""

    def __init__(
        self,
        prop: TypestateProperty,
        oracle: MayAliasOracle,
        tracked_sites: Optional[FrozenSet[str]] = None,
        variables: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.prop = prop
        self.oracle = oracle
        self.tracked_sites = tracked_sites
        # Nothing points to a freshly allocated object, so every *other*
        # variable may soundly seed its must-not set.  Supplying the
        # program's variable universe makes downstream receiver checks
        # hit the precise must-not case (summary B1) instead of falling
        # to the may-alias weak update — and makes the incoming-state
        # patterns of library methods converge, which is what lets a
        # theta=1 pruned analysis cover them with one dominating case.
        self.variables = variables or frozenset()

    # -- shared helpers (also used by the bottom-up analysis) -------------------------
    def tracks_site(self, site: str) -> bool:
        return self.tracked_sites is None or site in self.tracked_sites

    def fresh_state(self, var: str, site: str) -> FullAbstractState:
        """The abstract object created by ``var = new site``."""
        return intern_full_state(
            FullAbstractState(
                site, self.prop.initial, frozenset({var}), self.variables - {var}
            )
        )

    @staticmethod
    def status_of(sigma: FullAbstractState, path: str) -> str:
        if path in sigma.must:
            return MUST
        if path in sigma.mustnot:
            return MUSTNOT
        return NEITHER

    # -- transfer -----------------------------------------------------------------------
    def transfer(self, cmd: Prim, sigma: FullAbstractState) -> FrozenSet[FullAbstractState]:
        if isinstance(cmd, New):
            survivor = sigma.with_sets(
                strip_rooted(sigma.must, cmd.lhs),
                strip_rooted(sigma.mustnot, cmd.lhs) | {cmd.lhs},
            )
            out = {survivor}
            if self.tracks_site(cmd.site):
                out.add(self.fresh_state(cmd.lhs, cmd.site))
            return frozenset(out)
        if isinstance(cmd, Assign):
            return frozenset({self._rebind(sigma, cmd.lhs, cmd.rhs)})
        if isinstance(cmd, FieldLoad):
            return frozenset(
                {self._rebind(sigma, cmd.lhs, f"{cmd.base}.{cmd.fieldname}")}
            )
        if isinstance(cmd, FieldStore):
            status = self.status_of(sigma, cmd.rhs)
            must = strip_field(sigma.must, cmd.fieldname)
            mustnot = strip_field(sigma.mustnot, cmd.fieldname)
            stored = f"{cmd.base}.{cmd.fieldname}"
            if status == MUST:
                must |= {stored}
            elif status == MUSTNOT:
                mustnot |= {stored}
            return frozenset({sigma.with_sets(must, mustnot)})
        if isinstance(cmd, Invoke):
            fn = self.prop.method_function(cmd.method)
            if fn is None:
                return frozenset({sigma})
            status = self.status_of(sigma, cmd.receiver)
            if status == MUST:
                return frozenset({sigma.with_state(fn(sigma.state))})
            if status == MUSTNOT:
                return frozenset({sigma})
            if self.oracle.may_alias(cmd.receiver, sigma.site):
                return frozenset({sigma.with_state(ERROR)})
            return frozenset({sigma})
        if isinstance(cmd, Skip):
            return frozenset({sigma})
        raise TypeError(f"unsupported primitive command {cmd!r}")

    def _rebind(self, sigma: FullAbstractState, lhs: str, source: str) -> FullAbstractState:
        """``lhs`` takes on the (pre-command) status of ``source``."""
        status = self.status_of(sigma, source)
        must = strip_rooted(sigma.must, lhs)
        mustnot = strip_rooted(sigma.mustnot, lhs)
        if status == MUST:
            must |= {lhs}
        elif status == MUSTNOT:
            mustnot |= {lhs}
        return sigma.with_sets(must, mustnot)

