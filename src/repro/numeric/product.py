"""Interval × typestate reduced product.

A product value (:class:`ProductValue`) is a finite disjunction of
rows ``(AbstractState, IntervalEnv)``: the type-state component ranges
over a finite universe (so the number of rows is bounded), while each
row's interval environment lives in the infinite-height lattice.  The
*reduction* is row-wise infeasibility: a transfer whose numeric
component proves a guard infeasible kills the whole row, sharpening
the type-state side beyond what either component sees alone.

Rows are merged by type-state key (environments joined) and kept in a
canonical sorted order, so product values hash and compare cheaply —
they key the value-mode tables exactly like plain states do.

The bottom-up relation (:class:`ProductRelation`) pairs a type-state
relation with an interval transform; all predicate machinery (the
ignored sets ``Sigma`` of pruned summaries) delegates to the
type-state side, with "a product value satisfies φ" meaning *some row
does* — the sound direction for deciding when a pruned summary must
not be trusted.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.framework.interfaces import BottomUpAnalysis, TopDownAnalysis
from repro.framework.predicates import Conjunction
from repro.framework.topdown import state_sort_key
from repro.typestate.dfa import TypestateProperty
from repro.typestate.states import AbstractState, bootstrap_state
from repro.typestate.bu_analysis import Relation, SimpleTypestateBU
from repro.typestate.td_analysis import SimpleTypestateTD
from repro.numeric.bu_analysis import (
    IntervalBU,
    IntervalTransform,
    merge_transforms,
    transform_skeleton,
    widen_transform,
)
from repro.numeric.interval import EMPTY_ENV, IntervalEnv
from repro.numeric.td_analysis import IntervalTD


class ProductValue:
    """A canonical set of ``(typestate, interval-env)`` rows."""

    __slots__ = ("rows", "_map", "_hash", "_str")

    def __init__(self, rows: Iterable[Tuple[AbstractState, IntervalEnv]]) -> None:
        merged: Dict[AbstractState, IntervalEnv] = {}
        for sigma, env in rows:
            cur = merged.get(sigma)
            merged[sigma] = env if cur is None else cur.join(env)
        self.rows = tuple(sorted(merged.items(), key=_row_key))
        self._map = merged
        self._hash = hash(self.rows)
        self._str: Optional[str] = None

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in
        # the unpickling process (string hashes differ per process).
        return (ProductValue, (self.rows,))

    # -- lattice ------------------------------------------------------------------
    # Rows of one value usually carry equal environments (a transfer
    # moves every row's env the same way), so each row-wise operation
    # below is computed once per distinct environment pair and the
    # result object is shared by every row that needs it.
    def leq(self, other: "ProductValue") -> bool:
        if other is self:
            return True
        theirs = other._map
        checked = set()
        for sigma, env in self.rows:
            bound = theirs.get(sigma)
            if bound is None:
                return False
            pair = (env, bound)
            if pair in checked:
                continue
            if not env.leq(bound):
                return False
            checked.add(pair)
        return True

    def join(self, other: "ProductValue") -> "ProductValue":
        """Row-wise join; ``self`` itself when it already covers ``other``."""
        if other is self:
            return self
        mine = self._map
        joined: Dict[Tuple[IntervalEnv, IntervalEnv], IntervalEnv] = {}
        merged = None
        for sigma, env in other.rows:
            cur = mine.get(sigma)
            if cur is not None:
                pair = (cur, env)
                res = joined.get(pair)
                if res is None:
                    res = joined[pair] = cur.join(env)
                if res == cur:
                    continue
                env = res
            if merged is None:
                merged = dict(mine)
            merged[sigma] = env
        return self if merged is None else ProductValue(merged.items())

    def widen(self, new: "ProductValue") -> "ProductValue":
        mine = self._map
        widened: Dict[Tuple[IntervalEnv, IntervalEnv], IntervalEnv] = {}
        out = []
        for sigma, env in new.rows:
            prev = mine.get(sigma)
            # A new row (fresh type-state) enters as-is: the type-state
            # universe is finite, so fresh rows cannot recur forever.
            if prev is not None:
                pair = (prev, env)
                res = widened.get(pair)
                if res is None:
                    res = widened[pair] = prev.widen(env)
                env = res
            out.append((sigma, env))
        return ProductValue(out)

    def narrow(self, new: "ProductValue") -> "ProductValue":
        theirs = new._map
        out = []
        for sigma, env in self.rows:
            refined = theirs.get(sigma)
            if refined is None:
                continue  # row vanished in the descending pass
            out.append((sigma, env.narrow(refined)))
        return ProductValue(out)

    # -- value semantics ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, ProductValue):
            return NotImplemented
        return self._hash == other._hash and self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = self._str = "{" + "; ".join(f"{s}@{e}" for s, e in self.rows) + "}"
        return text

    def __repr__(self) -> str:
        return f"ProductValue({self})"


def _row_key(row: Tuple[AbstractState, IntervalEnv]) -> str:
    return state_sort_key(row[0])


class ProductRelation:
    """A pair of a type-state relation and an interval transform."""

    __slots__ = ("ts", "num", "_hash", "_str")

    def __init__(self, ts: Relation, num: IntervalTransform) -> None:
        self.ts = ts
        self.num = num
        self._hash = hash((ts, num))
        self._str = f"({ts} x {num})"

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in
        # the unpickling process (string hashes differ per process).
        return (ProductRelation, (self.ts, self.num))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProductRelation):
            return NotImplemented
        return self.ts == other.ts and self.num == other.num

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"ProductRelation{self._str}"


class IntervalTypestateTD(TopDownAnalysis):
    """Top-down side of the reduced product."""

    def __init__(
        self,
        prop: TypestateProperty,
        tracked_sites: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.prop = prop
        self.ts = SimpleTypestateTD(prop, tracked_sites)
        self.num = IntervalTD()

    # -- lattice ------------------------------------------------------------------
    def is_finite(self) -> bool:
        return False

    def leq(self, a: ProductValue, b: ProductValue) -> bool:
        return a.leq(b)

    def join(self, a: ProductValue, b: ProductValue) -> ProductValue:
        return a.join(b)

    def widen(self, prev: ProductValue, new: ProductValue) -> ProductValue:
        return prev.widen(new)

    def narrow(self, prev: ProductValue, new: ProductValue) -> ProductValue:
        return prev.narrow(new)

    # -- transfer -----------------------------------------------------------------
    def transfer(self, cmd, pv: ProductValue) -> FrozenSet[ProductValue]:
        rows = []
        moved: Dict[IntervalEnv, FrozenSet[IntervalEnv]] = {}
        for sigma, env in pv.rows:
            envs = moved.get(env)
            if envs is None:
                envs = moved[env] = self.num.transfer(cmd, env)
            if not envs:
                continue  # numeric reduction: infeasible row dies
            for sigma2 in self.ts.transfer(cmd, sigma):
                for env2 in envs:
                    rows.append((sigma2, env2))
        if not rows:
            return frozenset()
        return frozenset({ProductValue(rows)})


class IntervalTypestateBU(BottomUpAnalysis):
    """Bottom-up side of the reduced product."""

    def __init__(
        self,
        prop: TypestateProperty,
        tracked_sites: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.prop = prop
        self.ts = SimpleTypestateBU(prop, tracked_sites)
        self.num = IntervalBU()

    # -- core operators -----------------------------------------------------------
    def identity(self) -> ProductRelation:
        return ProductRelation(self.ts.identity(), self.num.identity())

    def rtransfer(self, cmd, r: ProductRelation) -> FrozenSet[ProductRelation]:
        nums = self.num.rtransfer(cmd, r.num)
        if not nums:
            return frozenset()
        return frozenset(
            ProductRelation(ts2, num2)
            for ts2 in self.ts.rtransfer(cmd, r.ts)
            for num2 in nums
        )

    def rcompose(self, r1: ProductRelation, r2: ProductRelation) -> FrozenSet[ProductRelation]:
        nums = self.num.rcompose(r1.num, r2.num)
        return frozenset(
            ProductRelation(ts2, num2)
            for ts2 in self.ts.rcompose(r1.ts, r2.ts)
            for num2 in nums
        )

    # -- instantiation ------------------------------------------------------------
    def apply(self, r: ProductRelation, pv: ProductValue) -> FrozenSet[ProductValue]:
        rows = []
        for sigma, env in pv.rows:
            outs = self.ts.apply(r.ts, sigma)
            if not outs:
                continue  # row outside the type-state relation's domain
            for env2 in self.num.apply(r.num, env):
                rows.extend((s2, env2) for s2 in outs)
        if not rows:
            return frozenset()
        return frozenset({ProductValue(rows)})

    def in_domain(self, r: ProductRelation, pv: ProductValue) -> bool:
        return any(self.ts.in_domain(r.ts, sigma) for sigma, _ in pv.rows)

    # -- predicate machinery (delegates to the type-state side) ----------------------
    def domain_predicate(self, r: ProductRelation) -> Conjunction:
        return self.ts.domain_predicate(r.ts)

    def pred_satisfied(self, p: Conjunction, pv: ProductValue) -> bool:
        # "Some row satisfies φ" — the sound direction for ignored sets:
        # a summary is distrusted as soon as any row might need a
        # pruned relation.
        return any(self.ts.pred_satisfied(p, sigma) for sigma, _ in pv.rows)

    def pred_entails(self, p: Conjunction, q: Conjunction) -> bool:
        return self.ts.pred_entails(p, q)

    def pre_image(self, r: ProductRelation, p: Conjunction) -> FrozenSet[Conjunction]:
        return self.ts.pre_image(r.ts, p)

    # -- lattice structure over relation sets ---------------------------------------
    def r_is_finite(self) -> bool:
        return False

    def rwiden(
        self,
        prev: FrozenSet[ProductRelation],
        new: FrozenSet[ProductRelation],
    ) -> FrozenSet[ProductRelation]:
        # Group by (type-state relation, numeric skeleton): the
        # type-state side is finite, so collapsing numeric payloads per
        # group bounds the set and stabilizes ascending chains.
        prev_groups: Dict[tuple, list] = {}
        for r in prev:
            prev_groups.setdefault((r.ts, transform_skeleton(r.num)), []).append(r.num)
        groups: Dict[tuple, list] = {}
        for r in new:
            groups.setdefault((r.ts, transform_skeleton(r.num)), []).append(r.num)
        out = set()
        for (ts, _skel), nums in groups.items():
            merged = merge_transforms(nums)
            base_group = prev_groups.get((ts, _skel))
            if base_group is not None:
                base = merge_transforms(base_group)
                if base != merged:
                    merged = widen_transform(base, merged)
            out.add(ProductRelation(ts, merged))
        return frozenset(out)


def product_bootstrap(prop: TypestateProperty) -> ProductValue:
    """The initial product value: bootstrap type-state, empty (top) env."""
    return ProductValue(((bootstrap_state(prop), EMPTY_ENV),))


def product_analyses(
    prop: TypestateProperty,
    tracked_sites: Optional[FrozenSet[str]] = None,
) -> Tuple[IntervalTypestateTD, IntervalTypestateBU, ProductValue]:
    """TD analysis, BU analysis, and initial state for the product domain."""
    return (
        IntervalTypestateTD(prop, tracked_sites),
        IntervalTypestateBU(prop, tracked_sites),
        product_bootstrap(prop),
    )
