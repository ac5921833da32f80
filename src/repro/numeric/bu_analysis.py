"""Bottom-up interval analysis: compositional interval transforms.

An abstract relation is an :class:`IntervalTransform` — a finite map
``var -> action`` where an absent variable is the identity and an
action is one of::

    ("top",)                  the procedure loses all knowledge of var
    ("const", Interval)       var ends in the given interval
    ("shift", src, Interval)  var ends at (entry value of src) + delta

This is a (weakly) relational input-output form: ``shift`` refers back
to the *entry* value of ``src``, so ``rcompose`` is substitution and
``apply`` reads every source from the pre-state.  Guards on
non-constant values are dropped (sound over-approximation: the
summary's output covers the guarded output); guards on constants are
evaluated exactly, and an infeasible guard yields the empty relation
set, i.e. the summary contributes nothing.

``R`` is infinite (payload intervals come from an infinite lattice),
so :meth:`IntervalBU.r_is_finite` answers ``False`` and
:meth:`IntervalBU.rwiden` widens relation *sets* by collapsing them to
at most one transform per *skeleton* (the payload-free shape
``var -> ("top",) | ("const",) | ("shift", src)``), joining payloads
within a set and widening them across iterates.  Skeletons range over
a finite universe (program variables), so the widened chain stabilizes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.framework.interfaces import BottomUpAnalysis
from repro.framework.predicates import TRUE, Conjunction
from repro.ir.commands import Assign, FieldLoad, FieldStore, Invoke, New, Prim, Skip
from repro.numeric.interval import Interval, IntervalEnv, ZERO, numeric_op


def _fmt_action(var: str, action: tuple) -> str:
    if action[0] == "top":
        return f"{var}:=top"
    if action[0] == "const":
        return f"{var}:={action[1]}"
    return f"{var}:={action[1]}+{action[2]}"


class IntervalTransform:
    """A canonical input-output transform on interval environments."""

    __slots__ = ("actions", "_map", "_hash", "_str")

    def __init__(self, actions: Iterable[Tuple[str, tuple]] = ()) -> None:
        items: Dict[str, tuple] = {}
        for var, action in actions:
            if action[0] == "shift" and action[1] == var and action[2] == ZERO:
                continue  # identity action; absent is canonical
            items[var] = action
        self.actions = tuple(sorted(items.items()))
        self._map = dict(self.actions)
        self._hash = hash(self.actions)
        self._str = "<" + ",".join(_fmt_action(v, a) for v, a in self.actions) + ">"

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in
        # the unpickling process (string hashes differ per process).
        return (IntervalTransform, (self.actions,))

    def resolve(self, var: str) -> tuple:
        """The action on ``var`` (identity when absent)."""
        return self._map.get(var, ("shift", var, ZERO))

    def set(self, var: str, action: tuple) -> "IntervalTransform":
        items = dict(self._map)
        items[var] = action
        return IntervalTransform(items.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalTransform):
            return NotImplemented
        return self.actions == other.actions

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"IntervalTransform{self._str}"


IDENTITY_TRANSFORM = IntervalTransform()


# ---------------------------------------------------------------------------
# Skeleton machinery for relation-set widening
# ---------------------------------------------------------------------------
def transform_skeleton(t: IntervalTransform) -> tuple:
    """The payload-free shape of a transform (finite universe)."""
    out = []
    for var, action in t.actions:
        if action[0] == "shift":
            out.append((var, "shift", action[1]))
        else:
            out.append((var, action[0]))
    return tuple(out)


def merge_transforms(group: Iterable[IntervalTransform]) -> IntervalTransform:
    """Join the payloads of same-skeleton transforms pointwise."""
    merged: Dict[str, tuple] = {}
    for t in group:
        for var, action in t.actions:
            cur = merged.get(var)
            if cur is None or action[0] == "top":
                merged[var] = action
            elif action[0] == "const":
                merged[var] = ("const", cur[1].join(action[1]))
            else:
                merged[var] = ("shift", action[1], cur[2].join(action[2]))
    return IntervalTransform(merged.items())


def widen_transform(prev: IntervalTransform, new: IntervalTransform) -> IntervalTransform:
    """Widen payloads of two same-skeleton transforms (``prev ∇ new``)."""
    items: Dict[str, tuple] = {}
    for var, action in new.actions:
        base = prev.resolve(var)
        if action[0] == "const" and base[0] == "const":
            items[var] = ("const", base[1].widen(base[1].join(action[1])))
        elif action[0] == "shift" and base[0] == "shift" and base[1] == action[1]:
            items[var] = ("shift", action[1], base[2].widen(base[2].join(action[2])))
        else:
            items[var] = action
    return IntervalTransform(items.items())


def collapse_by_skeleton(
    relations: FrozenSet[IntervalTransform],
    prev: FrozenSet[IntervalTransform] = frozenset(),
) -> FrozenSet[IntervalTransform]:
    """At most one transform per skeleton; widen against ``prev``'s
    same-skeleton collapse where the payloads moved."""
    prev_groups: Dict[tuple, list] = {}
    for t in prev:
        prev_groups.setdefault(transform_skeleton(t), []).append(t)
    groups: Dict[tuple, list] = {}
    for t in relations:
        groups.setdefault(transform_skeleton(t), []).append(t)
    out = set()
    for skel, group in groups.items():
        merged = merge_transforms(group)
        base_group = prev_groups.get(skel)
        if base_group is not None:
            base = merge_transforms(base_group)
            if base != merged:
                merged = widen_transform(base, merged)
        out.add(merged)
    return frozenset(out)


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------
class IntervalBU(BottomUpAnalysis):
    """Compositional interval transforms as abstract relations.

    Transforms are total (``dom(r) = S``), so the predicate machinery
    degenerates to ``TRUE`` and pruning can never exclude an input
    state — dropped relations only cost precision via the ignored-set
    fallback, exactly as for finite domains.
    """

    # -- core operators -----------------------------------------------------------
    def identity(self) -> IntervalTransform:
        return IDENTITY_TRANSFORM

    def rtransfer(self, cmd: Prim, t: IntervalTransform) -> FrozenSet[IntervalTransform]:
        if isinstance(cmd, New):
            return frozenset({t.set(cmd.lhs, ("const", ZERO))})
        if isinstance(cmd, Assign):
            return frozenset({t.set(cmd.lhs, t.resolve(cmd.rhs))})
        if isinstance(cmd, Invoke):
            op = numeric_op(cmd.method)
            if op is None:
                return frozenset({t})
            cur = t.resolve(cmd.receiver)
            kind = op[0]
            if kind == "shift":
                delta = Interval(op[1], op[1])
                if cur[0] == "const":
                    action = ("const", cur[1].add(delta))
                elif cur[0] == "top":
                    action = ("top",)
                else:
                    action = ("shift", cur[1], cur[2].add(delta))
                return frozenset({t.set(cmd.receiver, action)})
            if kind == "const":
                return frozenset({t.set(cmd.receiver, ("const", op[1]))})
            guard = Interval(None, op[1]) if kind == "le" else Interval(op[1], None)
            if cur[0] == "const":
                met = cur[1].meet(guard)
                if met is None:
                    return frozenset()  # provably infeasible through this summary
                return frozenset({t.set(cmd.receiver, ("const", met))})
            # Non-constant receiver: drop the filter (sound over-approximation).
            return frozenset({t})
        if isinstance(cmd, FieldLoad):
            return frozenset({t.set(cmd.lhs, ("top",))})
        if isinstance(cmd, (FieldStore, Skip)):
            return frozenset({t})
        raise TypeError(f"unsupported primitive command {cmd!r}")

    def rcompose(
        self, t1: IntervalTransform, t2: IntervalTransform
    ) -> FrozenSet[IntervalTransform]:
        # (t1 ; t2): resolve t2's sources through t1.
        items: Dict[str, tuple] = dict(t1.actions)
        for var, action in t2.actions:
            if action[0] == "shift":
                through = t1.resolve(action[1])
                if through[0] == "const":
                    action = ("const", through[1].add(action[2]))
                elif through[0] == "top":
                    action = ("top",)
                else:
                    action = ("shift", through[1], through[2].add(action[2]))
            items[var] = action
        return frozenset({IntervalTransform(items.items())})

    # -- instantiation ------------------------------------------------------------
    def apply(self, t: IntervalTransform, env: IntervalEnv) -> FrozenSet[IntervalEnv]:
        items = dict(env.bindings)
        for var, action in t.actions:
            if action[0] == "top":
                items.pop(var, None)
            elif action[0] == "const":
                items[var] = action[1]
            else:
                shifted = env.get(action[1]).add(action[2])
                if shifted.is_top:
                    items.pop(var, None)
                else:
                    items[var] = shifted
        return frozenset({IntervalEnv(items.items())})

    def in_domain(self, t: IntervalTransform, env: IntervalEnv) -> bool:
        return True

    # -- predicate machinery (degenerate: transforms are total) ---------------------
    def domain_predicate(self, t: IntervalTransform) -> Conjunction:
        return TRUE

    def pred_satisfied(self, p: Conjunction, env: IntervalEnv) -> bool:
        return p.satisfied_by(env)

    def pred_entails(self, p: Conjunction, q: Conjunction) -> bool:
        return p.entails(q)

    def pre_image(
        self, t: IntervalTransform, p: Conjunction
    ) -> FrozenSet[Conjunction]:
        return frozenset({TRUE})

    # -- lattice structure over relation sets ---------------------------------------
    def r_is_finite(self) -> bool:
        return False

    def rwiden(
        self,
        prev: FrozenSet[IntervalTransform],
        new: FrozenSet[IntervalTransform],
    ) -> FrozenSet[IntervalTransform]:
        return collapse_by_skeleton(new, prev)
