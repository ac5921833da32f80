"""Abstract relations of the full type-state analysis.

Mirrors :mod:`repro.typestate.bu_analysis` with two enrichments: the
transformer carries removal *pattern* masks and addition sets for both
the must and the must-not components::

    σ = (h, t, a, n)  ↦  (h, ι(t), (a \\ remA) ∪ addA, (n \\ remN) ∪ addN)

Removal masks are sets of :class:`~repro.typestate.full.paths.PathPattern`
(whole families of access paths get invalidated at once — every path
rooted at an overwritten variable, every path through a stored field);
addition sets are concrete paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Union

from repro.framework.predicates import Conjunction
from repro.typestate.dfa import TSFunction
from repro.typestate.full.paths import (
    ExactPath,
    HasField,
    PathPattern,
    Rooted,
    dotted_paths,
    normalize_patterns,
)
from repro.typestate.full.states import FullAbstractState, intern_full_state


class _CompiledMask:
    """Pattern set pre-split by kind for set-algebra filtering.

    Removal masks are consulted for every access path of every state a
    transformer is applied to, so the patterns are compiled once per
    relation: ``direct`` (root variables and exact paths) removes the
    bare and exactly-named members with one C-level intersection, and
    only the state's dotted paths (:func:`dotted_paths`) are matched
    against ``roots`` and ``fields`` in Python.
    """

    __slots__ = ("roots", "exacts", "fields", "direct", "empty")

    def __init__(self, patterns: FrozenSet[PathPattern]) -> None:
        roots = set()
        exacts = set()
        fields = set()
        for p in patterns:
            if isinstance(p, Rooted):
                roots.add(p.var)
            elif isinstance(p, ExactPath):
                exacts.add(p.path)
            elif isinstance(p, HasField):
                fields.add(p.fieldname)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown pattern {p!r}")
        self.roots = frozenset(roots)
        self.exacts = frozenset(exacts)
        self.fields = frozenset(fields)
        self.direct = self.roots | self.exacts
        self.empty = not (roots or exacts or fields)

    def matches(self, path: str) -> bool:
        if self.empty:
            return False
        dot = path.find(".")
        if dot < 0:
            return path in self.direct
        return (
            path[:dot] in self.roots
            or path in self.exacts
            or not self.fields.isdisjoint(path.split(".")[1:])
        )

    def filter(self, paths: FrozenSet[str]) -> FrozenSet[str]:
        """``paths`` minus every match; ``paths`` itself when none."""
        if self.empty or not paths:
            return paths
        roots = self.roots
        fields = self.fields
        doomed = [
            p
            for p in dotted_paths(paths)
            if p[: p.find(".")] in roots
            or (fields and not fields.isdisjoint(p.split(".")[1:]))
        ]
        direct = paths & self.direct
        if not doomed and not direct:
            return paths
        return paths.difference(doomed, direct)


@dataclass(frozen=True)
class FullConstRelation:
    """``(σ, φ)`` — constant relation."""

    output: FullAbstractState
    pred: Conjunction

    __slots__ = ("output", "pred")

    def __reduce__(self):
        return (FullConstRelation, (self.output, self.pred))

    def __str__(self) -> str:
        return f"[{self.pred} => {self.output}]"


class FullTransformerRelation:
    """``(ι, remA, addA, remN, addN, φ)``."""

    __slots__ = (
        "iota",
        "rem_must",
        "add_must",
        "rem_mustnot",
        "add_mustnot",
        "pred",
        "_hash",
        "_rem_must_c",
        "_rem_mustnot_c",
    )

    def __init__(
        self,
        iota: TSFunction,
        rem_must: FrozenSet[PathPattern],
        add_must: FrozenSet[str],
        rem_mustnot: FrozenSet[PathPattern],
        add_mustnot: FrozenSet[str],
        pred: Conjunction,
    ) -> None:
        self.iota = iota
        self.rem_must = normalize_patterns(rem_must)
        self.add_must = frozenset(add_must)
        self.rem_mustnot = normalize_patterns(rem_mustnot)
        self.add_mustnot = frozenset(add_mustnot)
        if self.add_must & self.add_mustnot:
            raise ValueError("a path cannot be added to both must and must-not")
        self.pred = pred
        self._rem_must_c = _CompiledMask(self.rem_must)
        self._rem_mustnot_c = _CompiledMask(self.rem_mustnot)
        self._hash = hash(
            (
                self.iota,
                self.rem_must,
                self.add_must,
                self.rem_mustnot,
                self.add_mustnot,
                self.pred,
            )
        )

    # -- output-status queries (three-valued) -------------------------------------
    def must_status(self, path: str) -> str:
        """Status of ``path`` in the *output* must set: 'in', 'out' or 'dep'."""
        if path in self.add_must:
            return "in"
        if self._rem_must_c.matches(path):
            return "out"
        return "dep"

    def mustnot_status(self, path: str) -> str:
        if path in self.add_mustnot:
            return "in"
        if self._rem_mustnot_c.matches(path):
            return "out"
        return "dep"

    # -- semantics ------------------------------------------------------------------
    def transform(self, sigma: FullAbstractState) -> FullAbstractState:
        site, state, must, mustnot = sigma
        must = self._rem_must_c.filter(must)
        if self.add_must:
            must = must | self.add_must
        mustnot = self._rem_mustnot_c.filter(mustnot)
        if self.add_mustnot:
            mustnot = mustnot | self.add_mustnot
        return intern_full_state(
            FullAbstractState(site, self.iota(state), must, mustnot)
        )

    # -- value semantics ---------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FullTransformerRelation):
            return NotImplemented
        return (
            self.iota == other.iota
            and self.rem_must == other.rem_must
            and self.add_must == other.add_must
            and self.rem_mustnot == other.rem_mustnot
            and self.add_mustnot == other.add_mustnot
            and self.pred == other.pred
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in
        # the unpickling process (string hashes differ per process).
        return (
            FullTransformerRelation,
            (
                self.iota,
                self.rem_must,
                self.add_must,
                self.rem_mustnot,
                self.add_mustnot,
                self.pred,
            ),
        )

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        rem_a = ",".join(sorted(map(str, self.rem_must)))
        add_a = ",".join(sorted(self.add_must))
        rem_n = ",".join(sorted(map(str, self.rem_mustnot)))
        add_n = ",".join(sorted(self.add_mustnot))
        return (
            f"[{self.pred} => {self.iota}, "
            f"A:-{{{rem_a}}}+{{{add_a}}}, N:-{{{rem_n}}}+{{{add_n}}}]"
        )


FullRelation = Union[FullConstRelation, FullTransformerRelation]
