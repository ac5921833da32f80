"""Access paths and path patterns.

Access paths are dotted strings — ``"v"``, ``"v.f"``, ``"v.f.g"`` —
with at most two fields (the bound used in the paper's implementation).

The relational analysis removes *families* of paths from must/must-not
sets (every path rooted at an overwritten variable; every path through
an updated field), so removal masks are sets of :class:`PathPattern`
objects rather than concrete path sets — the families are large but the
patterns describing them are tiny.

Removal is the hot operation of both transfer directions, so the
filters below are set algebra: bare-variable members (the bulk of a
must-not set, which starts as every other program variable) are
matched by one C-level intersection or difference, and only the
field-dereferencing members — memoized per path set by
:func:`dotted_paths` — are tested one by one in Python.  Every filter
returns the *same* frozenset when it removes nothing, so unchanged
states keep sharing their components.  :func:`filter_removed` is the
pattern-by-pattern reference they are property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

MAX_FIELDS = 2


def path_root(path: str) -> str:
    """The variable a path starts from."""
    dot = path.find(".")
    return path if dot < 0 else path[:dot]


def path_fields(path: str) -> Tuple[str, ...]:
    """The field components of a path (empty for a bare variable)."""
    return tuple(path.split(".")[1:])


def is_valid_path(path: str) -> bool:
    parts = path.split(".")
    return all(parts) and len(parts) - 1 <= MAX_FIELDS


class PathPattern:
    """Base class of path patterns used in removal masks."""

    __slots__ = ()

    def matches(self, path: str) -> bool:
        raise NotImplementedError

    def __reduce__(self):
        # Frozen dataclasses with hand-written slots cannot be restored
        # by the default slot-state protocol: rebuild through __init__.
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))


@dataclass(frozen=True)
class ExactPath(PathPattern):
    """Matches one specific path."""

    path: str

    __slots__ = ("path",)

    def matches(self, path: str) -> bool:
        return path == self.path

    def __str__(self) -> str:
        return self.path


@dataclass(frozen=True)
class Rooted(PathPattern):
    """Matches every path rooted at a variable (``v``, ``v.f``, …)."""

    var: str

    __slots__ = ("var",)

    def matches(self, path: str) -> bool:
        return path_root(path) == self.var

    def __str__(self) -> str:
        return f"{self.var}.*"


@dataclass(frozen=True)
class HasField(PathPattern):
    """Matches every path that dereferences a given field."""

    fieldname: str

    __slots__ = ("fieldname",)

    def matches(self, path: str) -> bool:
        return self.fieldname in path_fields(path)

    def __str__(self) -> str:
        return f"*.{self.fieldname}*"


def matches_any(patterns: Iterable[PathPattern], path: str) -> bool:
    return any(p.matches(path) for p in patterns)


def normalize_patterns(patterns: Iterable[PathPattern]) -> FrozenSet[PathPattern]:
    """Drop exact patterns already covered by a family pattern."""
    pats = frozenset(patterns)
    families = [p for p in pats if not isinstance(p, ExactPath)]
    if not families:
        return pats
    return frozenset(
        p
        for p in pats
        if not isinstance(p, ExactPath) or not matches_any(families, p.path)
    )


def filter_removed(
    paths: FrozenSet[str], patterns: FrozenSet[PathPattern]
) -> FrozenSet[str]:
    """``paths`` minus everything a pattern matches."""
    if not patterns:
        return paths
    return frozenset(p for p in paths if not matches_any(patterns, p))


#: Memoized field-dereferencing members per path set.  Path sets are
#: shared by interned states, so the same few sets are filtered over
#: and over; keyed by the set itself, bounded by clear-on-overflow.
_DOTTED: Dict[FrozenSet[str], FrozenSet[str]] = {}
_DOTTED_LIMIT = 1 << 16


def dotted_paths(paths: FrozenSet[str]) -> FrozenSet[str]:
    """The members of ``paths`` that dereference a field, cached."""
    dotted = _DOTTED.get(paths)
    if dotted is None:
        if len(_DOTTED) >= _DOTTED_LIMIT:
            _DOTTED.clear()
        dotted = _DOTTED[paths] = frozenset(p for p in paths if "." in p)
    return dotted


def strip_rooted(paths: FrozenSet[str], var: str) -> FrozenSet[str]:
    """``paths`` minus every path rooted at ``var`` (``paths`` itself
    when there is none)."""
    prefix = var + "."
    doomed = [p for p in dotted_paths(paths) if p.startswith(prefix)]
    if var in paths:
        doomed.append(var)
    elif not doomed:
        return paths
    return paths.difference(doomed)


def strip_field(paths: FrozenSet[str], fieldname: str) -> FrozenSet[str]:
    """``paths`` minus every path dereferencing ``fieldname`` (``paths``
    itself when there is none)."""
    doomed = [p for p in dotted_paths(paths) if fieldname in p.split(".")[1:]]
    return paths.difference(doomed) if doomed else paths
