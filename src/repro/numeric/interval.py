"""Integer intervals and interval environments.

The first infinite-height instantiation of the lattice layer
(DESIGN §14): values are sparse maps ``variable -> [lo, hi]`` over the
integers, with ``None`` bounds meaning unbounded.  An absent binding is
``TOP`` (``[-inf, +inf]``), so the empty environment is the lattice
top of the pointwise order — which makes join/widen over *sparse* maps
terminate structurally: both keep only variables bound on both sides.

Method-call encoding: the IR has no arithmetic, so numeric operations
ride on :class:`~repro.ir.commands.Invoke` method names —

* ``incr``/``decr`` — shift the receiver's interval by ±1;
* ``reset`` — set the receiver to ``[0, 0]`` (so does ``v = new h``);
* ``le<K>``/``ge<K>`` (e.g. ``le10``) — guards: meet the receiver with
  the half-line; an empty meet kills the path (infeasible branch).

Everything else (``open``, ``close``, ...) is the identity on
environments — exactly mirroring how the type-state analyses treat
methods their property does not track, which is what makes the
interval×typestate reduced product (:mod:`repro.numeric.product`)
compose without touching the IR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple


def _fmt(bound: Optional[int], sign: str) -> str:
    return f"{sign}inf" if bound is None else str(bound)


@dataclass(frozen=True)
class Interval:
    """A nonempty integer interval ``[lo, hi]``; ``None`` = unbounded."""

    lo: Optional[int]
    hi: Optional[int]

    __slots__ = ("lo", "hi", "_hash")

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        object.__setattr__(self, "_hash", hash((self.lo, self.hi)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: the frozen fields cannot be set by
        # the default slot-state unpickling, and the cached hash must be
        # recomputed in the unpickling process.
        return (Interval, (self.lo, self.hi))

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    # -- lattice -----------------------------------------------------------------
    def leq(self, other: "Interval") -> bool:
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    def join(self, other: "Interval") -> "Interval":
        """Least upper bound; ``self`` itself when it already covers ``other``."""
        if other is self:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        if lo == self.lo and hi == self.hi:
            return self
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> Optional["Interval"]:
        """Greatest lower bound, or ``None`` when empty."""
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def widen(self, new: "Interval") -> "Interval":
        """``self widen new`` — an unstable bound jumps to infinity."""
        if new is self:
            return self
        lo = self.lo if (self.lo is not None and new.lo is not None and new.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and new.hi is not None and new.hi <= self.hi) else None
        if lo == self.lo and hi == self.hi:
            return self
        return Interval(lo, hi)

    def narrow(self, new: "Interval") -> "Interval":
        """``self narrow new`` — refine only the infinite bounds."""
        return Interval(
            new.lo if self.lo is None else self.lo,
            new.hi if self.hi is None else self.hi,
        )

    # -- arithmetic --------------------------------------------------------------
    def shift(self, k: int) -> "Interval":
        return Interval(
            None if self.lo is None else self.lo + k,
            None if self.hi is None else self.hi + k,
        )

    def add(self, other: "Interval") -> "Interval":
        return Interval(
            None if self.lo is None or other.lo is None else self.lo + other.lo,
            None if self.hi is None or other.hi is None else self.hi + other.hi,
        )

    def __str__(self) -> str:
        return f"[{_fmt(self.lo, '-')},{_fmt(self.hi, '+')}]"


TOP = Interval(None, None)
ZERO = Interval(0, 0)


class IntervalEnv:
    """A sparse, immutable map ``variable -> Interval`` (absent = TOP).

    Environments key the value-mode tables and worklists, so the hash
    is precomputed once, like
    :class:`repro.typestate.states.AbstractState`.  The canonical
    string is built on first ``str()`` and cached: most environments
    are intermediate join results that nothing ever prints or sorts.
    """

    __slots__ = ("bindings", "_map", "_hash", "_str")

    def __init__(self, bindings: Iterable[Tuple[str, Interval]] = ()) -> None:
        items: Dict[str, Interval] = {}
        for var, interval in bindings:
            if not interval.is_top:
                items[var] = interval
        self.bindings = tuple(sorted(items.items()))
        self._map = items
        self._hash = hash(self.bindings)
        self._str: Optional[str] = None

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed in
        # the unpickling process (string hashes differ per process).
        return (IntervalEnv, (self.bindings,))

    # -- map operations ----------------------------------------------------------
    def get(self, var: str) -> Interval:
        return self._map.get(var, TOP)

    def set(self, var: str, interval: Interval) -> "IntervalEnv":
        if self._map.get(var, TOP) == interval:
            return self
        items = dict(self._map)
        if interval.is_top:
            items.pop(var, None)
        else:
            items[var] = interval
        return IntervalEnv(items.items())

    def forget(self, var: str) -> "IntervalEnv":
        if var not in self._map:
            return self
        items = dict(self._map)
        del items[var]
        return IntervalEnv(items.items())

    # -- lattice -----------------------------------------------------------------
    def leq(self, other: "IntervalEnv") -> bool:
        if other is self:
            return True
        mine = self._map
        for var, iv in other.bindings:
            have = mine.get(var)
            # An absent binding is TOP, and no binding of ``other`` is TOP.
            if have is None or not have.leq(iv):
                return False
        return True

    def join(self, other: "IntervalEnv") -> "IntervalEnv":
        """Pointwise join; ``self`` itself when it already covers ``other``."""
        if other is self:
            return self
        return self._pointwise(other, Interval.join)

    def widen(self, new: "IntervalEnv") -> "IntervalEnv":
        """``self widen new`` — pointwise; one-sided bindings go TOP."""
        if new is self:
            return self
        return self._pointwise(new, Interval.widen)

    def _pointwise(self, other: "IntervalEnv", op) -> "IntervalEnv":
        # Only variables bound on both sides survive (absent = TOP).
        theirs = other._map
        out = []
        same = True
        for var, iv in self.bindings:
            got = theirs.get(var)
            if got is None:
                same = False
                continue
            res = op(iv, got)
            if res is not iv:
                same = False
            out.append((var, res))
        return self if same else IntervalEnv(out)

    def narrow(self, new: "IntervalEnv") -> "IntervalEnv":
        items = dict(new._map)
        for var, iv in self.bindings:
            got = items.get(var)
            items[var] = iv if got is None else iv.narrow(got)
        return IntervalEnv(items.items())

    # -- value semantics ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, IntervalEnv):
            return NotImplemented
        return self._hash == other._hash and self.bindings == other.bindings

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = self._str = "{" + ",".join(f"{v}:{iv}" for v, iv in self.bindings) + "}"
        return text

    def __repr__(self) -> str:
        return f"IntervalEnv({self})"


EMPTY_ENV = IntervalEnv()


def numeric_op(method: str):
    """Decode a method name into a numeric operation, or ``None``.

    ``("shift", k)`` for ``incr``/``decr``, ``("const", ZERO)`` for
    ``reset``, ``("le", K)``/``("ge", K)`` for guard methods like
    ``le10``.  ``None`` means the method is numerically untracked (the
    dual of the type-state side, where ``incr`` etc. are untracked).
    """
    if method == "incr":
        return ("shift", 1)
    if method == "decr":
        return ("shift", -1)
    if method == "reset":
        return ("const", ZERO)
    for prefix in ("le", "ge"):
        if method.startswith(prefix):
            digits = method[len(prefix):]
            if digits and (digits.isdigit() or (digits[0] == "-" and digits[1:].isdigit())):
                return (prefix, int(digits))
    return None
