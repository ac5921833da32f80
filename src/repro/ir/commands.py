"""Command AST for the analysis language of the paper.

The grammar (Sections 3.1 and 3.5)::

    C ::= c | C + C | C ; C | C* | f()

Primitive commands ``c`` are the ones used by the type-state analyses of
Figures 2 and 3 plus field accesses used by the *full* type-state
analysis of the evaluation (Section 6.1):

* ``v = new h``   (:class:`New`)
* ``v = w``       (:class:`Assign`)
* ``v.m()``       (:class:`Invoke`)
* ``v = w.f``     (:class:`FieldLoad`)
* ``v.f = w``     (:class:`FieldStore`)
* ``skip``        (:class:`Skip`)

All AST nodes are immutable and hashable so they can serve as dictionary
keys in analysis tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Tuple


class Command:
    """Base class of every command."""

    __slots__ = ()

    def __reduce__(self):
        # Frozen dataclasses with hand-written slots cannot be restored
        # by the default slot-state protocol: rebuild through __init__
        # (every subclass lists its fields in constructor order).
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))

    def primitives(self) -> Iterator["Prim"]:
        """Yield every primitive command appearing in this command."""
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Prim):
                yield node
            elif isinstance(node, Seq):
                stack.extend(reversed(node.parts))
            elif isinstance(node, Choice):
                stack.extend(reversed(node.alternatives))
            elif isinstance(node, Star):
                stack.append(node.body)
            elif isinstance(node, Call):
                pass
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown command node {node!r}")

    def calls(self) -> Iterator["Call"]:
        """Yield every call command appearing in this command."""
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Call):
                yield node
            elif isinstance(node, Seq):
                stack.extend(reversed(node.parts))
            elif isinstance(node, Choice):
                stack.extend(reversed(node.alternatives))
            elif isinstance(node, Star):
                stack.append(node.body)

    def variables(self) -> frozenset:
        """All variables read or written by this command."""
        out = set()
        for prim in self.primitives():
            out.update(prim.vars_used())
        return frozenset(out)


class Prim(Command):
    """Base class of primitive commands ``c``."""

    __slots__ = ()

    def vars_used(self) -> Tuple[str, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Skip(Prim):
    """The no-op command."""

    __slots__ = ()

    def vars_used(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class New(Prim):
    """``lhs = new site`` — allocate a fresh object at allocation site."""

    lhs: str
    site: str

    __slots__ = ("lhs", "site")

    def vars_used(self) -> Tuple[str, ...]:
        return (self.lhs,)

    def __str__(self) -> str:
        return f"{self.lhs} = new {self.site}"


@dataclass(frozen=True)
class Assign(Prim):
    """``lhs = rhs`` — copy a reference between variables."""

    lhs: str
    rhs: str

    __slots__ = ("lhs", "rhs")

    def vars_used(self) -> Tuple[str, ...]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class Invoke(Prim):
    """``receiver.method()`` — invoke a type-state-relevant method.

    The method's effect on type-states is supplied by the analysis (a
    type-state function ``[m] : T -> T``); the IR only records the name.
    """

    receiver: str
    method: str

    __slots__ = ("receiver", "method")

    def vars_used(self) -> Tuple[str, ...]:
        return (self.receiver,)

    def __str__(self) -> str:
        return f"{self.receiver}.{self.method}()"


@dataclass(frozen=True)
class FieldLoad(Prim):
    """``lhs = base.field`` — read a reference out of the heap."""

    lhs: str
    base: str
    fieldname: str

    __slots__ = ("lhs", "base", "fieldname")

    def vars_used(self) -> Tuple[str, ...]:
        return (self.lhs, self.base)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.base}.{self.fieldname}"


@dataclass(frozen=True)
class FieldStore(Prim):
    """``base.field = rhs`` — write a reference into the heap."""

    base: str
    fieldname: str
    rhs: str

    __slots__ = ("base", "fieldname", "rhs")

    def vars_used(self) -> Tuple[str, ...]:
        return (self.base, self.rhs)

    def __str__(self) -> str:
        return f"{self.base}.{self.fieldname} = {self.rhs}"


@dataclass(frozen=True)
class Seq(Command):
    """``C1 ; C2 ; ...`` — sequential composition (n-ary for convenience)."""

    parts: Tuple[Command, ...]

    __slots__ = ("parts",)

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("Seq needs at least two parts; use seq() to build")

    def __str__(self) -> str:
        return "; ".join(_maybe_paren(p) for p in self.parts)


@dataclass(frozen=True)
class Choice(Command):
    """``C1 + C2 + ...`` — non-deterministic choice (n-ary)."""

    alternatives: Tuple[Command, ...]

    __slots__ = ("alternatives",)

    def __post_init__(self) -> None:
        if len(self.alternatives) < 2:
            raise ValueError("Choice needs at least two alternatives")

    def __str__(self) -> str:
        return " + ".join(_maybe_paren(a) for a in self.alternatives)


@dataclass(frozen=True)
class Star(Command):
    """``C*`` — zero-or-more iteration."""

    body: Command

    __slots__ = ("body",)

    def __str__(self) -> str:
        return f"({self.body})*"


@dataclass(frozen=True)
class Call(Command):
    """``f()`` — call procedure ``f`` (Section 3.5)."""

    proc: str

    __slots__ = ("proc",)

    def __str__(self) -> str:
        return f"{self.proc}()"


def seq(*commands: Command) -> Command:
    """Build a sequential composition, flattening nested ``Seq`` nodes.

    ``seq()`` with no arguments yields ``Skip``; one argument is returned
    unchanged.
    """
    flat = []
    for cmd in commands:
        if isinstance(cmd, Seq):
            flat.extend(cmd.parts)
        else:
            flat.append(cmd)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def choice(*alternatives: Command) -> Command:
    """Build a non-deterministic choice, flattening nested ``Choice`` nodes."""
    flat = []
    for cmd in alternatives:
        if isinstance(cmd, Choice):
            flat.extend(cmd.alternatives)
        else:
            flat.append(cmd)
    if not flat:
        raise ValueError("choice() needs at least one alternative")
    if len(flat) == 1:
        return flat[0]
    return Choice(tuple(flat))


def star(body: Command) -> Star:
    """Build an iteration node."""
    return Star(body)


def _maybe_paren(cmd: Command) -> str:
    if isinstance(cmd, (Choice, Seq)):
        return f"({cmd})"
    return str(cmd)
