"""Analysis signatures accepted by the SWIFT framework.

A *top-down analysis* ``A = (S, trans)`` (Section 3.1) supplies a
finite set ``S`` of abstract states together with transfer functions
``trans(c) : S -> 2^S`` for primitive commands.  In this library an
abstract state may be any hashable value; the class only has to
implement :meth:`TopDownAnalysis.transfer`.

A *bottom-up analysis* ``B = (R, id#, gamma, rtrans, rcomp)``
(Section 3.2) supplies a finite set ``R`` of *abstract relations* over
``S`` — again arbitrary hashable values — plus:

* ``identity`` — the relation ``id#`` with ``gamma(id#) = {(s, s)}``;
* ``rtransfer`` — relational transfer functions
  ``rtrans(c) : R -> 2^R``;
* ``rcompose`` — the composition operator ``rcomp : R x R -> 2^R``;
* ``apply``/``in_domain`` — evaluation of ``gamma(r)`` at a single
  state, which is how summaries are *instantiated*;
* predicate machinery (``domain_predicate``, ``pred_satisfied``,
  ``pred_entails``, ``pre_image``) used to represent the ignored-state
  sets ``Sigma`` of the pruned semantics (Section 3.4) symbolically.

The ``wp`` operator required by condition C3 appears here as
:meth:`BottomUpAnalysis.pre_image`: because every abstract relation in
the analyses of this library is a partial *function* on abstract
states, the existential pre-image (needed to propagate ``Sigma``
backwards through calls, Section 3.5) coincides with
``dom(r) /\\ wp(r, .)``.

**Infinite-height domains.**  The paper assumes ``S`` and ``R`` are
finite; :class:`LatticeDomain` is the optional signature that lifts
that assumption.  A finite domain implements it trivially — its join
is set union, realized by the engines' workset saturation, and its
widening is the join — so the defaults below leave every finite-domain
code path (and every byte-locked baseline) untouched.  A domain that
returns ``False`` from :meth:`LatticeDomain.is_finite` switches the
engines into *value mode*: one lattice value per (program point, entry
context), ascending iteration through ``leq``/``join``, widening at
loop heads and recursive SCC headers, and an optional descending
(narrowing) pass.  On the bottom-up side,
:meth:`BottomUpAnalysis.r_is_finite` and
:meth:`BottomUpAnalysis.rwiden` play the same role for relation sets.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Generic, Hashable, Iterable, Iterator, Tuple, TypeVar

from repro.ir.commands import Prim

S = TypeVar("S", bound=Hashable)  # abstract states
R = TypeVar("R", bound=Hashable)  # abstract relations
P = TypeVar("P", bound=Hashable)  # predicates over abstract states


class UnsupportedDomainError(ValueError):
    """A component was handed a domain outside what it supports.

    Raised by an element-level ``join`` on a finite powerset domain,
    whose joins happen by saturation instead.  When ``supported`` is
    given, the message names the supported alternatives.
    """

    def __init__(self, message: str, supported: Iterable[str] = ()) -> None:
        self.supported = tuple(supported)
        if self.supported:
            message = f"{message} (supported: {', '.join(self.supported)})"
        super().__init__(message)


class LatticeDomain:
    """Optional lattice signature over a domain's propagated values.

    The engines consult :meth:`is_finite` once per run.  ``True`` (the
    default) means the domain is the paper's finite powerset: the join
    is set union and is realized by workset saturation, widening
    coincides with the join, and none of the methods below are ever
    invoked on the hot path — finite-domain behavior is bit-for-bit
    what it was before this class existed.  ``False`` switches the
    engines into value mode, where the methods below define an
    ascending/descending iteration on single lattice values.
    """

    def is_finite(self) -> bool:
        """Does this domain have finitely many abstract values?"""
        return True

    def leq(self, a, b) -> bool:
        """The partial order ``a <= b``.  Default: equality — the
        discrete element-level order of a finite powerset, whose real
        subsumption (set membership) the engines handle by saturation."""
        return a == b

    def join(self, a, b):
        """Least upper bound of two values.  Finite domains join at the
        set level (union by saturation), so only equal elements ever
        meet here."""
        if a == b:
            return a
        raise UnsupportedDomainError(
            f"{type(self).__name__} is a finite domain: joins happen by "
            "powerset saturation, not element-level join"
        )

    def widen(self, prev, new):
        """Widening ``prev widen new``.  Default: the join, which is the
        exact (and terminating) choice for finite-height domains."""
        return self.join(prev, new)

    def narrow(self, prev, new):
        """Narrowing ``prev narrow new`` (``new <= prev`` on entry).
        Default: take the refined value."""
        return new


class TopDownAnalysis(LatticeDomain, ABC, Generic[S]):
    """The top-down analysis signature ``A = (S, trans)``."""

    @abstractmethod
    def transfer(self, cmd: Prim, sigma: S) -> FrozenSet[S]:
        """``trans(c)(sigma)`` — the post-states of ``cmd`` from ``sigma``."""

    def transfer_set(self, cmd: Prim, states: Iterable[S]) -> FrozenSet[S]:
        """The lifted transfer ``trans(c)† : 2^S -> 2^S``."""
        out = set()
        for sigma in states:
            out.update(self.transfer(cmd, sigma))
        return frozenset(out)


class BottomUpAnalysis(ABC, Generic[S, R, P]):
    """The bottom-up analysis signature ``B = (R, id#, gamma, rtrans, rcomp)``."""

    # -- core operators (Section 3.2) ---------------------------------------------
    @abstractmethod
    def identity(self) -> R:
        """The identity abstract relation ``id#``."""

    @abstractmethod
    def rtransfer(self, cmd: Prim, r: R) -> FrozenSet[R]:
        """``rtrans(c)(r)`` — extend the past state change ``r`` by ``cmd``."""

    @abstractmethod
    def rcompose(self, r1: R, r2: R) -> FrozenSet[R]:
        """``rcomp(r1, r2)`` — compose two abstract relations."""

    # -- summary instantiation ------------------------------------------------------
    @abstractmethod
    def apply(self, r: R, sigma: S) -> FrozenSet[S]:
        """``{sigma' | (sigma, sigma') in gamma(r)}``.

        Empty when ``sigma`` is outside ``dom(r)``.  This is how the
        top-down side of SWIFT instantiates a bottom-up summary.
        """

    def in_domain(self, r: R, sigma: S) -> bool:
        """``sigma in dom(r)``.  Default: probe :meth:`apply`."""
        return bool(self.apply(r, sigma))

    # -- predicate machinery for Sigma (Sections 3.4-3.5) ---------------------------
    @abstractmethod
    def domain_predicate(self, r: R) -> P:
        """A predicate denoting ``dom(r)`` exactly."""

    @abstractmethod
    def pred_satisfied(self, p: P, sigma: S) -> bool:
        """``sigma |= p``."""

    def pred_entails(self, p: P, q: P) -> bool:
        """``p ==> q``; may conservatively answer ``False``."""
        return p == q

    @abstractmethod
    def pre_image(self, r: R, p: P) -> FrozenSet[P]:
        """Predicates whose union denotes
        ``{sigma | exists sigma': (sigma, sigma') in gamma(r) and sigma' |= p}``.

        For the (deterministic) relations used in this library this is
        ``dom(r) /\\ wp(r, p)`` — the paper's ``wp`` operator of
        condition C3, restricted to the domain.  An empty result means
        the pre-image is empty.
        """

    # -- optional: lattice structure over relation sets ------------------------------
    def r_is_finite(self) -> bool:
        """Is the relation set ``R`` finite?  ``False`` makes the
        bottom-up engine widen loop fixpoints (:meth:`rwiden`) and the
        pruner widen retained relations, since plain saturation need
        not terminate."""
        return True

    def rwiden(self, prev: FrozenSet[R], new: FrozenSet[R]) -> FrozenSet[R]:
        """Widen an ascending chain of relation *sets*.

        ``prev`` is the previous iterate, ``new`` the joined next one
        (``prev`` is a subset of ``new``).  The result must cover
        ``new`` (``gamma``-wise) and must stabilize every ascending
        chain in finitely many steps.  Default: ``new`` — a no-op,
        correct exactly when ``R`` is finite.
        """
        return frozenset(new)

    # -- optional: enumeration for testing on small universes -----------------------
    def gamma(self, r: R, states: Iterable[S]) -> Iterator[Tuple[S, S]]:
        """Enumerate ``gamma(r)`` restricted to the given input states.

        Only used by tests and the condition checkers
        (:mod:`repro.framework.conditions`); the default implementation
        probes :meth:`apply`.
        """
        for sigma in states:
            for sigma_prime in self.apply(r, sigma):
                yield (sigma, sigma_prime)
