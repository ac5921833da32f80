"""Canonical JSON codecs for states, predicates, relations, summaries.

The store must re-serialize byte-identically after a load (its files
double as a regression oracle), which rules out pickle: pickling a
frozenset walks it in hash-seed-dependent order.  Instead every stored
object has an explicit, canonical JSON form — lists sorted by their
serialized text, sets emitted sorted — built here for both type-state
domains:

* ``simple`` — :class:`~repro.typestate.states.AbstractState`,
  ``have``/``notHave`` atoms, const/transformer relations (Figure 3);
* ``full`` — :class:`~repro.typestate.full.states.FullAbstractState`,
  path and may-alias atoms (including their oracle site sets), pattern
  masks, and the four-component transformer relations;
* ``interval-typestate`` — :class:`~repro.numeric.product.ProductValue`
  rows (simple states paired with interval environments; ``None``
  bounds serialize as JSON null) and
  :class:`~repro.numeric.product.ProductRelation` pairs of a simple
  relation with an interval transform.

Decoding rebuilds interned states and canonical relation forms, so a
decode → encode round trip is the identity on the serialized text.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.framework.bottomup import ProcedureSummary
from repro.framework.ignored import IgnoredStates
from repro.framework.predicates import TRUE, Atom, Conjunction
from repro.incremental.fingerprint import canonical_json
from repro.typestate.bu_analysis import (
    ConstRelation,
    HaveAtom,
    NotHaveAtom,
    TransformerRelation,
)
from repro.typestate.dfa import TSFunction
from repro.typestate.full.atoms import (
    InMust,
    InMustNot,
    MayAliasAtom,
    NotInMust,
    NotInMustNot,
    NotMayAliasAtom,
)
from repro.typestate.full.paths import ExactPath, HasField, PathPattern, Rooted
from repro.typestate.full.relations import (
    FullConstRelation,
    FullTransformerRelation,
)
from repro.typestate.full.states import FullAbstractState, intern_full_state
from repro.typestate.states import AbstractState, intern_state


# Store tags of the atom classes: one key, or a variable and a site set.
_KEYED_ATOMS = {
    "have": HaveAtom,
    "nothave": NotHaveAtom,
    "inmust": InMust,
    "notinmust": NotInMust,
    "inmustnot": InMustNot,
    "notinmustnot": NotInMustNot,
}
_ALIAS_ATOMS = {"mayalias": MayAliasAtom, "notmayalias": NotMayAliasAtom}
_ATOM_TAGS = {cls: tag for tag, cls in {**_KEYED_ATOMS, **_ALIAS_ATOMS}.items()}


def _sorted_enc(items: List) -> List:
    """Sort encoded items by their canonical JSON text (a total order)."""
    return sorted(items, key=canonical_json)


class Codec:
    """Encoder/decoder for one domain.

    ``analysis`` is the domain's bottom-up analysis; decoding ignored
    sets needs its ``pred_satisfied``/``pred_entails`` callbacks.
    """

    def __init__(self, domain: str, analysis) -> None:
        if domain not in ("simple", "full", "interval-typestate"):
            raise ValueError(f"unknown domain {domain!r}")
        self.domain = domain
        self.analysis = analysis
        # Stored encodings repeat heavily (the same abstract state
        # appears at many rows), so decoding memoizes on the encoded
        # tuple — bounded by the number of distinct states in the
        # snapshot, and the dominant cost of a warm-start decode.
        self._state_memo: dict = {}

    # -- states ---------------------------------------------------------------------
    @staticmethod
    def _encode_simple_state(sigma) -> list:
        return [sigma.site, sigma.state, sorted(sigma.must)]

    @staticmethod
    def _decode_simple_state(enc: list):
        site, state, must = enc
        return intern_state(AbstractState(site, state, frozenset(must)))

    @staticmethod
    def _encode_env(env) -> list:
        # Bindings are already var-sorted and TOP-free (canonical).
        return [[var, iv.lo, iv.hi] for var, iv in env.bindings]

    @staticmethod
    def _decode_env(enc: list):
        from repro.numeric.interval import Interval, IntervalEnv

        return IntervalEnv((var, Interval(lo, hi)) for var, lo, hi in enc)

    def encode_state(self, sigma) -> list:
        if self.domain == "interval-typestate":
            return [
                "prod",
                _sorted_enc(
                    [
                        [self._encode_simple_state(ts), self._encode_env(env)]
                        for ts, env in sigma.rows
                    ]
                ),
            ]
        if self.domain == "simple":
            return self._encode_simple_state(sigma)
        return [
            sigma.site,
            sigma.state,
            sorted(sigma.must),
            sorted(sigma.mustnot),
        ]

    def decode_state(self, enc: list):
        if self.domain == "interval-typestate":
            from repro.numeric.product import ProductValue

            _, rows = enc
            return ProductValue(
                (self._decode_simple_state(ts), self._decode_env(env))
                for ts, env in rows
            )
        if self.domain == "simple":
            site, state, must = enc
            key = (site, state, tuple(must))
            hit = self._state_memo.get(key)
            if hit is None:
                hit = intern_state(AbstractState(site, state, frozenset(must)))
                self._state_memo[key] = hit
            return hit
        site, state, must, mustnot = enc
        key = (site, state, tuple(must), tuple(mustnot))
        hit = self._state_memo.get(key)
        if hit is None:
            hit = intern_full_state(
                FullAbstractState(
                    site, state, frozenset(must), frozenset(mustnot)
                )
            )
            self._state_memo[key] = hit
        return hit

    # -- atoms and predicates ----------------------------------------------------------
    def encode_atom(self, atom: Atom) -> list:
        tag = _ATOM_TAGS.get(type(atom))
        if tag is None:
            raise TypeError(f"cannot encode atom {atom!r}")
        if tag in _KEYED_ATOMS:
            return [tag, atom.key]
        return [tag, atom.var, sorted(atom.sites)]

    def decode_atom(self, enc: list) -> Atom:
        kind = enc[0]
        if kind in _KEYED_ATOMS:
            return _KEYED_ATOMS[kind](enc[1])
        if kind in _ALIAS_ATOMS:
            return _ALIAS_ATOMS[kind](enc[1], frozenset(enc[2]))
        raise ValueError(f"unknown atom kind {kind!r}")

    def encode_pred(self, pred: Conjunction) -> list:
        if pred.is_false:
            raise ValueError("FALSE predicates are never stored")
        return _sorted_enc([self.encode_atom(a) for a in pred.atoms])

    def decode_pred(self, enc: list) -> Conjunction:
        if not enc:
            return TRUE
        pred = Conjunction.of(self.decode_atom(a) for a in enc)
        if pred.is_false:  # pragma: no cover - stored preds are satisfiable
            raise ValueError("stored predicate decoded to FALSE")
        return pred

    # -- type-state functions and patterns ----------------------------------------------
    @staticmethod
    def encode_tsfunction(fn: TSFunction) -> list:
        return [[t, u] for t, u in fn.table]

    @staticmethod
    def decode_tsfunction(enc: list) -> TSFunction:
        return TSFunction(tuple((t, u) for t, u in enc))

    @staticmethod
    def encode_pattern(pattern: PathPattern) -> list:
        if isinstance(pattern, ExactPath):
            return ["exact", pattern.path]
        if isinstance(pattern, Rooted):
            return ["rooted", pattern.var]
        if isinstance(pattern, HasField):
            return ["field", pattern.fieldname]
        raise TypeError(f"cannot encode pattern {pattern!r}")

    @staticmethod
    def decode_pattern(enc: list) -> PathPattern:
        kind, arg = enc
        if kind == "exact":
            return ExactPath(arg)
        if kind == "rooted":
            return Rooted(arg)
        if kind == "field":
            return HasField(arg)
        raise ValueError(f"unknown pattern kind {kind!r}")

    def _encode_patterns(self, patterns: FrozenSet[PathPattern]) -> list:
        return _sorted_enc([self.encode_pattern(p) for p in patterns])

    # -- interval transforms (product domain) -------------------------------------------
    @staticmethod
    def _encode_action(action: tuple) -> list:
        if action[0] == "top":
            return ["top"]
        if action[0] == "const":
            return ["const", action[1].lo, action[1].hi]
        return ["shift", action[1], action[2].lo, action[2].hi]

    @staticmethod
    def _decode_action(enc: list) -> tuple:
        from repro.numeric.interval import Interval

        kind = enc[0]
        if kind == "top":
            return ("top",)
        if kind == "const":
            return ("const", Interval(enc[1], enc[2]))
        if kind == "shift":
            return ("shift", enc[1], Interval(enc[2], enc[3]))
        raise ValueError(f"unknown transform action kind {kind!r}")

    def _encode_transform(self, t) -> list:
        # Actions are already var-sorted and identity-free (canonical).
        return [[var, self._encode_action(a)] for var, a in t.actions]

    def _decode_transform(self, enc: list):
        from repro.numeric.bu_analysis import IntervalTransform

        return IntervalTransform(
            (var, self._decode_action(a)) for var, a in enc
        )

    def _encode_simple_relation(self, r) -> list:
        if isinstance(r, ConstRelation):
            return [
                "const",
                self._encode_simple_state(r.output),
                self.encode_pred(r.pred),
            ]
        return [
            "trans",
            self.encode_tsfunction(r.iota),
            sorted(r.removed),
            sorted(r.added),
            self.encode_pred(r.pred),
        ]

    def _decode_simple_relation(self, enc: list):
        if enc[0] == "const":
            return ConstRelation(
                self._decode_simple_state(enc[1]), self.decode_pred(enc[2])
            )
        _, iota, removed, added, pred = enc
        return TransformerRelation(
            self.decode_tsfunction(iota),
            frozenset(removed),
            frozenset(added),
            self.decode_pred(pred),
        )

    # -- relations ----------------------------------------------------------------------
    def encode_relation(self, r) -> list:
        if self.domain == "interval-typestate":
            return [
                "prod",
                self._encode_simple_relation(r.ts),
                self._encode_transform(r.num),
            ]
        if isinstance(r, (ConstRelation, FullConstRelation)):
            return ["const", self.encode_state(r.output), self.encode_pred(r.pred)]
        if isinstance(r, TransformerRelation):
            return [
                "trans",
                self.encode_tsfunction(r.iota),
                sorted(r.removed),
                sorted(r.added),
                self.encode_pred(r.pred),
            ]
        if isinstance(r, FullTransformerRelation):
            return [
                "trans",
                self.encode_tsfunction(r.iota),
                self._encode_patterns(r.rem_must),
                sorted(r.add_must),
                self._encode_patterns(r.rem_mustnot),
                sorted(r.add_mustnot),
                self.encode_pred(r.pred),
            ]
        raise TypeError(f"cannot encode relation {r!r}")

    def decode_relation(self, enc: list):
        kind = enc[0]
        if self.domain == "interval-typestate":
            from repro.numeric.product import ProductRelation

            if kind != "prod":
                raise ValueError(f"unknown relation kind {kind!r}")
            return ProductRelation(
                self._decode_simple_relation(enc[1]),
                self._decode_transform(enc[2]),
            )
        if kind == "const":
            output = self.decode_state(enc[1])
            pred = self.decode_pred(enc[2])
            cls = ConstRelation if self.domain == "simple" else FullConstRelation
            return cls(output, pred)
        if kind != "trans":
            raise ValueError(f"unknown relation kind {kind!r}")
        if self.domain == "simple":
            _, iota, removed, added, pred = enc
            return TransformerRelation(
                self.decode_tsfunction(iota),
                frozenset(removed),
                frozenset(added),
                self.decode_pred(pred),
            )
        _, iota, rem_must, add_must, rem_mustnot, add_mustnot, pred = enc
        return FullTransformerRelation(
            self.decode_tsfunction(iota),
            frozenset(self.decode_pattern(p) for p in rem_must),
            frozenset(add_must),
            frozenset(self.decode_pattern(p) for p in rem_mustnot),
            frozenset(add_mustnot),
            self.decode_pred(pred),
        )

    # -- summaries ----------------------------------------------------------------------
    def encode_summary(self, summary: ProcedureSummary) -> dict:
        return {
            "relations": _sorted_enc(
                [self.encode_relation(r) for r in summary.relations]
            ),
            "ignored": _sorted_enc(
                [self.encode_pred(p) for p in summary.ignored.predicates]
            ),
        }

    def decode_summary(self, enc: dict) -> ProcedureSummary:
        relations = frozenset(self.decode_relation(r) for r in enc["relations"])
        ignored = IgnoredStates(
            self.analysis.pred_satisfied,
            self.analysis.pred_entails,
            (self.decode_pred(p) for p in enc["ignored"]),
        )
        return ProcedureSummary(relations, ignored)
