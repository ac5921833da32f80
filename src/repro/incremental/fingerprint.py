"""Canonical fingerprints of procedures, cones, and configurations.

Three fingerprint families key the summary store:

* **body** — SHA-256 over the canonical printer form of a procedure's
  command (:func:`repro.ir.printer.format_command`).  The printer text
  round-trips through the parser and two bodies with equal text build
  identical CFGs with identical :class:`~repro.ir.cfg.ProgramPoint`
  numbering, so a body match guarantees that stored per-point rows are
  still addressable.  For the full domain the body fingerprint also
  folds in the may-alias facts of the variables the body mentions: the
  oracle is whole-program, so an edit elsewhere that changes what ``v``
  may point to must invalidate every body using ``v``.
* **cone** — SHA-256 over the sorted ``(callee, body fingerprint)``
  pairs of the procedure's transitive-callee cone *including itself*
  (``reachable_from``), which handles recursion for free.  A stored
  context ``(g, σ)`` is a pure function of ``σ``, ``g``'s body, and the
  bodies in ``g``'s cone, so cone equality is exactly the condition
  under which a stored entry may be trusted.
* **config** — SHA-256 over a canonical description of the analysis
  configuration: property DFA (states, initial, transition table) plus
  :meth:`repro.framework.config.AnalysisConfig.canonical_dict` (domain,
  engine, ``k``/``theta``, tracked sites, engine flags including the
  worklist scheduler).  Snapshots are stored per config fingerprint;
  nothing is shared across configurations.

All hashing goes through :mod:`hashlib`, so fingerprints are identical
across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.ir.printer import format_command
from repro.ir.program import Program
from repro.typestate.dfa import TypestateProperty

#: Bump when the fingerprint scheme changes; part of every config
#: description, so old snapshots simply stop matching (cold fallback).
#: v2: descriptions come from ``AnalysisConfig.canonical_dict`` —
#: canonical domain names (``typestate-full``) and a ``scheduler`` flag.
FINGERPRINT_VERSION = 2

#: Per-variable may-alias facts: ``var -> sites it may point to``.
AliasFacts = Mapping[str, FrozenSet[str]]


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def alias_facts(program: Program, oracle) -> Dict[str, FrozenSet[str]]:
    """Snapshot the oracle's per-variable site sets for fingerprinting."""
    return {var: frozenset(oracle.sites_for(var)) for var in program.variables()}


def body_fingerprint(
    program: Program, proc: str, facts: Optional[AliasFacts] = None
) -> str:
    """Fingerprint of one procedure body (plus its alias facts, if any)."""
    text = format_command(program[proc])
    if facts:
        rows = [
            [var, sorted(facts.get(var, ()))]
            for var in sorted(program[proc].variables())
        ]
        if rows:
            text += "\n#alias " + canonical_json(rows)
    return _sha(text)


class ProgramFingerprints:
    """Body and cone fingerprints for every procedure of a program.

    Holds no reference to the program: memoized on it
    (:func:`program_fingerprints`), a back-reference would form a cycle
    only the cyclic collector frees, keeping each one-shot run's
    program alive past its run.
    """

    def __init__(
        self, program: Program, facts: Optional[AliasFacts] = None
    ) -> None:
        self.body: Dict[str, str] = {
            proc: body_fingerprint(program, proc, facts) for proc in program
        }
        self.cone: Dict[str, str] = {}
        for proc in program:
            members = sorted(program.reachable_from(proc) | {proc})
            self.cone[proc] = _sha(
                canonical_json([[q, self.body[q]] for q in members])
            )

    def as_dict(self) -> Dict[str, Dict[str, str]]:
        """``proc -> {"body": fp, "cone": fp}`` in serializable form."""
        return {
            proc: {"body": self.body[proc], "cone": self.cone[proc]}
            for proc in sorted(self.body)
        }


def program_alias(program: Program):
    """``(points-to oracle, alias facts)`` of ``program``, memoized on it."""

    def build():
        from repro.alias import points_to_oracle

        oracle = points_to_oracle(program)
        return oracle, alias_facts(program, oracle)

    return program.memo("alias", build)


def program_fingerprints(
    program: Program, with_alias: bool = False
) -> ProgramFingerprints:
    """``program``'s fingerprints — over its own may-alias facts when
    ``with_alias`` (the full domain) — memoized on it."""
    if with_alias:
        facts = program_alias(program)[1]
        return program.memo(
            "fingerprints+alias", lambda: ProgramFingerprints(program, facts)
        )
    return program.memo("fingerprints", lambda: ProgramFingerprints(program))


def property_description(prop: TypestateProperty) -> dict:
    """The DFA in canonical extensional form."""
    methods = sorted(prop.methods)
    return {
        "name": prop.name,
        "states": list(prop.states),
        "initial": prop.initial,
        "transitions": [
            [state, method, prop.step(state, method)]
            for state in sorted(prop.states)
            for method in methods
        ],
    }


#: Flag keys the legacy keyword form maps onto ``AnalysisConfig``
#: fields; anything else is folded into the description verbatim.
_CONFIG_FLAG_KEYS = ("enable_caches", "indexed_summaries", "scheduler")


def config_fingerprint(
    prop: TypestateProperty,
    *,
    config=None,
    domain: Optional[str] = None,
    engine: Optional[str] = None,
    k: Optional[int] = None,
    theta: Optional[int] = None,
    tracked_sites: Optional[Iterable[str]] = None,
    flags: Optional[Mapping[str, object]] = None,
) -> Tuple[dict, str]:
    """Describe + fingerprint an analysis configuration.

    Pass either a :class:`repro.framework.config.AnalysisConfig` via
    ``config=`` (the canonical form — its :meth:`canonical_dict` is
    what gets hashed) or the legacy ``domain=``/``engine=`` keywords,
    which are normalized through an ``AnalysisConfig`` first.  Extra
    ``flags`` beyond the config's own are folded into the description
    (order-insensitively).  Returns ``(description, fingerprint)``; the
    description is stored in the snapshot header so ``store stats`` can
    say what a snapshot is.
    """
    from repro.framework.config import AnalysisConfig

    extra = dict(flags or {})
    if config is None:
        if domain is None or engine is None:
            raise TypeError(
                "config_fingerprint needs config= or both domain= and engine="
            )
        known = {key: extra.pop(key) for key in _CONFIG_FLAG_KEYS if key in extra}
        config = AnalysisConfig(
            engine=engine,
            domain=domain,
            k=k if k is not None else 5,
            theta=theta if theta is not None else 1,
            tracked_sites=(
                frozenset(tracked_sites) if tracked_sites is not None else None
            ),
            enable_caches=bool(known.get("enable_caches", True)),
            indexed_summaries=bool(known.get("indexed_summaries", True)),
            scheduler=str(known.get("scheduler", "lifo")),
        )
    desc = {
        "version": FINGERPRINT_VERSION,
        "property": property_description(prop),
        **config.canonical_dict(),
    }
    if extra:
        desc["flags"] = dict(sorted({**desc["flags"], **extra}.items()))
    return desc, _sha(canonical_json(desc))
