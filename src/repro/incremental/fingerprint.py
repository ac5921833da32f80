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
* **cone** — a Merkle hash over the call graph's SCC condensation
  (:func:`repro.callgraph.scc.condensation`), computed bottom-up: each
  component hashes its members' ``(name, body fingerprint)`` pairs and
  the sorted hashes of the components it calls, and every member's
  cone fingerprint is its component's hash.  A component's hash thus
  covers every body in the procedure's transitive-callee cone
  *including itself* — recursion is one component — at one hash per
  component instead of one cone walk per procedure.  A stored context
  ``(g, σ)`` is a pure function of ``σ``, ``g``'s body, and the bodies
  in ``g``'s cone, so cone equality is exactly the condition under
  which a stored entry may be trusted.
* **config** — SHA-256 over a canonical description of the analysis
  configuration: property DFA (states, initial, transition table) plus
  :meth:`repro.framework.config.AnalysisConfig.canonical_dict` (domain,
  engine, ``k``/``theta``, tracked sites, the worklist scheduler and
  the widening knobs).  Snapshots are stored per config fingerprint;
  nothing is shared across configurations.

All hashing goes through :mod:`hashlib`, so fingerprints are identical
across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.callgraph.scc import condensation
from repro.ir.printer import format_command
from repro.ir.program import Program
from repro.typestate.dfa import TypestateProperty

#: Bump when the fingerprint scheme changes; part of every config
#: description, so old snapshots simply stop matching (cold fallback).
#: v2: descriptions come from ``AnalysisConfig.canonical_dict`` —
#: canonical domain names (``typestate-full``) and a ``scheduler`` flag.
#: v3: cone fingerprints are hashed over the SCC condensation.
FINGERPRINT_VERSION = 3

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
    program: Program,
    proc: str,
    facts: Optional[AliasFacts] = None,
    rows: Optional[Dict[str, str]] = None,
) -> str:
    """Fingerprint of one procedure body (plus its alias facts, if any).

    The facts fold in as the canonical JSON of ``[[var, sorted sites],
    ...]`` over the body's variables, assembled from each variable's
    row text; ``rows`` memoizes those texts across the procedures of
    one program.
    """
    body = program[proc]
    text = format_command(body)
    if facts:
        if rows is None:
            rows = {}
        parts = []
        for var in sorted(body.variables()):
            row = rows.get(var)
            if row is None:
                row = rows[var] = canonical_json([var, sorted(facts.get(var, ()))])
            parts.append(row)
        if parts:
            text += "\n#alias [" + ",".join(parts) + "]"
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
        rows: Dict[str, str] = {}
        body = self.body = {
            proc: body_fingerprint(program, proc, facts, rows) for proc in program
        }
        self.cone: Dict[str, str] = {}
        dag = condensation(program)
        hashes: List[str] = []
        # Components come callees first, so every callee hash is ready.
        # One line per member (``name:body``), then one per callee
        # component hash: hex digests hold no colon, so the text is
        # unambiguous.
        for i, members in enumerate(dag.sccs):
            lines = [f"{q}:{body[q]}" for q in members]
            lines.extend(sorted(hashes[j] for j in dag.callee_sccs(i)))
            digest = _sha("\n".join(lines))
            hashes.append(digest)
            for q in members:
                self.cone[q] = digest

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


def config_fingerprint(prop: TypestateProperty, *, config) -> Tuple[dict, str]:
    """Describe + fingerprint an analysis configuration.

    ``config`` is a :class:`repro.framework.config.AnalysisConfig`; its
    :meth:`canonical_dict` (with the property's DFA) is what gets
    hashed.  Returns ``(description, fingerprint)``; the description is
    stored in the snapshot header so ``store stats`` can say what a
    snapshot is.
    """
    desc = {
        "version": FINGERPRINT_VERSION,
        "property": property_description(prop),
        **config.canonical_dict(),
    }
    return desc, _sha(canonical_json(desc))
