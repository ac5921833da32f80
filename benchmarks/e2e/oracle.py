"""Verdict oracle: frozen top-down references and the digests behind them.

The reference engine is the object top-down engine (``td``, ``lifo``,
object kernel) — the paper's baseline.  A top-down verdict must equal
it pair for pair (error point, allocation site).  SWIFT and bottom-up
verdicts must report the same allocation *sites* (Theorem 3.1 at the
verdict level): SWIFT keeps no top-down rows inside procedures it
answers from bottom-up summaries, so it can name fewer error points
for the same sites — on ``wide-fanout-160`` it names 3709 pairs to the
reference's 4717, all eight sites alike.  ``expected/verdicts.json``
freezes, in base procedure names:

* per base program, the pair and site digests, pair count, allocation
  sites and top-down summary count of its reference verdict;
* per editable base program, the pair and site digests of every
  one-procedure edit (:func:`programs.apply_edit`).

Because the seed only renames and reorders (see :mod:`programs`), these
digests are the reference for every seed.  Where a check needs the
error list itself (demand answers restricted to a target), the list is
recomputed untimed with the same engine and must match its frozen
digest first.  ``run.py --write-expected`` regenerates the file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import programs

EXPECTED_PATH = Path(__file__).resolve().parent / "expected" / "verdicts.json"
PROPERTY = "File"
DOMAINS = {programs.LOOP_NEST[0]: "interval-typestate"}

Errors = List[Tuple[str, str]]


def domain_of(key: str) -> str:
    return DOMAINS.get(key, "full")


def _digest(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()[:16]


def digest(errors: Iterable[Tuple[str, str]]) -> str:
    """Order-independent digest of ``(point, site)`` error pairs."""
    return _digest(f"{point}\t{site}" for point, site in errors)


def site_digest(errors: Iterable[Tuple[str, str]]) -> str:
    """Digest of the allocation sites named by ``errors``."""
    return _digest({site for _, site in errors})


def verdict_digests(errors) -> Dict[str, str]:
    return {"pairs": digest(errors), "sites": site_digest(errors)}


@dataclass
class Reference:
    errors: Errors  # sorted (base point, site)
    td_summaries: int

    @property
    def sites(self) -> List[str]:
        return sorted({site for _, site in self.errors})


def compute(text: str, domain: str) -> Reference:
    """Run the reference engine on base-named IR ``text``."""
    from repro.ir.parser import parse_program
    from repro.typestate.client import run_typestate
    from repro.typestate.properties import property_by_name

    report = run_typestate(
        parse_program(text), property_by_name(PROPERTY), engine="td", domain=domain
    )
    if report.timed_out:
        raise RuntimeError("reference run exceeded its budget")
    errors = sorted((str(point), site) for point, site in report.errors)
    return Reference(errors, report.td_summaries)


class Oracle:
    """Frozen references plus an untimed, memoized recompute path."""

    def __init__(self, path: Path = EXPECTED_PATH) -> None:
        data = json.loads(path.read_text())
        self.programs: Dict[str, dict] = data["programs"]
        self.edits: Dict[str, Dict[str, str]] = data["edits"]
        self._computed: Dict[Tuple[str, Optional[str]], Reference] = {}

    def program(self, key: str) -> dict:
        return self.programs[key]

    def expected(self, key: str, edit: Optional[str]) -> Dict[str, str]:
        """Pair and site digests of one version's reference verdict."""
        if edit is None:
            entry = self.programs[key]
            return {"pairs": entry["digest"], "sites": entry["site_digest"]}
        pairs, sites = self.edits[key][edit]
        return {"pairs": pairs, "sites": sites}

    def matches(self, engine: str, digests: Dict[str, str], key: str, edit=None) -> bool:
        """Top-down must match pair for pair; SWIFT and bottom-up, by site."""
        field = "pairs" if engine == "td" else "sites"
        return digests[field] == self.expected(key, edit)[field]

    def errors(self, inp: "programs.Input", edit: Optional[str]) -> Errors:
        """Reference error pairs of one version, recomputed untimed and
        checked against the frozen digest."""
        memo = (inp.key, edit)
        if memo not in self._computed:
            ref = compute(programs.apply_edit(inp.base, edit), domain_of(inp.key))
            if digest(ref.errors) != self.expected(inp.key, edit)["pairs"]:
                raise RuntimeError(
                    f"reference engine disagrees with expected/ on {inp.key} "
                    f"edit={edit}"
                )
            self._computed[memo] = ref
        return self._computed[memo].errors


def write_expected(path: Path = EXPECTED_PATH, log=print) -> None:
    """Recompute every frozen reference (minutes: one run per edit)."""
    keys = list(programs.COLD_VERIFY_PROGRAMS) + [programs.LOOP_NEST[0]]
    keys += [k for k in programs.SERVICE_PROGRAMS if k not in keys]
    data: dict = {"property": PROPERTY, "engine": "td", "programs": {}, "edits": {}}
    for key in keys:
        base = programs.base_text(key)
        ref = compute(base, domain_of(key))
        data["programs"][key] = {
            "domain": domain_of(key),
            "procs": len(programs.split_procs(base)),
            "errors": len(ref.errors),
            "digest": digest(ref.errors),
            "site_digest": site_digest(ref.errors),
            "sites": ref.sites,
            "td_summaries": ref.td_summaries,
        }
        log(f"  {key}: {len(ref.errors)} error pair(s)")
    for key in sorted({programs.EDIT_PROGRAM, *programs.SERVICE_PROGRAMS}):
        base = programs.base_text(key)
        table = {}
        for proc in programs.editable_procs(base):
            ref = compute(programs.apply_edit(base, proc), domain_of(key))
            table[proc] = [digest(ref.errors), site_digest(ref.errors)]
        data["edits"][key] = table
        log(f"  {key}: {len(table)} edit reference(s)")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
