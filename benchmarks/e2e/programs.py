"""Benchmark inputs: base programs, their seeded renamings, and edits.

Every workload starts from fixed *base* programs — registered suite
configs and shapes of :mod:`repro.bench`, printed as textual IR.  The
seed never changes a base program's shape; it renames every procedure
except ``main`` (``p<6 hex>_<name>``) and shuffles declaration order.
Engine work counters are identical under such a renaming, so seed-to-
seed spread in a timing is measurement noise, not a different amount
of analysis; the program still sees new bytes, new name order and new
fingerprints, and a verdict that depended on name order would no longer
map back onto the frozen reference.  Request streams (which procedure
an edit touches, which target a demand asks about) also come from the
seed.

An *edit* doubles one procedure's body (``B`` becomes ``B; B``) and is
always applied to the base program, so a stream of edits revisits only
versions ``base`` and ``base + one doubled procedure``: a small, closed
set whose top-down verdicts ``expected/`` can hold in full.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Suite configs of the paper's Table 1 (200–362 procedures).
COLD_VERIFY_PROGRAMS = ("hedc", "antlr", "kawa-c")
#: The numeric workload's loop-heavy shape: ``loop_nest(size, seed)``.
LOOP_NEST = ("loop-nest-12", 12, 19)
EDIT_PROGRAM = "hedc"
SERVICE_PROGRAMS = ("hedc", "wide-fanout-160")

_PROC_HEAD = re.compile(r"^proc (\S+) \{$")
_NAME_REF = re.compile(r"\b(proc|call) ([A-Za-z_][A-Za-z0-9_$@]*)")


def base_program(name: str):
    """Generate base program ``name`` from scratch (no generator caches)."""
    from repro.bench.generator import generate, generate_shape
    from repro.bench.suite import SHAPE_CONFIGS, SUITE_CONFIGS

    if name == LOOP_NEST[0]:
        from repro.bench.workloads import loop_nest

        return loop_nest(LOOP_NEST[1], seed=LOOP_NEST[2])
    for config in SUITE_CONFIGS:
        if config.name == name:
            return generate(config).program
    for config in SHAPE_CONFIGS:
        if config.name == name:
            return generate_shape(config).program
    raise KeyError(f"unknown base program {name!r}")


def base_text(name: str) -> str:
    from repro.ir.printer import format_program

    return format_program(base_program(name))


def split_procs(text: str) -> Dict[str, List[str]]:
    """Procedure name -> body lines, in declaration order."""
    procs: Dict[str, List[str]] = {}
    current: Optional[List[str]] = None
    for line in text.splitlines():
        head = _PROC_HEAD.match(line)
        if head:
            current = procs.setdefault(head.group(1), [])
        elif line == "}":
            current = None
        elif current is not None and line.strip():
            current.append(line)
    return procs


def join_procs(procs: Dict[str, List[str]]) -> str:
    chunks = []
    for name, body in procs.items():
        chunks.append("\n".join([f"proc {name} {{", *body, "}"]))
    return "\n\n".join(chunks) + "\n"


def editable_procs(text: str) -> List[str]:
    """Procedures an edit may touch: not ``main``, non-empty body."""
    return [name for name, body in split_procs(text).items() if name != "main" and body]


def apply_edit(text: str, proc: Optional[str]) -> str:
    """``text`` with ``proc``'s body doubled (``None``: unchanged)."""
    if proc is None:
        return text
    procs = split_procs(text)
    if not procs.get(proc):
        raise KeyError(f"cannot edit {proc!r}: no such procedure or empty body")
    procs[proc] = procs[proc] + procs[proc]
    return join_procs(procs)


@dataclass(frozen=True)
class Renaming:
    """One seed's procedure renaming of one base program."""

    to_new: Dict[str, str]
    to_base: Dict[str, str]

    def text(self, base: str) -> str:
        """Rename and reorder ``base`` (order follows ``to_new``)."""
        procs = split_procs(base)
        renamed = join_procs({name: procs[name] for name in self.to_new})
        return _NAME_REF.sub(
            lambda m: f"{m.group(1)} {self.to_new[m.group(2)]}", renamed
        )

    def base_point(self, point: str) -> str:
        """``proc:index`` in renamed names -> the same point in base names."""
        proc, _, index = point.rpartition(":")
        return f"{self.to_base.get(proc, proc)}:{index}"


def renaming(base: str, seed: int, salt: str) -> Renaming:
    """The seed's renaming of ``base``; ``salt`` separates programs."""
    rng = random.Random(f"{seed}:{salt}")
    names = list(split_procs(base))
    rng.shuffle(names)
    used = set()
    to_new: Dict[str, str] = {}
    for name in names:
        if name == "main":
            to_new[name] = name
            continue
        tag = f"{rng.randrange(16 ** 6):06x}"
        while tag in used:
            tag = f"{rng.randrange(16 ** 6):06x}"
        used.add(tag)
        to_new[name] = f"p{tag}_{name}"
    return Renaming(to_new, {new: old for old, new in to_new.items()})


@dataclass
class Input:
    """One program as the system under test sees it."""

    key: str  # base program name
    base: str  # base IR text
    renaming: Renaming
    text: str  # renamed IR text


def make_input(key: str, seed: int) -> Input:
    base = base_text(key)
    names = renaming(base, seed, key)
    return Input(key, base, names, names.text(base))


def evenly_spaced(names: List[str], count: int, offset: int = 0) -> List[str]:
    """``count`` names spread evenly over sorted ``names`` (wrapping)."""
    ordered = sorted(names)
    return [ordered[(i * len(ordered) // count + offset) % len(ordered)] for i in range(count)]


def edit_stream(inp: Input, count: int, seed: int) -> List[str]:
    """``count`` edit targets: a fixed, evenly spaced set of editable
    procedures — the same mix of small and large invalidation cones on
    every seed — in seeded order."""
    procs = evenly_spaced(editable_procs(inp.base), count)
    random.Random(f"{seed}:edits:{inp.key}").shuffle(procs)
    return procs


_SUMMARIES = re.compile(r": ok \((\d+) top-down summaries\)$")


@dataclass
class Verdict:
    """What one CLI verdict printed, in base procedure names."""

    errors: List[Tuple[str, str]]  # sorted (base point, site)
    td_summaries: Optional[int]  # printed only when the verdict is ok


def parse_verdict(lines: List[str], names: Renaming) -> Verdict:
    """Parse ``verify`` / ``analyze`` output lines."""
    errors = []
    summaries = None
    for line in lines:
        if line.startswith("  object from "):
            site, _, point = line[len("  object from "):].partition(
                " may be in the error state at "
            )
            errors.append((names.base_point(point), site))
        else:
            match = _SUMMARIES.search(line)
            if match:
                summaries = int(match.group(1))
    return Verdict(sorted(errors), summaries)
