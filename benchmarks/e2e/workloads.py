"""The four workloads, parent side: set-up, children, checks, raw numbers.

Each workload function returns a :class:`Outcome`: every timed request
(raw seconds), the set-up repetitions, peak child memory, calibration
samples, per-request layer reports when traced, and every verdict
mismatch found.  ``metrics.py`` turns an outcome into named metrics.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
import oracle
import programs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD = str(HERE / "child.py")

#: Set-up is repeated from scratch this many times; its median is reported.
SETUP_REPEATS = 5
#: Hard cap on one child's life beyond the run length (hung-child guard).
CHILD_GRACE_S = 120.0
#: A request running longer than this counts as failed.
REQUEST_LIMIT_S = 10.0

#: service-mix: open-loop rate and the share of the run it takes; the
#: closed loop gets the rest.
SERVICE_RATE = 2.0
OPEN_SHARE = 0.8
#: Seconds of open-loop load, and closed-loop requests, between two
#: drain-and-calibrate pauses.
SEGMENT_S = 2.0
CLOSED_SEGMENT = 12
#: Closed-loop requests scripted per second of closed loop: more than
#: two clients complete, so the loop ends on time, not on the script.
CLOSED_SCRIPT_RPS = 15.0
#: Requests per deck (see ``service_script``), and targets per batch demand.
DECK_SIZE = 40
BATCH_TARGETS = 8
#: Distinct one-procedure edits each service program cycles through.
SERVICE_EDIT_POOL = 3


@dataclass
class Outcome:
    workload: str
    requests: List[dict] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    calibration: calibrate.Calibration = field(default_factory=calibrate.Calibration)
    mismatches: List[str] = field(default_factory=list)
    layers: Dict[str, dict] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)

    def mismatch(self, message: str) -> None:
        self.mismatches.append(message)


class ChildError(RuntimeError):
    pass


# -- children ------------------------------------------------------------------------------
class Resident:
    """A resident child speaking the line protocol of ``child.py resident``."""

    def __init__(self, plan: dict, log_path: Path, limit_s: float) -> None:
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "resident"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            cwd=str(ROOT),
        )
        self._watchdog = threading.Timer(limit_s, self.proc.kill)
        self._watchdog.start()
        self.proc.stdin.write(json.dumps(plan) + "\n")
        self.proc.stdin.flush()

    def ask(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            tail = self.log_path.read_text()[-2000:]
            raise ChildError(f"child exited ({self.proc.returncode}): {tail}")
        return json.loads(line)

    def close(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_resident(plan: dict, log_path: Path, limit_s: float) -> Resident:
    """Spawn a resident child and wait until it has finished its set-up."""
    child = Resident(plan, log_path, limit_s)
    try:
        child.read()  # ready: interpreter up, repro imported
        child.read()  # set-up done
    except BaseException:
        child.close()
        raise
    return child


def _setups(out: Outcome, work: Path, seconds: float, make_plan) -> Resident:
    """Set up ``SETUP_REPEATS`` times from scratch, each time generating
    the inputs (``make_plan``) and starting a fresh child that builds its
    own resident state; the last child stays up for the timed phase."""
    out.calibration.take(1)
    child = None
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        started = time.perf_counter()
        plan = make_plan(rep, last)
        plan.update(work=str(work / f"rep{rep}"), setup_only=not last)
        child = start_resident(plan, work / f"rep{rep}.log", seconds + CHILD_GRACE_S)
        out.setups.append(time.perf_counter() - started)
        if not last:
            child.close()
        out.calibration.take(1)
    return child


# -- per-request workloads: cold-verify, numeric-loop --------------------------------------
CELL_WORKLOADS = {
    "cold-verify": (programs.COLD_VERIFY_PROGRAMS, ("swift", "td")),
    "numeric-loop": ((programs.LOOP_NEST[0],), ("td", "swift", "bu")),
}


def _check_cell(out: Outcome, refs: oracle.Oracle, inp, engine: str, result: dict) -> bool:
    """Check one verify verdict; returns whether the request succeeded."""
    code = result["code"]
    if code is None or code >= 2:
        return False
    verdict = programs.parse_verdict(result["lines"], inp.renaming)
    label = f"{inp.key}/{engine}"
    ref = refs.program(inp.key)
    if not refs.matches(engine, oracle.verdict_digests(verdict.errors), inp.key):
        out.mismatch(f"{label}: {len(verdict.errors)} error pair(s) disagree with top-down")
    if engine == "td" and verdict.td_summaries not in (None, ref["td_summaries"]):
        out.mismatch(f"{label}: {verdict.td_summaries} top-down summaries, expected {ref['td_summaries']}")
    if code != (1 if ref["errors"] else 0):
        out.mismatch(f"{label}: exit code {code}")
    return True


def run_cells(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    keys, engines = CELL_WORKLOADS[workload]
    domain = oracle.domain_of(keys[0])
    out = Outcome(workload)
    ref = oracle.Oracle()
    inputs = {}

    def make_plan(rep, last):
        inputs.update((key, programs.make_input(key, seed)) for key in keys)
        for key, inp in inputs.items():
            (work / f"{key}.ir").write_text(inp.text)
        return {"workload": "cells"}

    cells = [(key, engine) for key in keys for engine in engines]
    rng = random.Random(f"{seed}:{workload}")
    rid = 0
    with _setups(out, work, seconds, make_plan) as server:
        started = time.perf_counter()
        for round_ in itertools.count():
            # Whole rounds only, so every cell has as many samples; the
            # next round starts if it fits in the run at the mean pace.
            elapsed = time.perf_counter() - started
            if round_ >= (2 if trace else 1) and elapsed * (round_ + 1) / round_ > seconds:
                break
            order = list(enumerate(cells))
            rng.shuffle(order)
            for index, (key, engine) in order:
                # Traced runs record half the cells of each round, the
                # other half from one round to the next, so the untraced
                # samples of the same cells measure the overhead.
                traced = trace and (index + round_) % 2 == 1
                rid += 1
                argv = ["verify", str(work / f"{key}.ir"), "--engine", engine, "--domain", domain]
                spans = str(work / f"spans-{rid}.jsonl") if traced else None
                result = server.ask({"argv": argv, "spans": spans})
                if "error" in result:
                    raise ChildError(result["error"])
                ok = _check_cell(out, ref, inputs[key], engine, result)
                out.requests.append(
                    {
                        "id": rid,
                        "class": f"{key}/{engine}",
                        "seconds": result["seconds"],
                        "ok": ok and result["seconds"] <= REQUEST_LIMIT_S,
                        "traced": traced,
                    }
                )
                out.peak_rss_mb = max(out.peak_rss_mb, result["rss_mb"])
                if traced:
                    out.layers[str(rid)] = result["layers"]["1"]
                out.calibration.take(1)
    return out


# -- edit-loop -----------------------------------------------------------------------------
#: Procedures one pass of the edit loop edits (see ``programs.edit_stream``).
EDIT_POOL = 6


def run_edit_loop(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome("edit-loop")
    key = programs.EDIT_PROGRAM

    def make_plan(rep, last):
        inp = programs.make_input(key, seed)
        return {
            "workload": "edit-loop",
            "base": inp.base,
            "to_new": inp.renaming.to_new,
            "to_base": inp.renaming.to_base,
            "edits": programs.edit_stream(inp, EDIT_POOL, seed),
            "seconds": seconds,
            "trace": trace,
            "spans": str(work / "spans.jsonl"),
        }

    with _setups(out, work, seconds, make_plan) as child:
        result = child.read()
    out.peak_rss_mb = result["rss_mb"]
    out.calibration.samples += result["calibration"]
    out.layers = result.get("layers", {})
    ref = oracle.Oracle()
    previous = {}
    for request in result["requests"]:
        ok = request["code"] in (0, 1) and request["seconds"] <= REQUEST_LIMIT_S
        label = f"{request['kind']} {request['edit'] or 'base'} #{request['id']}"
        if ok:
            if not ref.matches("swift", request["digests"], key, request["edit"]):
                out.mismatch(f"{label}: verdict disagrees with top-down")
            if not request["warm"]:
                out.mismatch(f"{label}: store went cold")
            if request["kind"] == "rerun":
                if request["work"] != 0:
                    out.mismatch(f"{label}: unchanged re-run did work={request['work']}")
                if request["digests"] != previous.get("digests"):
                    out.mismatch(f"{label}: re-run verdict changed")
        previous = request
        out.requests.append(
            {
                "id": request["id"],
                "class": request["kind"],
                "seconds": request["seconds"],
                "ok": ok,
                "traced": request["traced"],
            }
        )
    return out


# -- service-mix ---------------------------------------------------------------------------
def service_script(
    inputs: Dict[str, programs.Input], count: int, segment: int, phase: str
) -> List[dict]:
    """The first ``count`` requests of the service-mix script.

    The script is a run of decks of ``DECK_SIZE`` requests.  Per
    program, one deck holds 14 single-target demands, 2 demands of
    8 targets, 3 analyzes and 1 edit (the 70/10/15/5 mix), with targets
    spread evenly over the program's procedures, in one fixed shuffled
    order: the seed renames the programs the script runs against, but
    under an open loop the order decides who queues behind whom, and a
    seeded order moved the median by up to a fifth between seeds.  Each
    edit is the last request of a load segment (``segment`` requests),
    so the load drains before anything asks about the new version and
    no demand races the edit that populates its store shard.
    """
    specs = []
    for deck in range(-(-count // DECK_SIZE)):
        for key in sorted(inputs):
            procs = list(programs.split_procs(inputs[key].base))
            singles = programs.evenly_spaced(procs, 14, offset=deck)
            batched = programs.evenly_spaced(procs, 2 * BATCH_TARGETS, offset=deck + 1)
            specs += [{"op": "demand", "key": key, "target": t} for t in singles]
            specs += [
                {"op": "demand", "key": key, "targets": batched[i::2]} for i in range(2)
            ]
            specs += [{"op": "analyze", "key": key} for _ in range(3)]
            specs.append({"op": "edit", "key": key})
    rng = random.Random(f"service-mix:{phase}")
    edits = [spec for spec in specs if spec["op"] == "edit"]
    rest = [spec for spec in specs if spec["op"] != "edit"]
    rng.shuffle(edits)
    rng.shuffle(rest)
    segments = -(-len(specs) // segment)
    slots = {
        min(len(specs), (int((k + 0.5) * segments / len(edits)) + 1) * segment) - 1: edit
        for k, edit in enumerate(edits)
    }
    rest.reverse()
    return [slots[i] if i in slots else rest.pop() for i in range(len(specs))][:count]


def assign_versions(inputs: Dict[str, programs.Input], specs: List[dict]) -> None:
    """Give every request the program version current when it is sent:
    each edit moves its program to the next procedure of a fixed pool."""
    pools = {
        key: programs.evenly_spaced(programs.editable_procs(inp.base), SERVICE_EDIT_POOL)
        for key, inp in inputs.items()
    }
    edits = {key: 0 for key in inputs}
    current = {key: None for key in inputs}
    for spec in specs:
        key = spec["key"]
        if spec["op"] == "edit":
            current[key] = pools[key][edits[key] % SERVICE_EDIT_POOL]
            edits[key] += 1
        spec["edit"] = current[key]


def run_service_mix(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome("service-mix")
    open_segment = max(1, round(SEGMENT_S * SERVICE_RATE))
    closed_segment = CLOSED_SEGMENT
    closed_s = seconds * (1 - OPEN_SHARE)
    n_open = max(open_segment, round(seconds * OPEN_SHARE * SERVICE_RATE))
    n_closed = max(closed_segment, round(closed_s * CLOSED_SCRIPT_RPS))
    inputs: Dict[str, programs.Input] = {}

    def make_plan(rep, last):
        inputs.update(
            (key, programs.make_input(key, seed)) for key in programs.SERVICE_PROGRAMS
        )
        opened = service_script(inputs, n_open, open_segment, "open") if last else []
        closed = service_script(inputs, n_closed, closed_segment, "closed") if last else []
        assign_versions(inputs, opened + closed)
        return {
            "workload": "service-mix",
            "programs": {
                key: {
                    "base": inp.base,
                    "to_new": inp.renaming.to_new,
                    "to_base": inp.renaming.to_base,
                }
                for key, inp in inputs.items()
            },
            "open": opened,
            "closed": closed,
            "interval": 1.0 / SERVICE_RATE,
            "open_segment": open_segment,
            "closed_segment": closed_segment,
            "closed_s": closed_s,
            "trace": trace,
            "spans": str(work / "spans.jsonl"),
        }

    with _setups(out, work, seconds, make_plan) as child:
        result = child.read()
    out.peak_rss_mb = result["rss_mb"]
    out.calibration.samples += result["calibration"]
    out.layers = result.get("layers", {})
    out.extra["service_stats"] = result["service_stats"]
    out.extra["closed_segments"] = result["closed_segments"]
    ref = oracle.Oracle()
    for request in result["requests"]:
        key, edit = request["key"], request["edit"]
        label = f"{request['op']} #{request['id']} {key}/{edit}"
        verdict = request.get("verdict")
        if request["ok"] and request["op"] in ("analyze", "edit"):
            if not ref.matches("swift", verdict["digests"], key, edit):
                out.mismatch(f"{label}: verdict disagrees with top-down")
        elif request["ok"]:
            errors = ref.errors(inputs[key], edit)
            for target, answer in verdict["answers"].items():
                expected = [e for e in errors if e[0].rpartition(":")[0] == target]
                if [tuple(e) for e in answer] != expected:
                    out.mismatch(f"{label}: demand answer at {target} differs from top-down")
            if verdict["out_of_cone_rows"]:
                out.mismatch(f"{label}: {verdict['out_of_cone_rows']} out-of-cone interior rows")
        out.requests.append(
            {
                "id": request["id"],
                "class": "batch" if request["batch"] else request["op"],
                "phase": request["phase"],
                "start": request["start"],
                "sent": request["sent"],
                "done": request["done"],
                "seconds": (request["done"] - request["start"]) if request["ok"] else None,
                "ok": request["ok"],
                "error": request["error"],
                "traced": request["traced"],
            }
        )
    return out


RUNNERS = {
    "cold-verify": lambda seed, seconds, trace, work: run_cells(
        "cold-verify", seed, seconds, trace, work
    ),
    "numeric-loop": lambda seed, seconds, trace, work: run_cells(
        "numeric-loop", seed, seconds, trace, work
    ),
    "edit-loop": run_edit_loop,
    "service-mix": run_service_mix,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out = RUNNERS[name](seed, seconds, trace, work)
    out.calibration.top_up()
    return out
