"""Code that runs inside a workload's child interpreter.

``run.py`` spawns it; it is not meant to be run by hand::

    python3 child.py resident < plan [requests]

The plan (first stdin line) names the workload: ``edit-loop`` and
``service-mix`` run their whole timed phase in this process; the
per-request workloads fork one child per request line that follows.
Every child imports all of ``repro`` before it reports ready, so the
timed regions exclude imports while interned-state and decode memos
still start empty.  Requests go through the real user surfaces:
``repro.cli.main(argv)`` with stdout captured, and (``servicemix.py``)
the stdio daemon front end.  The last line a child prints is its JSON
result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import programs  # noqa: E402
from trace import Tracer  # noqa: E402


def import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux units).

    A forked child starts from the resident size it inherits, so for a
    cold request this is the peak of the process that served it.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv):
    """One ``repro-swift`` request in-process: (seconds, exit code, lines).

    A raised exception is reported as exit code ``None`` with the
    error as the only line.
    """
    from repro import cli

    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a failed request, not a failed benchmark
        return time.perf_counter() - started, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - started, code, out.getvalue().splitlines()


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def layer_report(tracer: Tracer) -> dict:
    """Per-request layer self seconds, counters and pick-up times."""
    selfs = tracer.self_times()
    counters = tracer.counter_totals()
    starts = tracer.first_start()
    rids = sorted(set(selfs) | set(counters), key=str)
    return {
        str(rid): {
            "self": dict(selfs.get(rid, {})),
            "counters": dict(counters.get(rid, {})),
            "start": starts.get(rid),
        }
        for rid in rids
        if rid is not None
    }


# -- cold requests: one fork of a pre-imported interpreter per request ---------------------
def _cold_request(request: dict) -> None:
    tracer = None
    if request.get("spans"):
        tracer = Tracer()
        tracer.install()
    with tracer.request(1) if tracer else contextlib.nullcontext():
        seconds, code, lines = run_cli(request["argv"])
    result = {"seconds": seconds, "code": code, "lines": lines, "rss_mb": peak_rss_mb()}
    if tracer:
        result["layers"] = layer_report(tracer)
        tracer.dump(request["spans"])
    emit(result)


def serve_cold_requests() -> int:
    """Fork one child per request line; the child runs it and exits.

    Each child starts from an interpreter that has imported ``repro``
    and done nothing else, so every module-level memo is empty, as in a
    fresh ``repro-swift`` process, without paying interpreter start-up
    per sample.  This process never starts a thread, which keeps
    ``fork`` safe.
    """
    if threading.active_count() != 1:
        raise RuntimeError("cannot fork cold requests from a threaded process")
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            try:
                _cold_request(request)
            except BaseException as exc:
                emit({"error": f"{type(exc).__name__}: {exc}"})
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
    return 0


# -- edit-loop: one resident `analyze --store` watch loop ------------------------------
class EditLoop:
    """Populate a store for one program, then alternate edit / re-run."""

    def __init__(self, plan: dict, tracer) -> None:
        self.plan = plan
        self.tracer = tracer
        self.work = Path(plan["work"])
        self.work.mkdir(parents=True, exist_ok=True)
        self.path = str(self.work / "program.ir")
        self.store = str(self.work / "store")
        self.names = programs.Renaming(plan["to_new"], plan["to_base"])

    def _analyze(self, rid):
        argv = ["analyze", self.path, "--store", self.store]
        with self.tracer.request(rid) if self.tracer else contextlib.nullcontext():
            return run_cli(argv)

    def setup(self) -> None:
        Path(self.path).write_text(self.names.text(self.plan["base"]))
        _, code, lines = self._analyze(0)
        if code not in (0, 1) or "cold start" not in lines[0]:
            raise RuntimeError(f"store population failed: {lines[:3]}")

    def _record(self, kind, proc, rid, seconds, code, lines) -> dict:
        verdict = programs.parse_verdict(lines, self.names)
        header = lines[0] if lines else ""
        work = None
        if " work=" in header:
            work = int(header.rsplit(" work=", 1)[1])
        return {
            "kind": kind,
            "edit": proc,
            "id": rid,
            "seconds": seconds,
            "code": code,
            "warm": "warm start" in header,
            "work": work,
            "digests": oracle.verdict_digests(verdict.errors),
            "error": None if code is not None else lines[0],
        }

    def measure(self, cal: calibrate.Calibration) -> list:
        """Passes over the planned procedures until the run is over; per
        procedure: edit it, re-run unchanged, revert it.

        Both the edit and the revert change exactly that one procedure
        against the stored snapshot, so their cost depends on it alone,
        not on the order the seed chose.  Whole passes only, so every
        run edits the same procedures equally often.  A calibration
        sample separates every two requests.
        """
        base = self.plan["base"]
        edits = self.plan["edits"]
        records = []
        cal.take(1)
        started = time.perf_counter()
        least = 2 if self.tracer else 1  # traced runs trace half of each pass
        for i in itertools.count():
            # The next pass starts if it fits in the run at the mean pace.
            passes = i // len(edits)
            if i % len(edits) == 0 and passes >= least:
                if (time.perf_counter() - started) * (passes + 1) / passes > self.plan["seconds"]:
                    break
            proc = edits[i % len(edits)]
            steps = (
                ("edit", proc, programs.apply_edit(base, proc)),
                ("rerun", proc, None),
                ("edit", None, base),
            )
            for j, (kind, version, text) in enumerate(steps):
                if text is not None:
                    Path(self.path).write_text(self.names.text(text))
                rid = 3 * i + j + 1
                seconds, code, lines = self._analyze(rid)
                records.append(self._record(kind, version, rid, seconds, code, lines))
                cal.take(1)
        return records

    def close(self) -> dict:
        return {}


def resident_main() -> int:
    plan = json.loads(sys.stdin.readline())
    import_all()
    emit({"ready": True})
    tracer = None
    if plan.get("trace"):
        # Half the timed requests record spans; the other half measure
        # the same kinds of request through idle wrappers (overhead):
        # in the edit loop, every other procedure's triple, the other
        # half on the next pass, so both halves edit the same procedures
        # early and late; two of every four service requests.
        if plan["workload"] == "edit-loop":
            pool = len(plan["edits"])

            def traced_triple(rid: int) -> bool:
                triple = (rid - 1) // 3
                return rid > 0 and (triple % pool + triple // pool) % 2 == 1

            tracer = Tracer(record=traced_triple)
        else:
            tracer = Tracer(record=lambda rid: isinstance(rid, int) and rid > 0 and rid % 4 in (1, 2))
        tracer.install()
    if plan["workload"] == "edit-loop":
        runner = EditLoop(plan, tracer)
    elif plan["workload"] == "service-mix":
        from servicemix import ServiceMix

        runner = ServiceMix(plan)
    else:  # cells: set-up is interpreter start + imports only
        emit({"setup": "done"})
        return serve_cold_requests()
    runner.setup()
    emit({"setup": "done"})
    if plan.get("setup_only"):
        runner.close()
        return 0
    cal = calibrate.Calibration()
    requests = runner.measure(cal)
    for request in requests:
        request["traced"] = bool(tracer) and tracer.record(request["id"])
    peak = peak_rss_mb()
    extra = runner.close()
    result = {"requests": requests, "rss_mb": peak, "calibration": cal.samples}
    result.update(extra or {})
    if tracer:
        result["layers"] = layer_report(tracer)
        tracer.dump(plan["spans"])
    emit(result)
    return 0


def main(argv) -> int:
    if argv and argv[0] == "resident":
        return resident_main()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
