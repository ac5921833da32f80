"""The service-mix workload, run inside its child interpreter.

One :class:`repro.service.daemon.AnalysisService` behind the real stdio
front end (:class:`repro.service.stdio.StdioFrontend`, two worker
threads — this host's core count), fed over in-memory line pipes.  The
plan names every request in advance; each carries the program version
it targets, so the stream is fixed by the seed while two closed-loop
clients still interleave freely.

* **Open loop** — requests are due at fixed intervals whether or not
  earlier ones have answered (independent users).  Latency runs from
  the due time, so a stall also charges the requests queued behind it;
  how late the generator itself ran is reported beside it.
* **Closed loop** — two clients, each sending its next request only
  after the previous answer (callers that wait); completions per
  second is the throughput.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import oracle
import programs
from workloads import REQUEST_LIMIT_S

#: Worker threads of the daemon's front end.
WORKERS = 2
#: Calibration samples taken between two load segments.
CAL_BURST = 2


class LinePipe:
    """An in-memory text pipe: ``write`` lines in, iterate lines out."""

    _CLOSED = object()

    def __init__(self) -> None:
        self._lines: "queue.Queue" = queue.Queue()

    def write(self, text: str) -> None:
        self._lines.put(text)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self._lines.put(self._CLOSED)

    def __iter__(self):
        while True:
            line = self._lines.get()
            if line is self._CLOSED:
                return
            yield line


class _Pending:
    __slots__ = ("done", "response", "received")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.response: Optional[dict] = None
        self.received = 0.0


class ServiceMix:
    def __init__(self, plan: dict) -> None:
        from repro.service.daemon import AnalysisService
        from repro.service.stdio import StdioFrontend

        self.plan = plan
        self.names: Dict[str, programs.Renaming] = {
            key: programs.Renaming(p["to_new"], p["to_base"])
            for key, p in plan["programs"].items()
        }
        self._texts: Dict[Tuple[str, Optional[str]], str] = {}
        self.service = AnalysisService(Path(plan["work"]) / "service")
        self._to_daemon = LinePipe()
        self._from_daemon = LinePipe()
        self.frontend = StdioFrontend(
            self.service, self._to_daemon, self._from_daemon, max_workers=WORKERS
        )
        self._pending: Dict[int, _Pending] = {}
        self.closed_segments: list = []
        self._lock = threading.Lock()
        self._serving = threading.Thread(target=self.frontend.serve, daemon=True)
        self._reading = threading.Thread(target=self._read, daemon=True)
        self._serving.start()
        self._reading.start()

    # -- transport --------------------------------------------------------------------------
    def _read(self) -> None:
        for line in self._from_daemon:
            received = time.perf_counter()
            response = json.loads(line)
            with self._lock:
                pending = self._pending.pop(response.get("id"), None)
            if pending is not None:
                pending.response = response
                pending.received = received
                pending.done.set()

    def _send(self, request: dict) -> _Pending:
        pending = _Pending()
        with self._lock:
            self._pending[request["id"]] = pending
        self._to_daemon.write(json.dumps(request) + "\n")
        return pending

    def _call(self, request: dict) -> dict:
        pending = self._send(request)
        if not pending.done.wait(REQUEST_LIMIT_S * 6):
            raise RuntimeError(f"no answer to {request['op']} {request['id']}")
        return pending.response

    # -- requests ---------------------------------------------------------------------------
    def _text(self, key: str, edit: Optional[str]) -> str:
        memo = (key, edit)
        if memo not in self._texts:
            base = self.plan["programs"][key]["base"]
            self._texts[memo] = self.names[key].text(programs.apply_edit(base, edit))
        return self._texts[memo]

    def _wire(self, spec: dict, rid: int) -> dict:
        request = {
            "id": rid,
            "op": spec["op"],
            "program": self._text(spec["key"], spec["edit"]),
            "format": "ir",
        }
        to_new = self.names[spec["key"]].to_new
        if "targets" in spec:
            request["targets"] = [to_new[t] for t in spec["targets"]]
        elif "target" in spec:
            request["target"] = to_new[spec["target"]]
        return request

    def setup(self) -> None:
        for rid, key in enumerate(self.plan["programs"], start=-len(self.plan["programs"])):
            response = self._call(self._wire({"op": "analyze", "key": key, "edit": None}, rid))
            if not response.get("ok") or not response.get("cold"):
                raise RuntimeError(f"populating {key} failed: {response.get('error')}")

    def _verdict(self, spec: dict, response: dict) -> dict:
        """The compact, base-named verdict the parent checks."""
        names = self.names[spec["key"]]

        def base(pairs):
            return sorted((names.base_point(point), site) for point, site in pairs)

        if spec["op"] in ("analyze", "edit"):
            return {"digests": oracle.verdict_digests(base(response["errors"]))}
        # Out-of-cone rows must be 0 on a warm store only: a demand that
        # overtakes the edit populating its version's shard solves cold.
        if "targets" in spec:
            answers = {
                names.to_base[target]: base(pairs)
                for target, pairs in response["answers"].items()
            }
            warm_rows = sum(
                c["out_of_cone_interior_rows"] for c in response["components"] if not c["cold"]
            )
        else:
            answers = {names.to_base[response["target"]]: base(response["answer"])}
            warm_rows = 0 if response["cold"] else response["out_of_cone_interior_rows"]
        return {"answers": answers, "out_of_cone_rows": warm_rows}

    def _record(self, spec, rid, phase, start, sent, pending) -> dict:
        record = {
            "id": rid,
            "phase": phase,
            "op": spec["op"],
            "batch": "targets" in spec,
            "key": spec["key"],
            "edit": spec["edit"],
            "start": start,
            "sent": sent,
            "done": None,
            "ok": False,
            "error": None,
        }
        if not pending.done.wait(REQUEST_LIMIT_S):
            record["error"] = "no answer within the request limit"
            return record
        response = pending.response
        record["done"] = pending.received
        if not response.get("ok"):
            record["error"] = response.get("error", "ok:false")
            return record
        record["ok"] = pending.received - start <= REQUEST_LIMIT_S
        if not record["ok"]:
            record["error"] = "slower than the request limit"
        record["verdict"] = self._verdict(spec, response)
        return record

    # -- phases -----------------------------------------------------------------------------
    # Both loops run in segments of a few seconds' load.  Between
    # segments the load pauses, the queue drains and calibration samples
    # are taken.

    def _open_loop(self, specs, interval: float, per_segment: int, first_id: int, cal) -> list:
        """Send each request at its due time; collect answers per segment."""
        records = []
        for first in range(0, len(specs), per_segment):
            started = time.perf_counter()
            sent = []
            for i, spec in enumerate(specs[first:first + per_segment]):
                due = started + i * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                rid = first_id + first + i
                pending = self._send(self._wire(spec, rid))
                sent.append((spec, rid, due, time.perf_counter(), pending))
            records += [
                self._record(spec, rid, "open", due, at, pending)
                for spec, rid, due, at, pending in sent
            ]
            cal.take(CAL_BURST)
        return records

    def _closed_loop(self, specs, per_segment: int, seconds: float, first_id: int, cal):
        """``WORKERS`` clients, each waiting for its answer before the next,
        for whole segments of the script while they fit in ``seconds``.

        Returns the records and, per segment, ``[start, end, completed]``.
        """
        records = []
        segments = []
        busy = 0.0
        for first in range(0, len(specs), per_segment):
            if segments and busy * (len(segments) + 1) / len(segments) > seconds:
                break
            cursor = iter(range(first, min(first + per_segment, len(specs))))
            take = threading.Lock()

            def client():
                while True:
                    with take:
                        i = next(cursor, None)
                    if i is None:
                        return
                    sent = time.perf_counter()
                    pending = self._send(self._wire(specs[i], first_id + i))
                    records.append(
                        self._record(specs[i], first_id + i, "closed", sent, sent, pending)
                    )

            started = time.perf_counter()
            before = len(records)
            clients = [threading.Thread(target=client) for _ in range(WORKERS)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            completed = sum(1 for r in records[before:] if r["ok"])
            segments.append([started, time.perf_counter(), completed])
            busy += segments[-1][1] - started
            cal.take(CAL_BURST)
        return records, segments

    def measure(self, cal) -> list:
        plan = self.plan
        for spec in plan["open"] + plan["closed"]:
            self._text(spec["key"], spec["edit"])  # version texts, untimed
        cal.take(CAL_BURST)
        records = self._open_loop(
            plan["open"], plan["interval"], plan["open_segment"], 1, cal
        )
        closed, self.closed_segments = self._closed_loop(
            plan["closed"], plan["closed_segment"], plan["closed_s"], 1 + len(plan["open"]), cal
        )
        return records + closed

    def close(self) -> dict:
        stats = self._call({"id": 0, "op": "stats"})
        self._call({"id": -100, "op": "shutdown"})
        self._serving.join(REQUEST_LIMIT_S)
        self._from_daemon.close()
        self._reading.join(REQUEST_LIMIT_S)
        return {"service_stats": stats, "closed_segments": self.closed_segments}
