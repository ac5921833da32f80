"""HTTP client for the analysis service (stdlib only).

:class:`ServiceClient` speaks the newline-delimited-JSON protocol of
:mod:`repro.service.http`: every call POSTs one request to ``/rpc``
and reads lines until the final response object; intermediate
``{"trace": {...}}`` lines are handed to the ``on_trace`` callback as
they arrive.  The benchmark's load generator and ``repro-swift
client`` are both thin layers over this class.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Optional, Sequence


class ServiceError(RuntimeError):
    """The service answered ``ok: false`` (the message is its error)."""


class ServiceClient:
    def __init__(self, base_url: str, timeout: float = 120.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ----------------------------------------------------------------------
    def request(
        self,
        payload: dict,
        on_trace: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """POST one request; returns the response dict (may be an error)."""
        data = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            f"{self.base_url}/rpc",
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        response = None
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            for raw in resp:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                parsed = json.loads(line)
                if "trace" in parsed and "ok" not in parsed:
                    if on_trace is not None:
                        on_trace(parsed["trace"])
                    continue
                response = parsed
        if response is None:
            raise ServiceError("service closed the stream without a response")
        return response

    def call(self, payload: dict, **kwargs) -> dict:
        """Like :meth:`request` but raises :class:`ServiceError` on failure."""
        response = self.request(payload, **kwargs)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown service error"))
        return response

    # -- readiness ----------------------------------------------------------------------
    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> bool:
        """Poll ``/healthz`` until the daemon answers (or time runs out)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    f"{self.base_url}/healthz", timeout=1.0
                ) as resp:
                    if resp.status == 200:
                        return True
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(interval)
        return False

    # -- operations ---------------------------------------------------------------------
    def analyze(
        self,
        program: str,
        fmt: Optional[str] = None,
        prop: str = "File",
        config: Optional[dict] = None,
        trace: bool = False,
        op: str = "analyze",
        request_id=None,
        on_trace=None,
    ) -> dict:
        payload = {
            "op": op,
            "program": program,
            "property": prop,
            "trace": trace,
        }
        if fmt is not None:
            payload["format"] = fmt
        if config is not None:
            payload["config"] = config
        if request_id is not None:
            payload["id"] = request_id
        return self.call(payload, on_trace=on_trace)

    def edit(self, program: str, **kwargs) -> dict:
        return self.analyze(program, op="edit", **kwargs)

    def query(
        self,
        program: str,
        fmt: Optional[str] = None,
        prop: str = "File",
        config: Optional[dict] = None,
    ) -> dict:
        """Metadata only: what the service knows about (program, config)."""
        payload = {"op": "query", "program": program, "property": prop}
        if fmt is not None:
            payload["format"] = fmt
        if config is not None:
            payload["config"] = config
        return self.call(payload)

    def demand(
        self,
        program: str,
        target=None,
        kind: str = "errors",
        fmt: Optional[str] = None,
        prop: str = "File",
        config: Optional[dict] = None,
        targets: Optional[Sequence[str]] = None,
        precision: str = "td",
    ) -> dict:
        """Run a demand query: analyze only the target cone(s).

        ``target`` is a procedure name or ``"proc:index"`` point;
        ``targets`` (a list of such strings) runs the batch planner
        instead — one solve per connected cone-union component, the
        response keyed per target.  ``kind`` is ``errors`` |
        ``summaries`` | ``entries``; ``precision`` is ``td`` |
        ``swift``.  Distinct from :meth:`query`, which never analyzes
        anything.
        """
        if (target is None) == (targets is None):
            raise ValueError("demand needs exactly one of target/targets")
        payload = {
            "op": "demand",
            "program": program,
            "property": prop,
            "kind": kind,
        }
        if target is not None:
            payload["target"] = target
        else:
            payload["targets"] = list(targets)
        if precision != "td":
            payload["precision"] = precision
        if fmt is not None:
            payload["format"] = fmt
        if config is not None:
            payload["config"] = config
        return self.call(payload)

    def stats(self) -> dict:
        return self.call({"op": "stats"})

    def shutdown(self) -> dict:
        return self.call({"op": "shutdown"})
