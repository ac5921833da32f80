"""Named metrics from a workload outcome.

Every time is host-normalized: multiplied by the run's calibration
factor (see ``calibrate.py``); the raw value rides along in the detailed
report.  A failed request counts as an infinitely slow one in every
latency percentile, and as taking the request limit in a mean.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from workloads import REQUEST_LIMIT_S, Outcome

INF = float("inf")


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    low = int(math.floor(pos))
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == INF:
        return INF if pos > low or ordered[low] == INF else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _select(requests, cls=None, phase=None) -> List[dict]:
    return [
        r
        for r in requests
        if (cls is None or r["class"] == cls) and (phase is None or r.get("phase") == phase)
    ]


def _latencies(requests, scale: float) -> List[float]:
    return [r["seconds"] * scale if r["ok"] else INF for r in requests]


def _p(requests, scale: float, q: float) -> float:
    """Percentile ``q`` of ``requests`` in ms."""
    return quantile(_latencies(requests, scale), q) * 1000.0


def _headline_requests(out: Outcome, timed: List[dict]) -> List[dict]:
    """The requests ``latency_ms`` summarizes: every verify request, the
    edits of the edit loop, the open loop of the service mix."""
    if out.workload == "edit-loop":
        return _select(timed, cls="edit")
    if out.workload == "service-mix":
        return _select(timed, phase="open")
    return timed


# -- end to end ----------------------------------------------------------------------------
def _headline(out: Outcome, scale: float) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric, times multiplied by ``scale``.

    ``latency_ms`` is the geometric mean of the workload's times to a
    verdict.  Across runs it spreads less than the median on the
    service mix, whose median falls between request classes of
    different cost.  The percentiles beside it are reported, not bounded.
    """
    timed = [r for r in out.requests if not r.get("traced")]
    headline = _headline_requests(out, timed)
    values: Dict[str, Tuple[float, str]] = {
        "latency_ms": (
            geomean([(r["seconds"] if r["ok"] else REQUEST_LIMIT_S) for r in headline])
            * scale
            * 1000.0,
            "ms",
        ),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(out.setups) * scale, "s"),
    }
    if out.workload in ("cold-verify", "numeric-loop"):
        for cell in sorted({r["class"] for r in timed}):
            values[f"cell.{cell}_p50_ms"] = (_p(_select(timed, cls=cell), scale, 0.5), "ms")
    elif out.workload == "edit-loop":
        edits = _select(timed, cls="edit")
        values["edit_p50_ms"] = (_p(edits, scale, 0.5), "ms")
        values["edit_p80_ms"] = (_p(edits, scale, 0.8), "ms")
        values["rerun_p50_ms"] = (_p(_select(timed, cls="rerun"), scale, 0.5), "ms")
    else:
        opened = _select(timed, phase="open")
        values["service_p50_ms"] = (_p(opened, scale, 0.5), "ms")
        values["service_p90_ms"] = (_p(opened, scale, 0.9), "ms")
        values["demand_p50_ms"] = (_p(_select(opened, cls="demand"), scale, 0.5), "ms")
        segments = out.extra["closed_segments"]
        busy = sum(end - start for start, end, _ in segments) * scale
        values["service_rps"] = (sum(n for _, _, n in segments) / busy, "1/s")
    return values


def end_to_end(out: Outcome) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """(metrics, details): each metric as (host-normalized value, unit)."""
    cal = out.calibration
    metrics = _headline(out, cal.factor)
    raw = _headline(out, 1.0)
    timed = [r for r in out.requests if not r.get("traced")]
    details: dict = {
        "requests": len(timed),
        "headline_requests": len(_headline_requests(out, timed)),
        "failed": sum(1 for r in timed if not r["ok"]),
        "mismatches": len(out.mismatches),
        "cal_samples": len(cal.samples),
        "cal_median_s": cal.median,
        "cal_factor": cal.factor,
        "raw": {name: value for name, (value, _) in raw.items()},
    }
    if out.workload == "service-mix":
        late = [r["sent"] - r["start"] for r in _select(timed, phase="open")]
        details["generator_late_p50_ms"] = quantile(late, 0.5) * 1000.0
        details["generator_late_max_ms"] = max(late) * 1000.0
    return metrics, details


# -- per layer -----------------------------------------------------------------------------
#: Layer self-time metrics and the layer of ``trace.LAYERS`` each reads.
LAYER_TIMES = {
    "cli.self_pct": "cli.self",
    "ir.parse_pct": "ir.parse",
    "callgraph_pct": "callgraph",
    "alias_pct": "alias",
    "framework.domain_build_pct": "framework.domain_build",
    "framework.td_pct": "framework.td",
    "framework.bu_pct": "framework.bu",
    "framework.prune_pct": "framework.prune",
    "incremental.driver_pct": "incremental.driver",
    "incremental.fingerprint_pct": "incremental.fingerprint",
    "incremental.load_pct": "incremental.load",
    "incremental.decode_pct": "incremental.decode",
    "incremental.invalidate_pct": "incremental.invalidate",
    "incremental.encode_pct": "incremental.encode",
    "incremental.save_pct": "incremental.save",
    "query.cone_pct": "query.cone",
    "query.self_pct": "query.self",
    "service.queue_wait_pct": "service.queue_wait",
    "service.handle_pct": "service.handle",
    "service.serialize_pct": "service.serialize",
}
#: Counters, reported as means per traced request.
LAYER_COUNTS = {
    "framework.work": "count",
    "framework.bu_triggers": "count",
    "framework.pruned_relations": "count",
    "incremental.bytes_written": "B",
    "incremental.store_hits": "count",
    "incremental.invalidated_procs": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(out: Outcome) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """(metrics, details) of a traced run.

    A layer's time is its self time as a share of the traced requests'
    wall time, so a layer a workload never enters reads 0%, not a
    constant 0 ms; ``trace.request_ms`` (host-normalized mean wall per
    traced request) turns shares back into milliseconds, and the
    details carry each layer's p50 and total self milliseconds.
    Counters are means per traced request.
    """
    factor = out.calibration.factor
    traced = [r for r in out.requests if r.get("traced") and r["ok"]]
    n = max(1, len(traced))
    self_ms: Dict[str, float] = defaultdict(float)
    per_request: Dict[str, List[float]] = defaultdict(list)
    counters: Dict[str, float] = defaultdict(float)
    wall = 0.0
    for request in traced:
        report = out.layers.get(str(request["id"]), {})
        scale = factor * 1000.0
        layer_self = {layer: s * scale for layer, s in report.get("self", {}).items()}
        if request.get("sent") is not None and report.get("start") is not None:
            # Service: from the request line written to a worker picking it up.
            layer_self["service.queue_wait"] = max(0.0, report["start"] - request["sent"]) * scale
        for layer, ms in layer_self.items():
            self_ms[layer] += ms
        for layer in LAYER_TIMES.values():
            per_request[layer].append(layer_self.get(layer, 0.0))
        for name, value in report.get("counters", {}).items():
            counters[name] += value
        wall += request["seconds"] * scale
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, layer in LAYER_TIMES.items():
        metrics[name] = (100.0 * _ratio(self_ms[layer], wall), "%")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (counters[name] / n, unit)
    solve_ms = sum(self_ms[l] for l in ("framework.td", "framework.bu", "framework.prune"))
    metrics["framework.us_per_work"] = (_ratio(solve_ms * 1000.0, counters["framework.work"]), "us")
    metrics["framework.cache_hit_ratio"] = (
        _ratio(counters["framework.cache_hits"], counters["framework.cache_lookups"]),
        "ratio",
    )
    metrics["query.cone_size"] = (
        _ratio(counters["query.cone_size"], counters["query.cones"]),
        "count",
    )
    metrics["query.frontier_hit_ratio"] = (
        _ratio(counters["query.frontier_hits"], counters["query.solves"]),
        "ratio",
    )
    metrics["query.solves_per_batch"] = (
        _ratio(counters["query.batch_solves"], counters["query.batches"]),
        "count",
    )
    stats = out.extra.get("service_stats", {})
    warm = stats.get("warm_cache", {})
    metrics["service.coalesced_ratio"] = (
        _ratio(stats.get("coalesced", 0) + stats.get("demand_coalesced", 0), stats.get("requests", 0)),
        "ratio",
    )
    metrics["service.warm_cache_hit_ratio"] = (
        _ratio(warm.get("hits", 0), warm.get("hits", 0) + warm.get("misses", 0)),
        "ratio",
    )
    metrics["service.warm_cache_evictions"] = (float(warm.get("evictions", 0)), "count")
    metrics["trace.request_ms"] = (wall / n, "ms")
    metrics["trace.unattributed_pct"] = (
        100.0 * _ratio(wall - sum(self_ms.values()), wall),
        "%",
    )
    metrics["trace.overhead_pct"] = (_overhead_pct(out), "%")
    details = {
        "traced_requests": len(traced),
        "layer_total_ms": dict(sorted(self_ms.items())),
        "layer_p50_ms": {
            name: statistics.median(values) for name, values in per_request.items() if values
        },
        "out_of_cone_rows": counters["query.out_of_cone_rows"],
    }
    return metrics, details


def _overhead_pct(out: Outcome) -> float:
    """Traced vs untraced time on requests of the same class (geomean of
    per-class median ratios)."""
    ratios = []
    by_class: Dict[Tuple[str, bool], List[float]] = defaultdict(list)
    for r in out.requests:
        if r["ok"]:
            by_class[(r["class"], bool(r.get("traced")))].append(r["seconds"])
    for (cls, traced), values in by_class.items():
        if traced and by_class.get((cls, False)):
            ratios.append(statistics.median(values) / statistics.median(by_class[(cls, False)]))
    return (geomean(ratios) - 1.0) * 100.0 if ratios else 0.0
