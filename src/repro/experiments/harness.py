"""Shared experiment machinery: engine runs, budgets, table formatting.

Budget calibration
------------------
The paper declares a configuration failed ("timeout") after 24 hours or
16 GB on a 3 GHz / 16 GB machine.  This reproduction substitutes a
deterministic *work budget* (transfer-function applications plus
relation compositions plus tabulation propagations, see
:class:`repro.framework.metrics.Metrics`).  The default of 400k work
units plays the role of the paper's 24-hour limit at our ~1/10 scale:
the conventional top-down analysis exceeds it on the three largest
benchmarks (avrora 1050k, rhino-a 542k, sablecc-j 910k, vs. 335k for
the largest finisher lusearch) and the conventional bottom-up analysis
exceeds it on all but the two smallest (elevator 129k vs. toba-s >3M)
— reproducing Table 2's failure pattern — while SWIFT stays well under
it everywhere.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.bench.generator import GeneratedBenchmark
from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Budget, Metrics
from repro.framework.session import analysis_session, request_scope
from repro.framework.topdown import TopDownResult
from repro.framework.tracing import JsonlSink
from repro.typestate.properties import FILE_PROPERTY, TypestateProperty

_ItemT = TypeVar("_ItemT")
_RowT = TypeVar("_RowT")

#: The stand-in for the paper's 24h/16GB limit (see module docstring).
DEFAULT_BUDGET_WORK = 400_000

#: Wall-clock safety net (seconds) of every experiment row, so a
#: miscalibrated run cannot hang a session.  Conventional bottom-up
#: runs get a tighter one: on the larger benchmarks each unit of BU
#: work is far more expensive (huge relation sets and predicates), so
#: waiting for the work counter alone would burn minutes per timeout
#: row.  The outcome is the same, as those runs exceed the work budget
#: too, just slowly.
ROW_SECONDS = 600.0
ROW_SECONDS_BY_ENGINE = {"bu": 45.0}

#: When set (``--trace DIR``), every ``run_engine`` call records its
#: analysis events to ``<benchmark>_<engine>[_k<k>_theta<theta>]
#: [_<label>].jsonl`` under it.  Worker processes inherit the setting
#: through ``map_rows``'s pool initializer.
_TRACE_DIR: Optional[Path] = None


def set_trace_dir(path: Optional[Union[str, Path]]) -> None:
    """Enable (or disable, with ``None``) per-run JSONL trace dumps."""
    global _TRACE_DIR
    _TRACE_DIR = Path(path) if path is not None else None


def experiment_config(
    engine: str, budget_work: Optional[int] = DEFAULT_BUDGET_WORK, **fields
) -> AnalysisConfig:
    """The configuration of one experiment row: the full type-state
    domain unless ``fields`` name another, under the work budget and
    the engine's wall cap.  Unknown ``fields`` raise ``TypeError``."""
    budget = Budget(
        max_work=budget_work,
        max_seconds=ROW_SECONDS_BY_ENGINE.get(engine, ROW_SECONDS),
    )
    fields.setdefault("domain", "typestate-full")
    return AnalysisConfig(engine=engine, budget=budget, **fields)


@dataclass
class EngineRun:
    """Outcome of one engine on one benchmark."""

    benchmark: str
    engine: str
    k: Optional[int]
    theta: Optional[int]
    seconds: float
    work: int
    # Top-down summaries per procedure (Figure 5's series); empty for
    # the bottom-up engine, which computes none.
    td_summary_counts: Dict[str, int]
    bu_summaries: int
    timed_out: bool
    error_sites: frozenset
    # Full work counters of the run (for merging across rows); plain
    # ints, so rows survive the process boundary of a parallel run.
    metrics: Optional[Metrics] = field(default=None, repr=False, compare=False)

    @property
    def td_summaries(self) -> int:
        return sum(self.td_summary_counts.values())

    @property
    def time_label(self) -> str:
        return "timeout" if self.timed_out else f"{self.seconds:.2f}s"


def run_engine(
    benchmark: GeneratedBenchmark,
    engine: str,
    k: int = 5,
    theta: int = 1,
    budget_work: Optional[int] = DEFAULT_BUDGET_WORK,
    prop: TypestateProperty = FILE_PROPERTY,
    engine_options: Optional[Mapping] = None,
    label: str = "",
    **config_fields,
) -> EngineRun:
    """Run one experiment row: one engine over one benchmark.

    The row's configuration is :func:`experiment_config`'s;
    ``config_fields`` are further :class:`AnalysisConfig` fields (a
    ``scheduler`` or ``domain``) and ``engine_options`` the engine's
    experiment-only hooks (SWIFT's ``refresh_existing``,
    ``postpone_unseen`` and ``pruner_factory``), which an engine
    without them refuses.  ``label`` names the row's variant in its
    trace file (see ``_TRACE_DIR``).  The run is one request
    (:func:`~repro.framework.session.request_scope`): a row pays for
    its own cyclic garbage, not for the rows that ran before it.
    """
    config = experiment_config(
        engine, budget_work=budget_work, k=k, theta=theta, **config_fields
    )
    if not config.engine_spec.uses_thresholds:
        k = theta = None
    sink = None
    if _TRACE_DIR is not None:
        # Everything that tells one row of an exhibit from another is
        # in the name, so no run overwrites another's trace.
        thresholds = f"k{k}_theta{theta}" if k else ""
        tags = [benchmark.name, config.engine, thresholds, label]
        sink = JsonlSink(_TRACE_DIR / ("_".join(filter(None, tags)) + ".jsonl"))
        config = config.replace(sink=sink)
    try:
        started = time.perf_counter()
        with request_scope():
            outcome = analysis_session().run(
                benchmark.program, config, engine_options=engine_options, prop=prop
            )
        elapsed = time.perf_counter() - started
    finally:
        if sink is not None:
            sink.close()
    result = outcome.result
    return EngineRun(
        benchmark=benchmark.name,
        engine=config.engine,
        k=k,
        theta=theta,
        seconds=elapsed,
        work=outcome.metrics.total_work,
        td_summary_counts=(
            result.summary_counts_by_proc()
            if isinstance(result, TopDownResult)
            else {}
        ),
        bu_summaries=outcome.bu_summaries,
        timed_out=outcome.timed_out,
        error_sites=frozenset(site for (_, site) in outcome.findings),
        metrics=outcome.metrics,
    )


def aggregate_metrics(runs: Iterable[EngineRun]) -> Metrics:
    """Merge the work counters of several rows into one ``Metrics``."""
    total = Metrics()
    for run in runs:
        if run.metrics is not None:
            total.merge(run.metrics)
    return total


#: Placeholder for rows a broken/failed pool attempt has not produced.
_PENDING = object()


class _FailedRow:
    """Marks a row whose worker raised; retried serially by map_rows."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


def map_rows(
    fn: Callable[[_ItemT], _RowT], items: Iterable[_ItemT], parallel: int = 0
) -> List[_RowT]:
    """Run ``fn`` over ``items``, optionally in a process pool.

    With ``parallel > 1`` the rows are computed in a
    ``ProcessPoolExecutor``.  Futures are keyed by item index and rows
    are reassembled in submission order, so a parallel table is
    identical to the serial one (the engines' work counters are
    deterministic) — only wall clock changes.  ``fn`` and the items
    must be picklable (pass benchmark *names* and reload in the worker,
    not ``Program`` objects).

    Failure handling: a worker exception or a broken pool (a worker
    killed by the OOM killer, a crashed interpreter) no longer discards
    the rows that *did* complete.  Completed rows are kept; only the
    failed or unfinished items are re-run serially in the parent, in
    item order — a deterministically failing ``fn`` then raises with a
    full serial traceback.
    """
    items = list(items)
    if not (parallel and parallel > 1 and len(items) > 1):
        return [fn(item) for item in items]
    results: List = [_PENDING] * len(items)
    try:
        with ProcessPoolExecutor(
            # A pool starts all its workers up front: never more than rows.
            max_workers=min(parallel, len(items)),
            initializer=set_trace_dir,
            initargs=(_TRACE_DIR,),
        ) as pool:
            future_index = {
                pool.submit(fn, item): index for index, item in enumerate(items)
            }
            for future in as_completed(future_index):
                index = future_index[future]
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:  # noqa: BLE001 - retried serially
                    results[index] = _FailedRow(exc)
    except BrokenProcessPool:
        # The pool died (not an ordinary fn exception): fall through and
        # recompute whatever is still pending serially.
        pass
    for index, item in enumerate(items):
        if results[index] is _PENDING or isinstance(results[index], _FailedRow):
            results[index] = fn(item)
    return results


def speedup_label(baseline: EngineRun, swift: EngineRun, by: str = "work") -> str:
    """Speedup of SWIFT over a baseline, ``baseline.<by> / swift.<by>``.

    ``by="work"`` reads the deterministic work counters (wall-clock
    ratios on CPython are noisy at this scale); ``by="seconds"`` the
    wall clock, as the paper reports it.  "-" when *either* side timed
    out — a ratio against a truncated run is meaningless — matching
    Table 2's convention.
    """
    if baseline.timed_out or swift.timed_out or not getattr(swift, by):
        return "-"
    ratio = getattr(baseline, by) / getattr(swift, by)
    return f"{ratio:.1f}X" if by == "work" else f"{ratio:.2f}x"


def drop_label(baseline_count: int, swift_count: int, timed_out: bool) -> str:
    """Summary-count drop; pass ``timed_out`` true when either run
    involved timed out (the counts of a truncated run are partial)."""
    if timed_out or baseline_count <= 0:
        return "-"
    return f"{100.0 * (1 - swift_count / baseline_count):.0f}%"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Plain ASCII table, right-aligned numeric columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(
                cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)
