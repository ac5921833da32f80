"""Value-mode proof: the interval×typestate product on loop-heavy code.

Two exhibits over the seeded ``loop_nest`` shape (the workload whose
naive powerset iteration provably diverges — DESIGN §14):

* **engines** — every engine terminates in value mode and they agree
  on the error sites; wall clock, deterministic work, wall clock per
  unit of work (``us_per_work``) and summary counts per engine on
  ``loop_nest(64)``;
* **knob sweep** — SWIFT across ``widening_delay`` × ``descending_iters``
  on the same shape, the measured data behind TUNING's "Widening
  knobs" section.  Delaying widening buys precision with bounded extra
  work; descending iterations are a cheap post-pass.  Error sites are
  asserted identical across the whole sweep (the knobs trade work for
  precision of the numeric component, never soundness).

Run standalone to (re)generate ``BENCH_numeric.json``::

    PYTHONPATH=src python benchmarks/bench_numeric.py [--out PATH]

or collect under pytest (cheap single-engine checks only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_numeric.py
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import loop_nest
from repro.framework.metrics import Budget
from repro.typestate.client import run_typestate
from repro.typestate.properties import FILE_PROPERTY

SIZE = 64
SEED = 19
ENGINES = ["td", "bu", "swift"]
DELAYS = [0, 2, 4, 8]
DESCENDS = [0, 1, 2]
BUDGET = Budget(max_work=5_000_000)


def run_engine(program, engine, delay=2, descend=0):
    started = time.perf_counter()
    report = run_typestate(
        program,
        FILE_PROPERTY,
        engine=engine,
        domain="interval-typestate",
        k=5,
        theta=1,
        budget=BUDGET,
        widening_delay=delay,
        descending_iters=descend,
    )
    seconds = time.perf_counter() - started
    assert not report.timed_out, f"{engine} failed to terminate in budget"
    work = report.result.metrics.total_work
    return report, {
        "engine": engine,
        "widening_delay": delay,
        "descending_iters": descend,
        "seconds": round(seconds, 4),
        "work": work,
        # Per-unit cost: a slow layer shows here even when its work is small.
        "us_per_work": round(seconds * 1e6 / work, 2) if work else None,
        "td_summaries": report.td_summaries,
        "bu_summaries": report.bu_summaries,
        "error_sites": len(report.error_sites),
    }


def collect():
    program = loop_nest(SIZE, seed=SEED)
    engine_rows, sites = [], {}
    for engine in ENGINES:
        report, row = run_engine(program, engine)
        engine_rows.append(row)
        sites[engine] = report.error_sites
        print(
            f"  loop-nest-{SIZE}/{engine}: {row['seconds']}s "
            f"work={row['work']} us/work={row['us_per_work']} "
            f"sites={row['error_sites']}",
            flush=True,
        )
    assert all(s == sites["td"] for s in sites.values()), "engines disagree"
    sweep_rows = []
    for delay in DELAYS:
        for descend in DESCENDS:
            report, row = run_engine(program, "swift", delay, descend)
            assert report.error_sites == sites["swift"], "knobs changed verdicts"
            sweep_rows.append(row)
            print(
                f"  sweep delay={delay} descend={descend}: {row['seconds']}s "
                f"work={row['work']} us/work={row['us_per_work']}",
                flush=True,
            )
    return [
        {
            "shape": f"loop_nest({SIZE}, seed={SEED})",
            "domain": "interval-typestate",
            "engines": engine_rows,
            "knob_sweep": sweep_rows,
        }
    ]


# -- pytest entry points (cheap; the full sweep is standalone-only) -------------


def test_numeric_swift_terminates(once):
    program = loop_nest(8, seed=SEED)
    report, row = once(run_engine, program, "swift")
    assert not report.timed_out and row["error_sites"] > 0
    assert row["us_per_work"] > 0


def test_numeric_descend_keeps_verdicts(once):
    program = loop_nest(8, seed=SEED)
    base, _ = run_engine(program, "swift")
    narrowed, _ = once(run_engine, program, "swift", 2, 2)
    assert narrowed.error_sites == base.error_sites


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_numeric.json")
    args = parser.parse_args(argv)
    rows = collect()
    from repro.experiments.export import export_numeric

    path = export_numeric(rows, args.out)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
