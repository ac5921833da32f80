"""Value-mode knob sweep: the interval×typestate product on loop-heavy code.

SWIFT on the seeded ``loop_nest`` shape (the workload whose naive
powerset iteration provably diverges — DESIGN §14) across
``widening_delay`` × ``descending_iters``: the measured data behind
TUNING's "Widening knobs" section.  Delaying widening buys precision
with bounded extra work; descending iterations are a cheap post-pass.
Each row records wall clock, deterministic work, wall clock per unit
of work (``us_per_work``) and summary counts.  Error sites are
asserted identical across the whole sweep (the knobs trade work for
precision of the numeric component, never soundness).

Per-engine value-mode cost is the end-to-end benchmark's
``numeric-loop`` workload (its traced ``framework.us_per_work``); that
every engine terminates and agrees on the error sites is
``tests/test_lattice_fixpoint.py`` and the ``ci/numeric_smoke.py``
baseline.

Run it to (re)generate ``BENCH_numeric.json``::

    PYTHONPATH=src python benchmarks/bench_numeric.py [--out PATH]
"""

import argparse
import json
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
DELAYS = [0, 2, 4, 8]
DESCENDS = [0, 1, 2]
BUDGET = Budget(max_work=5_000_000)


def run_swift(program, delay=2, descend=0):
    started = time.perf_counter()
    report = run_typestate(
        program,
        FILE_PROPERTY,
        engine="swift",
        domain="interval-typestate",
        k=5,
        theta=1,
        budget=BUDGET,
        widening_delay=delay,
        descending_iters=descend,
    )
    seconds = time.perf_counter() - started
    assert not report.timed_out, "swift failed to terminate in budget"
    work = report.result.metrics.total_work
    return report, {
        "engine": "swift",
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
    sweep_rows, verdicts = [], set()
    for delay in DELAYS:
        for descend in DESCENDS:
            report, row = run_swift(program, delay, descend)
            verdicts.add(frozenset(report.error_sites))
            sweep_rows.append(row)
            print(
                f"  sweep delay={delay} descend={descend}: {row['seconds']}s "
                f"work={row['work']} us/work={row['us_per_work']}",
                flush=True,
            )
    assert len(verdicts) == 1, "knobs changed verdicts"
    return [
        {
            "shape": f"loop_nest({SIZE}, seed={SEED})",
            "domain": "interval-typestate",
            "knob_sweep": sweep_rows,
        }
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_numeric.json")
    args = parser.parse_args(argv)
    payload = {
        "benchmark": "bench_numeric",
        "description": "interval×typestate product on the loop_nest shape: "
        "SWIFT's widening-knob sweep",
        "rows": collect(),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
