"""Deterministic numeric-domain smoke output CI diffs against a baseline.

The interval×typestate reduced product is the first infinite-height
domain (DESIGN §14): without widening, naive iteration provably
diverges at the ``loop_nest`` shape's loop heads (``cnt:[0,0], [0,1],
[0,2], ...``).  This script runs that shape through every engine in
value mode and prints only deterministic data — verdict, work
counters, error sites — plus the pure interval domain's joined exit
facts; CI compares the output against the checked-in
``ci/baseline_numeric.txt`` with ``cmp``.  Like
``ci/verify_baseline.py``, propagation order is canonical, so no
``PYTHONHASHSEED`` pin is needed.  Regenerate after an *intentional*
behaviour change::

    PYTHONPATH=src python ci/numeric_smoke.py > ci/baseline_numeric.txt

``--widening-delay``/``--descending-iters`` vary the lattice knobs;
those runs have their own expected outputs (precision may genuinely
move), so CI pins only the default-knob baseline.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import loop_nest
from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Budget
from repro.framework.session import analysis_session
from repro.typestate.client import run_typestate
from repro.typestate.properties import FILE_PROPERTY

ENGINES = ["td", "bu", "swift"]
SIZE = 16
SEED = 19


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--widening-delay", type=int, default=2)
    parser.add_argument("--descending-iters", type=int, default=0)
    args = parser.parse_args()
    program = loop_nest(SIZE, seed=SEED)
    for engine in ENGINES:
        report = run_typestate(
            program,
            FILE_PROPERTY,
            engine=engine,
            k=5,
            theta=1,
            budget=Budget(max_work=2_000_000),
            domain="interval-typestate",
            widening_delay=args.widening_delay,
            descending_iters=args.descending_iters,
        )
        sites = ",".join(sorted(report.error_sites)) or "-"
        print(
            f"loop-nest-{SIZE} {engine}: timed_out={report.timed_out} "
            f"work={report.result.metrics.total_work} "
            f"td_summaries={report.td_summaries} "
            f"bu_summaries={report.bu_summaries} "
            f"error_sites={sites}"
        )
    # The pure interval domain: one joined environment at main's exit.
    for engine in ENGINES:
        config = AnalysisConfig(
            engine=engine,
            domain="interval",
            budget=Budget(max_work=2_000_000),
            widening_delay=args.widening_delay,
            descending_iters=args.descending_iters,
        )
        outcome = analysis_session().run(program, config)
        facts = ";".join(sorted(str(f) for f in outcome.findings)) or "-"
        print(
            f"loop-nest-{SIZE} interval/{engine}: "
            f"timed_out={outcome.timed_out} exit_env={facts}"
        )


if __name__ == "__main__":
    main()
