"""Reproduction drivers for every table and figure of the evaluation.

One module per exhibit:

* :mod:`repro.experiments.table1` — benchmark characteristics;
* :mod:`repro.experiments.table2` — running time and summary counts of
  TD / BU / SWIFT across the suite;
* :mod:`repro.experiments.figure5` — per-method top-down summary
  distributions (TD vs SWIFT) for toba-s, javasrc-p, antlr;
* :mod:`repro.experiments.table3` — the ``k`` sweep on avrora;
* :mod:`repro.experiments.table4` — ``theta`` in {1, 2} across the
  suite;
* :mod:`repro.experiments.ablations` — our additional ablations of the
  design choices DESIGN.md calls out (ranking strategy, trigger
  postponement, summary refresh).

Each module has a ``run()`` returning structured rows and a
``main(parallel=0)`` that prints the exhibit; both compute their rows
through :func:`repro.experiments.harness.map_rows`, and every engine
run is one :func:`repro.experiments.harness.run_engine` call, which
owns the row's budget, trace file and timing.  ``python -m
repro.experiments`` regenerates everything.
"""

from repro.experiments.harness import (
    DEFAULT_BUDGET_WORK,
    EngineRun,
    format_table,
    run_engine,
)

__all__ = ["DEFAULT_BUDGET_WORK", "EngineRun", "format_table", "run_engine"]
