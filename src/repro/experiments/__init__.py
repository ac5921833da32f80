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
  postponement, summary refresh);
* :mod:`repro.experiments.shapes` — whole-program runs against one
  demand query on the large generated shapes.

Each module has a ``run(parallel=0)`` returning structured rows
(computed through :func:`repro.experiments.harness.map_rows`), a
``render(rows)`` that prints them, and a pure ``missed_claims(rows)``
listing the paper's shape claims the rows miss.  Every engine run is
one :func:`repro.experiments.harness.run_engine` call, which owns the
row's budget, trace file and timing.  ``python -m repro.experiments``
is the one driver: it regenerates every exhibit and checks its
claims.
"""

from repro.experiments.harness import (
    DEFAULT_BUDGET_WORK,
    EngineRun,
    format_table,
    run_engine,
)

__all__ = ["DEFAULT_BUDGET_WORK", "EngineRun", "format_table", "run_engine"]
