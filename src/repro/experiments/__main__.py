"""Regenerate every exhibit: ``python -m repro.experiments``.

The arguments are those of ``repro-swift experiments``: exhibit names
(all of them when none is given), ``--parallel N`` to compute each
exhibit's independent rows in N worker processes, and ``--trace DIR``
to record every engine run's analysis events under ``DIR/<exhibit>/``
(one file per run; see :func:`repro.experiments.harness.run_engine`).
A parallel table is identical to a serial one: work counters are
deterministic and rows are collected in submission order; only wall
clock changes.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import (
    ablations,
    figure5,
    harness,
    shapes,
    table1,
    table2,
    table3,
    table4,
)

EXHIBITS = {
    "table1": table1,
    "table2": table2,
    "figure5": figure5,
    "table3": table3,
    "table4": table4,
    "ablations": ablations,
    "shapes": shapes,
}


def run(
    names: Sequence[str] = (), parallel: int = 0, trace: Optional[str] = None
) -> None:
    """Print the exhibits named in ``names`` (every exhibit if empty)."""
    for name, module in EXHIBITS.items():
        if names and name not in names:
            continue
        harness.set_trace_dir(None if trace is None else Path(trace) / name)
        print(f"\n{'=' * 78}\n{name}\n{'=' * 78}")
        module.main(parallel=parallel)
    harness.set_trace_dir(None)


def main() -> None:
    from repro.cli import main as cli_main

    sys.exit(cli_main(["experiments", *sys.argv[1:]]))


if __name__ == "__main__":
    main()
