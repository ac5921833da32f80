"""CSV export of experiment results (for external plotting).

``python -m repro.experiments`` prints human-readable exhibits; this
module writes the same data as machine-readable CSV under a results
directory, one file per exhibit.  :func:`export_bench` writes the rows
of the standalone ``benchmarks/bench_*.py`` scripts as JSON.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, List, Sequence


def write_csv(path: Path, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(list(row))


def export_table1(directory: Path) -> Path:
    from repro.experiments import table1

    path = directory / "table1.csv"
    write_csv(path, table1.HEADERS, [s.row() for s in table1.run()])
    return path


def export_table2(directory: Path) -> Path:
    from repro.experiments import table2

    path = directory / "table2.csv"
    write_csv(path, table2.HEADERS, [r.cells() for r in table2.run()])
    return path


def export_figure5(directory: Path) -> List[Path]:
    from repro.experiments import figure5

    paths = []
    for series in figure5.run():
        path = directory / f"figure5_{series.benchmark}.csv"
        rows = []
        for i, count in enumerate(series.td_counts):
            rows.append([i, "td", count])
        for i, count in enumerate(series.swift_counts):
            rows.append([i, "swift", count])
        write_csv(path, ["method_index", "engine", "summaries"], rows)
        paths.append(path)
    return paths


def export_table3(directory: Path) -> Path:
    from repro.experiments import table3

    path = directory / "table3.csv"
    write_csv(
        path,
        ["k", "seconds", "work", "td_summaries", "bu_triggers"],
        [
            [r.k, f"{r.seconds:.3f}", r.work, r.td_summaries, r.bu_triggers]
            for r in table3.run()
        ],
    )
    return path


def export_table4(directory: Path) -> Path:
    from repro.experiments import table4

    path = directory / "table4.csv"
    rows = []
    for row in table4.run():
        for run, theta in zip(row.runs, table4.THETAS):
            rows.append(
                [
                    row.benchmark,
                    theta,
                    f"{run.seconds:.3f}",
                    run.work,
                    run.td_summaries,
                    run.bu_summaries,
                ]
            )
    write_csv(
        path,
        ["benchmark", "theta", "seconds", "work", "td_summaries", "bu_summaries"],
        rows,
    )
    return path


def export_bench(
    name: str, description: str, rows: Iterable[dict], path: str
) -> Path:
    """Write a standalone benchmark's rows (``benchmarks/<name>.py``) as
    JSON, so successive changes can track its trajectory."""
    import json

    out = Path(path)
    payload = {"benchmark": name, "description": description, "rows": list(rows)}
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def export_all(directory: str = "results") -> List[Path]:
    """Export every exhibit; returns the written paths."""
    base = Path(directory)
    paths = [export_table1(base), export_table2(base)]
    paths.extend(export_figure5(base))
    paths.append(export_table3(base))
    paths.append(export_table4(base))
    return paths


if __name__ == "__main__":
    for written in export_all():
        print(written)
