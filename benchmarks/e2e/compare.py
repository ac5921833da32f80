"""Compare sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A [B]

``A`` and ``B`` are run sets: a ``results.jsonl`` written by
``run.py --out DIR`` (or that ``DIR``), or ``baseline.json``.  Runs are
grouped by workload and by traced/untraced.

* One set: per workload and metric, the median and quartiles across
  runs (``statistics.quantiles(n=4)``) and the spread, the distance
  between the quartiles as a share of the median.  An end-to-end metric
  passes when its spread is within its bound.
* Two sets: B's median against A's.  An end-to-end metric passes when B
  is not worse than A by more than its bound.

Any run with a verdict mismatch or a failed request fails the
comparison.  Per-layer metrics (traced runs) have no bound and are
listed for attribution only.  Exit status 1 means something failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(spec: str) -> List[dict]:
    path = Path(spec)
    if path.is_dir():
        path = path / "results.jsonl"
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["runs"]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def summarize(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, spread) of one metric across runs."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    if not a:
        return 0.0
    change = (b - a) / a
    return change if better == "lower" else -change


def group(runs: List[dict]) -> Dict[Tuple[str, int], List[dict]]:
    out: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for run in runs:
        out[(run["workload"], int(run["trace"]))].append(run)
    return out


def compare(a_runs: List[dict], b_runs: Optional[List[dict]], manifest: dict) -> int:
    declared = {0: manifest["end_to_end"], 1: manifest["per_layer"]}
    a_groups = group(a_runs)
    b_groups = group(b_runs) if b_runs is not None else {}
    failures = 0
    for (workload, trace), runs in sorted(a_groups.items()):
        others = b_groups.get((workload, trace))
        label = "traced" if trace else "untraced"
        print(f"\n{workload} ({label}): A {len(runs)} run(s)"
              + (f", B {len(others)} run(s)" if others else ""))
        for run in runs + (others or []):
            if not run["correct"] or run["failed"]:
                failures += 1
                print(f"  FAIL seed {run['seed']}: correct={run['correct']} failed={run['failed']}")
        # Declared metrics first; then the unbounded ones a run also
        # recorded (percentiles, per-cell medians), for reading only.
        names = {m["name"] for m in declared[trace]}
        units = {n: m["unit"] for r in runs for n, m in r["metrics"].items() if n not in names}
        extra = [
            {"name": n, "better": "higher" if unit == "1/s" else "lower"}
            for n, unit in sorted(units.items())
        ]
        for metric in declared[trace] + extra:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            median, q1, q3, spread = summarize(values)
            line = (f"  {name:30} {median:12.5g} [{q1:.5g}, {q3:.5g}] "
                    f"spread {spread * 100:5.1f}%")
            bound = metric.get("bound")
            verdict = ""
            b_values = [r["metrics"][name]["value"] for r in others or () if name in r["metrics"]]
            if b_values:
                b_median, b_q1, b_q3, _ = summarize(b_values)
                worse = worse_by(median, b_median, metric["better"])
                line += f" | B {b_median:12.5g} [{b_q1:.5g}, {b_q3:.5g}] worse {worse * 100:+6.1f}%"
                if bound is not None:
                    verdict = "PASS" if worse <= bound else "FAIL"
            elif bound is not None and name != "setup_s":
                verdict = "PASS" if spread <= bound else "FAIL"
            if bound is not None:
                line += f"  bound {bound * 100:.0f}% {verdict}"
            failures += verdict == "FAIL"
            print(line)
    print(f"\n{'FAIL' if failures else 'PASS'}: {failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs = load_runs(argv[0])
    b_runs = load_runs(argv[1]) if len(argv) == 2 else None
    return compare(a_runs, b_runs, manifest)


if __name__ == "__main__":
    raise SystemExit(main())
