"""End-to-end benchmark: four workloads, verdict-checked, one command.

Run from the repository root (no install, no ``PYTHONPATH`` needed)::

    python3 benchmarks/e2e/run.py --workload cold-verify --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py                    # every workload, one after another
    python3 benchmarks/e2e/run.py --seconds 1        # quick: the smallest run of each
    python3 benchmarks/e2e/run.py --trace 1          # per-layer self times instead
    python3 benchmarks/e2e/run.py --out results      # also append records to results/results.jsonl
    python3 benchmarks/e2e/run.py --write-expected   # refreeze expected/verdicts.json

With ``--workload`` the last line printed is one JSON object: ``correct``
(every verdict equal to the frozen top-down reference), ``attempted``
and ``failed`` request counts, and ``metrics`` — the ``end_to_end``
metrics of ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer``
metrics (``--trace 1``).  Exit status 1 means a verdict mismatch; 2
means the benchmark could not run (for instance, no ``src/repro`` next
to it).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("cold-verify", "numeric-loop", "edit-loop", "service-mix")


def _fail(message: str) -> int:
    print(f"e2e benchmark: {message}", file=sys.stderr)
    return 2


def _check_checkout():
    """The program under test must come from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None, f"no program to measure: {src / 'repro'} is missing"
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return None, f"{manifest} is missing"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return None, f"imported repro from {repro.__file__}, not {src}"
    return json.loads(manifest.read_text()), None


def git_sha():
    """HEAD's commit from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _render(metrics, details) -> list:
    raw = details.get("raw", {})
    lines = []
    for name, (value, unit) in metrics.items():
        extra = f"   ({name}.raw = {raw[name]:.6g})" if name in raw and raw[name] != value else ""
        lines.append(f"  {name:32} {value:14.6g} {unit}{extra}")
    return lines


def run_one(args, manifest) -> int:
    import metrics as metric_defs
    import workloads

    work = HERE / ".work" / args.workload
    out = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    if args.trace:
        computed, details = metric_defs.per_layer(out)
        declared = manifest["per_layer"]
    else:
        computed, details = metric_defs.end_to_end(out)
        declared = manifest["end_to_end"]
    timed = [r for r in out.requests if bool(r.get("traced")) == bool(args.trace)]
    attempted = len(timed)
    failed = sum(1 for r in timed if not r["ok"])
    correct = not out.mismatches

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  requests {attempted}, failed {failed}, verdict mismatches {len(out.mismatches)}")
    for message in out.mismatches[:20]:
        print(f"  MISMATCH {message}")
    for line in _render(computed, details):
        print(line)
    for key, value in details.items():
        if key != "raw":
            print(f"  {key}: {json.dumps(value, sort_keys=True, default=str)}")

    if args.out:
        _record(args, out, computed, details, correct, attempted, failed)
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        return _fail(f"{args.workload} does not compute {missing}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _record(args, out, computed, details, correct, attempted, failed) -> None:
    target = Path(args.out)
    target.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "mismatches": out.mismatches[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in computed.items()},
        "details": details,
        "calibration": out.calibration.samples,
        "setups": out.setups,
        "requests": [
            {k: r.get(k) for k in ("id", "class", "phase", "seconds", "ok", "traced")}
            for r in out.requests
        ],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }
    with open(target / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record, default=str) + "\n")
    if args.trace:
        name = f"{args.workload}-seed{args.seed}"
        (target / f"{name}-layers.txt").write_text(
            "\n".join(_render(computed, details)) + "\n"
        )
        spans = sorted((HERE / ".work" / args.workload).rglob("spans*.jsonl"))
        with open(target / f"{name}-spans.jsonl", "w") as handle:
            for path in spans:
                handle.write(path.read_text())


def run_all(args) -> int:
    """Every workload, each in its own process; returns the worst status."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            cmd += ["--out", args.out]
        status = max(status, subprocess.run(cmd, cwd=str(ROOT)).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: renaming, edit and request streams")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="append result records (and traced layer tables) here")
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute expected/verdicts.json with the reference engine")
    args = parser.parse_args(argv)

    manifest, problem = _check_checkout()
    if problem:
        return _fail(problem)
    if args.write_expected:
        import oracle

        oracle.write_expected()
        print(f"wrote {oracle.EXPECTED_PATH}")
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args, manifest)


if __name__ == "__main__":
    raise SystemExit(main())
