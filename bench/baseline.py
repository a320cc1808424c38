"""Run every workload end to end and traced, print the end-to-end metrics of
each by name with units, and write one JSON record of all of it.

    python3 bench/baseline.py --out bench/results/BENCH_0.json

Run from the root of a checkout. The record holds the git commit, the
machine (cpu count, cpu model), the Python and numpy versions, and for each
workload the end-to-end metrics, fail_ratio, the traced per-layer metrics,
the tracing overhead and the known-defect probe.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{name} --trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((CHECKOUT / ".bench_work" / name / "report.json").read_text())
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args()

    record = {
        "git_sha": git_sha(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        e2e, report = run_workload(name, args.seed, args.seconds, 0)
        layers, traced = run_workload(name, args.seed, args.seconds, 1)
        fail_ratio = e2e["failed"] / e2e["attempted"]
        record["workloads"][name] = {
            "n": report["n"],
            "m": report["m"],
            "correct": e2e["correct"] and layers["correct"],
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "end_to_end": {
                **e2e["metrics"],
                "fail_ratio": {"value": fail_ratio, "unit": "ratio"},
            },
            "wall": report["wall"],
            "per_layer": layers["metrics"],
            "traced_passes": traced["attempted"],
            "probe": report["probe"] or traced["probe"],
        }
        print(f"{name} (n={report['n']}, m={report['m']}, {e2e['attempted']} passes):")
        for metric, value in record["workloads"][name]["end_to_end"].items():
            print(f"  {metric:<16} {value['value']:>14.6g} {value['unit']}")
        overhead = layers["metrics"]["trace.overhead_s"]
        print(f"  {'trace.overhead_s':<16} {overhead['value']:>14.6g} {overhead['unit']}")
        probe = record["workloads"][name]["probe"]
        if probe:
            print(f"  known-defect probe: {probe['exception'] or 'exit ' + str(probe['exit'])}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
