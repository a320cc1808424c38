"""edcr benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload apply_n100k --seed 7 --seconds 8 --trace 0

Run from the root of a checkout. The run builds a seeded corpus with
``edcr.conditions.generate_synthetic`` and ``edcr.io`` (set-up, repeated and
timed), then runs passes of real ``edcr`` subcommands in-process through
``edcr.cli.main`` in a closed loop (one process, one thread, one pass at a
time) for ``--seconds``, checks every output, and prints each metric by name
with its unit. The last line of standard output is a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones, plus the tracing overhead. Set-up, passes and the
known-defect probe each run in a child process (``worker.py``), so the
passes' peak memory excludes corpus generation. Work files go to
``.bench_work/<workload>/`` under the checkout.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import COUNT_METRICS, median_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Layout

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SETUP_REPS = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spec_units(kind: str) -> dict[str, str]:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def worker(job: str, workload: str, root: Path, deadline: float, **opts) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), job, "--workload", workload, "--root", str(root)]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {job} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {job} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker {job} printed no result:\n{proc.stderr[-4000:]}") from None


def run(workload, seed: int, seconds: float, trace: bool, samples: int | None = None) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd() / ".bench_work" / workload.name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    layout = Layout(root)

    resize = {} if samples is None else {"samples": samples}
    setups = [
        worker("setup", workload.name, root, deadline, seed=seed, trace=int(trace), **resize)
        for _ in range(SETUP_REPS)
    ]
    for s in setups:
        if not s["ok"]:
            raise BenchError(f"set-up failed: {s['error']}")
    timed = worker("passes", workload.name, root, deadline, seconds=seconds, trace=int(trace))
    passes = timed["passes"]
    probe = worker("probe", workload.name, root, deadline) if workload.probe else None

    try:
        problems = checks.check_outputs(workload, layout)
    except (KeyError, ValueError, IndexError, OSError) as err:
        problems = [f"malformed output: {type(err).__name__}: {err}"]
    if seed == DEFAULT_SEED and samples is None:
        reference = checks.expected_digests(workload.name)
    else:
        reference = passes[0]["digests"]
    if passes[-1]["digests"] != reference:
        problems.append("the checked outputs of the last pass differ from the reference digests")
    failed = 0
    for p in passes:
        p["failed"] = bool(problems) or p["digests"] != reference or any(c != 0 for c in p["codes"])
        failed += p["failed"]

    untraced = [p for p in passes if not p["traced"]]
    report = {
        "workload": workload.name,
        "seed": seed,
        "n": setups[0]["n"],
        "m": setups[0]["m"],
        "trace": trace,
        "passes": passes,
        "setups": setups,
        "problems": problems,
        "probe": probe,
        "reference_digests": reference,
        "attempted": len(passes),
        "failed": failed,
    }
    if not trace:
        pass_s = statistics.median(p["pass_s"] for p in untraced)
        report["metrics"] = {
            "pass_s": pass_s,
            "samples_per_s": report["n"] / pass_s,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        report["wall"] = {
            "pass_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
        }
    else:
        layers = median_metrics(timed["layers"])
        layers["conditions.generate_synthetic_s"] = statistics.median(
            s["generate_synthetic_s"] for s in setups
        )
        traced = [p for p in passes if p["traced"]]
        layers["trace.overhead_s"] = statistics.median(p["pass_s"] for p in traced) - statistics.median(
            p["pass_s"] for p in untraced
        )
        report["counts_repeat"] = all(
            len({m[name] for m in timed["layers"]}) == 1 for name in COUNT_METRICS
        )
        report["metrics"] = layers
        report["layers"] = timed["layers"]
    return report


def print_report(report: dict, units: dict[str, str]) -> None:
    mode = "traced and untraced passes alternating" if report["trace"] else "tracing off"
    print(
        f"{report['workload']}: n={report['n']} m={report['m']} seed={report['seed']}; "
        f"{report['attempted']} passes, closed loop, 1 process, 1 thread, {mode}; "
        f"set-up repeated {len(report['setups'])} times"
    )
    for name, unit in units.items():
        print(f"  {name:<34} {report['metrics'][name]:>14.6g} {unit}")
    for name, value in report.get("wall", {}).items():
        print(f"  {name:<34} {value:>14.6g} s of raw wall time (unscaled, ungated)")
    ratio = report["failed"] / report["attempted"]
    print(f"  {'fail_ratio':<34} {ratio:>14.6g} ratio ({report['failed']} of {report['attempted']} passes)")
    if report["trace"]:
        print("  waiting time: none to report; edcr has no queues or threads, so spans are busy time")
        if not report["counts_repeat"]:
            print("  warning: per-pass counts differ between traced passes")
    for problem in report["problems"]:
        print(f"  output check: {problem}")
    if report["probe"] is not None:
        probe = report["probe"]
        outcome = probe["exception"] or f"exit {probe['exit']}"
        print(f"  known-defect probe (ungated): edcr verify at m={report['m']}: {outcome}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--samples", type=int, default=None,
        help="override the corpus size for smoke tests; results are not comparable",
    )
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "edcr" / "__init__.py").is_file() or Path.cwd().resolve() != CHECKOUT:
        print("error: run from the root of an edcr checkout (src/edcr not found)", file=sys.stderr)
        return 2
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.samples)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    units = spec_units("per_layer" if args.trace else "end_to_end")
    if set(report["metrics"]) != set(units):
        print(
            f"error: metrics {sorted(set(report['metrics']) ^ set(units))} do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    (Path.cwd() / ".bench_work" / args.workload / "report.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )
    print_report(report, units)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
