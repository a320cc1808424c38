"""Child process of the benchmark: builds a corpus, runs timed passes, or
runs the known-defect probe, and prints one JSON object as its last line.

Each job runs in its own process so that the passes' peak resident memory
excludes corpus generation. edcr is imported from ``src/`` of the checkout
the benchmark lives in.

    python3 bench/worker.py setup  --workload W --seed N --root DIR [--trace 1] [--samples N]
    python3 bench/worker.py passes --workload W --root DIR --seconds S [--trace 1]
    python3 bench/worker.py probe  --workload W --root DIR
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io as _stdio
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import edcr  # noqa: E402
from edcr import conditions, io  # noqa: E402
from edcr.cli import main as edcr_main  # noqa: E402
from edcr.core import ConditionMatrix  # noqa: E402

from reference import ReferenceProcess, ScaledTimer  # noqa: E402
from tracer import Tracer, pass_metrics  # noqa: E402
from workloads import (  # noqa: E402
    EXTRA_DENSITY,
    NOISE,
    WORKLOADS,
    Layout,
    pass_argv,
    probe_argv,
    setup_learn_argv,
)

if Path(edcr.__file__).resolve().parent != SRC / "edcr":
    raise SystemExit(f"imported edcr from {edcr.__file__}, not from {SRC}")


def call_cli(argv: list[str]) -> tuple[int | None, str | None]:
    """Run one subcommand in-process; its console output is discarded."""
    sink = _stdio.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return edcr_main(argv), None
    except Exception as err:  # a crash is a result here, not a harness failure
        return None, f"{type(err).__name__}: {err}"


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def setup(workload, seed: int, layout: Layout, tracer: Tracer | None) -> dict:
    """Build the corpus; generation, writing and learning are timed as
    separate steps, each scaled by the reference timings around it."""
    layout.corpus.mkdir(parents=True, exist_ok=True)
    code, error = 0, None
    with ReferenceProcess() as reference:
        timer = ScaledTimer(reference)
        with timer.step():
            corpus = conditions.generate_synthetic(seed, workload.n, noise=NOISE)
        with timer.step():
            conds = corpus.conditions
            if workload.extra_columns:
                rng = np.random.default_rng([seed, workload.extra_columns])
                extra = rng.random((workload.n, workload.extra_columns)) < EXTRA_DENSITY
                names = tuple(f"rand_{j:03d}" for j in range(workload.extra_columns))
                conds = ConditionMatrix(conds.condition_names + names, np.hstack([conds.values, extra]))
            io.write_predictions(layout.predictions, corpus.table)
            io.write_conditions(layout.conditions, corpus.table, conds)
        if workload.learn_in_setup:
            with timer.step():
                code, error = call_cli(setup_learn_argv(layout))
        wall, setup_s = timer.take()
    generate = [s.duration for s in tracer.spans if s.name == "conditions.generate_synthetic"] if tracer else []
    return {
        "ok": code == 0,
        "error": error,
        "n": corpus.table.n,
        "m": conds.n_conditions,
        "setup_wall_s": wall,
        "setup_s": setup_s,
        "generate_synthetic_s": generate[0] if generate else None,
    }


def timed_pass(argvs, timer: ScaledTimer) -> dict:
    """One untraced pass; each subcommand is a separately scaled step."""
    codes, errors = [], []
    for argv in argvs:
        with timer.step():
            code, error = call_cli(argv)
        codes.append(code)
        if error:
            errors.append(f"{argv[0]}: {error}")
    wall, pass_s = timer.take()
    return {"wall_s": wall, "pass_s": pass_s, "codes": codes, "errors": errors, "traced": False}


def traced_pass(argvs, tracer: Tracer, timer: ScaledTimer) -> dict:
    """One traced pass: a root span with one cli.<command> span per
    subcommand, scaled as one step for the tracing overhead."""
    codes, errors = [], []
    with timer.step(), tracer.installed(), tracer.span("pass") as root:
        for argv in argvs:
            with tracer.span(f"cli.{argv[0]}"):
                code, error = call_cli(argv)
            codes.append(code)
            if error:
                errors.append(f"{argv[0]}: {error}")
    _, pass_s = timer.take()
    return {"wall_s": root.duration, "pass_s": pass_s, "codes": codes, "errors": errors, "traced": True}


def passes(workload, layout: Layout, seconds: float, trace: bool) -> dict:
    """Closed loop, one pass at a time, until ``seconds`` have elapsed.

    With tracing, untraced and traced passes alternate (at least one of
    each, and as many of one as of the other) so drift hits both alike.
    """
    argvs = pass_argv(workload, layout)
    artifacts = layout.artifacts(workload)
    results, tracers = [], []
    deadline = time.perf_counter() + seconds
    with ReferenceProcess() as reference:
        timer = ScaledTimer(reference)
        while True:
            gc.collect()
            if trace and len(results) % 2 == 1:
                tracers.append(Tracer(pass_id=len(results)))
                result = traced_pass(argvs, tracers[-1], timer)
            else:
                result = timed_pass(argvs, timer)
            result["digests"] = {name: sha256(path) for name, path in artifacts.items()}
            results.append(result)
            if time.perf_counter() >= deadline and (not trace or len(results) % 2 == 0):
                break
    report = {
        "passes": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        report["layers"] = [pass_metrics(tracer.spans) for tracer in tracers]
        write_spans(layout.root / "spans.jsonl", tracers)
    return report


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON line per span; ``parent`` indexes the spans of the same pass."""
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for s in tracer.spans:
                handle.write(json.dumps({
                    "pass": s.pass_id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, **s.counters,
                }) + "\n")


def probe(layout: Layout) -> dict:
    """``edcr verify`` on this corpus: exit status or the exception raised."""
    start = time.perf_counter()
    code, error = call_cli(probe_argv(layout))
    return {"command": "edcr verify", "exit": code, "exception": error,
            "seconds": time.perf_counter() - start}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=("setup", "passes", "probe"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=None)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.samples is not None:
        workload = dataclasses.replace(workload, n=args.samples)
    layout = Layout(Path(args.root))
    if args.job == "setup":
        tracer = Tracer() if args.trace else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            result = setup(workload, args.seed, layout, tracer)
    elif args.job == "passes":
        result = passes(workload, layout, args.seconds, bool(args.trace))
    else:
        result = probe(layout)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
