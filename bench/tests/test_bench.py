"""Tests of the benchmark harness itself; not part of the repository's test
suite. Run from the root of the checkout:

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(CHECKOUT / "src"))

import tracer  # noqa: E402
from tracer import SELF_TIME_METRICS, TARGETS, Span, Tracer, bindings_of, pass_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree() -> list[Span]:
    # pass [0, 10]
    #   cli.apply [0.5, 9.5]
    #     io.read_predictions [1, 3]
    #       core.table_build [2, 2.5]
    #     rules.apply_ruleset [4, 8]
    #       core.table_build [5, 6]
    return [
        Span("pass", 0.0, 10.0, None),
        Span("cli.apply", 0.5, 9.5, 0),
        Span("io.read_predictions", 1.0, 3.0, 1),
        Span("core.table_build", 2.0, 2.5, 2),
        Span("rules.apply_ruleset", 4.0, 8.0, 1),
        Span("core.table_build", 5.0, 6.0, 4),
    ]


def test_self_time_on_hand_built_tree():
    assert self_times(_tree()) == pytest.approx([1.0, 3.0, 1.5, 0.5, 3.0, 1.0])


def test_self_time_merges_overlapping_children():
    spans = [Span("a", 0.0, 10.0, None), Span("b", 1.0, 5.0, 0), Span("c", 3.0, 7.0, 0), Span("d", 9.0, 12.0, 0)]
    # children cover [1, 7] and [9, 10] of the parent: 7 of its 10 seconds
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_pass_metrics_attribute_the_whole_pass():
    metrics = pass_metrics(_tree())
    assert metrics["cli.self_s"] == pytest.approx(1.0 + 3.0)
    assert metrics["cli.apply_s"] == pytest.approx(9.0)
    assert metrics["core.table_build_s"] == pytest.approx(1.5)
    assert metrics["core.table_builds"] == 2
    assert metrics["rules.apply_calls"] == 1
    assert sum(metrics[name] for name in SELF_TIME_METRICS) == pytest.approx(metrics["trace.pass_s"])


def _all_bindings():
    import importlib

    import edcr.cli  # noqa: F401  (with the package, loads every submodule)

    found = {}
    for module_name, attr, _, _ in TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        found[(module_name, attr)] = (original, bindings_of(original))
    table_cls = importlib.import_module("edcr.core").PredictionTable
    return found, table_cls, table_cls.__dict__["__post_init__"]


def test_wrappers_patch_every_import_site_and_restore_the_originals():
    import edcr.learn
    import edcr.theory

    before, table_cls, post_init = _all_bindings()
    detection_sites = {f"{m.__name__}.{name}" for m, name in before[("edcr.core", "detection_counts")][1]}
    assert {"edcr.core.detection_counts", "edcr.learn.detection_counts", "edcr.theory.detection_counts"} <= detection_sites
    apply_sites = {f"{m.__name__}.{name}" for m, name in before[("edcr.rules", "apply_ruleset")][1]}
    assert {"edcr.cli.apply_ruleset", "edcr.evaluate.apply_ruleset", "edcr.theory.apply_ruleset"} <= apply_sites

    with pytest.raises(RuntimeError, match="inside"):
        with Tracer().installed():
            assert edcr.learn.detection_counts is not before[("edcr.core", "detection_counts")][0]
            assert edcr.theory.apply_ruleset is not before[("edcr.rules", "apply_ruleset")][0]
            assert table_cls.__dict__["__post_init__"] is not post_init
            raise RuntimeError("inside")

    after, _, _ = _all_bindings()
    for key, (original, sites) in before.items():
        for module, name in sites:
            assert getattr(module, name) is original, f"{module.__name__}.{name} not restored"
        assert after[key][1] == sites
    assert table_cls.__dict__["__post_init__"] is post_init


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(SELF_TIME_METRICS) | set(tracer.COUNT_METRICS) <= layer_names
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_spec_metrics_and_fails_nothing(workload, trace):
    proc = _run(CHECKOUT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--samples", "400", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert {m["name"] for m in SPEC[kind]} | {"fail_ratio"} <= printed
    if trace == "1":
        report = json.loads((CHECKOUT / ".bench_work" / workload / "report.json").read_text())
        for layers in report["layers"]:
            total = sum(layers[name] for name in SELF_TIME_METRICS)
            assert total == pytest.approx(layers["trace.pass_s"], abs=1e-9)
        if workload == "apply_n100k":
            assert result["metrics"]["learn.det_rule_learn_s"]["value"] == 0.0
            assert result["metrics"]["learn.candidate_evals"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "verify_sweep_n20k", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
