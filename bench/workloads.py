"""The benchmark's workloads: corpus shape, the CLI subcommands of one pass,
and the artifacts whose bytes a pass must reproduce.

This module imports nothing from edcr, so the orchestrator can read it even
when the program under test is missing.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 7
NOISE = 0.25
EXTRA_DENSITY = 0.05
SWEEP_EPSILONS = (0.0, 0.05, 0.1, 0.2, 0.3)  # the CLI's default grid


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    extra_columns: int  # random density-0.05 columns appended to the 15 synthetic ones
    learn_in_setup: bool  # learn the ruleset once in set-up instead of in every pass
    steps: tuple[str, ...]  # edcr subcommands of one pass, in order
    probe: bool  # run the known-defect probe (edcr verify) on this corpus


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("apply_n100k", 100_000, 0, True, ("apply", "eval"), False),
        Workload("learn_m271", 20_000, 256, False, ("learn", "apply", "eval"), True),
        Workload("verify_sweep_n20k", 20_000, 0, False, ("verify", "sweep"), False),
    )
}

# Artifacts of each subcommand, relative to the pass output directory.
ARTIFACTS = {
    "learn": ("learn/ruleset.yaml",),
    "apply": ("apply/revised.csv", "apply/trace.csv"),
    "eval": ("eval/metrics.csv",),
    "verify": ("verify/theorem_report.csv",),
    "sweep": ("sweep/sweep.csv",),
}


@dataclass(frozen=True)
class Layout:
    """Where a run keeps its corpus and outputs, under the checkout."""

    root: Path

    @property
    def corpus(self) -> Path:
        return self.root / "corpus"

    @property
    def predictions(self) -> Path:
        return self.corpus / "predictions.csv"

    @property
    def conditions(self) -> Path:
        return self.corpus / "conditions.csv"

    @property
    def setup_ruleset_dir(self) -> Path:
        return self.corpus / "ruleset"

    @property
    def out(self) -> Path:
        return self.root / "out"

    def ruleset(self, workload: Workload) -> Path:
        if workload.learn_in_setup:
            return self.setup_ruleset_dir / "ruleset.yaml"
        return self.out / "learn" / "ruleset.yaml"

    def artifacts(self, workload: Workload) -> dict[str, Path]:
        """Digested files, keyed by a name stable across runs."""
        found = {rel: self.out / rel for step in workload.steps for rel in ARTIFACTS.get(step, ())}
        if workload.learn_in_setup:
            found["setup/ruleset.yaml"] = self.ruleset(workload)
        return found


def pass_argv(workload: Workload, layout: Layout) -> list[list[str]]:
    """The argument vectors of one pass, for ``edcr.cli.main``."""
    p, c, out = str(layout.predictions), str(layout.conditions), layout.out
    argv = {
        "learn": ["learn", "--predictions", p, "--conditions", c, "--out", str(out / "learn")],
        "apply": [
            "apply", "--ruleset", str(layout.ruleset(workload)),
            "--predictions", p, "--conditions", c, "--out", str(out / "apply"),
        ],
        "eval": [
            "eval", "--predictions", str(out / "apply" / "revised.csv"),
            "--trace", str(out / "apply" / "trace.csv"), "--out", str(out / "eval"),
        ],
        "verify": ["verify", "--predictions", p, "--conditions", c, "--out", str(out / "verify")],
        "sweep": ["sweep", "--predictions", p, "--conditions", c, "--out", str(out / "sweep")],
    }
    return [argv[step] for step in workload.steps]


def setup_learn_argv(layout: Layout) -> list[str]:
    return [
        "learn", "--predictions", str(layout.predictions), "--conditions", str(layout.conditions),
        "--out", str(layout.setup_ruleset_dir),
    ]


def probe_argv(layout: Layout) -> list[str]:
    return [
        "verify", "--predictions", str(layout.predictions), "--conditions", str(layout.conditions),
        "--out", str(layout.root / "probe"),
    ]
