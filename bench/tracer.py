"""Span tracing of the edcr layers, installed from outside the package.

The tracer wraps public functions of the ``edcr`` modules at every place they
are bound (modules bind imported names at import time, so ``detection_counts``
is reached through ``edcr.core``, ``edcr.learn`` and ``edcr.theory``), records
one span per call in memory, and restores every original binding on exit.
Per-layer metrics are derived from the recorded spans afterwards.

There are no queues or threads in edcr, so a span's time is all busy time:
no layer has a waiting time to report.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    pass_id: object = None
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _read_bytes(args, kwargs, result) -> dict:
    return {"io.bytes_read": _size(args[0] if args else kwargs.get("path"))}


def _written_bytes(args, kwargs, result) -> dict:
    return {"io.bytes_written": _size(args[0] if args else kwargs.get("path"))}


def _manifest_bytes(args, kwargs, result) -> dict:
    hashed = list(kwargs.get("input_paths", ())) + list(kwargs.get("output_paths", ()))
    return {
        "io.bytes_read": sum(_size(p) for p in hashed),
        "io.bytes_written": _size(result),
    }


def _selected(args, kwargs, result) -> dict:
    return {"learn.conditions_selected": len(result)}


def _rows(args, kwargs, result) -> dict:
    table = args[1] if len(args) > 1 else kwargs["table"]
    return {"rules.rows": table.n}


def _pairs_checked(args, kwargs, result) -> dict:
    return {"theory.submodular_pairs_checked": result.pairs_checked}


# (module, function, span name, counter function or None)
TARGETS = (
    ("edcr.io", "read_predictions", "io.read_predictions", _read_bytes),
    ("edcr.io", "read_conditions", "io.read_conditions", _read_bytes),
    ("edcr.io", "read_trace", "io.read_trace", _read_bytes),
    ("edcr.io", "load_ruleset", "io.load_ruleset", _read_bytes),
    ("edcr.io", "write_predictions", "io.write", _written_bytes),
    ("edcr.io", "write_conditions", "io.write", _written_bytes),
    ("edcr.io", "write_trace", "io.write", _written_bytes),
    ("edcr.io", "save_ruleset", "io.write", _written_bytes),
    ("edcr.io", "write_metrics", "io.write", _written_bytes),
    ("edcr.io", "write_sweep", "io.write", _written_bytes),
    ("edcr.io", "write_theorem_reports", "io.write", _written_bytes),
    ("edcr.io", "write_manifest", "io.write_manifest", _manifest_bytes),
    ("edcr.core", "compute_class_stats", "core.class_stats", None),
    ("edcr.core", "detection_counts", "core.detection_counts", None),
    ("edcr.core", "correction_counts", "core.correction_counts", None),
    ("edcr.learn", "det_rule_learn", "learn.det_rule_learn", _selected),
    ("edcr.learn", "corr_rule_learn", "learn.corr_rule_learn", None),
    ("edcr.rules", "apply_ruleset", "rules.apply_ruleset", _rows),
    ("edcr.theory", "theorem_report", "theory.theorem_report", None),
    ("edcr.theory", "check_submodular", "theory.check_submodular", _pairs_checked),
    ("edcr.theory", "build_correction_scenario", "theory.scenario_build", None),
    ("edcr.evaluate", "metrics_report", "evaluate.metrics", None),
    ("edcr.evaluate", "error_detection_metrics", "evaluate.metrics", None),
    ("edcr.evaluate", "epsilon_sweep", "evaluate.epsilon_sweep", None),
    ("edcr.evaluate", "sequential_split", "evaluate.split", None),
    ("edcr.conditions", "generate_synthetic", "conditions.generate_synthetic", None),
)


class Tracer:
    """Records spans in memory; ``installed()`` patches the edcr layers."""

    def __init__(self, pass_id: object = None) -> None:
        self.spans: list[Span] = []
        self.pass_id = pass_id
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, pass_id=self.pass_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if counter is not None:
                span.counters = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every target, and ``PredictionTable``
        construction; restore all of them on exit."""
        restore: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, name, counter in TARGETS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self.wrap(original, name, counter)
                for owner, binding in bindings_of(original):
                    restore.append((owner, binding, original))
                    setattr(owner, binding, wrapper)
            table_cls = importlib.import_module("edcr.core").PredictionTable
            original_init = table_cls.__dict__["__post_init__"]
            restore.append((table_cls, "__post_init__", original_init))
            table_cls.__post_init__ = self.wrap(original_init, "core.table_build")
            yield self
        finally:
            for owner, binding, original in reversed(restore):
                setattr(owner, binding, original)


def bindings_of(obj) -> list[tuple[object, str]]:
    """Every (module, name) in the loaded edcr package bound to ``obj``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "edcr" or module_name.startswith("edcr.")):
            continue
        for binding, value in list(vars(module).items()):
            if value is obj:
                found.append((module, binding))
    return found


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged, not double counted)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


CLI_COMMANDS = ("learn", "apply", "eval", "verify", "sweep")

# Self-time metrics: together they account for the whole traced pass.
SELF_TIME_METRICS = (
    "cli.self_s",
    "io.read_predictions_s",
    "io.read_conditions_s",
    "io.read_trace_s",
    "io.load_ruleset_s",
    "io.write_s",
    "io.write_manifest_s",
    "core.table_build_s",
    "core.class_stats_s",
    "core.detection_counts_s",
    "core.correction_counts_s",
    "learn.det_rule_learn_s",
    "learn.corr_rule_learn_s",
    "rules.apply_ruleset_s",
    "theory.theorem_report_s",
    "theory.check_submodular_s",
    "theory.scenario_build_s",
    "evaluate.metrics_s",
    "evaluate.epsilon_sweep_s",
    "evaluate.split_s",
)

COUNT_METRICS = (
    "io.bytes_read",
    "io.bytes_written",
    "core.table_builds",
    "core.class_stats_calls",
    "core.detection_counts_calls",
    "core.correction_counts_calls",
    "learn.candidate_evals",
    "learn.conditions_selected",
    "rules.apply_calls",
    "theory.submodular_pairs_checked",
)

_CALL_COUNTS = {
    "core.table_build": "core.table_builds",
    "core.class_stats": "core.class_stats_calls",
    "core.detection_counts": "core.detection_counts_calls",
    "core.correction_counts": "core.correction_counts_calls",
    "rules.apply_ruleset": "rules.apply_calls",
}


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans recorded during it.

    The pass is the single root span; cli.<command> spans are its children.
    ``cli.<command>_s`` is inclusive, every other ``_s`` is self time, and
    the self times sum to the pass's duration.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {name: 0.0 for name in SELF_TIME_METRICS}
    out.update({f"cli.{cmd}_s": 0.0 for cmd in CLI_COMMANDS})
    out.update({name: 0 for name in COUNT_METRICS})
    apply_inclusive = 0.0
    rows = 0
    for index, span in enumerate(spans):
        if span.parent is None or span.name.startswith("cli."):
            out["cli.self_s"] += selfs[index]
            if span.parent is not None:
                out[f"{span.name}_s"] += span.duration
        else:
            key = f"{span.name}_s"
            out[key] = out.get(key, 0.0) + selfs[index]
        if span.name in _CALL_COUNTS:
            out[_CALL_COUNTS[span.name]] += 1
        if (
            span.name == "core.detection_counts"
            and span.parent is not None
            and spans[span.parent].name == "learn.det_rule_learn"
        ):
            out["learn.candidate_evals"] += 1
        if span.name == "rules.apply_ruleset":
            apply_inclusive += span.duration
        for key, value in span.counters.items():
            if key == "rules.rows":
                rows += value
            else:
                out[key] += value
    out["learn.selected_per_eval"] = (
        out["learn.conditions_selected"] / out["learn.candidate_evals"]
        if out["learn.candidate_evals"]
        else 0.0
    )
    out["rules.rows_per_s"] = rows / apply_inclusive if apply_inclusive > 0 else 0.0
    out["trace.pass_s"] = sum(span.duration for span in spans if span.parent is None)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
