"""Output-correctness gate, independent of the edcr code under test.

Every artifact of a pass is recomputed or cross-checked from the corpus
files with csv, numpy and yaml alone: the rule bodies, flags, corrections
and metrics are re-derived here and compared, and the learned rules must
respect their recall budget.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import yaml

from workloads import SWEEP_EPSILONS, Layout, Workload

UNKNOWN = "__unknown__"
TOL = 1e-12
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"


def expected_digests(workload: str) -> dict[str, str]:
    return json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))[workload]


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [row for row in reader if row]


class Corpus:
    """The generated inputs, as plain arrays."""

    def __init__(self, layout: Layout):
        header, rows = _rows(layout.predictions)
        self.ids = [r[0] for r in rows]
        self.pred = np.array([r[1] for r in rows], dtype=object)
        self.gt = np.array([r[2] for r in rows], dtype=object)
        with open(layout.conditions, encoding="utf-8") as handle:
            self.cond_names = handle.readline().rstrip("\n").split(",")[1:]
            lines = handle.read().splitlines()
        m = len(self.cond_names)
        if [line.split(",", 1)[0] for line in lines] != self.ids:
            raise ValueError("conditions rows are not aligned with predictions rows")
        bits = "".join(line.split(",", 1)[1][::2] for line in lines).encode("ascii")
        self.conds = (np.frombuffer(bits, dtype=np.uint8) == ord("1")).reshape(len(lines), m)
        self.index = {name: j for j, name in enumerate(self.cond_names)}

    def any_of(self, names) -> np.ndarray:
        return self.conds[:, [self.index[c] for c in names]].any(axis=1)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def check_ruleset(corpus: Corpus, path: Path) -> list[str]:
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    problems = []
    eps = doc["epsilon"]
    for rule in doc["detection_rules"]:
        cls = rule["class"]
        pred_i = corpus.pred == cls
        body = pred_i & corpus.any_of(rule["conditions"])
        pos = int(np.count_nonzero(body & (corpus.gt != cls)))
        neg = int(np.count_nonzero(body & (corpus.gt == cls)))
        actual = int(np.count_nonzero(corpus.gt == cls))
        budget = (eps[cls] if isinstance(eps, dict) else eps) * actual
        if neg > budget:
            problems.append(f"detection rule for {cls} breaks its recall budget: NEG {neg} > {budget}")
        if not _close(rule["class_support"], (pos + neg) / np.count_nonzero(pred_i)):
            problems.append(f"detection rule for {cls}: recorded class_support is wrong")
        if not _close(rule["confidence"], pos / (pos + neg)):
            problems.append(f"detection rule for {cls}: recorded confidence is wrong")
    for rule in doc["correction_rules"]:
        body = _correction_body(corpus, rule)
        bod = int(np.count_nonzero(body))
        pos = int(np.count_nonzero(body & (corpus.gt == rule["class"])))
        if not _close(rule["support"], bod / len(corpus.ids)):
            problems.append(f"correction rule for {rule['class']}: recorded support is wrong")
        if not _close(rule["confidence"], pos / bod):
            problems.append(f"correction rule for {rule['class']}: recorded confidence is wrong")
    return problems


def _correction_body(corpus: Corpus, rule: dict) -> np.ndarray:
    body = np.zeros(len(corpus.ids), dtype=bool)
    for cond, cls in rule["pairs"]:
        body |= corpus.conds[:, corpus.index[cond]] & (corpus.pred == cls)
    return body


def check_apply(corpus: Corpus, ruleset: Path, revised: Path, trace: Path) -> list[str]:
    """Re-derive flags, fired rules and final labels (body correction scope)."""
    doc = yaml.safe_load(ruleset.read_text(encoding="utf-8"))
    classes = doc["classes"]
    flags = np.zeros(len(corpus.ids), dtype=bool)
    for rule in doc["detection_rules"]:
        flags |= (corpus.pred == rule["class"]) & corpus.any_of(rule["conditions"])
    ordered = sorted(doc["correction_rules"], key=lambda r: (-r["confidence"], classes.index(r["class"])))
    fired = [[] for _ in corpus.ids]
    for rule in ordered:
        for k in np.flatnonzero(_correction_body(corpus, rule)):
            fired[k].append(rule["class"])
    final = [
        f[0] if f else (UNKNOWN if flag else p)
        for f, flag, p in zip(fired, flags, corpus.pred)
    ]

    problems = []
    header, rows = _rows(revised)
    if header != ["sample_id", "pred", "gt"] or [r[0] for r in rows] != corpus.ids:
        problems.append("revised.csv: header or sample ids differ from the input")
    elif [r[2] for r in rows] != list(corpus.gt) or [r[1] for r in rows] != final:
        problems.append("revised.csv: ground truth changed or revised labels are wrong")
    header, rows = _rows(trace)
    expected = [
        [sid, p, "1" if flag else "0", ";".join(f), fin]
        for sid, p, flag, f, fin in zip(corpus.ids, corpus.pred, flags, fired, final)
    ]
    if header != ["sample_id", "original", "flagged", "fired", "final"] or rows != expected:
        problems.append("trace.csv: rows differ from the re-derived trace")
    return problems


def _metrics_table(path: Path) -> dict[tuple[str, str], str]:
    _, rows = _rows(path)
    return {(r[0], r[1]): r[2] for r in rows}


def _class_pr(pred: np.ndarray, gt: np.ndarray, cls: str) -> tuple[float, float]:
    tp = np.count_nonzero((pred == cls) & (gt == cls))
    n_pred = np.count_nonzero(pred == cls)
    n_act = np.count_nonzero(gt == cls)
    return (tp / n_pred if n_pred else 0.0), (tp / n_act if n_act else 0.0)


def check_metrics(corpus: Corpus, revised: Path, trace: Path, metrics: Path) -> list[str]:
    _, rows = _rows(revised)
    pred = np.array([r[1] for r in rows], dtype=object)
    _, trace_rows = _rows(trace)
    flags = np.array([r[2] == "1" for r in trace_rows])
    table = _metrics_table(metrics)
    problems = []
    n = len(corpus.ids)
    if table.get(("n_samples", "")) != str(n):
        problems.append("metrics.csv: wrong n_samples")
    if not _close(float(table[("accuracy_strict", "")]), np.count_nonzero(pred == corpus.gt) / n):
        problems.append("metrics.csv: wrong strict accuracy")
    for cls in sorted(set(corpus.pred)):
        precision, recall = _class_pr(pred, corpus.gt, cls)
        if not (_close(float(table[("precision", cls)]), precision)
                and _close(float(table[("recall", cls)]), recall)):
            problems.append(f"metrics.csv: wrong precision or recall for {cls}")
    errors = corpus.pred != corpus.gt
    hits = np.count_nonzero(flags & errors)
    if not (_close(float(table[("error_precision", "")]), hits / max(np.count_nonzero(flags), 1))
            and _close(float(table[("error_recall", "")]), hits / max(np.count_nonzero(errors), 1))):
        problems.append("metrics.csv: wrong error-detection precision or recall")
    return problems


def check_theorems(corpus: Corpus, path: Path) -> list[str]:
    _, rows = _rows(path)
    if sorted(r[0] for r in rows) != sorted(set(corpus.pred)):
        return ["theorem_report.csv: not one row per class"]
    failed = [r[0] for r in rows if r[11] != "1"]
    return [f"theorem_report.csv: theorem checks failed for {failed}"] if failed else []


def check_sweep(corpus: Corpus, path: Path) -> list[str]:
    _, rows = _rows(path)
    classes = sorted(set(corpus.pred))
    if len(rows) != len(SWEEP_EPSILONS) * len(classes) * 2:
        return [f"sweep.csv: {len(rows)} rows"]
    cut = int(round(len(corpus.ids) * 0.5))
    sides = {"learn": slice(0, cut), "test": slice(cut, None)}
    problems = []
    for r in rows:
        values = [float(v) for v in r[3:]]
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"sweep.csv: value out of range in {r}")
            continue
        side = sides[r[2]]
        precision, recall = _class_pr(corpus.pred[side], corpus.gt[side], r[1])
        if not (_close(values[0], precision) and _close(values[1], recall)):
            problems.append(f"sweep.csv: wrong before-rule precision or recall in {r[:3]}")
    return problems


def check_outputs(workload: Workload, layout: Layout) -> list[str]:
    """Problems found in the outputs of the last pass (empty when correct)."""
    corpus = Corpus(layout)
    out = layout.out
    problems = []
    if workload.learn_in_setup or "learn" in workload.steps:
        problems += check_ruleset(corpus, layout.ruleset(workload))
    if "apply" in workload.steps:
        problems += check_apply(
            corpus, layout.ruleset(workload), out / "apply" / "revised.csv", out / "apply" / "trace.csv"
        )
    if "eval" in workload.steps:
        problems += check_metrics(
            corpus, out / "apply" / "revised.csv", out / "apply" / "trace.csv", out / "eval" / "metrics.csv"
        )
    if "verify" in workload.steps:
        problems += check_theorems(corpus, out / "verify" / "theorem_report.csv")
    if "sweep" in workload.steps:
        problems += check_sweep(corpus, out / "sweep" / "sweep.csv")
    return problems
