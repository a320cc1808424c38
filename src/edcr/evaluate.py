"""Metrics and experiment drivers: error-detection scoring, accuracy under
strict or novel-aware scoring, the epsilon sweep with its theoretical-recall
overlay, and the unseen-class zero/few-shot protocol.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConditionMatrix,
    ContractError,
    PredictionTable,
    compute_class_stats,
)
from .learn import det_corr_rule_learn
from .rules import apply_ruleset
from .theory import detection_effect


class ScoringMode(enum.Enum):
    """How UNKNOWN predictions score: always wrong (STRICT), or correct when
    the ground truth lies outside the class set (NOVEL_AWARE)."""

    STRICT = "strict"
    NOVEL_AWARE = "novel-aware"

    @classmethod
    def from_string(cls, text: str) -> "ScoringMode":
        normalized = text.strip().lower().replace("_", "-")
        for mode in cls:
            if mode.value == normalized:
                return mode
        raise ContractError(f"unknown scoring mode {text!r}; use strict or novel-aware")


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class ErrorMetrics:
    """Precision/recall/F1 of detection flags against prediction != truth."""

    precision: float
    recall: float
    f1: float


def error_detection_metrics(flags: Sequence[bool], table: PredictionTable) -> ErrorMetrics:
    """Score detection verdicts with actual errors as the positive class."""
    table.require_ground_truth()
    flag_arr = np.asarray(flags, dtype=bool)
    if flag_arr.shape != (table.n,):
        raise ContractError(f"{flag_arr.shape[0] if flag_arr.ndim else 0} flags for {table.n} samples")
    actual = table.pred_ids != table.gt_ids
    raised = int(np.count_nonzero(flag_arr))
    errors = int(np.count_nonzero(actual))
    true_flags = int(np.count_nonzero(flag_arr & actual))
    precision = true_flags / raised if raised > 0 else 0.0
    recall = true_flags / errors if errors > 0 else 0.0
    return ErrorMetrics(precision, recall, f1_score(precision, recall))


def accuracy(table: PredictionTable, mode: ScoringMode = ScoringMode.STRICT) -> float:
    """Fraction of correct predictions under the given scoring mode."""
    table.require_ground_truth()
    correct = np.count_nonzero(table.pred_ids == table.gt_ids)
    if mode is ScoringMode.NOVEL_AWARE:
        correct += np.count_nonzero((table.pred_ids == -1) & (table.gt_ids >= len(table.classes)))
    return int(correct) / table.n if table.n else 0.0


@dataclass(frozen=True)
class ClassMetrics:
    class_name: str
    precision: float
    recall: float
    f1: float
    n_predicted: int
    n_actual: int


@dataclass(frozen=True)
class MetricsReport:
    """Full evaluation of one table: per-class scores, accuracy under the
    chosen mode (plus both modes for reference), and optionally the
    error-detection scores of an application's flags, which are scored
    against the original predictions (:func:`error_detection_metrics`)."""

    n_samples: int
    mode: ScoringMode
    accuracy: float
    accuracy_strict: float
    accuracy_novel_aware: float
    per_class: tuple[ClassMetrics, ...]
    error_detection: ErrorMetrics | None = None


def metrics_report(table: PredictionTable, mode: ScoringMode = ScoringMode.STRICT) -> MetricsReport:
    stats = compute_class_stats(table)
    per_class = tuple(
        ClassMetrics(
            class_name=name,
            precision=float(stats.precision[i]),
            recall=float(stats.recall[i]),
            f1=f1_score(float(stats.precision[i]), float(stats.recall[i])),
            n_predicted=int(stats.n_predicted[i]),
            n_actual=int(stats.n_actual[i]),
        )
        for i, name in enumerate(table.classes.names)
    )
    strict = accuracy(table, ScoringMode.STRICT)
    novel = accuracy(table, ScoringMode.NOVEL_AWARE)
    return MetricsReport(
        n_samples=table.n,
        mode=mode,
        accuracy=strict if mode is ScoringMode.STRICT else novel,
        accuracy_strict=strict,
        accuracy_novel_aware=novel,
        per_class=per_class,
    )


@dataclass(frozen=True)
class Split:
    """A learn/test partition of one corpus; sample ids never overlap."""

    learn_table: PredictionTable
    learn_conds: ConditionMatrix
    test_table: PredictionTable
    test_conds: ConditionMatrix

    def __post_init__(self) -> None:
        overlap = set(self.learn_table.sample_ids) & set(self.test_table.sample_ids)
        if overlap:
            raise ContractError(f"learn/test splits overlap on ids {sorted(overlap)[:5]}")


def sequential_split(
    table: PredictionTable, conds: ConditionMatrix, learn_fraction: float = 0.5
) -> Split:
    """Prefix/suffix split in sample order: no shuffling, no id overlap."""
    if not 0.0 < learn_fraction < 1.0:
        raise ContractError(f"learn_fraction must lie strictly in (0, 1), got {learn_fraction}")
    cut = int(round(table.n * learn_fraction))
    if cut < 1 or cut >= table.n:
        raise ContractError(f"learn_fraction {learn_fraction} leaves an empty split for n={table.n}")
    learn_idx = list(range(cut))
    test_idx = list(range(cut, table.n))
    return Split(
        table.subset(learn_idx),
        conds.rows(learn_idx),
        table.subset(test_idx),
        conds.rows(test_idx),
    )


@dataclass(frozen=True)
class SweepRow:
    """Per-(epsilon, class, split) outcome, plus the theoretical recall
    reduction implied by that class's learned detection rule."""

    epsilon: float
    class_name: str
    split: str
    precision_before: float
    recall_before: float
    f1_before: float
    precision_after: float
    recall_after: float
    f1_after: float
    theoretical_recall_reduction: float


def epsilon_sweep(epsilons: Sequence[float], split: Split) -> tuple[SweepRow, ...]:
    """Learn a rule set per epsilon on the learn side, apply it to both sides,
    and tabulate per-class precision/recall/F1 before and after, with the
    theoretical recall reduction computed from the learned rule stats."""
    epsilons = tuple(epsilons)
    if not epsilons:
        raise ContractError("epsilon sweep needs at least one epsilon")
    rows: list[SweepRow] = []
    for epsilon in epsilons:
        rule_set = det_corr_rule_learn(epsilon, split.learn_table, split.learn_conds)
        learn_stats = compute_class_stats(split.learn_table)
        tr = {rule.target: detection_effect(rule, learn_stats)[1] for rule in rule_set.detection_rules}
        for split_name, tbl, cnd in (
            ("learn", split.learn_table, split.learn_conds),
            ("test", split.test_table, split.test_conds),
        ):
            before = compute_class_stats(tbl)
            revised, _ = apply_ruleset(rule_set, tbl, cnd)
            after = compute_class_stats(revised)
            for i, name in enumerate(tbl.classes.names):
                rows.append(
                    SweepRow(
                        epsilon=float(epsilon),
                        class_name=name,
                        split=split_name,
                        precision_before=float(before.precision[i]),
                        recall_before=float(before.recall[i]),
                        f1_before=f1_score(float(before.precision[i]), float(before.recall[i])),
                        precision_after=float(after.precision[i]),
                        recall_after=float(after.recall[i]),
                        f1_after=f1_score(float(after.precision[i]), float(after.recall[i])),
                        theoretical_recall_reduction=tr.get(i, 0.0),
                    )
                )
    return tuple(rows)


@dataclass(frozen=True)
class UnseenRow:
    """One few-shot setting: the share of holdout-class samples granted to the
    rule-learning set (0 = zero-shot), and accuracies on the mixed test set."""

    fraction: float
    baseline_accuracy: float
    edcr_accuracy: float
    delta: float


def unseen_class_experiment(
    table: PredictionTable,
    conds: ConditionMatrix,
    holdout: Sequence[str],
    fractions: Sequence[float] = (),
    epsilon: float = 0.1,
    learn_fraction: float = 0.5,
) -> tuple[UnseenRow, ...]:
    """Zero/few-shot protocol for classes the base model cannot predict.

    Rules are first learned on the holdout-free part of the learn split
    (zero-shot), then re-learned with each requested fraction of the learn
    split's holdout-class samples added to the rule-learning set only; the
    base model's predictions never change.  Accuracy is NOVEL_AWARE on the
    mixed test split, so routing a holdout sample to UNKNOWN counts as
    correct.
    """
    table.require_ground_truth()
    holdout = tuple(holdout)
    if not holdout:
        raise ContractError("need at least one holdout class")
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ContractError(f"few-shot fraction must lie in [0, 1], got {fraction}")
    gt_names = set(table.names(np.unique(table.gt_ids)))
    for name in holdout:
        if name in table.classes.names:
            raise ContractError(
                f"holdout class {name!r} is predictable; it must be outside the class set"
            )
        if name not in gt_names:
            raise ContractError(f"holdout class {name!r} never occurs in ground truth")

    split = sequential_split(table, conds, learn_fraction)
    held_ids = [len(table.classes) + table.novel_names.index(name) for name in holdout]
    is_held = np.isin(split.learn_table.gt_ids, held_ids)
    seen_idx, held_idx = np.flatnonzero(~is_held), np.flatnonzero(is_held)

    settings = sorted({0.0, *(float(f) for f in fractions)})
    baseline = accuracy(split.test_table, ScoringMode.NOVEL_AWARE)
    rows: list[UnseenRow] = []
    for fraction in settings:
        n_shot = int(round(fraction * len(held_idx)))
        idx = np.sort(np.concatenate([seen_idx, held_idx[:n_shot]]))
        learn_table = split.learn_table.subset(idx)
        learn_conds = split.learn_conds.rows(idx)
        rule_set = det_corr_rule_learn(epsilon, learn_table, learn_conds)
        revised, _ = apply_ruleset(rule_set, split.test_table, split.test_conds)
        edcr = accuracy(revised, ScoringMode.NOVEL_AWARE)
        rows.append(UnseenRow(fraction, baseline, edcr, edcr - baseline))
    return tuple(rows)
