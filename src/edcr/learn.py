"""Rule learning: greedy detection under a recall budget, double-greedy
correction, and their composition into a full rule set.  Classes are int ids
into the table's :class:`ClassSet`, and a candidate correction pair is a
(condition name, class id) tuple.

Detection learning for class i repeatedly adds the condition with the largest
body&head count POS among candidates whose body&not-head count NEG stays
within the budget eps * N_i * P_i / R_i; keeping NEG within that budget caps
the empirical recall reduction at eps exactly.  The greedy is incremental:
the rows predicted as i are packed once into uint64 words, split into error
rows (gt != i) and correct rows (gt == i), and every candidate column is
packed along the same rows.  Each round keeps the rows the chosen conditions
already cover and scores every open candidate in one vectorised pass, its
marginal POS and NEG being the popcounts of its column over the uncovered
error and correct rows.  A candidate whose NEG would exceed the budget is
closed for good: NEG is monotone, so it only grows as conditions are added.
The first maximum of marginal POS in sorted-name order wins, so ties go to
the smallest name, and a feasible candidate is added even with zero gain.
A round costs O(m * N_i / 64) word operations, so a class costs
O(rounds * m * N_i / 64).

Correction learning walks candidate (condition, class) pairs sorted by their
singleton confidence, keeping a pair when adding it to the growing set raises
confidence at least as much as dropping it from the shrinking set would, and
returns nothing unless the final confidence strictly beats the class's
baseline precision.  It is packed too: each pair's body (condition AND
predicted as the pair's class) is packed once along the sample axis, a set
of pairs is scored by OR-ing their words, and BOD and POS are the popcounts
of that union and of its AND with the rows whose ground truth is the class.
Each confidence is the ``pos / bod`` of Python ints that
``correction_counts`` gives, so every comparison of the walk is the same.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    ClassStats,
    ConditionMatrix,
    ContractError,
    PredictionTable,
    _class_of,
    _pack_rows,
    _require_aligned,
    check_unit_interval,
    compute_class_stats,
    correction_counts,
    detection_counts,
)
from .rules import CorrectionRule, DetectionRule, RuleSet

Pair = tuple[str, int]


def recall_budget(stats: ClassStats, class_id: int, epsilon: float) -> float:
    """Maximum NEG allowed for class ``class_id`` under recall cap ``epsilon``.

    Equals eps * N_i * P_i / R_i; evaluated as eps * (TP_i + FN_i), the exact
    integer form of the same quantity, to avoid float drift at the boundary.
    """
    return epsilon * (int(stats.tp[class_id]) + int(stats.fn[class_id]))


def det_rule_learn(
    class_i: int,
    epsilon: float,
    table: PredictionTable,
    conds: ConditionMatrix,
    stats: ClassStats | None = None,
) -> tuple[str, ...]:
    """Greedy detection-condition selection for the class id ``class_i``,
    over every condition of ``conds``.

    Returns the selected condition names (possibly empty).  Classes never
    predicted or with zero recall are skipped: their budget is undefined.
    Argmax ties go to the lexicographically smallest condition name; see the
    module docstring for the incremental scoring.
    """
    check_unit_interval("epsilon", epsilon)
    i = _class_of(table, conds, class_i)
    if stats is None:
        stats = compute_class_stats(table)
    if stats.n_predicted[i] == 0 or stats.recall[i] == 0.0:
        return ()
    budget = recall_budget(stats, i, epsilon)
    pool = sorted(conds.condition_names)
    cols = [conds.column_index(name) for name in pool]

    rows = np.flatnonzero(table.pred_ids == i)
    words = _pack_rows(conds.values.T[:, rows][cols])  # one row of words per candidate
    is_error = table.gt_ids[rows] != i
    err_left = _pack_rows(is_error[None, :])[0]  # uncovered error rows
    ok_left = _pack_rows(~is_error[None, :])[0]  # uncovered correct rows
    is_open = np.ones(len(pool), dtype=bool)
    neg = 0
    chosen: list[str] = []
    while True:
        cand = np.flatnonzero(is_open)
        gain_neg = np.bitwise_count(words[cand] & ok_left).sum(axis=1, dtype=np.int64)
        feasible = neg + gain_neg <= budget
        is_open[cand[~feasible]] = False  # NEG only grows: closed for good
        cand, gain_neg = cand[feasible], gain_neg[feasible]
        if not cand.size:
            break
        gain_pos = np.bitwise_count(words[cand] & err_left).sum(axis=1, dtype=np.int64)
        best = int(np.argmax(gain_pos))
        j = int(cand[best])
        is_open[j] = False
        neg += int(gain_neg[best])
        err_left &= ~words[j]
        ok_left &= ~words[j]
        chosen.append(pool[j])
    return tuple(sorted(chosen))


def corr_rule_learn(
    class_i: int,
    cc_all: Iterable[Pair],
    table: PredictionTable,
    conds: ConditionMatrix,
    stats: ClassStats | None = None,
) -> tuple[Pair, ...]:
    """Double-greedy correction-pair selection for the class id ``class_i``.

    Candidate pairs whose singleton confidence does not beat the class's
    baseline precision are dropped up front; the survivors are walked from
    highest to lowest singleton confidence (ties by condition name then class
    id), comparing the marginal confidence gain of adding against that of
    removing.  The result is discarded entirely unless its confidence strictly
    exceeds the baseline precision.
    """
    i = _class_of(table, conds, class_i)
    if stats is None:
        stats = compute_class_stats(table)
    p_i = float(stats.precision[i])

    columns: dict[Pair, int] = {}  # each distinct pair, with its condition's column
    for cond_name, pair_class in cc_all:
        pair = (cond_name, table.classes.check_id(pair_class))
        columns.setdefault(pair, conds.column_index(cond_name))
    if not columns:
        return ()
    pairs = list(columns)
    pair_ids = np.array([class_id for _, class_id in pairs])
    words = _pack_rows(conds.values.T[list(columns.values())] & (table.pred_ids == pair_ids[:, None]))
    head = _pack_rows((table.gt_ids == i)[None, :])[0]

    def confidence(body: np.ndarray) -> float:
        bod = int(np.bitwise_count(body).sum())
        return int(np.bitwise_count(body & head).sum()) / bod if bod else 0.0

    def union(members: Sequence[int]) -> np.ndarray:
        return np.bitwise_or.reduce(words[members], axis=0)

    singleton = [confidence(body) for body in words]
    order = sorted(
        (j for j in range(len(pairs)) if singleton[j] > p_i),
        key=lambda j: (-singleton[j], pairs[j]),
    )

    kept: list[int] = []
    kept_body = np.zeros_like(head)  # union of the kept pairs' bodies
    remaining = list(order)
    for j in order:
        gain_add = confidence(kept_body | words[j]) - confidence(kept_body)
        without = [r for r in remaining if r != j]
        gain_drop = confidence(union(without)) - confidence(union(remaining))
        if gain_add >= gain_drop:
            kept.append(j)
            kept_body |= words[j]
        else:
            remaining = without

    if confidence(kept_body) <= p_i:
        return ()
    return tuple(sorted(pairs[j] for j in kept))


def det_corr_rule_learn(
    epsilon: float | Mapping[str, float],
    table: PredictionTable,
    conds: ConditionMatrix,
) -> RuleSet:
    """Learn detection rules for every class, then correction rules over the
    pairs (condition, class) contributed by the selected detection conditions.

    ``epsilon`` is the per-class cap on recall reduction: one value for every
    class, or a mapping from class name to value that names every class of
    the table.  Emits at most one rule of each kind per class; recorded stats
    are measured on the learning table so downstream application needs no
    ground truth.
    """
    stats = compute_class_stats(table)  # which requires ground truth
    _require_aligned(table, conds)
    per_class = epsilon if isinstance(epsilon, Mapping) else dict.fromkeys(table.classes.names, epsilon)

    detection: list[DetectionRule] = []
    cc_all: list[Pair] = []
    for i, name in enumerate(table.classes.names):
        if name not in per_class:
            raise ContractError(f"no epsilon configured for class {name!r}")
        dc = det_rule_learn(i, per_class[name], table, conds, stats=stats)
        if dc:
            counts = detection_counts(table, conds, i, dc)
            detection.append(DetectionRule(i, dc, counts.class_support, counts.confidence))
            cc_all.extend((cond, i) for cond in dc)

    correction: list[CorrectionRule] = []
    for i in range(len(table.classes)):
        cc = corr_rule_learn(i, cc_all, table, conds, stats=stats)
        if cc:
            counts = correction_counts(table, conds, i, cc)
            correction.append(CorrectionRule(i, cc, counts.support, counts.confidence))

    return RuleSet(
        classes=table.classes,
        condition_names=conds.condition_names,
        epsilon=dict(epsilon) if isinstance(epsilon, Mapping) else epsilon,
        detection_rules=tuple(detection),
        correction_rules=tuple(correction),
    )
