"""Rule learning: greedy detection under a recall budget, double-greedy
correction, and their composition into a full rule set.  Classes are int ids
into the table's :class:`ClassSet`, and a candidate correction pair is a
(condition name, class id) tuple.

Detection learning for class i repeatedly adds the condition with the largest
body&head count POS among candidates whose body&not-head count NEG stays
within the budget eps * N_i * P_i / R_i; keeping NEG within that budget caps
the empirical recall reduction at eps exactly.  The greedy is incremental.
Each candidate's row of ``conds.words`` is scored, over all n rows, against
two masks: the error rows (predicted as i, gt != i) and the correct rows
(predicted as i, gt == i).  Each round keeps the rows the chosen conditions
already cover and scores every open candidate in one vectorised pass, its
marginal POS and NEG being the popcounts of its words over the uncovered
error and correct rows.  A candidate whose NEG would exceed the budget is
closed for good: NEG is monotone, so it only grows as conditions are added.
The first maximum of marginal POS in sorted-name order wins, so ties go to
the smallest name, and a feasible candidate is added even with zero gain.
A round costs O(m * n / 64) word operations; a class, O(rounds * m * n / 64).

Correction learning walks candidate (condition, class) pairs sorted by their
singleton confidence, keeping a pair when adding it to the growing set raises
confidence at least as much as dropping it from the shrinking set would, and
returns nothing unless the final confidence strictly beats the class's
baseline precision.  Each pair's body (condition AND predicted as the pair's
class) is one row of ``core._pair_words``; BOD and POS of a set of pairs are
the popcounts of the OR of their rows and of its AND with the class's ground
truth.  The singletons take one vectorised pass, and before step t the
shrinking set is the kept pairs OR ``tails[t]``, the suffix OR of the walk
order, so a step costs O(n / 64) word operations.  Confidences are the
``pos / bod`` doubles ``correction_counts`` gives (int64 counts below 2**53
divide as Python ints do).  Class i is given only the pairs (q, r) with a row
of ground truth i predicted r: any other pair has POS 0, so it cannot beat
the baseline, and the filter is exact.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .core import (
    ClassStats,
    ConditionMatrix,
    PredictionTable,
    _class_of,
    _pack_rows,
    _pair_words,
    _ratio,
    _require_aligned,
    check_unit_interval,
    correction_counts,
    detection_counts,
)
from .rules import CorrectionRule, DetectionRule, RuleSet, check_epsilon

Pair = tuple[str, int]


def recall_budget(stats: ClassStats, class_id: int, epsilon: float) -> float:
    """Maximum NEG allowed for class ``class_id`` under recall cap ``epsilon``.

    Equals eps * N_i * P_i / R_i; evaluated as eps * (TP_i + FN_i), the exact
    integer form of the same quantity, to avoid float drift at the boundary.
    ``epsilon`` is a number in [0, 1] (:func:`~edcr.core.check_unit_interval`),
    and a ``class_id`` outside the class set is an :class:`UnknownClassError`.
    """
    epsilon = check_unit_interval("epsilon", epsilon)
    i = stats.classes.check_id(class_id)
    return epsilon * (int(stats.tp[i]) + int(stats.fn[i]))


def det_rule_learn(
    class_i: int,
    epsilon: float,
    table: PredictionTable,
    conds: ConditionMatrix,
) -> tuple[str, ...]:
    """Greedy detection-condition selection for the class id ``class_i``,
    over every condition of ``conds``.

    Returns the selected condition names (possibly empty).  Classes never
    predicted or with zero recall are skipped: their budget is undefined.
    Argmax ties go to the lexicographically smallest condition name; see the
    module docstring for the incremental scoring.
    """
    i = _class_of(table, conds, class_i)
    stats = table.stats
    budget = recall_budget(stats, i, epsilon)  # checks epsilon, also for a class that is skipped
    if stats.n_predicted[i] == 0 or stats.recall[i] == 0.0:
        return ()
    pool = sorted(conds.condition_names)
    words = conds.words[[conds.column_index(name) for name in pool]]  # one row per candidate
    predicted, correct = table.pred_ids == i, table.gt_ids == i
    err_left, ok_left = _pack_rows(np.stack([predicted & ~correct, predicted & correct]))  # uncovered rows
    cand = np.arange(len(pool))  # the open candidates, ascending, so ties go to the smallest name
    neg = 0
    chosen: list[str] = []
    while True:
        gain_neg = np.bitwise_count(words[cand] & ok_left).sum(axis=1, dtype=np.int64)
        feasible = neg + gain_neg <= budget  # NEG only grows: an infeasible candidate is closed for good
        cand, gain_neg = cand[feasible], gain_neg[feasible]
        if not cand.size:
            break
        gain_pos = np.bitwise_count(words[cand] & err_left).sum(axis=1, dtype=np.int64)
        best = int(np.argmax(gain_pos))
        j = int(cand[best])
        cand = np.delete(cand, best)
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
    p_i = float(table.stats.precision[i])

    pairs = list(dict.fromkeys(table.classes.check_pairs(cc_all)))
    words = _pair_words(conds, table.pred_ids, pairs)
    head = _pack_rows((table.gt_ids == i)[None, :])[0]

    def confidence(body: np.ndarray) -> float:
        bod = int(np.bitwise_count(body).sum())
        return int(np.bitwise_count(body & head).sum()) / bod if bod else 0.0

    bod = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    pos = np.bitwise_count(words & head).sum(axis=1, dtype=np.int64)
    singleton = _ratio(pos, bod).tolist()
    beat = [j for j in range(len(pairs)) if singleton[j] > p_i]
    order = sorted(beat, key=lambda j: (-singleton[j], pairs[j]))
    tails = np.bitwise_or.accumulate(np.vstack([np.zeros_like(head)[None], words[order[::-1]]]), axis=0)[::-1]

    kept: list[int] = []
    kept_body = np.zeros_like(head)  # union of the kept pairs' bodies
    for t, j in enumerate(order):
        gain_add = confidence(kept_body | words[j]) - confidence(kept_body)
        gain_drop = confidence(kept_body | tails[t + 1]) - confidence(kept_body | tails[t])
        if gain_add >= gain_drop:
            kept.append(j)
            kept_body |= words[j]

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
    class, or a mapping from class name to value that names exactly the
    classes of the table, checked by :func:`rules.check_epsilon` before any
    class is learned.  Emits at most one rule of each kind per class; recorded stats
    are measured on the learning table so downstream application needs no
    ground truth.
    """
    table.require_ground_truth()
    _require_aligned(table, conds)
    epsilon = check_epsilon(epsilon, table.classes)
    per_class = epsilon if isinstance(epsilon, dict) else dict.fromkeys(table.classes.names, epsilon)

    detection: list[DetectionRule] = []
    for i, name in enumerate(table.classes.names):
        dc = det_rule_learn(i, per_class[name], table, conds)
        if dc:
            counts = detection_counts(table, conds, i, dc)
            detection.append(DetectionRule(i, dc, counts.class_support, counts.confidence))

    k, pred, gt = len(table.classes), table.pred_ids, table.gt_ids
    rows = (pred >= 0) & (gt < k)
    meets = np.bincount(gt[rows] * np.int64(k) + pred[rows], minlength=k * k).reshape(k, k)  # [i, r]: gt i, pred r
    correction: list[CorrectionRule] = []
    for i, met in enumerate(meets.tolist()):
        cc_i = [(cond, rule.target) for rule in detection if met[rule.target] for cond in rule.conditions]
        cc = corr_rule_learn(i, cc_i, table, conds)
        if cc:
            counts = correction_counts(table, conds, i, cc)
            correction.append(CorrectionRule(i, cc, counts.support, counts.confidence))

    return RuleSet(
        classes=table.classes,
        condition_names=conds.condition_names,
        epsilon=epsilon,
        detection_rules=tuple(detection),
        correction_rules=tuple(correction),
    )
