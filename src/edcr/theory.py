"""Closed-form effects of rules on precision/recall, plus the machinery that
certifies the learners: submodularity/monotonicity checks of the counting
functions, exhaustive brute-force optimizers for small instances, and
constructors for tables that realize target statistics exactly so predicted
deltas can be replayed empirically.

All counts stay integers until the final division, so predicted and measured
quantities agree to rational-arithmetic accuracy (tolerance 1e-9).

The checks and the oracles count through one kernel, ``_cover_counts``.  A
POS, NEG or BOD count of a condition subset S is the number of rows whose
packed condition words meet S.  Equal rows meet the same subsets, so the rows
are compressed once to their distinct patterns and multiplicities, and a
block of subsets is counted as ``counts @ ((patterns & S) != 0).any(-1)``:
the same integer sum regrouped, hence exact.  Words are taken one at a time
and subsets in blocks, so each temporary stays under 512 KB, in cache; at
m=271, where almost every row is its own pattern, one 32 MB (block,
patterns, words) temporary was seven times slower.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ClassSet,
    ClassStats,
    ConditionMatrix,
    ContractError,
    DegenerateStatsError,
    PredictionTable,
    _class_of,
    _pack_rows,
    check_seed,
    check_unit_interval,
    compute_class_stats,
    correction_counts,
    detection_counts,
    rule_body,
)
from .learn import Pair, det_rule_learn, recall_budget
from .rules import CorrectionRule, DetectionRule, RuleSet, apply_ruleset

RATIONAL_TOLERANCE = 1e-9


def precision_delta_exact(class_support: float, confidence: float, precision: float) -> float:
    """Exact precision change from one detection rule:
    s_i / (1 - s_i) * (c + P_i - 1).  Negative when the rule flags more
    correct predictions than errors."""
    if not 0.0 <= class_support <= 1.0:
        raise ContractError(f"class support must lie in [0, 1], got {class_support}")
    if class_support == 1.0:
        raise DegenerateStatsError(
            "class support 1 removes every prediction of the class; precision is undefined"
        )
    return class_support / (1.0 - class_support) * (confidence + precision - 1.0)


def precision_delta_bound(class_support: float, confidence: float) -> float:
    """Upper bound c * s_i on the precision gain of a detection rule; valid
    whenever s_i <= 1 - P_i (the caller checks that side condition)."""
    return confidence * class_support


def recall_delta_exact(
    class_support: float, confidence: float, recall: float, precision: float
) -> float:
    """Exact magnitude of the recall decrease from one detection rule:
    (1 - c) * s_i * R_i / P_i."""
    if precision <= 0.0:
        raise DegenerateStatsError("recall delta is undefined for a class with zero precision")
    return (1.0 - confidence) * class_support * recall / precision


def detection_effect(rule: DetectionRule, stats: ClassStats) -> tuple[float | None, float]:
    """A learned detection rule's exact precision change and recall decrease
    on the table ``stats`` counts, from its recorded s_i and c.  The precision
    change is None when s_i = 1, where it is undefined.  A learned rule's
    class has recall > 0, so its precision is > 0 and the recall decrease is
    always defined."""
    p_i, r_i = float(stats.precision[rule.target]), float(stats.recall[rule.target])
    d_recall = recall_delta_exact(rule.class_support, rule.confidence, r_i, p_i)
    if rule.class_support == 1.0:
        return None, d_recall
    return precision_delta_exact(rule.class_support, rule.confidence, p_i), d_recall


def correction_precision_delta(
    support: float, confidence: float, precision: float, prior: float
) -> float:
    """Exact precision change from one correction rule:
    (c*s - P_i*s) / (prior_i + s); its sign is the sign of c - P_i."""
    if prior + support <= 0.0:
        raise DegenerateStatsError(
            "correction precision delta is undefined when prior + support is zero"
        )
    return (confidence * support - precision * support) / (prior + support)


def correction_recall_post(tp: int, fn: int, pos: int) -> float:
    """Recall after a correction rule adds ``pos`` true positives:
    (TP_i + POS) / (TP_i + FN_i)."""
    if tp + fn <= 0:
        raise DegenerateStatsError("post-correction recall is undefined when TP + FN is zero")
    return (tp + pos) / (tp + fn)


# ---------------------------------------------------------------------------
# Subset-indexed counting (shared by the property checks and the oracles)
# ---------------------------------------------------------------------------

_BLOCK_ELEMENTS = 1 << 16  # (subset, pattern) cells per block: 512 KB of words


def _cover_counts(rows: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Number of ``rows`` meeting each of ``subsets`` (packed words of equal
    width) as int64, counted over distinct row patterns; see the module
    docstring."""
    patterns, counts = np.unique(rows, axis=0, return_counts=True)
    by_word = np.ascontiguousarray(patterns.T)
    block = max(1, _BLOCK_ELEMENTS // max(1, len(patterns)))
    out = np.empty(len(subsets), dtype=np.int64)
    for start in range(0, len(subsets), block):
        chunk = subsets[start : start + block]
        hit = np.zeros((len(chunk), len(patterns)), dtype=bool)
        for w, column in enumerate(by_word):
            hit |= (chunk[:, w, None] & column) != 0
        out[start : start + block] = hit @ counts
    return out


def _all_subsets(k: int) -> np.ndarray:
    """Every subset of k <= 64 members as one word each, indexed by bitmask."""
    return np.arange(1 << k, dtype=np.uint64).reshape(-1, 1)


def _subset_names(words: np.ndarray, names: Sequence) -> tuple:
    """Members of ``names`` (conditions or pairs) in the subset ``words``."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little", count=len(names))
    return tuple(names[j] for j in np.flatnonzero(bits))


@dataclass(frozen=True)
class SubmodularityReport:
    """Outcome of checking one counting function on one instance: lattice
    inequality f(A)+f(B) >= f(A|B)+f(A&B), monotonicity, and f(empty)=0."""

    quantity: str
    n_conditions: int
    exhaustive: bool
    pairs_checked: int
    counterexample: tuple | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _random_subset_pairs(rng: np.random.Generator, m: int, trials: int, block: int = 1024):
    """``trials`` pairs of uniformly random subsets of m conditions, as one
    ``(a, b)`` pair of word arrays per block of at most ``block`` pairs."""
    for start in range(0, trials, block):
        words = _pack_rows(rng.integers(0, 2, size=(2 * min(block, trials - start), m), dtype=bool))
        yield words[::2], words[1::2]


def check_submodular(
    quantity: str,
    class_i: int,
    table: PredictionTable,
    conds: ConditionMatrix,
    trials: int = 2000,
    seed: int = 0,
    exhaustive_limit: int = 12,
) -> SubmodularityReport:
    """Check that a detection counting function (``"pos"``, ``"neg"`` or
    ``"bod"``) of the class id ``class_i`` is submodular, monotone, and
    normalized over condition subsets.

    Instances with at most ``exhaustive_limit`` conditions are checked over
    every subset pair; larger ones are sampled ``trials`` times.  Returns a
    counterexample if any check fails (there must be none): the first pair in
    scan order, where pair (a, b) is checked for the lattice inequality
    before monotonicity.
    """
    if quantity not in ("pos", "neg", "bod"):
        raise ContractError(f"quantity must be pos, neg, or bod, got {quantity!r}")
    if trials < 0:
        raise ContractError(f"trials must be non-negative, got {trials}")
    seed = check_seed(seed)
    i = _class_of(table, conds, class_i)
    names = list(conds.condition_names)
    m = len(names)

    pred_i = table.pred_ids == i
    head = table.gt_ids != i
    row_filter = {
        "pos": pred_i & head,
        "neg": pred_i & ~head,
        "bod": pred_i,
    }[quantity]
    rows = _pack_rows(conds.values[row_filter])

    exhaustive = m <= exhaustive_limit

    def report(checked: int, kind: str | None = None, a=None, b=None, *counts) -> SubmodularityReport:
        example = None if kind is None else (
            kind, _subset_names(a, names), _subset_names(b, names), *map(int, counts))
        return SubmodularityReport(quantity, m, exhaustive, checked, example)

    if exhaustive:
        subsets = _all_subsets(m)
        f = _cover_counts(rows, subsets)
        if f[0] != 0:
            return SubmodularityReport(quantity, m, True, 0, ("normalization", (), (), int(f[0])))
        all_b = np.arange(len(f))
        step = max(1, (1 << 14) // len(f))  # values of a per block; keeps temporaries in cache
        for start in range(0, len(f), step):
            a = all_b[start : start + step, None]
            lattice = f[a] + f[all_b] >= f[a | all_b] + f[a & all_b]
            monotone = ((all_b & a) != a) | (f[a] <= f[all_b])
            failed = ~(lattice.all(axis=1) & monotone.all(axis=1))
            if failed.any():
                k = int(np.argmax(failed))
                a, checked = start + k, (start + k) * len(f)
                if not lattice[k].all():
                    b = int(np.argmin(lattice[k]))
                    return report(checked, "lattice", subsets[a], subsets[b], f[a], f[b], f[a | b], f[a & b])
                b = int(np.argmin(monotone[k]))
                return report(checked, "monotone", subsets[a], subsets[b], f[a], f[b])
        return report(len(f) * len(f))

    checked = 0
    for a, b in _random_subset_pairs(np.random.default_rng(seed), m, trials):
        fa, fb, f_or, f_and = _cover_counts(rows, np.concatenate([a, b, a | b, a & b])).reshape(4, -1)
        lattice = fa + fb >= f_or + f_and
        failed = ~lattice | (fa > f_or)
        if failed.any():
            k = int(np.argmax(failed))
            if not lattice[k]:
                return report(checked + k, "lattice", a[k], b[k], fa[k], fb[k], f_or[k], f_and[k])
            return report(checked + k, "monotone", a[k], a[k] | b[k], fa[k], f_or[k])
        checked += len(a)
    return report(checked)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionSearchResult:
    conditions: tuple[str, ...]
    pos: int
    neg: int
    budget: float


@dataclass(frozen=True)
class CorrectionSearchResult:
    pairs: tuple[Pair, ...]
    pos: int
    bod: int
    confidence: float


def brute_force_detection(
    class_i: int,
    epsilon: float,
    table: PredictionTable,
    conds: ConditionMatrix,
    max_conditions: int = 16,
) -> DetectionSearchResult:
    """Exact optimum of POS over all subsets of the conditions of ``conds``
    whose NEG stays within the recall budget of the class id ``class_i``; the
    oracle the greedy learner is measured against.

    Ties prefer lower NEG, then fewer conditions, then lexicographic names.
    """
    check_unit_interval("epsilon", epsilon)
    i = _class_of(table, conds, class_i)
    names = sorted(conds.condition_names)
    if len(names) > max_conditions:
        raise ContractError(
            f"brute force over {len(names)} conditions exceeds the limit of {max_conditions}"
        )
    stats = compute_class_stats(table)
    if stats.n_predicted[i] == 0 or stats.recall[i] == 0.0:
        return DetectionSearchResult((), 0, 0, 0.0)
    budget = recall_budget(stats, i, epsilon)

    pred_i = table.pred_ids == i
    head = table.gt_ids != i
    masks = _pack_rows(conds.values[:, [conds.column_index(name) for name in names]])
    subsets = _all_subsets(len(names))
    pos = _cover_counts(masks[pred_i & head], subsets)
    neg = _cover_counts(masks[pred_i & ~head], subsets)
    size = np.bitwise_count(subsets[:, 0])

    # the empty subset has NEG 0, so some subset is always within budget
    feasible = np.flatnonzero(neg <= budget)
    best = feasible[np.lexsort((size[feasible], neg[feasible], -pos[feasible]))[0]]
    ties = feasible[
        (pos[feasible] == pos[best]) & (neg[feasible] == neg[best]) & (size[feasible] == size[best])
    ]
    chosen = min(_subset_names(subsets[s], names) for s in ties)
    return DetectionSearchResult(chosen, int(pos[best]), int(neg[best]), budget)


def brute_force_correction(
    class_i: int,
    cc_all: Sequence[Pair],
    table: PredictionTable,
    conds: ConditionMatrix,
    max_pairs: int = 16,
) -> CorrectionSearchResult:
    """Exact maximum-confidence subset of candidate pairs for the class id
    ``class_i``, empty unless that confidence strictly beats the class's
    baseline precision.

    Ties prefer larger POS, then lexicographic pairs.
    """
    i = _class_of(table, conds, class_i)
    pairs = sorted({(cond, table.classes.check_id(cls)) for cond, cls in cc_all})
    if len(pairs) > max_pairs:
        raise ContractError(f"brute force over {len(pairs)} pairs exceeds the limit of {max_pairs}")
    if not pairs:
        return CorrectionSearchResult((), 0, 0, 0.0)
    stats = compute_class_stats(table)
    p_i = float(stats.precision[i])

    pair_cols = np.stack([rule_body(conds, table.pred_ids, [pair]) for pair in pairs], axis=1)
    masks = _pack_rows(pair_cols)
    subsets = _all_subsets(len(pairs))[1:]
    bod = _cover_counts(masks, subsets)
    pos = _cover_counts(masks[table.gt_ids == i], subsets)
    # float64 division of int64 counts below 2**53 is Python's int division
    conf = np.divide(pos, bod, out=np.zeros(len(subsets)), where=bod > 0)

    top = conf == conf.max()
    ties = np.flatnonzero(top & (pos == pos[top].max()))
    best = min(ties, key=lambda s: _subset_names(subsets[s], pairs))
    if conf[best] <= p_i:
        return CorrectionSearchResult((), 0, 0, 0.0)
    return CorrectionSearchResult(
        _subset_names(subsets[best], pairs), int(pos[best]), int(bod[best]), float(conf[best])
    )


# ---------------------------------------------------------------------------
# Constructed scenarios for empirical replay of the closed forms
# ---------------------------------------------------------------------------


def _as_count(value: float, what: str) -> int:
    rounded = round(value)
    if abs(value - rounded) > RATIONAL_TOLERANCE:
        raise ContractError(f"{what} = {value} is not an integer count; scenario not realizable")
    return int(rounded)


@dataclass(frozen=True)
class Scenario:
    """A table and single-condition matrix realizing exact stats for the
    class ``rule.target``; ``rule`` applies the condition as a detection or a
    correction rule."""

    table: PredictionTable
    conds: ConditionMatrix
    rule: DetectionRule | CorrectionRule

    def ruleset(self) -> RuleSet:
        kind = "detection_rules" if isinstance(self.rule, DetectionRule) else "correction_rules"
        return RuleSet(self.table.classes, self.conds.condition_names, 0.0, **{kind: (self.rule,)})


def build_detection_scenario(
    n_predicted: int,
    class_support: float,
    confidence: float,
    precision: float,
    recall: float = 1.0,
) -> Scenario:
    """Construct a two-class table where the target class has exactly the given
    N_i, s_i, c, P_i, and R_i, and one condition realizes the rule body.

    Combinations whose implied counts are not integers are rejected rather
    than rounded.
    """
    if n_predicted <= 0:
        raise ContractError("n_predicted must be positive")
    tp = _as_count(precision * n_predicted, "TP")
    bod = _as_count(class_support * n_predicted, "BOD")
    pos = _as_count(confidence * bod, "POS")
    neg = bod - pos
    fp = n_predicted - tp
    if recall <= 0.0:
        raise ContractError("recall must be positive")
    actual = _as_count(tp / recall, "TP/R")
    fn = actual - tp
    if pos > fp:
        raise ContractError(f"POS={pos} exceeds FP={fp}; scenario not realizable")
    if neg > tp:
        raise ContractError(f"NEG={neg} exceeds TP={tp}; scenario not realizable")
    if fn < 0:
        raise ContractError(f"recall {recall} implies negative FN; scenario not realizable")

    classes = ClassSet(("a", "b"))
    # blocks of rows: predicted a with gt a (the first NEG carry the
    # condition), predicted a with gt b (the first POS carry it), and the
    # false negatives of a
    pred = np.repeat([0, 0, 1], [tp, fp, fn])
    gt = np.repeat([0, 1, 0], [tp, fp, fn])
    flag = np.concatenate([np.arange(tp) < neg, np.arange(fp) < pos, np.zeros(fn, dtype=bool)])
    ids = tuple(f"s{k:05d}" for k in range(len(pred)))
    table = PredictionTable(classes, ids, pred, gt)
    conds = ConditionMatrix(("flag",), flag.reshape(-1, 1))
    counts = detection_counts(table, conds, 0, ("flag",))
    rule = DetectionRule(0, ("flag",), counts.class_support, counts.confidence)
    return Scenario(table, conds, rule)


def build_correction_scenario(
    n_total: int,
    prior: float,
    precision: float,
    support: float,
    confidence: float,
    extra_fn: int = 0,
) -> Scenario:
    """Construct a two-class table where a single correction rule for the
    target class has exactly the given support and confidence, against a
    baseline with the given prior and precision.  The rule body covers rows
    predicted as the other class, disjoint from the target's predictions, as
    the closed forms assume."""
    if n_total <= 0:
        raise ContractError("n_total must be positive")
    n_i = _as_count(prior * n_total, "N_i")
    tp = _as_count(precision * n_i, "TP")
    bod = _as_count(support * n_total, "BOD")
    pos = _as_count(confidence * bod, "POS")
    if n_i + bod + extra_fn > n_total:
        raise ContractError("N_i + BOD + extra_fn exceeds the table size; not realizable")
    if min(extra_fn, n_i, bod) < 0:
        raise ContractError("N_i, BOD and extra_fn must be non-negative")

    classes = ClassSet(("a", "b"))
    # blocks of rows: existing predictions of the target class, the body
    # (predicted b, condition true), target-class rows the rule never
    # reaches, and padding
    sizes = [n_i, bod, extra_fn, n_total - n_i - bod - extra_fn]
    pred = np.repeat([0, 1, 1, 1], sizes)
    gt = np.concatenate(
        [np.arange(n_i) >= tp, np.arange(bod) >= pos, np.zeros(extra_fn), np.ones(sizes[3])]
    ).astype(np.int32)
    flag = np.repeat([False, True, False, False], sizes)
    ids = tuple(f"s{k:05d}" for k in range(n_total))
    table = PredictionTable(classes, ids, pred, gt)
    conds = ConditionMatrix(("flag",), flag.reshape(-1, 1))
    counts = correction_counts(table, conds, 0, (("flag", 1),))
    rule = CorrectionRule(0, (("flag", 1),), counts.support, counts.confidence)
    return Scenario(table, conds, rule)


# ---------------------------------------------------------------------------
# Per-class theorem reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Predicted vs. measured effect of one learned detection rule, evaluated
    on the table it was learned from."""

    class_name: str
    class_support: float
    confidence: float
    precision_initial: float
    recall_initial: float
    predicted_delta_precision: float
    bound_c_times_support: float
    predicted_delta_recall: float
    empirical_delta_precision: float
    empirical_delta_recall: float
    tolerance: float = RATIONAL_TOLERANCE
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.note:
            return True  # nothing checkable (no rule, or degenerate support)
        if abs(self.predicted_delta_precision - self.empirical_delta_precision) > self.tolerance:
            return False
        if abs(-self.predicted_delta_recall - self.empirical_delta_recall) > self.tolerance:
            return False
        if self.class_support <= 1.0 - self.precision_initial:
            bound = self.bound_c_times_support
            if self.empirical_delta_precision > bound + self.tolerance:
                return False
        return True


def theorem_report(
    table: PredictionTable, conds: ConditionMatrix, epsilon: float
) -> tuple[TheoremReport, ...]:
    """Learn one detection rule per class and compare its closed-form effect
    against an empirical replay of that rule alone on the same table."""
    stats = compute_class_stats(table)  # which requires ground truth
    reports: list[TheoremReport] = []
    for i, name in enumerate(table.classes.names):
        p_i = float(stats.precision[i])
        r_i = float(stats.recall[i])
        dc = det_rule_learn(i, epsilon, table, conds, stats=stats)
        if not dc:
            reports.append(TheoremReport(name, 0.0, 0.0, p_i, r_i, *[0.0] * 5, note="no rule learned"))
            continue
        counts = detection_counts(table, conds, i, dc)
        rule = DetectionRule(i, dc, counts.class_support, counts.confidence)
        d_precision, d_recall = detection_effect(rule, stats)
        if d_precision is None:  # nothing to replay: precision after the rule is undefined
            note = "degenerate: rule covers every prediction of the class"
            d_precision, measured = 0.0, (0.0, 0.0)
        else:
            rule_set = RuleSet(table.classes, conds.condition_names, epsilon, detection_rules=(rule,))
            after = compute_class_stats(apply_ruleset(rule_set, table, conds)[0])
            measured, note = (float(after.precision[i]) - p_i, float(after.recall[i]) - r_i), ""
        bound = precision_delta_bound(rule.class_support, rule.confidence)
        reports.append(
            TheoremReport(name, rule.class_support, rule.confidence, p_i, r_i, d_precision, bound, d_recall,
                          *measured, note=note)
        )
    return tuple(reports)


def check_correction_scenarios(n_scenarios: int, seed: int) -> bool:
    """Replay ``n_scenarios`` constructed correction scenarios, their counts
    drawn from ``default_rng(seed)``, and return whether every measured
    precision change matches :func:`correction_precision_delta`."""
    if n_scenarios < 0:
        raise ContractError(f"correction scenario count must be non-negative, got {n_scenarios}")
    rng = np.random.default_rng(check_seed(seed))
    for _ in range(n_scenarios):
        n_i = int(rng.integers(10, 60))
        tp = int(rng.integers(1, n_i + 1))
        bod = int(rng.integers(1, 40))
        pos = int(rng.integers(0, bod + 1))
        extra_fn = int(rng.integers(0, 10))
        n_total = n_i + bod + extra_fn + int(rng.integers(0, 40))
        scenario = build_correction_scenario(
            n_total, n_i / n_total, tp / n_i, bod / n_total, pos / bod, extra_fn=extra_fn
        )
        before = compute_class_stats(scenario.table)
        revised, _ = apply_ruleset(scenario.ruleset(), scenario.table, scenario.conds)
        after = compute_class_stats(revised)
        i = scenario.rule.target
        predicted = correction_precision_delta(
            scenario.rule.support, scenario.rule.confidence, float(before.precision[i]),
            float(before.prior[i]),
        )
        measured = float(after.precision[i]) - float(before.precision[i])
        if abs(predicted - measured) > RATIONAL_TOLERANCE:
            return False
    return True
