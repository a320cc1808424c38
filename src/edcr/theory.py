"""Closed-form effects of rules on precision/recall, plus the machinery that
certifies the learners: submodularity/monotonicity checks of the counting
functions, exhaustive brute-force optimizers for small instances, and
constructors for tables that realize target statistics exactly so predicted
deltas can be replayed empirically.

All counts stay integers until the final division, so predicted and measured
quantities agree to rational-arithmetic accuracy (default tolerance 1e-9).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ClassLabel,
    ClassSet,
    ConditionMatrix,
    ContractError,
    DegenerateStatsError,
    PredictionTable,
    _pack_rows,
    _require_aligned,
    _resolve_target,
    check_seed,
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


def _mask_words(mask: int) -> np.ndarray:
    """Subset bitmask ``mask`` (at most 64 members) as one word."""
    return np.array([mask], dtype=np.uint64)


def _covered(rows: np.ndarray, subset: np.ndarray) -> int:
    """Number of rows meeting at least one condition of ``subset``."""
    return int(np.count_nonzero((rows & subset).any(axis=1)))


def _subset_counts(rows: np.ndarray, n_subsets: int) -> np.ndarray:
    """count of rows covered by each condition subset, indexed by bitmask."""
    out = np.zeros(n_subsets, dtype=np.int64)
    for subset in range(1, n_subsets):
        out[subset] = _covered(rows, _mask_words(subset))
    return out


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
    """``trials`` pairs of uniformly random subsets of m conditions, as words."""
    for start in range(0, trials, block):
        words = _pack_rows(rng.integers(0, 2, size=(2 * min(block, trials - start), m), dtype=bool))
        yield from zip(words[::2], words[1::2])


def _subset_names(subset: np.ndarray | int, names: Sequence[str]) -> tuple[str, ...]:
    """Names of the conditions in ``subset``, given as words or as a bitmask."""
    words = _mask_words(subset) if isinstance(subset, int) else subset
    bits = np.unpackbits(words.view(np.uint8), bitorder="little", count=len(names))
    return tuple(names[j] for j in np.flatnonzero(bits))


def check_submodular(
    quantity: str,
    class_i,
    table: PredictionTable,
    conds: ConditionMatrix,
    trials: int = 2000,
    seed: int = 0,
    exhaustive_limit: int = 12,
) -> SubmodularityReport:
    """Check that a detection counting function (``"pos"``, ``"neg"`` or
    ``"bod"``) is submodular, monotone, and normalized over condition subsets.

    Instances with at most ``exhaustive_limit`` conditions are checked over
    every subset pair; larger ones are sampled ``trials`` times.  Returns a
    counterexample if any check fails (there must be none).
    """
    if quantity not in ("pos", "neg", "bod"):
        raise ContractError(f"quantity must be pos, neg, or bod, got {quantity!r}")
    if trials < 0:
        raise ContractError(f"trials must be non-negative, got {trials}")
    seed = check_seed(seed)
    table.require_ground_truth()
    _require_aligned(table, conds)
    target = _resolve_target(table.classes, class_i)
    names = list(conds.condition_names)
    m = len(names)

    pred_i = table.pred_ids == target.id
    head = table.gt_ids != target.id
    masks = _pack_rows(conds.values)
    row_filter = {
        "pos": pred_i & head,
        "neg": pred_i & ~head,
        "bod": pred_i,
    }[quantity]
    rows = masks[row_filter]

    exhaustive = m <= exhaustive_limit
    pairs_checked = 0
    if exhaustive:
        n_subsets = 1 << m
        f = _subset_counts(rows, n_subsets)
        if f[0] != 0:
            return SubmodularityReport(quantity, m, True, 0, ("normalization", (), (), int(f[0])))
        all_b = np.arange(n_subsets, dtype=np.int64)
        for a in range(n_subsets):
            lattice_ok = f[a] + f[all_b] >= f[a | all_b] + f[a & all_b]
            if not lattice_ok.all():
                b = int(all_b[~lattice_ok][0])
                return SubmodularityReport(
                    quantity,
                    m,
                    True,
                    pairs_checked,
                    (
                        "lattice",
                        _subset_names(a, names),
                        _subset_names(b, names),
                        int(f[a]),
                        int(f[b]),
                        int(f[a | b]),
                        int(f[a & b]),
                    ),
                )
            supersets = (all_b & a) == a
            if not (f[a] <= f[all_b[supersets]]).all():
                b = int(all_b[supersets][(f[all_b[supersets]] < f[a])][0])
                return SubmodularityReport(
                    quantity,
                    m,
                    True,
                    pairs_checked,
                    ("monotone", _subset_names(a, names), _subset_names(b, names), int(f[a]), int(f[b])),
                )
            pairs_checked += n_subsets
        return SubmodularityReport(quantity, m, True, pairs_checked, None)

    for a, b in _random_subset_pairs(np.random.default_rng(seed), m, trials):
        fa, fb, f_or, f_and = (_covered(rows, s) for s in (a, b, a | b, a & b))
        if fa + fb < f_or + f_and:
            return SubmodularityReport(
                quantity,
                m,
                False,
                pairs_checked,
                ("lattice", _subset_names(a, names), _subset_names(b, names), fa, fb, f_or, f_and),
            )
        if fa > f_or:
            return SubmodularityReport(
                quantity,
                m,
                False,
                pairs_checked,
                ("monotone", _subset_names(a, names), _subset_names(a | b, names), fa, f_or),
            )
        pairs_checked += 1
    return SubmodularityReport(quantity, m, False, pairs_checked, None)


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
    pairs: tuple[tuple[str, ClassLabel], ...]
    pos: int
    bod: int
    confidence: float


def brute_force_detection(
    class_i,
    epsilon: float,
    table: PredictionTable,
    conds: ConditionMatrix,
    candidates: Sequence[str] | None = None,
    max_conditions: int = 16,
) -> DetectionSearchResult:
    """Exact optimum of POS over all condition subsets whose NEG stays within
    the recall budget; the oracle the greedy learner is measured against.

    Ties prefer lower NEG, then fewer conditions, then lexicographic names.
    """
    table.require_ground_truth()
    _require_aligned(table, conds)
    target = _resolve_target(table.classes, class_i)
    names = sorted(set(candidates) if candidates is not None else conds.condition_names)
    if len(names) > max_conditions:
        raise ContractError(
            f"brute force over {len(names)} conditions exceeds the limit of {max_conditions}"
        )
    stats = compute_class_stats(table)
    i = target.id
    if stats.n_predicted[i] == 0 or stats.recall[i] == 0.0:
        return DetectionSearchResult((), 0, 0, 0.0)
    budget = recall_budget(stats, i, epsilon)

    pred_i = table.pred_ids == i
    head = table.gt_ids != i
    masks = _pack_rows(conds.values[:, [conds.column_index(name) for name in names]])
    pos_rows = masks[pred_i & head]
    neg_rows = masks[pred_i & ~head]

    best_key = (1, 0, 0, ())  # strictly worse than any feasible subset
    best = DetectionSearchResult((), 0, 0, budget)
    for subset in range(1 << len(names)):
        words = _mask_words(subset)
        pos, neg = _covered(pos_rows, words), _covered(neg_rows, words)
        if neg > budget:
            continue
        chosen = _subset_names(words, names)
        key = (-pos, neg, len(chosen), chosen)
        if key < best_key:
            best_key = key
            best = DetectionSearchResult(chosen, pos, neg, budget)
    return best


def brute_force_correction(
    class_i,
    cc_all: Sequence[Pair],
    table: PredictionTable,
    conds: ConditionMatrix,
    max_pairs: int = 16,
) -> CorrectionSearchResult:
    """Exact maximum-confidence subset of candidate pairs, empty unless that
    confidence strictly beats the class's baseline precision.

    Ties prefer larger POS, then lexicographic pairs.
    """
    table.require_ground_truth()
    _require_aligned(table, conds)
    target = _resolve_target(table.classes, class_i)
    pairs: list[Pair] = []
    for cond_name, pair_class in cc_all:
        pair = (cond_name, _resolve_target(table.classes, pair_class))
        if pair not in pairs:
            pairs.append(pair)
    pairs.sort(key=lambda p: (p[0], p[1].id))
    if len(pairs) > max_pairs:
        raise ContractError(f"brute force over {len(pairs)} pairs exceeds the limit of {max_pairs}")
    if not pairs:
        return CorrectionSearchResult((), 0, 0, 0.0)
    stats = compute_class_stats(table)
    p_i = float(stats.precision[target.id])

    pair_cols = np.stack(
        [rule_body(conds, table.pred_ids, [(cond, cls.id)]) for cond, cls in pairs], axis=1
    )
    masks = _pack_rows(pair_cols)
    pos_rows = masks[table.gt_ids == target.id]

    best_key = None
    best = CorrectionSearchResult((), 0, 0, 0.0)
    for subset in range(1, 1 << len(pairs)):
        words = _mask_words(subset)
        bod, pos = _covered(masks, words), _covered(pos_rows, words)
        conf = pos / bod if bod > 0 else 0.0
        chosen = tuple(pairs[j] for j in range(len(pairs)) if subset >> j & 1)
        key = (-conf, -pos, tuple((c, l.id) for c, l in chosen))
        if best_key is None or key < best_key:
            best_key = key
            best = CorrectionSearchResult(chosen, pos, bod, conf)
    if best.confidence <= p_i:
        return CorrectionSearchResult((), 0, 0, 0.0)
    return best


# ---------------------------------------------------------------------------
# Constructed scenarios for empirical replay of the closed forms
# ---------------------------------------------------------------------------


def _as_count(value: float, what: str) -> int:
    rounded = round(value)
    if abs(value - rounded) > RATIONAL_TOLERANCE:
        raise ContractError(f"{what} = {value} is not an integer count; scenario not realizable")
    return int(rounded)


@dataclass(frozen=True)
class DetectionScenario:
    """A table and single-condition matrix realizing exact detection stats for
    class ``target``; ``rule`` applies the condition as a detection rule."""

    table: PredictionTable
    conds: ConditionMatrix
    target: ClassLabel
    rule: DetectionRule

    def ruleset(self) -> RuleSet:
        return RuleSet(
            classes=self.table.classes,
            condition_names=self.conds.condition_names,
            epsilon=0.0,
            detection_rules=(self.rule,),
        )


def build_detection_scenario(
    n_predicted: int,
    class_support: float,
    confidence: float,
    precision: float,
    recall: float = 1.0,
) -> DetectionScenario:
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
    a = classes.label("a")
    # blocks of rows: predicted a with gt a (the first NEG carry the
    # condition), predicted a with gt b (the first POS carry it), and the
    # false negatives of a
    pred = np.repeat([0, 0, 1], [tp, fp, fn])
    gt = np.repeat([0, 1, 0], [tp, fp, fn])
    flag = np.concatenate([np.arange(tp) < neg, np.arange(fp) < pos, np.zeros(fn, dtype=bool)])
    ids = tuple(f"s{k:05d}" for k in range(len(pred)))
    table = PredictionTable(classes, ids, pred, gt)
    conds = ConditionMatrix(("flag",), flag.reshape(-1, 1))
    counts = detection_counts(table, conds, a, ("flag",))
    rule = DetectionRule(a, ("flag",), counts.class_support, counts.confidence)
    return DetectionScenario(table, conds, a, rule)


@dataclass(frozen=True)
class CorrectionScenario:
    """A table and single-condition matrix realizing exact correction stats for
    class ``target``: the rule body covers rows predicted as the filler class,
    disjoint from existing target predictions, as the closed forms assume."""

    table: PredictionTable
    conds: ConditionMatrix
    target: ClassLabel
    rule: CorrectionRule

    def ruleset(self) -> RuleSet:
        return RuleSet(
            classes=self.table.classes,
            condition_names=self.conds.condition_names,
            epsilon=0.0,
            correction_rules=(self.rule,),
        )


def build_correction_scenario(
    n_total: int,
    prior: float,
    precision: float,
    support: float,
    confidence: float,
    extra_fn: int = 0,
) -> CorrectionScenario:
    """Construct a two-class table where a single correction rule for the
    target class has exactly the given support and confidence, against a
    baseline with the given prior and precision."""
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
    a, b = classes.labels
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
    counts = correction_counts(table, conds, a, (("flag", b),))
    rule = CorrectionRule(a, (("flag", b),), counts.support, counts.confidence)
    return CorrectionScenario(table, conds, a, rule)


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
    tolerance: float
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
    table: PredictionTable,
    conds: ConditionMatrix,
    epsilon: float,
    tolerance: float = RATIONAL_TOLERANCE,
) -> tuple[TheoremReport, ...]:
    """Learn one detection rule per class and compare its closed-form effect
    against an empirical replay of that rule alone on the same table."""
    table.require_ground_truth()
    stats = compute_class_stats(table)
    reports: list[TheoremReport] = []
    for label in table.classes:
        i = label.id
        p_i = float(stats.precision[i])
        r_i = float(stats.recall[i])
        dc = det_rule_learn(label, epsilon, table, conds, stats=stats)
        if not dc:
            reports.append(
                TheoremReport(label.name, 0.0, 0.0, p_i, r_i, 0.0, 0.0, 0.0, 0.0, 0.0, tolerance, "no rule learned")
            )
            continue
        counts = detection_counts(table, conds, label, dc)
        if counts.class_support == 1.0:
            reports.append(
                TheoremReport(
                    label.name, 1.0, counts.confidence, p_i, r_i,
                    0.0, precision_delta_bound(counts.class_support, counts.confidence),
                    recall_delta_exact(counts.class_support, counts.confidence, r_i, p_i) if p_i > 0 else 0.0,
                    0.0, 0.0, tolerance, "degenerate: rule covers every prediction of the class",
                )
            )
            continue
        rule = DetectionRule(label, dc, counts.class_support, counts.confidence)
        rule_set = RuleSet(
            classes=table.classes,
            condition_names=conds.condition_names,
            epsilon=epsilon,
            detection_rules=(rule,),
        )
        revised, _ = apply_ruleset(rule_set, table, conds)
        after = compute_class_stats(revised)
        reports.append(
            TheoremReport(
                class_name=label.name,
                class_support=counts.class_support,
                confidence=counts.confidence,
                precision_initial=p_i,
                recall_initial=r_i,
                predicted_delta_precision=precision_delta_exact(
                    counts.class_support, counts.confidence, p_i
                ),
                bound_c_times_support=precision_delta_bound(counts.class_support, counts.confidence),
                predicted_delta_recall=recall_delta_exact(
                    counts.class_support, counts.confidence, r_i, p_i
                ),
                empirical_delta_precision=float(after.precision[i]) - p_i,
                empirical_delta_recall=float(after.recall[i]) - r_i,
                tolerance=tolerance,
            )
        )
    return tuple(reports)
