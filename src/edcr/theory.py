"""Closed-form effects of rules on precision/recall, plus the machinery that
certifies them: submodularity/monotonicity checks of the counting
functions, and a constructor for tables that realize target statistics
exactly so predicted deltas can be replayed empirically.  A replay takes
few applications: ``theorem_report`` applies every class's rule at once,
exact as a detection rule flags only rows predicted its class, and the
correction scenarios go 32 to a stacked table, which bounds its memory.

All counts stay integers until the final division, so predicted and measured
quantities agree to rational-arithmetic accuracy (tolerance 1e-9).

The checks count through one kernel, ``_cover_counts``.  A POS, NEG or BOD
count of a condition subset S is the number of rows whose packed condition
words meet S.  Equal rows meet the same subsets, so the rows are compressed
once to their distinct patterns and multiplicities, and a block of subsets
is counted as ``counts @ ((patterns & S) != 0).any(-1)``: the same integer
sum regrouped, hence exact.  Words are taken one at a time and subsets in
blocks, so each temporary stays under 512 KB, in cache; at m=271, where
almost every row is its own pattern, one 32 MB (block, patterns, words)
temporary was seven times slower.
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
    check_count,
    check_unit_interval,
    correction_counts,
    detection_counts,
)
from .learn import det_rule_learn
from .rules import CorrectionRule, DetectionRule, RuleSet, apply_ruleset

RATIONAL_TOLERANCE = 1e-9


def _check_ratios(**ratios) -> None:
    """:class:`ContractError` unless every ratio, named by its keyword, is a
    real number in [0, 1]; checked before any degenerate case is."""
    for name, value in ratios.items():
        check_unit_interval(name.replace("_", " "), value)


def precision_delta_exact(class_support: float, confidence: float, precision: float) -> float:
    """Exact precision change from one detection rule:
    s_i / (1 - s_i) * (c + P_i - 1).  Negative when the rule flags more
    correct predictions than errors."""
    _check_ratios(class_support=class_support, confidence=confidence, precision=precision)
    if class_support == 1.0:
        raise DegenerateStatsError(
            "class support 1 removes every prediction of the class; precision is undefined"
        )
    return class_support / (1.0 - class_support) * (confidence + precision - 1.0)


def precision_delta_bound(class_support: float, confidence: float) -> float:
    """Upper bound c * s_i on the precision gain of a detection rule; valid
    whenever s_i <= 1 - P_i (the caller checks that side condition)."""
    _check_ratios(class_support=class_support, confidence=confidence)
    return confidence * class_support


def recall_delta_exact(
    class_support: float, confidence: float, recall: float, precision: float
) -> float:
    """Exact magnitude of the recall decrease from one detection rule:
    (1 - c) * s_i * R_i / P_i."""
    _check_ratios(class_support=class_support, confidence=confidence, recall=recall, precision=precision)
    if precision <= 0.0:
        raise DegenerateStatsError("recall delta is undefined for a class with zero precision")
    return (1.0 - confidence) * class_support * recall / precision


def detection_effect(rule: DetectionRule, stats: ClassStats) -> tuple[float | None, float]:
    """A learned detection rule's exact precision change and recall decrease
    on the table ``stats`` counts, from its recorded s_i and c.  The precision
    change is None when s_i = 1, where it is undefined.  A learned rule's
    class has recall > 0, so its precision is > 0 and the recall decrease is
    always defined.  A target that is not a class id of ``stats`` is an
    :class:`UnknownClassError`."""
    i = stats.classes.check_id(rule.target)
    p_i, r_i = float(stats.precision[i]), float(stats.recall[i])
    d_recall = recall_delta_exact(rule.class_support, rule.confidence, r_i, p_i)
    if rule.class_support == 1.0:
        return None, d_recall
    return precision_delta_exact(rule.class_support, rule.confidence, p_i), d_recall


def correction_precision_delta(
    support: float, confidence: float, precision: float, prior: float
) -> float:
    """Exact precision change from one correction rule:
    (c*s - P_i*s) / (prior_i + s); its sign is the sign of c - P_i."""
    _check_ratios(support=support, confidence=confidence, precision=precision, prior=prior)
    if prior + support <= 0.0:
        raise DegenerateStatsError(
            "correction precision delta is undefined when prior + support is zero"
        )
    return (confidence * support - precision * support) / (prior + support)


def correction_recall_post(tp: int, fn: int, pos: int) -> float:
    """Recall after a correction rule adds ``pos`` true positives:
    (TP_i + POS) / (TP_i + FN_i)."""
    tp, fn, pos = check_count("tp", tp), check_count("fn", fn), check_count("pos", pos)
    if tp + fn <= 0:
        raise DegenerateStatsError("post-correction recall is undefined when TP + FN is zero")
    return (tp + pos) / (tp + fn)


# ---------------------------------------------------------------------------
# Subset-indexed counting (shared by the property checks)
# ---------------------------------------------------------------------------

_BLOCK_ELEMENTS = 1 << 16  # (subset, pattern) cells per block: 512 KB of words
_EXHAUSTIVE_LIMIT = 12  # conditions up to which check_submodular checks every subset pair
_PAIR_BLOCK = 1024  # random subset pairs drawn at once when check_submodular samples
_SCENARIO_BLOCK = 32  # correction scenarios stacked in one replay by check_correction_scenarios


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
    inequality f(A)+f(B) >= f(A|B)+f(A&B), monotonicity, and, on the
    exhaustive scan only, f(empty)=0."""

    quantity: str
    n_conditions: int
    exhaustive: bool
    pairs_checked: int
    counterexample: tuple | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _random_subset_pairs(rng: np.random.Generator, m: int, trials: int):
    """``trials`` pairs of uniformly random subsets of m conditions, as one
    ``(a, b)`` pair of word arrays per block of at most ``_PAIR_BLOCK`` pairs."""
    for start in range(0, trials, _PAIR_BLOCK):
        words = _pack_rows(rng.integers(0, 2, size=(2 * min(_PAIR_BLOCK, trials - start), m), dtype=bool))
        yield words[::2], words[1::2]


def check_submodular(
    quantity: str,
    class_i: int,
    table: PredictionTable,
    conds: ConditionMatrix,
    trials: int = 2000,
    seed: int = 0,
) -> SubmodularityReport:
    """Check that a detection counting function (``"pos"``, ``"neg"`` or
    ``"bod"``) of the class id ``class_i`` is submodular and monotone over
    condition subsets, and normalized where the scan is exhaustive.

    Instances with at most 12 conditions (``_EXHAUSTIVE_LIMIT``) are checked
    over every subset pair, after f(empty)=0; larger ones are sampled
    ``trials`` times, and the sampled scan never checks f(empty).
    Returns a counterexample if any check fails (there must be none): the
    first pair in scan order, where pair (a, b) is checked for the lattice
    inequality before monotonicity.
    """
    if quantity not in ("pos", "neg", "bod"):
        raise ContractError(f"quantity must be pos, neg, or bod, got {quantity!r}")
    trials = check_count("trials", trials)
    seed = check_count("seed", seed)
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

    exhaustive = m <= _EXHAUSTIVE_LIMIT

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


def _scenario_block(counts: np.ndarray, classes: ClassSet) -> tuple[PredictionTable, ConditionMatrix]:
    """Correction scenarios stacked in one table over one ``flag`` condition.
    Row j of the (S, 6) ``counts`` holds scenario j's N_i, TP, BOD, POS,
    extra FN and size; its target is class id 2j and its other class 2j + 1.
    Each scenario's rows come in four runs: the target's predictions (the
    first TP of them right), the body (predicted 2j + 1, ``flag`` set, the
    first POS of them of class 2j), target rows no rule reaches, and padding."""
    n_i, tp, bod, pos, extra_fn, n_total = counts.T
    sizes = np.stack([n_i, bod, extra_fn, n_total - n_i - bod - extra_fn], axis=1).ravel()
    within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    other = within >= np.repeat(np.stack([tp, pos, extra_fn, np.zeros_like(tp)], axis=1).ravel(), sizes)
    target = np.repeat(np.arange(0, 2 * len(counts), 2), 4)  # of each run
    pred = np.repeat(target + np.tile([0, 1, 1, 1], len(counts)), sizes)
    flag = np.repeat(np.tile([False, True, False, False], len(counts)), sizes)
    ids = tuple(f"s{k:05d}" for k in range(len(pred)))
    table = PredictionTable(classes, ids, pred, np.repeat(target, sizes) + other)
    return table, ConditionMatrix(("flag",), flag.reshape(-1, 1))


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
    the closed forms assume; its four ratios are checked, as theirs are, to lie in [0, 1]."""
    if check_count("n_total", n_total) == 0:
        raise ContractError("n_total must be positive")
    extra_fn = check_count("extra_fn", extra_fn)
    _check_ratios(prior=prior, precision=precision, support=support, confidence=confidence)
    n_i = _as_count(prior * n_total, "N_i")
    tp = _as_count(precision * n_i, "TP")
    bod = _as_count(support * n_total, "BOD")
    pos = _as_count(confidence * bod, "POS")
    if n_i + bod + extra_fn > n_total:
        raise ContractError("N_i + BOD + extra_fn exceeds the table size; not realizable")

    table, conds = _scenario_block(np.array([[n_i, tp, bod, pos, extra_fn, n_total]]), ClassSet(("a", "b")))
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
    against an empirical replay on the same table.  Every rule with s_i < 1
    is replayed in one application, which is exact: a rule for class j flags
    only rows predicted j, so it leaves class i's TP, FP and FN as they are."""
    stats = table.stats  # which requires ground truth
    rules: list[DetectionRule | None] = [None] * len(table.classes)
    for i in range(len(table.classes)):
        dc = det_rule_learn(i, epsilon, table, conds)
        if dc:
            counts = detection_counts(table, conds, i, dc)
            rules[i] = DetectionRule(i, dc, counts.class_support, counts.confidence)
    replayed = [rule for rule in rules if rule and rule.class_support != 1.0]
    rule_set = RuleSet(table.classes, conds.condition_names, epsilon, detection_rules=replayed)
    after = apply_ruleset(rule_set, table, conds)[0].stats
    reports: list[TheoremReport] = []
    for i, (name, rule) in enumerate(zip(table.classes.names, rules)):
        p_i, r_i = float(stats.precision[i]), float(stats.recall[i])
        if rule is None:
            reports.append(TheoremReport(name, 0.0, 0.0, p_i, r_i, *[0.0] * 5, note="no rule learned"))
            continue
        d_precision, d_recall = detection_effect(rule, stats)
        if d_precision is None:  # not replayed: precision after the rule is undefined
            note = "degenerate: rule covers every prediction of the class"
            d_precision, measured = 0.0, (0.0, 0.0)
        else:
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
    precision change matches :func:`correction_precision_delta` and every
    measured recall of the target class after the rule matches
    :func:`correction_recall_post`.  Up to ``_SCENARIO_BLOCK`` scenarios,
    each with its own two classes and one rule whose body holds only its own
    rows, are stacked in one table (:func:`_scenario_block`) and replayed in
    one application; the blocks bound its (rows, rules) match matrix."""
    n_scenarios = check_count("correction scenario count", n_scenarios)
    rng = np.random.default_rng(check_count("seed", seed))
    for start in range(0, n_scenarios, _SCENARIO_BLOCK):
        counts = np.empty((min(_SCENARIO_BLOCK, n_scenarios - start), 6), dtype=np.int64)
        for row in counts:
            n_i = int(rng.integers(10, 60))
            tp = int(rng.integers(1, n_i + 1))
            bod = int(rng.integers(1, 40))
            pos = int(rng.integers(0, bod + 1))
            extra_fn = int(rng.integers(0, 10))
            row[:] = n_i, tp, bod, pos, extra_fn, n_i + bod + extra_fn + int(rng.integers(0, 40))
        classes = ClassSet(tuple(f"{c}{j}" for j in range(len(counts)) for c in "ab"))
        table, conds = _scenario_block(counts, classes)
        rules = [CorrectionRule(2 * j, (("flag", 2 * j + 1),), bod / n_total, pos / bod)
                 for j, (_, _, bod, pos, _, n_total) in enumerate(counts.tolist())]
        before = table.stats
        after = apply_ruleset(RuleSet(classes, ("flag",), 0.0, correction_rules=rules), table, conds)[0].stats
        for rule, (n_i, _, _, pos, _, n_total) in zip(rules, counts.tolist()):
            i = rule.target
            precision = float(before.precision[i])
            predicted = correction_precision_delta(rule.support, rule.confidence, precision, n_i / n_total)
            measured = float(after.precision[i]) - precision
            recall = correction_recall_post(int(before.tp[i]), int(before.fn[i]), pos)
            if max(abs(predicted - measured), abs(recall - float(after.recall[i]))) > RATIONAL_TOLERANCE:
                return False
    return True
