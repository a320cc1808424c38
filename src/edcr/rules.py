"""Detection and correction rules, and their two-phase application to a table.

Rules name their classes by int id into the rule set's :class:`ClassSet`, as
tables do; class names appear only where a rule set or trace is written or
read.  Phase 1 (detection) flags every sample whose current prediction is the
rule's target class and that satisfies at least one of its conditions.  Phase 2
(correction) re-labels every sample matching a correction body, where bodies
are evaluated against the ORIGINAL predictions so that application order
cannot matter.  A sample that is flagged and never corrected is routed to the
reserved UNKNOWN label; anything matching no body is left untouched.  The
:class:`ApplyTrace` of an application holds the table it was applied to, whose
predictions are the original column that detection verdicts are scored against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .core import (
    ClassSet,
    ConditionMatrix,
    ContractError,
    PredictionTable,
    _checked_flags,
    _checked_ids,
    _rank_rows,
    _require_aligned,
    _strings,
    check_names,
    check_pairs,
    check_unit_interval,
    rule_body,
)

@dataclass(frozen=True)
class DetectionRule:
    """``error <- pred_target AND any(conditions)``: routes matches to UNKNOWN
    unless a correction re-claims them.  ``target`` is a class id.  Stats are
    the class support s_i and confidence c recorded on the learning table."""

    target: int
    conditions: tuple[str, ...]
    class_support: float
    confidence: float

    def __post_init__(self) -> None:
        conditions = check_names("condition name", self.conditions, distinct=False)
        object.__setattr__(self, "conditions", tuple(sorted(set(conditions))))
        object.__setattr__(self, "class_support", check_unit_interval("class_support", self.class_support))
        object.__setattr__(self, "confidence", check_unit_interval("confidence", self.confidence))
        if not self.conditions:
            raise ContractError("a detection rule needs at least one condition")


@dataclass(frozen=True)
class CorrectionRule:
    """``corr_target <- OR over (cond, cls) of cond AND pred_cls``: re-labels
    matches to the target class.  ``target`` and each ``cls`` are class ids.
    Stats are support s and confidence c on the learning table."""

    target: int
    pairs: tuple[tuple[str, int], ...]
    support: float
    confidence: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(sorted(set(check_pairs(self.pairs)))))
        object.__setattr__(self, "support", check_unit_interval("support", self.support))
        object.__setattr__(self, "confidence", check_unit_interval("confidence", self.confidence))
        if not self.pairs:
            raise ContractError("a correction rule needs at least one (condition, class) pair")


def check_epsilon(epsilon, classes: ClassSet) -> float | dict[str, float]:
    """The recall budget ``epsilon`` as a float or a dict, or
    :class:`ContractError` unless it is one value in [0, 1] for every class
    or a mapping that names exactly the classes, each value in [0, 1]."""
    if not isinstance(epsilon, Mapping):
        return check_unit_interval("epsilon", epsilon)
    if set(epsilon) != set(classes.names):
        raise ContractError(f"epsilon mapping names {list(epsilon)}, not {classes.names}")
    return {name: check_unit_interval(f"epsilon of {name}", value) for name, value in epsilon.items()}


@dataclass(frozen=True)
class RuleSet:
    """All learned rules for one class universe: at most one detection and one
    correction rule per class, plus the recall budget and condition universe
    they were learned under.  Every class id must index ``classes``, the
    declared condition names be non-empty strings with no repeat, every rule
    condition lie in ``condition_names``, and a mapping ``epsilon`` name
    exactly the classes; applying the set needs only the conditions some rule
    uses."""

    classes: ClassSet
    condition_names: tuple[str, ...]
    epsilon: float | dict[str, float]
    detection_rules: tuple[DetectionRule, ...] = ()
    correction_rules: tuple[CorrectionRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "condition_names", check_names("condition name", self.condition_names))
        object.__setattr__(self, "detection_rules", tuple(self.detection_rules))
        object.__setattr__(self, "correction_rules", tuple(self.correction_rules))
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon, self.classes))
        universe = set(self.condition_names)
        for kind, rules in (("detection", self.detection_rules), ("correction", self.correction_rules)):
            targets = [self.classes.check_id(rule.target) for rule in rules]
            if len(set(targets)) != len(targets):
                raise ContractError(f"more than one {kind} rule for a class: {targets}")
        for rule in self.detection_rules:
            missing = set(rule.conditions) - universe
            if missing:
                raise ContractError(f"detection rule uses undeclared conditions {sorted(missing)}")
        for rule in self.correction_rules:
            for cond, _ in self.classes.check_pairs(rule.pairs):
                if cond not in universe:
                    raise ContractError(f"correction rule uses undeclared condition {cond!r}")

    @cached_property
    def detection_by_class(self) -> dict[int, DetectionRule]:
        return {rule.target: rule for rule in self.detection_rules}

    @cached_property
    def correction_by_class(self) -> dict[int, CorrectionRule]:
        return {rule.target: rule for rule in self.correction_rules}


@dataclass(frozen=True, eq=False)
class ApplyTrace:
    """Columnar record of one application, one entry per row of ``table``.

    ``table`` is the table the rules were applied to: its class set, sample
    ids and ``pred_ids`` are the trace's classes, ids and original column,
    checked once, by its constructor.  ``final`` is a class-id column (-1 for
    UNKNOWN), ``flagged`` is the detection verdict, and ``fired`` codes into
    ``fired_names``: the ``;``-joined targets of the correction rules whose
    body matched, in priority order with the winner first ("" for none).
    ``table`` must be a :class:`PredictionTable`, each column must have one
    entry per row, class ids and codes in range and flags bools or 0/1
    integers, and ``fired_names`` a sequence of ``str``, never a bare string;
    anything else is a :class:`ContractError`.  Each column is stored
    read-only, copied unless it is already a checked id column.
    """

    table: PredictionTable
    flagged: np.ndarray
    fired: np.ndarray
    fired_names: tuple[str, ...]
    final: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.table, PredictionTable):
            raise ContractError(f"a trace's table must be a PredictionTable, got {type(self.table).__name__}")
        object.__setattr__(self, "fired_names", _strings("fired name", self.fired_names))
        n, k = self.table.n, len(self.table.classes)
        for name, low, high in (("final", -1, k), ("fired", 0, len(self.fired_names))):
            object.__setattr__(self, name, _checked_ids(getattr(self, name), n, name, low, high))
        object.__setattr__(self, "flagged", _checked_flags(self.flagged, n, "flagged"))


def _validate_application(rules: RuleSet, table: PredictionTable, conds: ConditionMatrix) -> None:
    """The one check of what an application needs: ``conds`` is row-aligned
    to ``table``, the classes match, and ``conds`` has every condition that
    some rule uses.  Other declared conditions of the rule set may be absent."""
    _require_aligned(table, conds)
    if rules.classes != table.classes:
        raise ContractError(
            f"ruleset classes {rules.classes.names} do not match table classes {table.classes.names}"
        )
    used = {c for rule in rules.detection_rules for c in rule.conditions}
    used.update(c for rule in rules.correction_rules for c, _ in rule.pairs)
    missing = used - set(conds.condition_names)
    if missing:
        raise ContractError(f"condition matrix is missing rule conditions {sorted(missing)}")


def _fired_codes(fired: np.ndarray, targets: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """One code per row of the (rows, rules) match matrix, into the distinct
    ``;``-joined target lists, ranked with the first rule as the highest bit
    (:func:`_rank_rows`): the ``memcmp`` order of the rows ``np.packbits`` packs."""
    if not targets:
        return np.zeros(len(fired), dtype=np.int32), ("",)
    codes, rows = _rank_rows(fired.T, [2] * len(targets))
    return codes, tuple(";".join(t for t, hit in zip(targets, row) if hit) for row in fired[rows])


def apply_ruleset(
    rules: RuleSet,
    table: PredictionTable,
    conds: ConditionMatrix,
) -> tuple[PredictionTable, ApplyTrace]:
    """Apply a rule set and return the revised table plus its columnar trace,
    which holds ``table`` itself as its original predictions.

    Ground truth is not required: application is pure inference, and
    ``conds`` needs only the conditions some rule uses.  When several
    correction rules fire on one sample the rule with the highest recorded
    confidence wins, ties broken by lowest target class id.
    """
    _validate_application(rules, table, conds)
    pred = table.pred_ids
    flags = rule_body(
        conds, pred, [(cond, rule.target) for rule in rules.detection_rules for cond in rule.conditions]
    )

    ordered = sorted(rules.correction_rules, key=lambda r: (-r.confidence, r.target))
    fired = np.zeros((table.n, len(ordered)), dtype=bool)
    final = np.where(flags, -1, pred)
    for j in reversed(range(len(ordered))):  # the first rule that fires is written last, so it wins
        fired[:, j] = body = rule_body(conds, pred, ordered[j].pairs)
        final[body] = ordered[j].target
    revised = table.with_predictions(final)
    codes, fired_names = _fired_codes(fired, [table.classes.names[rule.target] for rule in ordered])
    return revised, ApplyTrace(table, flags, codes, fired_names, revised.pred_ids)
