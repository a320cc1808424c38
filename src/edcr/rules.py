"""Detection and correction rules, and their two-phase application to a table.

Rules name their classes by int id into the rule set's :class:`ClassSet`, as
tables do; class names appear only where a rule set or trace is written or
read.  Phase 1 (detection) flags every sample whose current prediction is the
rule's target class and that satisfies at least one of its conditions.  Phase 2
(correction) re-labels every sample matching a correction body, where bodies
are evaluated against the ORIGINAL predictions so that application order
cannot matter.  A sample that is flagged and never corrected is routed to the
reserved UNKNOWN label; anything matching no body is left untouched.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .core import (
    ClassSet,
    ConditionMatrix,
    ContractError,
    DataError,
    PredictionTable,
    _require_aligned,
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
        object.__setattr__(self, "conditions", tuple(sorted(set(self.conditions))))
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
        object.__setattr__(self, "pairs", tuple(sorted(set(self.pairs))))
        object.__setattr__(self, "support", check_unit_interval("support", self.support))
        object.__setattr__(self, "confidence", check_unit_interval("confidence", self.confidence))
        if not self.pairs:
            raise ContractError("a correction rule needs at least one (condition, class) pair")


@dataclass(frozen=True)
class RuleSet:
    """All learned rules for one class universe: at most one detection and one
    correction rule per class, plus the recall budget and condition universe
    they were learned under.  Every class id must index ``classes`` and every
    rule condition lie in ``condition_names``; applying the set needs only
    the conditions some rule uses."""

    classes: ClassSet
    condition_names: tuple[str, ...]
    epsilon: float | dict[str, float]
    detection_rules: tuple[DetectionRule, ...] = ()
    correction_rules: tuple[CorrectionRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "condition_names", tuple(self.condition_names))
        object.__setattr__(self, "detection_rules", tuple(self.detection_rules))
        object.__setattr__(self, "correction_rules", tuple(self.correction_rules))
        if isinstance(self.epsilon, dict):
            epsilon = {name: check_unit_interval(f"epsilon of {name}", v) for name, v in self.epsilon.items()}
        else:
            epsilon = check_unit_interval("epsilon", self.epsilon)
        object.__setattr__(self, "epsilon", epsilon)
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
            for cond, pair_class in rule.pairs:
                if cond not in universe:
                    raise ContractError(f"correction rule uses undeclared condition {cond!r}")
                self.classes.check_id(pair_class)

    @cached_property
    def detection_by_class(self) -> dict[int, DetectionRule]:
        return {rule.target: rule for rule in self.detection_rules}

    @cached_property
    def correction_by_class(self) -> dict[int, CorrectionRule]:
        return {rule.target: rule for rule in self.correction_rules}


@dataclass(frozen=True, eq=False)
class ApplyTrace:
    """Columnar record of one application, one entry per sample.

    ``original`` and ``final`` are class-id columns (-1 for UNKNOWN),
    ``flagged`` is the detection verdict, and ``fired`` codes into
    ``fired_names``: the ``;``-joined targets of the correction rules whose
    body matched, in priority order with the winner first ("" for none).
    """

    classes: ClassSet
    sample_ids: tuple[str, ...]
    original: np.ndarray
    flagged: np.ndarray
    fired: np.ndarray
    fired_names: tuple[str, ...]
    final: np.ndarray

    def __post_init__(self) -> None:
        for name in ("original", "flagged", "fired", "final"):
            getattr(self, name).setflags(write=False)

    def fired_column(self) -> list[str]:
        return np.array(self.fired_names, dtype=object)[self.fired].tolist()

    def rows_for(self, sample_ids: tuple[str, ...], source: str = "trace") -> np.ndarray:
        """Index array placing this trace's rows in ``sample_ids`` order; a
        missing id is a :class:`DataError` naming ``source``.  A trace that
        lists exactly ``sample_ids`` in order, as ``edcr apply`` writes it,
        maps row to row without hashing any id."""
        if self.sample_ids == sample_ids:
            return np.arange(len(sample_ids))
        position = dict(zip(self.sample_ids, range(len(self.sample_ids))))
        rows = np.fromiter(map(position.get, sample_ids, repeat(-1)), dtype=np.intp, count=len(sample_ids))
        if (rows < 0).any():
            raise DataError(f"{source} lacks sample id {sample_ids[int(np.argmax(rows < 0))]!r}")
        return rows


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
    ``;``-joined target lists.  Each packed row is one void scalar, so a 1-D
    ``unique`` sorts them by ``memcmp``: the order of a row-wise ``unique``."""
    if not targets:
        return np.zeros(len(fired), dtype=np.int32), ("",)
    packed = np.packbits(fired, axis=1)
    patterns, codes = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_inverse=True)
    patterns = patterns.view(np.uint8).reshape(len(patterns), packed.shape[1])
    matched = np.unpackbits(patterns, axis=1, count=len(targets)).astype(bool)
    names = tuple(";".join(t for t, hit in zip(targets, row) if hit) for row in matched)
    return codes.reshape(-1), names


def apply_ruleset(
    rules: RuleSet,
    table: PredictionTable,
    conds: ConditionMatrix,
) -> tuple[PredictionTable, ApplyTrace]:
    """Apply a rule set and return the revised table plus its columnar trace.

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
    for j, rule in enumerate(ordered):
        fired[:, j] = rule_body(conds, pred, rule.pairs)

    final = np.where(flags, -1, pred)
    corrected = fired.any(axis=1)
    targets = np.array([rule.target for rule in ordered], dtype=np.int32)
    if ordered:
        final[corrected] = targets[fired[corrected].argmax(axis=1)]
    revised = table.with_predictions(final)
    codes, fired_names = _fired_codes(fired, [table.classes.names[rule.target] for rule in ordered])
    trace = ApplyTrace(table.classes, table.sample_ids, pred, flags, codes, fired_names, revised.pred_ids)
    return revised, trace
