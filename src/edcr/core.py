"""Immutable tabular model for predictions, boolean conditions, and confusion stats.

A :class:`PredictionTable` holds one predicted class per sample (plus optional
ground truth), a :class:`ConditionMatrix` holds boolean per-sample signals, and
the counting helpers below are the primitives every rule learner and theorem
check consumes.  All types are frozen after construction and the counting
operations are pure functions, so everything here is safe to share across
threads.
"""
from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

#: Reserved output label for samples flagged as errors but not re-classified.
#: Never a member of a class set and never a ground-truth value.
UNKNOWN_NAME = "__unknown__"


class EdcrError(Exception):
    """Base class for every error raised by this package.  ``exit_code`` is
    the CLI's exit status for it; ``edcr`` reads no other mapping."""

    exit_code = 4


class ContractError(EdcrError):
    """A precondition, configuration, or contract violation (CLI exit 2)."""

    exit_code = 2


class UnknownConditionError(ContractError):
    """A condition name is not present in the condition matrix."""


class UnknownClassError(ContractError):
    """A class name or label is not part of the class set in use."""


class DegenerateStatsError(ContractError):
    """Statistics fall outside the domain of a closed-form quantity."""


class DataError(EdcrError):
    """Malformed input data or files (CLI exit 3)."""

    exit_code = 3


class VerificationError(EdcrError):
    """An invariant or theorem check failed (CLI exit 4)."""


def check_unit_interval(name: str, value) -> float:
    """``value`` as a float, or :class:`ContractError` naming ``name`` unless
    it is finite and within [0, 1]."""
    number = float(value)
    if not 0.0 <= number <= 1.0:  # also false for NaN
        raise ContractError(f"{name} must be a finite number in [0, 1], got {value!r}")
    return number


def check_seed(seed) -> int:
    """``seed`` as an int, or :class:`ContractError` unless it is a
    non-negative integer: numpy raises ``ValueError`` for a negative seed and
    ``TypeError`` for a float, and draws fresh entropy for ``None``."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ContractError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class ClassSet:
    """Ordered universe of predictable classes, each a non-empty name other
    than UNKNOWN; ids are dense 0..n-1 by position.  Rules, learners and
    tables carry the int ids; this is the only map between names and ids."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ContractError("class set must not be empty")
        if len(set(self.names)) != len(self.names):
            raise ContractError(f"duplicate class names in {self.names}")
        if UNKNOWN_NAME in self.names:
            raise ContractError(f"{UNKNOWN_NAME!r} is reserved and cannot be a class name")
        if "" in self.names:
            raise ContractError("a class name must not be empty")

    @cached_property
    def _ids(self) -> dict[str, int]:
        return dict(zip(self.names, range(len(self.names))))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """Id of the class ``name``; raises :class:`UnknownClassError` otherwise."""
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownClassError(
                f"unknown class {name!r}; known classes: {', '.join(self.names)}"
            ) from None

    def check_id(self, class_id) -> int:
        """``class_id`` as an int; raises :class:`UnknownClassError` unless it
        is an integer in ``[0, len(self))``."""
        if isinstance(class_id, numbers.Integral) and 0 <= class_id < len(self.names):
            return int(class_id)
        raise UnknownClassError(
            f"class id {class_id!r} is not in [0, {len(self.names)}) for classes {self.names}"
        )


def name_column(names: Sequence[str], ids: np.ndarray) -> list[str]:
    """Names for an id column: id ``k`` is ``names[k]`` and -1 is UNKNOWN."""
    return np.array((*names, UNKNOWN_NAME), dtype=object)[ids].tolist()


def id_column(lookup: dict[str, int], names: Iterable[str], role: str) -> np.ndarray:
    """Ids for a column of names; a name missing from ``lookup`` is a
    :class:`ContractError`."""
    try:
        return np.fromiter(map(lookup.__getitem__, names), dtype=np.int32)
    except KeyError as err:
        raise ContractError(f"{role} class {err.args[0]!r} is not one of {tuple(lookup)}") from None


def _coded(values: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """A column of names as int32 codes into its distinct names, which are
    listed in order of first appearance."""
    names = tuple(dict.fromkeys(values))
    codes = dict(zip(names, range(len(names))))
    return np.fromiter(map(codes.__getitem__, values), dtype=np.int32, count=len(values)), names


def _checked_ids(values, n: int, role: str, low: int, high: int) -> np.ndarray:
    arr = np.array(values, dtype=np.int32)
    if arr.shape != (n,):
        raise ContractError(f"{role} has {arr.size} entries for {n} sample ids")
    if n and (arr.min() < low or arr.max() >= high):
        raise ContractError(f"{role} ids must lie in [{low}, {high})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Per-sample predicted class, and optionally ground truth, over a sample set.

    Both are int32 id columns.  A predicted id indexes the class set, or is
    -1 for UNKNOWN (which only appears in post-rule tables).  Ground truth is
    never UNKNOWN but may lie outside the class set, which models evaluation
    corpora containing classes the base model cannot predict: id
    ``len(classes) + j`` stands for ``novel_names[j]``.
    """

    classes: ClassSet
    sample_ids: tuple[str, ...]
    pred_ids: np.ndarray
    gt_ids: np.ndarray | None = None
    novel_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "novel_names", tuple(self.novel_names))
        n = len(self.sample_ids)
        k = len(self.classes)
        object.__setattr__(self, "pred_ids", _checked_ids(self.pred_ids, n, "predicted", -1, k))
        if self.gt_ids is not None:
            gt = _checked_ids(self.gt_ids, n, "ground_truth", 0, k + len(self.novel_names))
            object.__setattr__(self, "gt_ids", gt)
        if len(set(self.sample_ids)) != n:
            raise ContractError("sample ids must be unique")
        if UNKNOWN_NAME in self.novel_names:
            raise ContractError("ground truth may never be UNKNOWN")
        if len(set(self.novel_names) | set(self.classes.names)) != k + len(self.novel_names):
            raise ContractError(f"novel class names {self.novel_names} repeat or overlap the class set")

    @property
    def n(self) -> int:
        return len(self.sample_ids)

    @property
    def has_ground_truth(self) -> bool:
        return self.gt_ids is not None

    def require_ground_truth(self) -> None:
        if self.gt_ids is None:
            raise ContractError("operation requires a table with ground truth")

    def names(self, ids: np.ndarray) -> list[str]:
        """Class names for an id column of this table."""
        return name_column(self.classes.names + self.novel_names, ids)

    @classmethod
    def from_names(
        cls,
        classes: ClassSet,
        sample_ids: Sequence[str],
        predicted: Iterable[str],
        ground_truth: Iterable[str] | None = None,
    ) -> "PredictionTable":
        gt = None if ground_truth is None else _coded(list(ground_truth))
        return cls._from_coded(classes, sample_ids, _coded(list(predicted)), gt)

    @classmethod
    def _from_coded(cls, classes, sample_ids, predicted, ground_truth=None) -> "PredictionTable":
        """:meth:`from_names` for columns given as :func:`_coded` pairs; names
        are looked up once each, not once per sample."""
        lookup = {name: i for i, name in enumerate(classes.names)}
        pred = id_column({**lookup, UNKNOWN_NAME: -1}, predicted[1], "predicted")[predicted[0]]
        gt, novel = None, ()
        if ground_truth is not None:
            novel = tuple(sorted(set(ground_truth[1]).difference(lookup)))
            lookup.update((name, len(classes) + j) for j, name in enumerate(novel))
            gt = id_column(lookup, ground_truth[1], "ground-truth")[ground_truth[0]]
        return cls(classes, tuple(sample_ids), pred, gt, novel)

    def with_predictions(self, pred_ids: np.ndarray) -> "PredictionTable":
        """This table with ``pred_ids`` as its predictions.  Only the new
        column is checked; the sample ids, ground truth and novel names were
        checked when this table was built and are shared, not re-hashed."""
        table = copy.copy(self)
        pred = _checked_ids(pred_ids, self.n, "predicted", -1, len(self.classes))
        object.__setattr__(table, "pred_ids", pred)
        return table

    def subset(self, indices: Sequence[int]) -> "PredictionTable":
        idx = np.asarray(indices, dtype=np.intp)
        return PredictionTable(
            self.classes,
            tuple(map(self.sample_ids.__getitem__, idx.tolist())),
            self.pred_ids[idx],
            None if self.gt_ids is None else self.gt_ids[idx],
            self.novel_names,
        )


@dataclass(frozen=True, eq=False)
class ConditionMatrix:
    """Named boolean condition columns, row-aligned to a prediction table.

    ``values`` has shape (rows, conditions) and is stored column-contiguous,
    so selecting the columns of a rule body reads contiguous memory.
    """

    condition_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "condition_names", tuple(self.condition_names))
        vals = np.array(self.values, dtype=bool, order="F")
        if vals.ndim != 2:
            raise ContractError(f"condition values must be 2-D, got shape {vals.shape}")
        if vals.shape[1] != len(self.condition_names):
            raise ContractError(
                f"{len(self.condition_names)} condition names for {vals.shape[1]} columns"
            )
        if len(set(self.condition_names)) != len(self.condition_names):
            raise ContractError(f"duplicate condition names in {self.condition_names}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_conditions(self) -> int:
        return self.values.shape[1]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.condition_names)}

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownConditionError(
                f"unknown condition {name!r}; known conditions: {', '.join(self.condition_names)}"
            ) from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def rows(self, indices: Sequence[int]) -> "ConditionMatrix":
        return ConditionMatrix(self.condition_names, self.values[np.asarray(indices, dtype=np.intp)])


def _pack_rows(cols: np.ndarray) -> np.ndarray:
    """(rows, m) booleans as (rows, ceil(m/64)) uint64 words: column j is
    bit j % 64 of word j // 64, and the padding bits are zero.  Packing the
    transpose packs each condition column along the sample axis instead."""
    n_words = max(1, -(-cols.shape[1] // 64))
    padded = np.zeros((cols.shape[0], 64 * n_words), dtype=bool)
    padded[:, : cols.shape[1]] = cols
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def rule_body(
    conds: ConditionMatrix, pred_ids: np.ndarray, pairs: Iterable[tuple[str, int]]
) -> np.ndarray:
    """Rows satisfying ``OR over (condition, class id) of condition AND
    pred == class``: the body of every detection and correction rule.

    Pairs are grouped by class, so a detection body (one class, several
    conditions) costs one ``any`` over its columns.  No pairs match no rows.
    """
    by_class: dict[int, list[int]] = {}
    for name, class_id in pairs:
        by_class.setdefault(class_id, []).append(conds.column_index(name))
    body = np.zeros(len(pred_ids), dtype=bool)
    for class_id, cols in by_class.items():
        body |= conds.values[:, cols].any(axis=1) & (pred_ids == class_id)
    return body


def _ratio(numerator, denominator) -> np.ndarray:
    """``numerator / denominator`` as floats, 0 where the denominator is 0."""
    out = np.zeros(np.shape(numerator), dtype=float)
    return np.divide(numerator, denominator, out=out, where=denominator > 0)


@dataclass(frozen=True, eq=False)
class ClassStats:
    """Per-class confusion counts over a table, with derived ratios.

    ``precision[i]`` is defined as 0 when the class was never predicted and
    ``recall[i]`` as 0 when the class never occurs in ground truth; learners
    skip such classes rather than divide by zero.  ``prior[i]`` is the
    fraction of all samples predicted as class i.  Every array is read-only.
    """

    classes: ClassSet
    total: int
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray
    n_predicted: np.ndarray = field(init=False)
    n_actual: np.ndarray = field(init=False)
    precision: np.ndarray = field(init=False)
    recall: np.ndarray = field(init=False)
    prior: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        tp, fp, tn, fn = (np.array(getattr(self, name), dtype=np.int64) for name in ("tp", "fp", "tn", "fn"))
        n_predicted, n_actual = tp + fp, tp + fn
        arrays = dict(tp=tp, fp=fp, tn=tn, fn=fn, n_predicted=n_predicted, n_actual=n_actual,
                      precision=_ratio(tp, n_predicted), recall=_ratio(tp, n_actual),
                      prior=_ratio(n_predicted, self.total))
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class DetectionCounts:
    """Counts for a detection-rule body over a table: body&head, body&not-head,
    body, class support s_i = bod/N_i, and confidence c = pos/bod."""

    pos: int
    neg: int
    bod: int
    class_support: float
    confidence: float


@dataclass(frozen=True)
class CorrectionCounts:
    """Counts for a correction-rule body: body&head, body, support s = bod/N,
    and confidence c = pos/bod."""

    pos: int
    bod: int
    support: float
    confidence: float


def _require_aligned(table: PredictionTable, conds: ConditionMatrix) -> None:
    if conds.n_rows != table.n:
        raise ContractError(
            f"condition matrix has {conds.n_rows} rows for a table of {table.n} samples"
        )


def _class_of(table: PredictionTable, conds: ConditionMatrix, class_i) -> int:
    """The precondition of every function that counts one class over a table
    and its conditions: the table has ground truth, ``conds`` is row-aligned
    to it, and ``class_i`` is a class id of it (returned as an int)."""
    table.require_ground_truth()
    _require_aligned(table, conds)
    return table.classes.check_id(class_i)


def compute_class_stats(table: PredictionTable) -> ClassStats:
    """Confusion counts per declared class.

    UNKNOWN predictions count as not-class-i for every class (they land in
    TN or FN), and ground-truth classes outside the class set count as
    gt != i for every i, so post-rule and novel-class tables score with the
    same code path.
    """
    table.require_ground_truth()
    pred = table.pred_ids
    gt = table.gt_ids
    k = len(table.classes)
    tp = np.bincount(pred[pred == gt], minlength=k)
    n_predicted = np.bincount(pred[pred >= 0], minlength=k)
    n_actual = np.bincount(gt[gt < k], minlength=k)
    fp = n_predicted - tp
    fn = n_actual - tp
    return ClassStats(table.classes, table.n, tp, fp, table.n - tp - fp - fn, fn)


def detection_counts(
    table: PredictionTable,
    conds: ConditionMatrix,
    class_i: int,
    dc: Iterable[str],
) -> DetectionCounts:
    """Evaluate a detection body ``pred_i AND any(dc)`` for the class id
    ``class_i``.

    Support and confidence are both defined as zero for an empty condition
    set, and the disjunction is a set union over rows: a row satisfying
    several conditions counts once.
    """
    i = _class_of(table, conds, class_i)
    names = sorted(set(dc))
    n_i = int(np.count_nonzero(table.pred_ids == i))
    if not names:
        return DetectionCounts(0, 0, 0, 0.0, 0.0)
    body = rule_body(conds, table.pred_ids, [(name, i) for name in names])
    bod = int(np.count_nonzero(body))
    pos = int(np.count_nonzero(body & (table.gt_ids != i)))
    neg = bod - pos
    class_support = bod / n_i if n_i > 0 else 0.0
    confidence = pos / bod if bod > 0 else 0.0
    return DetectionCounts(pos, neg, bod, class_support, confidence)


def correction_counts(
    table: PredictionTable,
    conds: ConditionMatrix,
    class_i: int,
    cc: Iterable[tuple[str, int]],
) -> CorrectionCounts:
    """Evaluate a correction body ``OR over (q, r) of cond_q AND pred_r``.

    The head holds on a row when its ground truth equals the target class id
    ``class_i``; ``r`` is a class id too.
    Support is measured over the whole table; empty pair sets yield all
    zeros, matching the empty-body convention.
    """
    i = _class_of(table, conds, class_i)
    pairs = [(cond, table.classes.check_id(cls)) for cond, cls in cc]
    if not pairs:
        return CorrectionCounts(0, 0, 0.0, 0.0)
    body = rule_body(conds, table.pred_ids, pairs)
    bod = int(np.count_nonzero(body))
    pos = int(np.count_nonzero(body & (table.gt_ids == i)))
    support = bod / table.n if table.n > 0 else 0.0
    confidence = pos / bod if bod > 0 else 0.0
    return CorrectionCounts(pos, bod, support, confidence)
