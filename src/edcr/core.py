"""Immutable tabular model for predictions, boolean conditions, and confusion stats.

A :class:`PredictionTable` holds one predicted class per sample (plus optional
ground truth), a :class:`ConditionMatrix` holds boolean per-sample signals as
packed words, :func:`_pair_words` is the one kernel of rule bodies, and the
counting helpers below are the primitives every rule learner and theorem
check consumes.  All types are frozen after construction and the counting
operations are pure functions, so everything here is safe to share across
threads.  A table's per-class statistics, :attr:`PredictionTable.stats`, are
computed on first use and kept with the table.
"""
from __future__ import annotations

import numbers
from collections import Counter, defaultdict
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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
    it is a real number (a ``bool`` or a ``str`` is not one) within [0, 1]."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and 0.0 <= float(value) <= 1.0):  # also false for NaN
        raise ContractError(f"{name} must be a finite number in [0, 1], got {value!r}")
    return float(value)


def _strings(what: str, values) -> tuple[str, ...]:
    """``values`` as a tuple (a tuple as it is), or :class:`ContractError`
    naming ``what`` and the first bad item unless it is a sequence of ``str``
    that UTF-8 can encode (no lone surrogate, which no file can hold); a bare
    string, which would be read as its characters, is not one.  No Python
    loop runs per item, so this also serves the sample ids of large tables."""
    if isinstance(values, str):
        raise ContractError(f"{what}s must be a sequence of strings, not the string {values!r}")
    items = values if isinstance(values, tuple) else tuple(values)
    try:
        joined = "".join(items)  # a TypeError unless every item is a str
        if not joined.isascii():
            joined.encode()  # a UnicodeEncodeError at a lone surrogate
    except TypeError:
        bad = next(item for item in items if not isinstance(item, str))
        raise ContractError(f"{what}s must be strings, got {bad!r}") from None
    except UnicodeEncodeError:
        bad = next(item for item in items if item.encode(errors="replace").decode() != item)
        raise ContractError(f"{what}s must be encodable as UTF-8, got {bad!r}") from None
    return items


def check_names(what: str, values, distinct: bool = True) -> tuple[str, ...]:
    """``values`` as a tuple (a tuple as it is), or :class:`ContractError`
    naming ``what`` (one name) unless it is a sequence of non-empty ``str``
    that UTF-8 can encode (:func:`_strings`), each named once when
    ``distinct``; a bare string is not one.  The message names the first
    empty name's index, or the first name that repeats, not the sequence."""
    names = _strings(what, values)
    unique = set(names)
    if "" in unique:
        raise ContractError(f"empty {what} in the sequence at index {names.index('')}")
    if distinct and len(unique) != len(names):
        dupe = next(name for name, count in Counter(names).items() if count > 1)
        raise ContractError(f"duplicate {what} {dupe!r}")
    return names


def check_count(name: str, value) -> int:
    """``value`` as an int, or :class:`ContractError` naming ``name`` unless
    it is a non-negative integer; a ``bool`` is not one.  Seeds are counts
    too: numpy raises ``ValueError`` for a negative seed and ``TypeError``
    for a float, and draws fresh entropy for ``None``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ContractError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def check_pairs(pairs) -> tuple[tuple[str, int], ...]:
    """``pairs`` as a tuple of ``(condition name, class id)`` tuples, or
    :class:`ContractError` unless each is a 2-item pair of a non-empty ``str``
    and an integer; a bare string is not a sequence of pairs.  A class id
    that is not an integer (a ``bool`` is not one) is an
    :class:`UnknownClassError`, as in :meth:`ClassSet.check_pairs`, which
    also range-checks ids where the class set is known."""
    items = () if isinstance(pairs, str) else tuple(pairs)
    shaped = all(
        isinstance(pair, (tuple, list)) and len(pair) == 2 and isinstance(pair[0], str) and pair[0] != ""
        for pair in items
    )
    if isinstance(pairs, str) or not shaped:
        raise ContractError(f"correction pairs must be (condition, class id) tuples, got {pairs!r}")
    for _, class_id in items:
        if not isinstance(class_id, numbers.Integral) or isinstance(class_id, bool):
            raise UnknownClassError(
                f"correction pairs must be (condition, class id) tuples; {class_id!r} is not a class id"
            )
    return tuple((name, int(class_id)) for name, class_id in items)


@dataclass(frozen=True)
class ClassSet:
    """Ordered universe of predictable classes, each a non-empty name other
    than UNKNOWN; ids are dense 0..n-1 by position.  Rules, learners and
    tables carry the int ids; this is the only map between names and ids."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", check_names("class name", self.names))
        if not self.names:
            raise ContractError("class set must not be empty")
        if UNKNOWN_NAME in self.names:
            raise ContractError(f"{UNKNOWN_NAME!r} is reserved and cannot be a class name")

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
        is an integer in ``[0, len(self))``; a ``bool`` is not one."""
        integer = isinstance(class_id, numbers.Integral) and not isinstance(class_id, bool)
        if integer and 0 <= class_id < len(self.names):
            return int(class_id)
        raise UnknownClassError(
            f"class id {class_id!r} is not in [0, {len(self.names)}) for classes {self.names}"
        )

    def check_pairs(self, pairs) -> tuple[tuple[str, int], ...]:
        """:func:`check_pairs` of ``pairs``, each class id by :meth:`check_id`."""
        return tuple((name, self.check_id(class_id)) for name, class_id in check_pairs(pairs))


def id_column(lookup: dict[str, int], names: Iterable[str], role: str) -> np.ndarray:
    """Ids for a column of names; a name missing from ``lookup`` is a
    :class:`ContractError`."""
    try:
        return np.fromiter(map(lookup.__getitem__, names), dtype=np.int32)
    except KeyError as err:
        raise ContractError(f"{role} class {err.args[0]!r} is not one of {tuple(lookup)}") from None


def _coded(values: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """A column of names as int32 codes into its distinct names, which are
    listed in order of first appearance; each value is hashed once."""
    codes = defaultdict()
    codes.default_factory = codes.__len__  # a new name's code is the count of names before it
    return np.fromiter(map(codes.__getitem__, values), dtype=np.int32, count=len(values)), tuple(codes)


def _rank_rows(columns: Sequence[np.ndarray], sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the rows of integer columns, ``columns[j]`` in ``[0, sizes[j])``,
    into their distinct rows, ascending with the first column most significant,
    and a row for each code.  A row is one int64 key in mixed radix, replaced
    by its rank (order kept) whenever its range passes the row count, so the
    keys are ranked at the end by counting, with no sort, over that range."""
    key, bound = np.zeros(len(columns[0]), dtype=np.int64), 1
    for column, size in zip(columns, sizes):
        key, bound = key * size + column, bound * size
        if bound > len(key):
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
    present = np.bincount(key, minlength=bound) > 0
    codes = (np.cumsum(present) - 1)[key]
    rows = np.empty(np.count_nonzero(present), dtype=np.intp)
    rows[codes] = np.arange(len(key))  # rows with one code are equal, so any may stand for it
    return codes, rows


def _id_columns(classes: ClassSet, predicted, ground_truth=None):
    """The predicted and ground-truth id columns and the novel names of a table
    over ``classes`` from :func:`_coded` pairs, each name looked up once."""
    lookup = classes._ids
    pred = id_column({**lookup, UNKNOWN_NAME: -1}, predicted[1], "predicted")[predicted[0]]
    gt, novel = None, ()
    if ground_truth is not None:
        novel = tuple(sorted(set(ground_truth[1]).difference(lookup)))
        lookup = {**lookup, **{name: len(classes) + j for j, name in enumerate(novel)}}
        gt = id_column(lookup, ground_truth[1], "ground-truth")[ground_truth[0]]
    return pred, gt, novel


def _array(value) -> np.ndarray:
    """``value`` as an array; a ragged nesting, which numpy refuses, as one
    ``None``, which every caller rejects."""
    try:
        return np.asarray(value)
    except ValueError:
        return np.asarray(None)


def _bool_index(value) -> int | None:
    """The index of the first ``bool`` item of the sequence ``value``, or None:
    numpy reads a bool among numbers as 0 or 1, but a bool is not a number.
    An array's dtype tells that, so only an object array's items are read."""
    items = value if not isinstance(value, np.ndarray) or value.dtype == object else ()
    if {bool, np.bool_}.isdisjoint(map(type, items)):
        return None
    return next(k for k, item in enumerate(items) if isinstance(item, (bool, np.bool_)))


def _integer_array(name: str, value) -> np.ndarray:
    """``value`` as an array, or :class:`ContractError` naming ``name`` unless
    it is a 1-D array of integers; a ``bool`` is not an integer
    (:func:`_bool_index`).  An empty sequence, which numpy makes float, is
    taken as integers."""
    arr = _array(value)
    if not arr.size:
        arr = arr.astype(np.intp)
    if arr.dtype.kind not in "iu" or arr.ndim != 1 or _bool_index(value) is not None:
        raise ContractError(f"{name} must be a 1-D array of integers, got {value!r}")
    return arr


def _bit_array(name: str, value) -> np.ndarray:
    """``value`` as a bool array, or :class:`ContractError` naming ``name``
    unless it holds bools or integers that are each 0 or 1.  An empty
    sequence, which numpy makes float, is taken as bools, and a bool array is
    returned as it is, not copied."""
    arr = _array(value)
    if arr.dtype != bool and arr.size and (arr.dtype.kind not in "iu" or ((arr != 0) & (arr != 1)).any()):
        raise ContractError(f"{name} must be bools or 0/1 integers, got {value!r}")
    return arr.astype(bool, copy=False)


def _checked_ids(values, n: int, role: str, low: int, high: int) -> np.ndarray:
    """``values`` as a read-only int32 array, or :class:`ContractError` naming
    ``role`` unless it is a 1-D integer array of ``n`` ids in ``[low, high)``.
    The range is checked before the cast, so no id wraps round int32; only
    a read-only int32 array that owns its data (a checked column) is kept."""
    arr = _integer_array(role, values)
    if arr.shape != (n,):
        raise ContractError(f"{role} has {arr.size} entries for {n} sample ids")
    if n and (arr.min() < low or arr.max() >= high):
        raise ContractError(f"{role} ids must lie in [{low}, {high})")
    if arr.dtype != np.int32 or arr.flags.writeable or not arr.flags.owndata:
        arr = arr.astype(np.int32)
        arr.setflags(write=False)
    return arr


def _checked_flags(values, n: int, role: str) -> np.ndarray:
    """``values`` as a read-only bool copy, or :class:`ContractError` naming
    ``role`` unless it is bools or 0/1 integers (:func:`_bit_array`) of shape ``(n,)``."""
    arr = _bit_array(role, values).copy()
    if arr.shape != (n,):
        raise ContractError(f"{role} must have shape ({n},), got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _row_indices(indices, n: int) -> np.ndarray:
    """``indices`` as an array, or :class:`ContractError` unless it is a 1-D
    integer array of rows in ``[0, n)``; a ``bool`` mask is not one."""
    idx = _integer_array("row indices", indices)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"row indices must lie in [0, {n}), got {indices!r}")
    return idx


class _SampleIds(tuple):
    """Sample ids that :func:`check_names` checked; a :class:`PredictionTable`
    built on them, or on distinct rows of them, takes them as they are."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Per-sample predicted class, and optionally ground truth, over a sample set.

    Both are int32 id columns.  A predicted id indexes the class set, or is
    -1 for UNKNOWN (which only appears in post-rule tables).  Ground truth is
    never UNKNOWN but may lie outside the class set, which models evaluation
    corpora containing classes the base model cannot predict: id
    ``len(classes) + j`` stands for ``novel_names[j]``.  ``sample_ids`` are
    checked once and kept as a :class:`_SampleIds`, which no table re-checks.
    """

    classes: ClassSet
    sample_ids: tuple[str, ...]
    pred_ids: np.ndarray
    gt_ids: np.ndarray | None = None
    novel_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        ids = self.sample_ids
        if not isinstance(ids, _SampleIds):  # copied once; check_names rejects a bare str
            ids = check_names("sample id", ids if isinstance(ids, str) else _SampleIds(ids))
            object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "novel_names", check_names("novel class name", self.novel_names))
        n = len(self.sample_ids)
        k = len(self.classes)
        object.__setattr__(self, "pred_ids", _checked_ids(self.pred_ids, n, "predicted", -1, k))
        if self.gt_ids is not None:
            gt = _checked_ids(self.gt_ids, n, "ground_truth", 0, k + len(self.novel_names))
            object.__setattr__(self, "gt_ids", gt)
        if UNKNOWN_NAME in self.novel_names:
            raise ContractError("ground truth may never be UNKNOWN")
        if not set(self.classes.names).isdisjoint(self.novel_names):
            raise ContractError(f"novel class names {self.novel_names} overlap the class set")

    @property
    def n(self) -> int:
        return len(self.sample_ids)

    @property
    def has_ground_truth(self) -> bool:
        return self.gt_ids is not None

    def require_ground_truth(self) -> None:
        if self.gt_ids is None:
            raise ContractError("operation requires a table with ground truth")

    @cached_property
    def stats(self) -> "ClassStats":
        """:func:`compute_class_stats` of this table, computed on first use."""
        return compute_class_stats(self)

    @property
    def _labels(self) -> tuple[str, ...]:
        """The name of each id ``i`` at index ``i + 1``: UNKNOWN, classes, novel names."""
        return (UNKNOWN_NAME, *self.classes.names, *self.novel_names)

    def names(self, ids: np.ndarray) -> list[str]:
        """Class names for an id column of this table, novel ones included; -1 is UNKNOWN."""
        return np.array(self._labels, dtype=object)[np.add(ids, 1)].tolist()

    @classmethod
    def from_names(
        cls,
        classes: ClassSet,
        sample_ids: Sequence[str],
        predicted: Iterable[str],
        ground_truth: Iterable[str] | None = None,
    ) -> "PredictionTable":
        """A table from one class name per sample: ``predicted`` names a class
        or UNKNOWN, ``ground_truth`` (if given) any class, and each is an
        iterable of ``str``, never a bare string, which would be read as its
        characters."""
        pred = _coded(_strings("predicted label", predicted))
        gt = None if ground_truth is None else _coded(_strings("ground-truth label", ground_truth))
        return cls(classes, sample_ids, *_id_columns(classes, pred, gt))

    def with_predictions(self, pred_ids: np.ndarray) -> "PredictionTable":
        """This table with ``pred_ids`` as its predictions, on its checked ids."""
        return PredictionTable(self.classes, self.sample_ids, pred_ids, self.gt_ids, self.novel_names)

    def subset(self, indices: Sequence[int]) -> "PredictionTable":
        """The rows at ``indices``; only a repeated row has the ids checked."""
        idx = _row_indices(indices, self.n)
        distinct = np.diff(np.sort(idx)).all()
        sample_ids = (_SampleIds if distinct else tuple)(map(self.sample_ids.__getitem__, idx.tolist()))
        gt = None if self.gt_ids is None else self.gt_ids[idx]
        return PredictionTable(self.classes, sample_ids, self.pred_ids[idx], gt, self.novel_names)


class _Packed(NamedTuple):
    """Words packed as :attr:`ConditionMatrix.words` are, and their row
    count, which a :class:`ConditionMatrix` checks and keeps as they are."""

    words: np.ndarray
    n_rows: int


@dataclass(frozen=True, eq=False, init=False)
class ConditionMatrix:
    """Named boolean condition columns, row-aligned to a prediction table.

    ``values``, (rows, conditions) bools or integers that are each 0 or 1
    (:func:`_bit_array`; anything else is a :class:`ContractError`), is
    packed once along the samples into ``words``, one row of ceil(rows/64)
    uint64 words per condition, and only the words are kept.  ``values``
    unpacks them on each use, read-only, for the callers that need bools;
    the 8× larger bools are not kept.  The conditions scanner packs each
    block of a file into the words as it reads it and passes them as a
    :class:`_Packed`, whose dtype, shape and zero padding bits are checked.
    """

    condition_names: tuple[str, ...]
    n_rows: int
    words: np.ndarray

    def __init__(self, condition_names: Sequence[str], values) -> None:
        object.__setattr__(self, "condition_names", check_names("condition name", condition_names))
        if isinstance(values, _Packed):
            words, n_rows = values
            shape = (len(self.condition_names), max(1, -(-n_rows // 64)))
            used = n_rows - 64 * (shape[1] - 1)  # the bits of each last word that hold rows; numpy shifts 64 to 0
            if words.dtype != "<u8" or words.shape != shape or (words[:, -1] >> used).any():
                raise ContractError(f"packed condition words must be {shape} <u8 with zero padding bits")
        else:
            vals = _bit_array("condition values", values)
            if vals.ndim != 2:
                raise ContractError(f"condition values must be 2-D, got shape {vals.shape}")
            if vals.shape[1] != len(self.condition_names):
                raise ContractError(
                    f"{len(self.condition_names)} condition names for {vals.shape[1]} columns"
                )
            words, n_rows = _pack_rows(vals.T), vals.shape[0]
        words.setflags(write=False)
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "words", words)

    @property
    def n_conditions(self) -> int:
        return len(self.condition_names)

    @property
    def values(self) -> np.ndarray:
        """The (rows, conditions) bools that ``words`` packs, read-only;
        unpacked on each use and not kept."""
        bits = np.unpackbits(self.words.view(np.uint8), axis=1, count=self.n_rows, bitorder="little")
        values = bits.view(bool).T
        values.setflags(write=False)
        return values

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

    def rows(self, indices: Sequence[int]) -> "ConditionMatrix":
        return ConditionMatrix(self.condition_names, self.values[_row_indices(indices, self.n_rows)])


_PACK_SLICE = 1 << 20  # about this many bools are packed at a time


def _pack_rows(cols: np.ndarray) -> np.ndarray:
    """(rows, m) booleans as (rows, ceil(m/64)) uint64 words, at least one:
    column j is bit j % 64 of word j // 64, and the padding bits are zero.
    Packing the transpose packs each column along the sample axis instead.
    The rows go a slice at a time through one zero-padded bool buffer, so no
    padded copy of the whole input is made."""
    rows, m = cols.shape
    n_words = max(1, -(-m // 64))
    step = max(1, _PACK_SLICE // (64 * n_words))
    padded = np.zeros((min(step, rows), 64 * n_words), dtype=bool)
    words = np.empty((rows, n_words), dtype="<u8")
    for start in range(0, rows, step):
        block = padded[: min(step, rows - start)]
        block[:, :m] = cols[start : start + step]
        words[start : start + len(block)] = np.packbits(block, axis=1, bitorder="little").view("<u8")
    return words


def _pair_words(conds: ConditionMatrix, pred_ids: np.ndarray, pairs: Sequence[tuple[str, int]]) -> np.ndarray:
    """Each (condition, class id) pair's body, ``condition AND pred ==
    class``, as a row of words laid out as ``conds.words``: the one kernel of
    rule bodies.  Each class's predicted rows are packed once."""
    cols = [conds.column_index(name) for name, _ in pairs]
    classes = list(dict.fromkeys(class_id for _, class_id in pairs))
    masks = _pack_rows(pred_ids == np.array(classes, dtype=np.int64)[:, None])
    return conds.words[cols] & masks[[classes.index(class_id) for _, class_id in pairs]]


def rule_body(
    conds: ConditionMatrix, pred_ids: np.ndarray, pairs: Iterable[tuple[str, int]]
) -> np.ndarray:
    """Rows satisfying ``OR over (condition, class id) of condition AND
    pred == class``: the body of every detection and correction rule, the OR
    of its pairs' :func:`_pair_words`, unpacked.  No pairs match no rows."""
    body = np.bitwise_or.reduce(_pair_words(conds, pred_ids, tuple(pairs)), axis=0)
    return np.unpackbits(body.view(np.uint8), count=len(pred_ids), bitorder="little").view(bool)


def _ratio(numerator, denominator) -> np.ndarray:
    """``numerator / denominator`` as floats, 0 where the denominator is 0."""
    out = np.zeros(np.shape(numerator), dtype=float)
    return np.divide(numerator, denominator, out=out, where=denominator > 0)


@dataclass(frozen=True, eq=False)
class ClassStats:
    """Per-class confusion counts of a labeled table, with derived ratios;
    the table is the constructor's only argument.

    UNKNOWN predictions count as not-class-i for every class (they land in
    TN or FN), and ground-truth classes outside the class set count as
    gt != i for every i, so post-rule and novel-class tables score with the
    same code path.  ``precision[i]`` is defined as 0 when the class was
    never predicted and ``recall[i]`` as 0 when the class never occurs in
    ground truth; learners skip such classes rather than divide by zero.
    ``prior[i]`` is the fraction of all samples predicted as class i, and
    ``f1[i]`` the harmonic mean of precision and recall, 0 where both are 0.
    ``total`` is the table's sample count; ``tp``, ``fp``, ``tn`` and ``fn``
    hold one int64 count per class.  Every array is read-only.
    """

    table: InitVar[PredictionTable]
    classes: ClassSet = field(init=False)
    total: int = field(init=False)
    tp: np.ndarray = field(init=False)
    fp: np.ndarray = field(init=False)
    tn: np.ndarray = field(init=False)
    fn: np.ndarray = field(init=False)
    n_predicted: np.ndarray = field(init=False)
    n_actual: np.ndarray = field(init=False)
    precision: np.ndarray = field(init=False)
    recall: np.ndarray = field(init=False)
    prior: np.ndarray = field(init=False)
    f1: np.ndarray = field(init=False)

    def __post_init__(self, table: PredictionTable) -> None:
        table.require_ground_truth()
        pred, gt, k = table.pred_ids, table.gt_ids, len(table.classes)
        tp = np.bincount(pred[pred == gt], minlength=k)
        n_predicted = np.bincount(pred[pred >= 0], minlength=k)
        n_actual = np.bincount(gt[gt < k], minlength=k)
        fp, fn = n_predicted - tp, n_actual - tp
        tn = table.n - tp - fp - fn
        precision, recall = _ratio(tp, n_predicted), _ratio(tp, n_actual)
        arrays = dict(tp=tp, fp=fp, tn=tn, fn=fn, n_predicted=n_predicted, n_actual=n_actual,
                      precision=precision, recall=recall, prior=_ratio(n_predicted, table.n),
                      f1=_ratio(2.0 * precision * recall, precision + recall))
        object.__setattr__(self, "classes", table.classes)
        object.__setattr__(self, "total", table.n)
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
    """The :class:`ClassStats` of ``table``, which must have ground truth."""
    return ClassStats(table)


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
    names = sorted(set(check_names("condition name", dc, distinct=False)))
    n_i = int(np.count_nonzero(table.pred_ids == i))
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
    body = rule_body(conds, table.pred_ids, table.classes.check_pairs(cc))
    bod = int(np.count_nonzero(body))
    pos = int(np.count_nonzero(body & (table.gt_ids == i)))
    support = bod / table.n if table.n > 0 else 0.0
    confidence = pos / bod if bod > 0 else 0.0
    return CorrectionCounts(pos, bod, support, confidence)
