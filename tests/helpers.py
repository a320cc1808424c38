"""Shared fixtures for randomized instances and independent counting oracles.

The oracle functions re-evaluate rule bodies row by row with plain Python so
the vectorized production counting has something independent to agree with,
``reference_det_rule_learn`` keeps the plain greedy detection learner that
rebuilds every candidate body, for the packed-bitset learner to agree with,
and ``reference_read_conditions`` keeps the ``csv.reader`` conditions reader
that builds one string per cell, for the byte scanner to agree with.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from edcr import ClassSet, ConditionMatrix, PredictionTable, compute_class_stats, detection_counts
from edcr.core import DataError, _require_aligned, _resolve_target, check_unit_interval
from edcr.io import _BITS, _check_width, _csv_file, _parse_error
from edcr.learn import recall_budget


def make_table(class_names, pred, gt=None, ids=None):
    classes = ClassSet(tuple(class_names))
    ids = ids or [f"s{i}" for i in range(len(pred))]
    return PredictionTable.from_names(classes, ids, pred, gt)


def make_conds(names, columns):
    return ConditionMatrix(tuple(names), np.array(columns, dtype=bool).T)


def random_instance(rng, n_max=500, max_classes=4, max_conditions=8, noise_range=(0.1, 0.4)):
    """A random labeled table plus conditions with error-correlated columns."""
    n = int(rng.integers(20, n_max + 1))
    k = int(rng.integers(2, max_classes + 1))
    m = int(rng.integers(1, max_conditions + 1))
    names = [f"k{j}" for j in range(k)]
    gt = rng.integers(0, k, size=n)
    noise = float(rng.uniform(*noise_range))
    pred = gt.copy()
    flips = rng.random(n) < noise
    pred[flips] = (gt[flips] + rng.integers(1, k, size=int(flips.sum()))) % k
    error = pred != gt

    cols = np.zeros((n, m), dtype=bool)
    for j in range(m):
        hit = float(rng.uniform(0.3, 0.9))
        miss = float(rng.uniform(0.0, 0.25))
        cols[:, j] = np.where(error, rng.random(n) < hit, rng.random(n) < miss)
    classes = ClassSet(tuple(names))
    table = PredictionTable.from_names(
        classes,
        [f"s{i:05d}" for i in range(n)],
        [names[i] for i in pred],
        [names[i] for i in gt],
    )
    conds = ConditionMatrix(tuple(f"c{j}" for j in range(m)), cols)
    return table, conds


def same_table(a, b):
    """Tables agree on classes, sample ids and every predicted and true class name."""
    return (
        a.classes == b.classes
        and a.sample_ids == b.sample_ids
        and a.names(a.pred_ids) == b.names(b.pred_ids)
        and a.has_ground_truth == b.has_ground_truth
        and (not a.has_ground_truth or a.names(a.gt_ids) == b.names(b.gt_ids))
    )


def oracle_detection_counts(table, conds, class_name, dc):
    """Row-by-row re-evaluation of the detection body and head."""
    dc = set(dc)
    pos = neg = bod = 0
    n_i = 0
    predicted = table.names(table.pred_ids)
    truth = table.names(table.gt_ids)
    for row in range(table.n):
        pred = predicted[row]
        if pred == class_name:
            n_i += 1
        body = pred == class_name and any(
            bool(conds.values[row][conds.condition_names.index(c)]) for c in dc
        )
        if body:
            bod += 1
            if truth[row] != class_name:
                pos += 1
            else:
                neg += 1
    s_i = bod / n_i if n_i and dc else 0.0
    c = pos / bod if bod else 0.0
    if not dc:
        pos = neg = bod = 0
        s_i = c = 0.0
    return pos, neg, bod, s_i, c


def oracle_correction_counts(table, conds, class_name, pairs):
    """Row-by-row re-evaluation of the correction body and head."""
    pairs = list(pairs)
    pos = bod = 0
    predicted = table.names(table.pred_ids)
    truth = table.names(table.gt_ids)
    for row in range(table.n):
        body = any(
            bool(conds.values[row][conds.condition_names.index(cond)])
            and predicted[row] == cls
            for cond, cls in pairs
        )
        if body:
            bod += 1
            if truth[row] == class_name:
                pos += 1
    s = bod / table.n if pairs else 0.0
    c = pos / bod if bod else 0.0
    return pos, bod, s, c


def reference_det_rule_learn(class_i, epsilon, table, conds, stats=None, candidates=None):
    """Greedy detection learner that re-counts ``chosen + [cand]`` from the
    table for every candidate in every round."""
    check_unit_interval("epsilon", epsilon)
    table.require_ground_truth()
    _require_aligned(table, conds)
    target = _resolve_target(table.classes, class_i)
    if stats is None:
        stats = compute_class_stats(table)
    i = target.id
    if stats.n_predicted[i] == 0 or stats.recall[i] == 0.0:
        return ()
    budget = recall_budget(stats, i, epsilon)
    pool = sorted(set(candidates) if candidates is not None else conds.condition_names)
    for name in pool:
        conds.column_index(name)

    chosen: list[str] = []
    while True:
        best_name = None
        best_pos = -1
        for cand in pool:
            if cand in chosen:
                continue
            counts = detection_counts(table, conds, target, chosen + [cand])
            if counts.neg <= budget and counts.pos > best_pos:
                best_pos = counts.pos
                best_name = cand
        if best_name is None:
            break
        chosen.append(best_name)
    return tuple(sorted(chosen))


def reference_read_conditions(path, table: PredictionTable) -> ConditionMatrix:
    """Read a conditions CSV and align rows to the table's sample order.

    Every table sample must appear exactly once; unknown or duplicated ids and
    non-0/1 values are data errors naming the offending line."""
    path = Path(path)
    position: dict[str, int] = {}
    bits: list[str] = []
    with _csv_file(path) as (header, reader):
        if not header or header[0] != "sample_id" or len(header) < 2:
            raise _parse_error(path, 1, "expected header sample_id,<condition>,...")
        names = tuple(header[1:])
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            _check_width(path, line_no, row, len(header))
            sample_id = row[0]
            if sample_id in position:
                raise _parse_error(path, line_no, f"duplicate sample id {sample_id!r}")
            values = row[1:]
            if not _BITS.issuperset(values):
                name, text = next((n, t) for n, t in zip(names, values) if t not in _BITS)
                raise _parse_error(path, line_no, f"condition {name!r} must be 0 or 1, got {text!r}")
            position[sample_id] = len(bits)
            bits.append("".join(values))
    extra = sorted(set(position).difference(table.sample_ids))
    if extra:
        raise DataError(f"{path}: sample id {extra[0]!r} is absent from the prediction table")
    if len(position) != table.n:
        missing = next(s for s in table.sample_ids if s not in position)
        raise DataError(f"{path}: no condition row for sample id {missing!r}")
    text = "".join(bits).encode("ascii")
    matrix = (np.frombuffer(text, dtype=np.uint8) == ord("1")).reshape(len(bits), len(names))
    return ConditionMatrix(names, matrix[[position[s] for s in table.sample_ids]])
