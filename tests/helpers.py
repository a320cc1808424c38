"""Shared fixtures for randomized instances and independent counting oracles.

The oracle functions re-evaluate rule bodies row by row with plain Python so
the vectorized production counting has something independent to agree with,
``reference_det_rule_learn`` keeps the plain greedy detection learner that
rebuilds every candidate body, for the packed-bitset learner to agree with,
``reference_read_conditions`` keeps the ``csv.reader`` conditions reader
that builds one string per cell, for the byte scanner to agree with, and
``reference_generate_synthetic`` keeps the synthetic generator that draws
through ``uniform``/``normal`` and runs the scalar haversine twice per record,
for the generator to agree with bit for bit.  ``reference_check_submodular``
and ``reference_corr_rule_learn`` keep the versions that count one subset at
a time (``_covered``) and call ``correction_counts`` four times per pair, for
the distinct-pattern kernel and the packed correction walk to agree with.
The two ``reference_brute_force_*`` oracles, which also count one subset at
a time, are the exhaustive optima that the greedy learners are measured
against, and ``build_detection_scenario`` builds a table that realizes given
detection statistics exactly, for the detection closed forms to be replayed
on.  ``reference_read_predictions``,
``reference_read_trace``, ``reference_scan_conditions`` and
``reference_write_csv_rows`` keep the readers and the writer that ran one
``csv`` step per row, and ``reference_fired_codes`` the fired-pattern coder
that sorted a structured view, for the byte-level readers, the coded-row
writers and the integer-key ranking to agree with.  ``trajectory_speed``
keeps the scalar per-record speed profile over a tuple of ``(t, lat, lon)``
points, through the scalar ``haversine_m``, for ``max_speeds`` to agree with, and ``reference_track_fault`` the
point-by-point record rules, for the vectorised column check to agree with.
``point_tuples`` splits flat point columns into those tuples.
"""
from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass
from io import StringIO
from itertools import islice, zip_longest
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from edcr import (
    UNKNOWN_NAME,
    ApplyTrace,
    ClassSet,
    ConditionMatrix,
    PredictionTable,
    compute_class_stats,
    correction_counts,
    detection_counts,
    io,
)
from edcr.conditions import (
    _SECOND_NEIGHBOR_PROB,
    _SEGMENT_JITTER,
    _SPEED_SPREAD,
    DEFAULT_SPEED_REGIMES,
    EARTH_RADIUS_M,
    binary_condition_name,
    negated_condition_name,
    velocity_condition_name,
)
from edcr.core import (
    ContractError,
    DataError,
    UnknownClassError,
    _pack_rows,
    _require_aligned,
    check_count,
    check_unit_interval,
    id_column,
)
from edcr.io import (
    _BITS,
    TRACE_HEADER,
    _condition_names,
    _csv_file,
    _parse_error,
    atomic_write_text,
)
from edcr.learn import Pair, recall_budget
from edcr.rules import DetectionRule
from edcr.theory import Scenario, SubmodularityReport, _as_count


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


def many_class_instance(rng, k=24, n=3000, n_novel=2, unknown=0.01, moves=(-1, 1)):
    """A table with many classes and its verdict conditions: ground truth
    uniform over the ``k`` classes and ``n_novel`` novel ones; the prediction
    the true class (a random one for a novel class), moved by one of
    ``moves`` mod ``k`` in 25% of rows, and UNKNOWN in a fraction
    ``unknown`` of rows; and per class ``g_<class>``, a verdict of "is this
    class" with 5% flips, and its complement ``not_g_<class>``, so m = 2k."""
    names = [f"k{j:03d}" for j in range(k)]
    gt = rng.integers(0, k + n_novel, size=n)
    pred = np.where(gt < k, gt, rng.integers(0, k, size=n))
    moved = rng.random(n) < 0.25
    pred[moved] = (pred[moved] + rng.choice(moves, size=int(moved.sum()))) % k
    verdicts = (gt[:, None] == np.arange(k)) ^ (rng.random((n, k)) < 0.05)
    table = make_table(
        names,
        np.where(rng.random(n) < unknown, UNKNOWN_NAME, np.array(names)[pred]).tolist(),
        [(names + [f"novel{j}" for j in range(n_novel)])[i] for i in gt],
    )
    cond_names = [*map(binary_condition_name, names), *map(negated_condition_name, names)]
    return table, ConditionMatrix(tuple(cond_names), np.concatenate([verdicts, ~verdicts], axis=1))


def same_table(a, b):
    """Tables agree on classes, sample ids and every predicted and true class name."""
    return (
        a.classes == b.classes
        and a.sample_ids == b.sample_ids
        and a.names(a.pred_ids) == b.names(b.pred_ids)
        and a.has_ground_truth == b.has_ground_truth
        and (not a.has_ground_truth or a.names(a.gt_ids) == b.names(b.gt_ids))
    )


def fired_column(trace) -> list[str]:
    """The trace's fired column as names, one per row."""
    return [trace.fired_names[code] for code in trace.fired.tolist()]


def oracle_detection_counts(table, conds, class_id, dc):
    """Row-by-row re-evaluation of the detection body and head."""
    class_name = table.classes.names[class_id]
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


def oracle_correction_counts(table, conds, class_id, pairs):
    """Row-by-row re-evaluation of the correction body and head."""
    class_name = table.classes.names[class_id]
    pairs = [(cond, table.classes.names[cls]) for cond, cls in pairs]
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


def reference_det_rule_learn(class_i, epsilon, table, conds):
    """Greedy detection learner that re-counts ``chosen + [cand]`` from the
    table for every candidate in every round."""
    check_unit_interval("epsilon", epsilon)
    table.require_ground_truth()
    _require_aligned(table, conds)
    i = table.classes.check_id(class_i)
    stats = compute_class_stats(table)
    if stats.n_predicted[i] == 0 or stats.recall[i] == 0.0:
        return ()
    budget = recall_budget(stats, i, epsilon)
    pool = sorted(conds.condition_names)

    chosen: list[str] = []
    while True:
        best_name = None
        best_pos = -1
        for cand in pool:
            if cand in chosen:
                continue
            counts = detection_counts(table, conds, i, chosen + [cand])
            if counts.neg <= budget and counts.pos > best_pos:
                best_pos = counts.pos
                best_name = cand
        if best_name is None:
            break
        chosen.append(best_name)
    return tuple(sorted(chosen))


def _check_width(path: Path, line_no: int, row: list[str], width: int) -> None:
    if len(row) != width:
        raise _parse_error(path, line_no, f"expected {width} fields, got {len(row)}")


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


@dataclass(frozen=True)
class SpeedProfile:
    """Per-segment speeds in m/s plus their max."""

    segment_speeds: tuple[float, ...]
    max_speed: float


def reference_track_fault(sample_id: str, points) -> str | None:
    """The message of the first record rule ``points`` break, checked point
    by point, or None."""
    if len(points) < 2:
        return f"trajectory {sample_id!r} needs at least 2 points"
    last_t = -math.inf
    for t, lat, lon in points:
        if not last_t < t < math.inf:  # also false for NaN
            if not math.isfinite(t):
                return f"trajectory {sample_id!r}: timestamp {t} is not finite"
            return f"trajectory {sample_id!r}: timestamps must be strictly increasing"
        last_t = t
        if not -90.0 <= lat <= 90.0:
            return f"trajectory {sample_id!r}: latitude {lat} out of range"
        if not -180.0 <= lon <= 180.0:
            return f"trajectory {sample_id!r}: longitude {lon} out of range"
    return None


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a sphere of radius 6,371,000 m.

    With phi = latitude and lam = longitude in radians:
        a = sin^2((phi2-phi1)/2) + cos(phi1)*cos(phi2)*sin^2((lam2-lam1)/2)
        d = 2 * R * asin(min(1, sqrt(a)))
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def trajectory_speed(points) -> SpeedProfile:
    """Haversine distance over elapsed time for each consecutive point pair."""
    speeds = []
    for (t0, lat0, lon0), (t1, lat1, lon1) in zip(points, points[1:]):
        speeds.append(haversine_m(lat0, lon0, lat1, lon1) / (t1 - t0))
    return SpeedProfile(tuple(speeds), max(speeds))


def point_tuples(counts, t, lat, lon) -> list[tuple[tuple[float, float, float], ...]]:
    """Flat point columns split into one tuple of ``(t, lat, lon)`` points per
    record, ``counts[k]`` for record k."""
    points = zip(np.asarray(t).tolist(), np.asarray(lat).tolist(), np.asarray(lon).tolist())
    return [tuple(islice(points, count)) for count in np.asarray(counts).tolist()]


def _reference_fit_velocity_thresholds(labels, tracks, classes=None) -> dict[str, float]:
    maxima: dict[str, float] = {}
    for label, points in zip(labels, tracks):
        if label is None:
            raise ContractError("every training record needs a class label")
        speed = trajectory_speed(points).max_speed
        if label not in maxima or speed > maxima[label]:
            maxima[label] = speed
    if classes is not None:
        missing = [name for name in classes if name not in maxima]
        if missing:
            raise UnknownClassError(f"no training records for classes {missing}")
    if not maxima:
        raise ContractError("no training records supplied")
    return maxima


def _reference_build_velocity_conditions(thresholds, tracks):
    maxima = [trajectory_speed(points).max_speed for points in tracks]
    class_names = sorted(thresholds)
    names = [velocity_condition_name(c) for c in class_names]
    values = np.zeros((len(tracks), len(names)), dtype=bool)
    for j, class_name in enumerate(class_names):
        values[:, j] = np.asarray(maxima) > thresholds[class_name]
    return ConditionMatrix(tuple(names), values)


def _reference_confusion_order(true_class, visible, regimes):
    others = [c for c in visible if c != true_class]
    return sorted(others, key=lambda c: abs(math.log(regimes[c]) - math.log(regimes[true_class])))


def _reference_make_trajectory(rng, sample_id, mean_speed) -> tuple[tuple[float, float, float], ...]:
    n_points = int(rng.integers(6, 15))
    base = mean_speed * math.exp(rng.normal(0.0, _SPEED_SPREAD))
    lat = float(rng.uniform(-0.2, 0.2))
    lon = float(rng.uniform(-0.2, 0.2))
    t = float(rng.uniform(0.0, 1e6))
    heading = float(rng.uniform(0.0, 2.0 * math.pi))
    meters_per_degree = EARTH_RADIUS_M * math.pi / 180.0
    points = [(t, lat, lon)]
    for _ in range(n_points - 1):
        dt = float(rng.uniform(5.0, 15.0))
        speed = base * math.exp(rng.normal(0.0, _SEGMENT_JITTER))
        heading += float(rng.normal(0.0, 0.3))
        step = speed * dt
        lat += step * math.cos(heading) / meters_per_degree
        lon += step * math.sin(heading) / (meters_per_degree * math.cos(math.radians(lat)))
        t += dt
        points.append((t, lat, lon))
    fault = reference_track_fault(sample_id, points)
    if fault is not None:
        raise DataError(fault)
    return tuple(points)


@dataclass(frozen=True)
class ReferenceCorpus:
    """What :func:`reference_generate_synthetic` builds: the fields of
    ``SyntheticCorpus`` and the tracks, one tuple of ``(t, lat, lon)`` points
    per sample."""

    tracks: tuple[tuple[tuple[float, float, float], ...], ...]
    table: PredictionTable
    conditions: ConditionMatrix
    thresholds: dict[str, float]


def reference_generate_synthetic(
    seed: int,
    n_samples: int,
    noise: float = 0.25,
    holdout_classes: Sequence[str] | None = None,
    condition_noise: float = 0.05,
) -> ReferenceCorpus:
    """The synthetic generator with one numpy call per ``uniform``/``normal``
    draw, the recurrence point by point in Python, one tuple of points per
    sample checked by the point-by-point record rules, a re-sort of the
    confusion order per wrong sample, and one scalar haversine pass each for
    the threshold fit and the velocity columns."""
    regimes = DEFAULT_SPEED_REGIMES
    names = tuple(regimes)
    if n_samples < len(names):
        raise ContractError(
            f"n_samples={n_samples} cannot cover all {len(names)} classes"
        )
    if not 0.0 <= noise <= 1.0:
        raise ContractError(f"noise must lie in [0, 1], got {noise}")
    if not 0.0 <= condition_noise <= 1.0:
        raise ContractError(f"condition_noise must lie in [0, 1], got {condition_noise}")
    holdout = tuple(holdout_classes or ())
    for name in holdout:
        if name not in names:
            raise ContractError(f"holdout class {name!r} is not in the class set")
    visible = tuple(name for name in names if name not in holdout)
    if len(visible) < 2:
        raise ContractError("need at least two non-holdout classes to confuse between")

    rng = np.random.default_rng(seed)
    # first |classes| samples cover every class so thresholds always fit
    truth = list(names) + [
        names[int(k)] for k in rng.integers(0, len(names), size=n_samples - len(names))
    ]
    sample_ids = [f"s{k:05d}" for k in range(n_samples)]
    tracks = tuple(
        _reference_make_trajectory(rng, sample_ids[k], regimes[truth[k]]) for k in range(n_samples)
    )

    predicted: list[str] = []
    for k in range(n_samples):
        gt = truth[k]
        wrong = gt in holdout or rng.random() < noise
        if not wrong:
            predicted.append(gt)
            continue
        order = _reference_confusion_order(gt, visible, regimes)
        if len(order) > 1 and rng.random() < _SECOND_NEIGHBOR_PROB:
            predicted.append(order[1])
        else:
            predicted.append(order[0])

    classes = ClassSet(visible)
    table = PredictionTable.from_names(classes, sample_ids, predicted, truth)

    cond_names: list[str] = []
    columns: list[np.ndarray] = []
    for name in visible:
        is_class = np.array([gt == name for gt in truth], dtype=bool)
        flips = rng.random(n_samples) < condition_noise
        verdict = is_class ^ flips
        cond_names.append(binary_condition_name(name))
        columns.append(verdict)
        cond_names.append(negated_condition_name(name))
        columns.append(~verdict)

    fitted = [k for k in range(n_samples) if truth[k] not in holdout]
    thresholds = _reference_fit_velocity_thresholds(
        [truth[k] for k in fitted], [tracks[k] for k in fitted], classes=visible
    )
    velocity = _reference_build_velocity_conditions(thresholds, tracks)
    cond_names.extend(velocity.condition_names)
    columns.extend(velocity.values[:, j] for j in range(velocity.n_conditions))

    conditions = ConditionMatrix(tuple(cond_names), np.stack(columns, axis=1))
    return ReferenceCorpus(tracks, table, conditions, thresholds)


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


def reference_check_submodular(
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
    seed = check_count("seed", seed)
    table.require_ground_truth()
    _require_aligned(table, conds)
    i = table.classes.check_id(class_i)
    names = list(conds.condition_names)
    m = len(names)

    pred_i = table.pred_ids == i
    head = table.gt_ids != i
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


def reference_brute_force_detection(
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
    i = table.classes.check_id(class_i)
    names = sorted(set(candidates) if candidates is not None else conds.condition_names)
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


def reference_brute_force_correction(
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
    i = table.classes.check_id(class_i)
    pairs: list[Pair] = []
    for cond_name, pair_class in cc_all:
        pair = (cond_name, table.classes.check_id(pair_class))
        if pair not in pairs:
            pairs.append(pair)
    pairs.sort()
    if len(pairs) > max_pairs:
        raise ContractError(f"brute force over {len(pairs)} pairs exceeds the limit of {max_pairs}")
    if not pairs:
        return CorrectionSearchResult((), 0, 0, 0.0)
    stats = compute_class_stats(table)
    p_i = float(stats.precision[i])

    pair_cols = np.stack(  # from the bools, not from the kernel this oracle checks
        [conds.values[:, conds.column_index(cond)] & (table.pred_ids == cls) for cond, cls in pairs], axis=1
    )
    masks = _pack_rows(pair_cols)
    pos_rows = masks[table.gt_ids == i]

    best_key = None
    best = CorrectionSearchResult((), 0, 0, 0.0)
    for subset in range(1, 1 << len(pairs)):
        words = _mask_words(subset)
        bod, pos = _covered(masks, words), _covered(pos_rows, words)
        conf = pos / bod if bod > 0 else 0.0
        chosen = tuple(pairs[j] for j in range(len(pairs)) if subset >> j & 1)
        key = (-conf, -pos, chosen)
        if best_key is None or key < best_key:
            best_key = key
            best = CorrectionSearchResult(chosen, pos, bod, conf)
    if best.confidence <= p_i:
        return CorrectionSearchResult((), 0, 0, 0.0)
    return best


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


def reference_corr_rule_learn(
    class_i,
    cc_all: Iterable[Pair],
    table: PredictionTable,
    conds: ConditionMatrix,
) -> tuple[Pair, ...]:
    """Double-greedy correction-pair selection for one class.

    Candidate pairs whose singleton confidence does not beat the class's
    baseline precision are dropped up front; the survivors are walked from
    highest to lowest singleton confidence (ties by condition name then class
    id), comparing the marginal confidence gain of adding against that of
    removing.  The result is discarded entirely unless its confidence strictly
    exceeds the baseline precision.
    """
    table.require_ground_truth()
    _require_aligned(table, conds)
    i = table.classes.check_id(class_i)
    p_i = float(compute_class_stats(table).precision[i])

    pairs: list[Pair] = []
    seen: set[Pair] = set()
    for cond_name, pair_class in cc_all:
        pair = (cond_name, table.classes.check_id(pair_class))
        conds.column_index(cond_name)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    if not pairs:
        return ()

    def confidence(subset: Sequence[Pair]) -> float:
        if not subset:
            return 0.0
        return correction_counts(table, conds, i, subset).confidence

    singleton = {pair: confidence([pair]) for pair in pairs}
    filtered = [pair for pair in pairs if singleton[pair] > p_i]
    order = sorted(filtered, key=lambda pair: (-singleton[pair], pair))

    kept: list[Pair] = []
    remaining: list[Pair] = list(order)
    for pair in order:
        gain_add = confidence(kept + [pair]) - confidence(kept)
        without = [p for p in remaining if p != pair]
        gain_drop = confidence(without) - confidence(remaining)
        if gain_add >= gain_drop:
            kept.append(pair)
        else:
            remaining = without

    if confidence(kept) <= p_i:
        return ()
    return tuple(sorted(kept))


_REFERENCE_ID_FIELD = re.compile(rb'[^",\r\n\x00]*|"(?:[^"\x00]|"")*"')
_REFERENCE_ONE_CELL = int(np.frombuffer(b",1", dtype="<u2")[0])


def reference_write_csv_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = list(rows)
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if "\r" in text:  # csv.writer only quotes the characters of its line terminator
        buffer = StringIO()
        plain = csv.writer(buffer, lineterminator="\n")
        quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in [header, *rows]:
            (quoted if any("\r" in str(value) for value in row) else plain).writerow(row)
        text = buffer.getvalue()
    atomic_write_text(path, text)


def reference_read_predictions(path, classes: ClassSet | None = None) -> PredictionTable:
    path = Path(path)
    ids: list[str] = []
    preds: list[str] = []
    gts: list[str] = []
    with _csv_file(path) as (header, reader):
        if header[:2] != ["sample_id", "pred"] or len(header) > 3 or (
            len(header) == 3 and header[2] != "gt"
        ):
            raise _parse_error(path, 1, f"expected header sample_id,pred[,gt]; got {','.join(header)}")
        has_gt = len(header) == 3
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            _check_width(path, line_no, row, len(header))
            if not row[0]:
                raise _parse_error(path, line_no, "empty sample id")
            if not row[1]:
                raise _parse_error(path, line_no, "empty predicted value")
            ids.append(row[0])
            preds.append(row[1])
            if has_gt:
                if not row[2]:
                    raise _parse_error(path, line_no, "empty ground-truth value")
                if row[2] == UNKNOWN_NAME:
                    raise _parse_error(path, line_no, f"ground truth may never be {UNKNOWN_NAME}")
                gts.append(row[2])
    if len(set(ids)) != len(ids):
        dupe = next(s for s, count in Counter(ids).items() if count > 1)
        raise DataError(f"{path}: duplicate sample id {dupe!r}")
    predicted = set(preds)
    predicted.discard(UNKNOWN_NAME)
    if classes is None:
        if not predicted:
            raise DataError(f"{path}: no predictable classes found in pred column")
        classes = ClassSet(tuple(sorted(predicted)))
    else:
        bad = sorted(predicted.difference(classes.names))
        if bad:
            raise ContractError(
                f"{path}: predicted classes {bad} are not in the declared class set {classes.names}"
            )
    return PredictionTable.from_names(classes, ids, preds, gts if has_gt else None)


def reference_read_trace(path, table: PredictionTable) -> ApplyTrace:
    """The trace file at ``path`` read against ``table``, whose ids its rows
    list in order: after the line-numbered faults, the first row whose id is
    not the table's, or the first table id past the last row, is a data
    error.  The trace's table holds the file's ids and no ground truth."""
    path = Path(path)
    classes = table.classes
    lookup = {name: i for i, name in enumerate(classes.names)}
    lookup[UNKNOWN_NAME] = -1
    rows: list[list[str]] = []
    with _csv_file(path) as (header, reader):
        if header != TRACE_HEADER:
            raise _parse_error(path, 1, "expected header " + ",".join(TRACE_HEADER))
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_HEADER) or "" in row[:2] or row[2] not in _BITS or not row[4]:
                raise _parse_error(path, line_no, "malformed trace row")
            rows.append(row)
    sample_ids, original, flagged, fired, final = map(tuple, zip(*rows)) if rows else [()] * 5
    for row, (found, wanted) in enumerate(zip_longest(sample_ids, table.sample_ids)):
        if found is None:
            raise DataError(f"{path} lacks sample id {wanted!r}")
        if found != wanted:
            raise DataError(f"{path}: row {row + 1} has sample id {found!r}, not the table's id on that row")
    extra = tuple(sorted(set(original).union(final).difference(lookup)))
    lookup.update(zip(extra, range(len(classes), len(classes) + len(extra))))
    fired_names = tuple(dict.fromkeys(fired))
    return ApplyTrace(
        PredictionTable(ClassSet(classes.names + extra), sample_ids, id_column(lookup, original, "original")),
        np.array(flagged, dtype="U1") == "1",
        id_column(dict(zip(fired_names, range(len(fired_names)))), fired, "fired"),
        fired_names,
        id_column(lookup, final, "final"),
    )


def reference_scan_conditions(path: Path, table: PredictionTable) -> ConditionMatrix | None:
    unclaimed = {sample_id: row for row, sample_id in enumerate(table.sample_ids)}
    names: tuple[str, ...] | None = None
    tail = b""
    at_end = False
    with open(path, "rb") as handle:
        while not at_end:
            # a record longer than a block doubles the next read, so the scan stays linear
            chunk = handle.read(max(io._SCAN_BLOCK, len(tail)))
            at_end = not chunk
            buf = tail + (chunk or b"\n")  # end of file ends a last record without a line break
            data = np.frombuffer(buf, dtype=np.uint8)
            newlines = np.flatnonzero(data == 0x0A)
            quotes = np.flatnonzero(data == 0x22)
            ends = newlines[np.searchsorted(quotes, newlines) % 2 == 0]
            if not len(ends):
                tail = buf
                continue
            tail = buf[ends[-1] + 1 :]
            starts = np.concatenate(([0], ends[:-1] + 1))
            if names is None:
                try:
                    names = _condition_names(path, next(csv.reader([buf[: ends[0]].decode()])))
                except (csv.Error, UnicodeDecodeError, DataError):
                    return None
                values = np.zeros((table.n, len(names)), dtype=bool)
                starts, ends = starts[1:], ends[1:]
            block = _reference_scan_block(buf, data, starts, ends, len(names), unclaimed)
            if block is None:
                return None
            rows, bits = block
            values[rows] = bits
    if tail or names is None or unclaimed:
        return None
    return ConditionMatrix(names, values)


def _reference_scan_block(buf: bytes, data: np.ndarray, starts, ends, m: int, unclaimed: dict[str, int]):
    stops = ends - (data[ends - 1] == 0x0D)  # an empty record's stop may fall before its start
    filled = stops > starts  # blank lines are skipped, as csv.reader yields them empty
    starts, stops = starts[filled], stops[filled]
    id_stops = stops - 2 * m
    if (id_stops < starts).any() or (id_stops - starts > csv.field_size_limit()).any():
        return None
    fullmatch, claim = _REFERENCE_ID_FIELD.fullmatch, unclaimed.pop
    rows = []
    try:
        for start, stop in zip(starts.tolist(), id_stops.tolist()):
            if not fullmatch(buf, start, stop):
                return None
            sample_id = buf[start:stop].decode()
            if sample_id[:1] == '"':
                sample_id = sample_id[1:-1].replace('""', '"')
            rows.append(claim(sample_id, -1))  # -1: an unknown or repeated id
    except UnicodeDecodeError:
        return None
    if -1 in rows:
        return None
    cells = b"".join([buf[start:stop] for start, stop in zip(id_stops.tolist(), stops.tolist())])
    pairs = np.frombuffer(cells, dtype="<u2").reshape(len(rows), m)
    if ((pairs | 0x0100) != _REFERENCE_ONE_CELL).any():
        return None
    return rows, pairs == _REFERENCE_ONE_CELL


def reference_fired_codes(fired: np.ndarray, targets: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    if not targets:
        return np.zeros(len(fired), dtype=np.int32), ("",)
    patterns, codes = np.unique(np.packbits(fired, axis=1), axis=0, return_inverse=True)
    matched = np.unpackbits(patterns, axis=1, count=len(targets)).astype(bool)
    names = tuple(";".join(t for t, hit in zip(targets, row) if hit) for row in matched)
    return codes.reshape(-1), names
