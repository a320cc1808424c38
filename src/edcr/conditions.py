"""Condition generation: velocity-outlier signals from raw GPS trajectories
and a synthetic corpus generator for desk-scale end-to-end experiments.
Externally computed binary-classifier verdicts are read with
:func:`edcr.io.read_conditions`.

The velocity signal has one path, which the generator calls too:
:func:`max_speeds` checks flat point columns against the record rules and
gives each record's fastest segment speed in one pass over them,
:func:`fit_velocity_thresholds` takes per-class maxima of those speeds, and
:func:`build_velocity_conditions` compares speeds with the ceilings, one
``vel_over_<c>`` column per fitted class.  A rule body pairs a column with a
predicted class, so ``vel_over_c AND pred == c`` checks each row against its
own predicted class's ceiling.

Distances use the haversine formula on a sphere of radius
R = ``EARTH_RADIUS_M``: with latitudes phi and longitudes lam in radians,
``d = 2*R*asin(min(1, sqrt(a)))`` where
``a = sin^2((phi2-phi1)/2) + cos(phi1)*cos(phi2)*sin^2((lam2-lam1)/2)``.

The synthetic corpus is a fixed function of its arguments: for a given seed
the trajectories, predictions and conditions are the same values on every
run, and so are the bytes of the predictions and conditions files that
``edcr gen`` writes; the trajectories are not returned.  That holds because the
generator makes its random draws from one ``numpy.random.Generator`` in a
fixed order:

1. ``integers(0, len(classes), size=n - len(classes))``: the true classes
   after the first ``len(classes)`` samples, which cover each class once;
2. per record: ``integers(6, 15)`` points, one ``standard_normal()`` for the
   base speed and ``random(4)`` for latitude, longitude, start time and
   heading, then per segment one ``random()`` (time step) and two
   ``standard_normal()`` (speed jitter, heading turn);
3. per record: one ``random()`` unless the class is held out, and a second
   one when the prediction is wrong and the class has two or more neighbours;
4. per visible class: ``random(n)`` for the verdict flips.

A sized draw calls the same scalar routine once per element, in order, so
``random(4)`` consumes the same bits as four ``random()`` calls; the two
normals stay scalar calls, which measured faster than ``standard_normal(2)``
plus joining its small arrays.  numpy computes ``uniform(a, b)`` as
``a + (b - a) * random()`` and ``normal(loc, s)`` as
``loc + s * standard_normal()``; the generator writes out those formulas.
The loop of step 2 only draws.  The trajectory arithmetic then runs once
over all records with the IEEE operations of the per-point recurrence in
the same order: products and sums in numpy, every ``exp``, ``sin`` and
``cos`` through :mod:`math` (numpy's versions may round differently), and
each running value as ``np.add.accumulate`` along a record's row of points,
which adds left to right as the recurrence does.
"""
from __future__ import annotations

import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ClassSet,
    ConditionMatrix,
    ContractError,
    DataError,
    PredictionTable,
    UnknownClassError,
    _array,
    _bool_index,
    _integer_array,
    check_count,
    check_names,
    check_unit_interval,
)

#: Spherical Earth radius used by every distance computation, in meters.
EARTH_RADIUS_M = 6_371_000.0


def _check_tracks(sample_ids: Sequence[str], counts, t, lat, lon):
    """The record rules over flat point columns, ``counts[k]`` points for
    record k in record order: at least 2 points, finite and strictly
    increasing timestamps, latitude in [-90, 90] and longitude in
    [-180, 180].  The first fault, by record, then point, then rule in that
    order, is a :class:`DataError` naming its record.  Returns the counts as
    ``intp`` and the point columns as ``float64`` arrays.  Counts that are
    not a 1-D array of integers (:func:`edcr.core._integer_array`; an empty
    sequence is no records) are a ContractError."""
    counts = _integer_array("point counts", counts).astype(np.intp)
    t, lat, lon = (np.asarray(column, dtype=np.float64) for column in (t, lat, lon))
    if not (len(sample_ids) == len(counts) and int(counts.sum()) == len(t) == len(lat) == len(lon)):
        raise ContractError("point columns do not match the per-record counts")
    if (counts < 0).any():
        raise ContractError(f"point counts must be non-negative, got {int(counts.min())}")
    ends = np.cumsum(counts)
    previous = np.concatenate(([-np.inf], t[:-1]))
    previous[(ends - counts)[counts > 0]] = -np.inf
    bad_t = ~((previous < t) & (t < np.inf))  # also true for NaN
    bad = bad_t | ~((-90.0 <= lat) & (lat <= 90.0)) | ~((-180.0 <= lon) & (lon <= 180.0))
    point = int(np.argmax(bad)) if bad.any() else len(t)
    record = int(np.searchsorted(ends, point, side="right"))  # len(counts) when no point is bad
    short = np.flatnonzero(counts[:record + 1] < 2)
    if len(short):
        raise DataError(f"trajectory {sample_ids[short[0]]!r} needs at least 2 points")
    if point == len(t):
        return counts, t, lat, lon
    name = sample_ids[record]
    if bad_t[point]:
        if not math.isfinite(t[point]):
            raise DataError(f"trajectory {name!r}: timestamp {float(t[point])} is not finite")
        raise DataError(f"trajectory {name!r}: timestamps must be strictly increasing")
    if not -90.0 <= lat[point] <= 90.0:
        raise DataError(f"trajectory {name!r}: latitude {float(lat[point])} out of range")
    raise DataError(f"trajectory {name!r}: longitude {float(lon[point])} out of range")


def max_speeds(sample_ids: Sequence[str], counts, t, lat, lon) -> np.ndarray:
    """Each record's fastest segment speed in m/s, given flat point columns
    with ``counts[k]`` points for ``sample_ids[k]`` in record order, checked
    first by :func:`_check_tracks`: the haversine distance of each consecutive
    point pair over its elapsed time, bit for bit the floats of the module's
    formula in :mod:`math` divided in Python (``inf`` when that overflows).

    numpy does only the correctly rounded steps of the formula (subtraction,
    ``radians``, halving, products, sums, ``sqrt``, ``min`` and the division
    by elapsed time), in the same order.  Every libm call -- ``sin``, ``cos``,
    ``asin`` and the ``** 2`` that squares a sine, which is ``pow`` and not
    always equal to ``x * x`` -- goes through the :mod:`math` function,
    because numpy's versions may round differently.
    """
    counts, t, lat, lon = _check_tracks(sample_ids, counts, t, lat, lon)
    if not len(counts):
        return np.empty(0)
    # segment k joins points k and k + 1, except where k is a record's last point
    segment = np.ones(len(t) - 1, dtype=bool)
    segment[np.cumsum(counts)[:-1] - 1] = False
    cos_phi = _mapped(math.cos, np.radians(lat))
    sin2_dphi = _mapped_squares(np.radians(np.diff(lat)[segment]) / 2.0)
    sin2_dlam = _mapped_squares(np.radians(np.diff(lon)[segment]) / 2.0)
    a = sin2_dphi + cos_phi[:-1][segment] * cos_phi[1:][segment] * sin2_dlam
    distance = 2.0 * EARTH_RADIUS_M * _mapped(math.asin, np.minimum(1.0, np.sqrt(a)))
    with np.errstate(over="ignore"):
        speeds = distance / np.diff(t)[segment]
    first_segment = np.concatenate(([0], np.cumsum(counts - 1)[:-1]))
    return np.maximum.reduceat(speeds, first_segment)


def _mapped(function, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(function, values.tolist()), np.float64, len(values))


def _mapped_squares(half_angles: np.ndarray) -> np.ndarray:
    """``math.sin(x) ** 2`` for each x."""
    sines = map(math.sin, half_angles.tolist())
    return np.fromiter(map(operator.pow, sines, repeat(2.0)), np.float64, len(half_angles))


def fit_velocity_thresholds(
    labels: Sequence[str], speeds: np.ndarray, classes: Sequence[str] | None = None
) -> dict[str, float]:
    """Per-class speed ceilings: the maxima of the training records'
    :func:`max_speeds`, keyed by class name, given one class label per record.

    When ``classes`` is given, a sequence of distinct class names, every
    listed class must have at least one record; otherwise the fitted classes
    are whatever appears in the data.  Labels are class names, non-empty
    ``str`` (:func:`~edcr.core.check_names`), and neither ``labels`` nor
    ``classes`` may be a bare string, which would be read as its characters.
    ``speeds`` is a 1-D sequence of finite numbers >= 0, one per label.
    """
    if any(label is None for label in labels):
        raise ContractError("every training record needs a class label")
    labels = check_names("class label", labels, distinct=False)
    if classes is not None:
        classes = check_names("class name", classes)
    speeds = _require_speeds(speeds)
    if len(labels) != len(speeds):
        raise ContractError(f"{len(labels)} labels for {len(speeds)} speeds")
    maxima: dict[str, float] = {}
    for label, speed in zip(labels, speeds.tolist()):
        if label not in maxima or speed > maxima[label]:
            maxima[label] = speed
    if classes is not None:
        missing = [name for name in classes if name not in maxima]
        if missing:
            raise UnknownClassError(f"no training records for classes {missing}")
    if not maxima:
        raise ContractError("no training records supplied")
    return maxima


def _require_speeds(values, classes: Sequence[str] = (), finite: bool = True) -> np.ndarray:
    """``values`` as float64, or a :class:`ContractError` unless it is a 1-D
    sequence of real numbers, each >= 0 and not NaN, and finite when
    ``finite``; a ``bool`` is not a number.  They are speeds, or the
    ceilings of ``classes`` when given, and the message names the first bad
    one by its index or class, its value shortened by :func:`reprlib.repr`."""
    def describe(k: int) -> str:
        return f"ceiling of class {classes[k]!r}" if classes else f"speed at index {k}"

    arr = _array(values)
    if arr.ndim != 1:
        what = "ceilings" if classes else "speeds"
        raise ContractError(f"{what} must be a 1-D sequence of numbers, got {reprlib.repr(values)}")
    k = _bool_index(values)
    if k is None and arr.dtype.kind not in "iuf":
        k = next((k for k, item in enumerate(values) if not isinstance(item, numbers.Real)), None)
    if k is not None:
        item = (arr.tolist() if isinstance(values, np.ndarray) else values)[k]
        raise ContractError(f"{describe(k)} must be a number, got {reprlib.repr(item)}")
    arr = arr.astype(np.float64)
    bad = np.flatnonzero(~((0.0 <= arr) & ((arr < np.inf) if finite else True)))  # also true for NaN
    if len(bad):
        rule = "finite and >= 0" if finite else ">= 0 and not NaN"
        raise ContractError(f"{describe(int(bad[0]))} must be {rule}, got {float(arr[bad[0]])}")
    return arr


def velocity_condition_name(class_name: str) -> str:
    return f"vel_over_{class_name}"


def build_velocity_conditions(thresholds: Mapping[str, float], speeds: np.ndarray) -> ConditionMatrix:
    """Velocity-outlier condition columns over the records' :func:`max_speeds`,
    one ``vel_over_<c>`` column per fitted class in sorted name order; the
    classes are non-empty ``str`` names (:func:`~edcr.core.check_names`).
    ``speeds`` is a 1-D sequence of numbers, each >= 0 and not NaN; ``inf``,
    which :func:`max_speeds` gives on overflow, is over every ceiling.

    A record is an outlier for a class when it moves strictly faster than the
    fastest training record of that class.
    """
    names = sorted(check_names("class name", thresholds))
    ceilings = _require_speeds([thresholds[c] for c in names], classes=names)
    over = _require_speeds(speeds, finite=False)[:, None] > ceilings
    return ConditionMatrix(tuple(map(velocity_condition_name, names)), over)


def binary_condition_name(class_name: str) -> str:
    return f"g_{class_name}"


def negated_condition_name(class_name: str) -> str:
    return f"not_g_{class_name}"


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

#: Mean segment speed per movement class, m/s.  Chosen for separable regimes
#: with realistic overlap; adjacent regimes are the confusable neighbors.
DEFAULT_SPEED_REGIMES: dict[str, float] = {
    "walk": 1.4,
    "bike": 4.0,
    "bus": 7.0,
    "drive": 12.0,
    "train": 25.0,
}

_SPEED_SPREAD = 0.15  # lognormal sigma of a trajectory's base speed
_SEGMENT_JITTER = 0.08  # lognormal sigma of per-segment speed around the base
_SECOND_NEIGHBOR_PROB = 0.25  # confusions go to the nearest regime, else the second


@dataclass(frozen=True)
class SyntheticCorpus:
    """A generated corpus: the mock model's predictions with ground truth,
    the full condition matrix (binary-classifier verdicts, their complements,
    and velocity outliers) and the fitted velocity ceilings."""

    table: PredictionTable
    conditions: ConditionMatrix
    thresholds: dict[str, float]


def _confusion_order(true_class: str, visible: Sequence[str]) -> list[str]:
    others = [c for c in visible if c != true_class]
    log_speed = {c: math.log(DEFAULT_SPEED_REGIMES[c]) for c in (true_class, *others)}
    return sorted(others, key=lambda c: abs(log_speed[c] - log_speed[true_class]))


def _make_trajectories(rng: np.random.Generator, mean_speeds: np.ndarray):
    """``(counts, t, lat, lon)`` point columns of one record per mean speed:
    the draws of step 2 in the module docstring, then the recurrence

        heading += 0.3 * z;  step = speed * dt
        lat += step * cos(heading) / meters_per_degree
        lon += step * sin(heading) / (meters_per_degree * cos(radians(lat)))
        t += dt

    over a grid of records x points, each running value one accumulate."""
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    counts, base_z, starts, steps, normals = [], [], [], [], []
    for _ in range(len(mean_speeds)):
        n_points = int(integers(6, 15))
        counts.append(n_points)
        base_z.append(normal())
        starts.append(random(4))
        for _ in range(n_points - 1):
            steps.append(random())
            normals.append(normal())
            normals.append(normal())
    counts = np.array(counts, dtype=np.intp)
    lat0, lon0, t0, heading0 = np.concatenate(starts).reshape(-1, 4).T
    jitter, turn = np.array(normals).reshape(-1, 2).T
    inside = np.arange(counts.max()) < counts[:, None]
    segment = inside[:, 1:]

    def running(start: np.ndarray, increments: np.ndarray) -> np.ndarray:
        grid = np.zeros(inside.shape)
        grid[:, 0] = start
        grid[:, 1:][segment] = increments
        return np.add.accumulate(grid, axis=1)

    meters_per_degree = EARTH_RADIUS_M * math.pi / 180.0
    base = mean_speeds * _mapped(math.exp, 0.0 + _SPEED_SPREAD * np.array(base_z))
    dt = 5.0 + (15.0 - 5.0) * np.array(steps)
    speed = np.repeat(base, counts - 1) * _mapped(math.exp, 0.0 + _SEGMENT_JITTER * jitter)
    heading = running(0.0 + (2.0 * math.pi - 0.0) * heading0, 0.0 + 0.3 * turn)[:, 1:][segment]
    step = speed * dt
    lat = running(-0.2 + (0.2 - -0.2) * lat0, step * _mapped(math.cos, heading) / meters_per_degree)
    cos_lat = _mapped(math.cos, np.radians(lat[:, 1:][segment]))
    lon = running(
        -0.2 + (0.2 - -0.2) * lon0, step * _mapped(math.sin, heading) / (meters_per_degree * cos_lat)
    )
    t = running(0.0 + (1e6 - 0.0) * t0, dt)
    return counts, t[inside], lat[inside], lon[inside]


def generate_synthetic(
    seed: int,
    n_samples: int,
    noise: float = 0.25,
    holdout_classes: Sequence[str] | None = None,
    condition_noise: float = 0.05,
) -> SyntheticCorpus:
    """Deterministic-by-seed corpus over the classes of
    :data:`DEFAULT_SPEED_REGIMES`, each with its own speed regime.

    The mock classifier predicts the true class with probability 1 - noise and
    a confusable (speed-adjacent) class otherwise; classes in ``holdout_classes``
    are never predicted, simulating classes absent from the base model's
    training.  Binary-classifier conditions g_<class> are independently noisy
    ground-truth verdicts (flip rate ``condition_noise``); their complements
    not_g_<class> are emitted alongside, and velocity thresholds are fitted on
    the non-holdout records.
    """
    seed = check_count("seed", seed)
    names = tuple(DEFAULT_SPEED_REGIMES)
    if check_count("n_samples", n_samples) < len(names):
        raise ContractError(f"n_samples={n_samples} cannot cover all {len(names)} classes")
    check_unit_interval("noise", noise)
    check_unit_interval("condition_noise", condition_noise)
    holdout = check_names("holdout class name", () if holdout_classes is None else holdout_classes)
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
    tracks = _make_trajectories(rng, np.array([DEFAULT_SPEED_REGIMES[gt] for gt in truth]))
    sample_ids = [f"s{k:05d}" for k in range(n_samples)]
    speeds = max_speeds(sample_ids, *tracks)

    random = rng.random
    confusion_order = {name: _confusion_order(name, visible) for name in names}
    predicted: list[str] = []
    for gt in truth:
        wrong = gt in holdout or random() < noise
        if not wrong:
            predicted.append(gt)
            continue
        order = confusion_order[gt]
        if len(order) > 1 and random() < _SECOND_NEIGHBOR_PROB:
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

    fitted = [k for k, gt in enumerate(truth) if gt not in holdout]
    thresholds = fit_velocity_thresholds([truth[k] for k in fitted], speeds[fitted], classes=visible)
    velocity = build_velocity_conditions(thresholds, speeds)
    cond_names.extend(velocity.condition_names)
    columns.extend(velocity.values.T)

    conditions = ConditionMatrix(tuple(cond_names), np.stack(columns, axis=1))
    return SyntheticCorpus(table, conditions, thresholds)
