"""Condition generation: velocity-outlier signals from raw GPS trajectories
and a synthetic corpus generator for desk-scale end-to-end experiments.
Externally computed binary-classifier verdicts are read with
:func:`edcr.io.read_conditions`.

The velocity signal has one path, which the generator calls too:
:func:`max_speeds` gives each record's fastest segment speed in one pass,
:func:`fit_velocity_thresholds` takes per-class maxima of those speeds, and
:func:`build_velocity_conditions` compares speeds with the ceilings, one
``vel_over_<c>`` column per fitted class.  A rule body pairs a column with a
predicted class, so ``vel_over_c AND pred == c`` checks each row against its
own predicted class's ceiling.

The synthetic corpus is a fixed function of its arguments: for a given seed
the records, predictions and conditions are the same floats, and so the same
file bytes, on every run.  That holds because the generator makes its random
draws from one ``numpy.random.Generator`` in a fixed order:

1. ``integers(0, len(classes), size=n - len(classes))``: the true classes
   after the first ``len(classes)`` samples, which cover each class once;
2. per record: ``integers(6, 15)`` points, one normal for the base speed and
   four uniforms (latitude, longitude, start time, heading), then per segment
   one uniform (time step) and two normals (speed jitter, heading turn);
3. per record: one ``random()`` unless the class is held out, and a second
   one when the prediction is wrong and the class has two or more neighbours;
4. per visible class: ``random(n)`` for the verdict flips.

Step 2 draws through ``random()`` and ``standard_normal()`` directly.  numpy
computes ``uniform(a, b)`` as ``a + (b - a) * random()`` and
``normal(loc, s)`` as ``loc + s * standard_normal()``, consuming the same bits,
so the generator writes out those two formulas and skips the slower calls.
Each record's max speed is then computed once, in one pass over all records
that calls the same ``math`` functions as :func:`haversine_m`.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ClassSet,
    ConditionMatrix,
    ContractError,
    DataError,
    PredictionTable,
    UnknownClassError,
    check_seed,
)

#: Spherical Earth radius used by every distance computation, in meters.
EARTH_RADIUS_M = 6_371_000.0


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


@dataclass(frozen=True)
class TrajectoryRecord:
    """A timestamped GPS point sequence: (t seconds since epoch, lat, lon)."""

    sample_id: str
    points: tuple[tuple[float, float, float], ...]
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(map(tuple, self.points)))
        if len(self.points) < 2:
            raise DataError(f"trajectory {self.sample_id!r} needs at least 2 points")
        last_t = -math.inf
        for t, lat, lon in self.points:
            if not last_t < t < math.inf:  # also false for NaN
                if not math.isfinite(t):
                    raise DataError(f"trajectory {self.sample_id!r}: timestamp {t} is not finite")
                raise DataError(
                    f"trajectory {self.sample_id!r}: timestamps must be strictly increasing"
                )
            last_t = t
            if not -90.0 <= lat <= 90.0:
                raise DataError(f"trajectory {self.sample_id!r}: latitude {lat} out of range")
            if not -180.0 <= lon <= 180.0:
                raise DataError(f"trajectory {self.sample_id!r}: longitude {lon} out of range")


def max_speeds(records: Sequence[TrajectoryRecord]) -> np.ndarray:
    """Each record's fastest segment speed in m/s, as one float64 array: the
    haversine distance of each consecutive point pair over its elapsed time,
    the same floats as :func:`haversine_m` divided in Python, bit for bit.

    numpy does only the correctly rounded steps of :func:`haversine_m`
    (subtraction, ``radians``, halving, products, sums, ``sqrt``, ``min`` and
    the division by elapsed time), in the same order.  Every libm call --
    ``sin``, ``cos``, ``asin`` and the ``** 2`` that squares a sine, which is
    ``pow`` and not always equal to ``x * x`` -- goes through the same Python
    function as there, because numpy's versions may round differently.
    """
    if not records:
        return np.empty(0)
    counts = np.fromiter(map(len, (r.points for r in records)), np.intp, len(records))
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(r.points for r in records)),
        np.float64,
        3 * int(counts.sum()),
    )
    t, lat, lon = flat[0::3], flat[1::3], flat[2::3]
    # segment k joins points k and k + 1, except where k is a record's last point
    segment = np.ones(len(t) - 1, dtype=bool)
    segment[np.cumsum(counts)[:-1] - 1] = False
    cos_phi = _mapped(math.cos, np.radians(lat))
    sin2_dphi = _mapped_squares(np.radians(np.diff(lat)[segment]) / 2.0)
    sin2_dlam = _mapped_squares(np.radians(np.diff(lon)[segment]) / 2.0)
    a = sin2_dphi + cos_phi[:-1][segment] * cos_phi[1:][segment] * sin2_dlam
    distance = 2.0 * EARTH_RADIUS_M * _mapped(math.asin, np.minimum(1.0, np.sqrt(a)))
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

    When ``classes`` is given, every listed class must have at least one
    record; otherwise the fitted classes are whatever appears in the data.
    """
    if len(labels) != len(speeds):
        raise ContractError(f"{len(labels)} labels for {len(speeds)} speeds")
    maxima: dict[str, float] = {}
    for label, speed in zip(labels, np.asarray(speeds, dtype=float).tolist()):
        if label is None:
            raise ContractError("every training record needs a class label")
        if speed > maxima.get(label, -1.0):
            maxima[label] = speed
    if classes is not None:
        missing = [name for name in classes if name not in maxima]
        if missing:
            raise UnknownClassError(f"no training records for classes {missing}")
    if not maxima:
        raise ContractError("no training records supplied")
    return maxima


def velocity_condition_name(class_name: str) -> str:
    return f"vel_over_{class_name}"


def build_velocity_conditions(thresholds: Mapping[str, float], speeds: np.ndarray) -> ConditionMatrix:
    """Velocity-outlier condition columns over the records' :func:`max_speeds`,
    one ``vel_over_<c>`` column per fitted class in sorted name order.

    A record is an outlier for a class when it moves strictly faster than the
    fastest training record of that class.
    """
    names = sorted(thresholds)
    ceilings = np.array([thresholds[c] for c in names], dtype=float)
    over = np.asarray(speeds, dtype=float)[:, None] > ceilings
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
    """A generated corpus: raw trajectories, the mock model's predictions with
    ground truth, and the full condition matrix (binary-classifier verdicts,
    their complements, and velocity outliers)."""

    records: tuple[TrajectoryRecord, ...]
    table: PredictionTable
    conditions: ConditionMatrix
    thresholds: dict[str, float]


def _confusion_order(true_class: str, visible: Sequence[str]) -> list[str]:
    others = [c for c in visible if c != true_class]
    log_speed = {c: math.log(DEFAULT_SPEED_REGIMES[c]) for c in (true_class, *others)}
    return sorted(others, key=lambda c: abs(log_speed[c] - log_speed[true_class]))


def _make_trajectories(rng: np.random.Generator, truth: Sequence[str]) -> tuple[TrajectoryRecord, ...]:
    """One record per true class, with the draws of step 2 in the module
    docstring; ``uniform`` and ``normal`` are written out as numpy computes
    them."""
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    exp, cos, sin, radians = math.exp, math.cos, math.sin, math.radians
    meters_per_degree = EARTH_RADIUS_M * math.pi / 180.0
    records = []
    for k, label in enumerate(truth):
        n_points = int(integers(6, 15))
        base = DEFAULT_SPEED_REGIMES[label] * exp(0.0 + _SPEED_SPREAD * normal())
        lat = -0.2 + (0.2 - -0.2) * random()
        lon = -0.2 + (0.2 - -0.2) * random()
        t = 0.0 + (1e6 - 0.0) * random()
        heading = 0.0 + (2.0 * math.pi - 0.0) * random()
        points = [(t, lat, lon)]
        for _ in range(n_points - 1):
            dt = 5.0 + (15.0 - 5.0) * random()
            speed = base * exp(0.0 + _SEGMENT_JITTER * normal())
            heading += 0.0 + 0.3 * normal()
            step = speed * dt
            lat += step * cos(heading) / meters_per_degree
            lon += step * sin(heading) / (meters_per_degree * cos(radians(lat)))
            t += dt
            points.append((t, lat, lon))
        records.append(TrajectoryRecord(f"s{k:05d}", tuple(points), label))
    return tuple(records)


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
    seed = check_seed(seed)
    names = tuple(DEFAULT_SPEED_REGIMES)
    if n_samples < len(names):
        raise ContractError(f"n_samples={n_samples} cannot cover all {len(names)} classes")
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
    records = _make_trajectories(rng, truth)

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
    table = PredictionTable.from_names(
        classes, [r.sample_id for r in records], predicted, truth
    )

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

    speeds = max_speeds(records)
    fitted = [k for k, gt in enumerate(truth) if gt not in holdout]
    thresholds = fit_velocity_thresholds([truth[k] for k in fitted], speeds[fitted], classes=visible)
    velocity = build_velocity_conditions(thresholds, speeds)
    cond_names.extend(velocity.condition_names)
    columns.extend(velocity.values[:, j] for j in range(velocity.n_conditions))

    conditions = ConditionMatrix(tuple(cond_names), np.stack(columns, axis=1))
    return SyntheticCorpus(records, table, conditions, thresholds)
