"""Condition generation: velocity-outlier signals from raw GPS trajectories
and a synthetic corpus generator for desk-scale end-to-end experiments.
Externally computed binary-classifier verdicts are read with
:func:`edcr.io.read_conditions`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    ClassSet,
    ConditionMatrix,
    ContractError,
    DataError,
    PredictionTable,
    UnknownClassError,
)

#: Spherical Earth radius used by every distance computation, in meters.
EARTH_RADIUS_M = 6_371_000.0

#: How the velocity signal is emitted: one column per class (each row compared
#: against that class's threshold) or a single column using each row's
#: predicted class.
VELOCITY_MODES = ("per_class", "predicted")


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
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        if len(self.points) < 2:
            raise DataError(f"trajectory {self.sample_id!r} needs at least 2 points")
        last_t = None
        for t, lat, lon in self.points:
            if last_t is not None and t <= last_t:
                raise DataError(
                    f"trajectory {self.sample_id!r}: timestamps must be strictly increasing"
                )
            last_t = t
            if not -90.0 <= lat <= 90.0:
                raise DataError(f"trajectory {self.sample_id!r}: latitude {lat} out of range")
            if not -180.0 <= lon <= 180.0:
                raise DataError(f"trajectory {self.sample_id!r}: longitude {lon} out of range")


@dataclass(frozen=True)
class SpeedProfile:
    """Per-segment speeds in m/s plus their max."""

    segment_speeds: tuple[float, ...]
    max_speed: float


def trajectory_speed(record: TrajectoryRecord) -> SpeedProfile:
    """Haversine distance over elapsed time for each consecutive point pair."""
    speeds = []
    for (t0, lat0, lon0), (t1, lat1, lon1) in zip(record.points, record.points[1:]):
        speeds.append(haversine_m(lat0, lon0, lat1, lon1) / (t1 - t0))
    return SpeedProfile(tuple(speeds), max(speeds))


@dataclass(frozen=True)
class VelocityThresholds:
    """Per-class speed ceiling: the fastest segment observed for that class in
    the training records."""

    max_speed: dict[str, float]

    def for_class(self, class_name: str) -> float:
        try:
            return self.max_speed[class_name]
        except KeyError:
            raise UnknownClassError(
                f"no velocity threshold for class {class_name!r}; "
                f"fitted classes: {sorted(self.max_speed)}"
            ) from None

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.max_speed))


def fit_velocity_thresholds(
    training: Iterable[TrajectoryRecord], classes: Sequence[str] | None = None
) -> VelocityThresholds:
    """Fit per-class maxima of segment speed from labeled training records.

    When ``classes`` is given, every listed class must have at least one
    record; otherwise the fitted classes are whatever appears in the data.
    """
    maxima: dict[str, float] = {}
    for record in training:
        if record.label is None:
            raise ContractError(f"training record {record.sample_id!r} has no class label")
        speed = trajectory_speed(record).max_speed
        if speed > maxima.get(record.label, -1.0):
            maxima[record.label] = speed
    if classes is not None:
        missing = [name for name in classes if name not in maxima]
        if missing:
            raise UnknownClassError(f"no training records for classes {missing}")
    if not maxima:
        raise ContractError("no training records supplied")
    return VelocityThresholds(maxima)


def velocity_condition(
    thresholds: VelocityThresholds, record: TrajectoryRecord, predicted: str
) -> bool:
    """True iff the record moves strictly faster than the fastest training
    sample of its PREDICTED class -- a prediction whose speed exceeds anything
    seen for that class is suspect."""
    return trajectory_speed(record).max_speed > thresholds.for_class(predicted)


def velocity_condition_name(class_name: str) -> str:
    return f"vel_over_{class_name}"


def build_velocity_conditions(
    thresholds: VelocityThresholds,
    records: Sequence[TrajectoryRecord],
    mode: str = "per_class",
    predictions: Sequence[str] | None = None,
) -> ConditionMatrix:
    """Velocity-outlier condition columns for a record sequence.

    ``per_class`` emits one column per fitted class comparing every record
    against that class's ceiling; ``predicted`` emits a single column where
    each row uses its own predicted class name (requires ``predictions``).
    """
    if mode not in VELOCITY_MODES:
        raise ContractError(f"mode must be one of {VELOCITY_MODES}, got {mode!r}")
    maxima = [trajectory_speed(record).max_speed for record in records]
    if mode == "per_class":
        names = [velocity_condition_name(c) for c in thresholds.class_names]
        values = np.zeros((len(records), len(names)), dtype=bool)
        for j, class_name in enumerate(thresholds.class_names):
            ceiling = thresholds.for_class(class_name)
            values[:, j] = np.asarray(maxima) > ceiling
        return ConditionMatrix(tuple(names), values)
    if predictions is None or len(predictions) != len(records):
        raise ContractError("predicted mode requires one prediction per record")
    column = np.array(
        [maxima[k] > thresholds.for_class(predictions[k]) for k in range(len(records))],
        dtype=bool,
    )
    return ConditionMatrix(("vel_over_predicted",), column.reshape(-1, 1))


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
    thresholds: VelocityThresholds


def _confusion_order(true_class: str, visible: Sequence[str], regimes: Mapping[str, float]) -> list[str]:
    others = [c for c in visible if c != true_class]
    return sorted(others, key=lambda c: abs(math.log(regimes[c]) - math.log(regimes[true_class])))


def _make_trajectory(
    rng: np.random.Generator, sample_id: str, label: str, mean_speed: float
) -> TrajectoryRecord:
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
    return TrajectoryRecord(sample_id, tuple(points), label)


def generate_synthetic(
    seed: int,
    n_samples: int,
    class_names: Sequence[str] | None = None,
    noise: float = 0.25,
    holdout_classes: Sequence[str] | None = None,
    condition_noise: float = 0.05,
    speed_regimes: Mapping[str, float] | None = None,
    velocity_mode: str = "per_class",
) -> SyntheticCorpus:
    """Deterministic-by-seed corpus with class-dependent speed regimes.

    The mock classifier predicts the true class with probability 1 - noise and
    a confusable (speed-adjacent) class otherwise; classes in ``holdout_classes``
    are never predicted, simulating classes absent from the base model's
    training.  Binary-classifier conditions g_<class> are independently noisy
    ground-truth verdicts (flip rate ``condition_noise``); their complements
    not_g_<class> are emitted alongside, and velocity thresholds are fitted on
    the non-holdout records.
    """
    regimes = dict(speed_regimes or DEFAULT_SPEED_REGIMES)
    names = tuple(class_names) if class_names is not None else tuple(regimes)
    for name in names:
        if name not in regimes:
            raise ContractError(f"no speed regime for class {name!r}; pass speed_regimes")
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
    records = tuple(
        _make_trajectory(rng, f"s{k:05d}", truth[k], regimes[truth[k]]) for k in range(n_samples)
    )

    predicted: list[str] = []
    for k in range(n_samples):
        gt = truth[k]
        wrong = gt in holdout or rng.random() < noise
        if not wrong:
            predicted.append(gt)
            continue
        order = _confusion_order(gt, visible, regimes)
        if len(order) > 1 and rng.random() < _SECOND_NEIGHBOR_PROB:
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

    thresholds = fit_velocity_thresholds(
        [r for r in records if r.label not in holdout], classes=visible
    )
    velocity = build_velocity_conditions(
        thresholds, records, mode=velocity_mode, predictions=predicted
    )
    cond_names.extend(velocity.condition_names)
    columns.extend(velocity.values[:, j] for j in range(velocity.n_conditions))

    conditions = ConditionMatrix(tuple(cond_names), np.stack(columns, axis=1))
    return SyntheticCorpus(records, table, conditions, thresholds)
