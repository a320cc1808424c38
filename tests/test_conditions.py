import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edcr.conditions
from edcr import (
    ContractError,
    DataError,
    UnknownClassError,
    UnknownConditionError,
    accuracy,
    build_velocity_conditions,
    fit_velocity_thresholds,
    generate_synthetic,
    max_speeds,
)
from edcr.conditions import DEFAULT_SPEED_REGIMES
from edcr.io import read_conditions
from helpers import (
    haversine_m,
    make_table,
    point_tuples,
    reference_generate_synthetic,
    reference_track_fault,
    same_table,
    trajectory_speed,
)

# one milli-degree of latitude on the R=6,371,000 m sphere, by hand:
# d = R * 0.001 * pi / 180
MILLIDEGREE_M = 6_371_000.0 * 0.001 * math.pi / 180.0  # 111.19492664455874


def columns(tracks, ids=None):
    """``(sample_ids, counts, t, lat, lon)`` of one list of ``(t, lat, lon)``
    points per record."""
    ids = [f"r{k}" for k in range(len(tracks))] if ids is None else ids
    t, lat, lon = np.array([p for points in tracks for p in points], dtype=float).reshape(-1, 3).T
    return ids, [len(points) for points in tracks], t, lat, lon


def speeds(*tracks):
    return max_speeds(*columns(tracks)).tolist()


class TestRecordRules:
    def test_needs_two_points(self):
        with pytest.raises(DataError, match="'r0' needs at least 2 points"):
            max_speeds(*columns([[(0.0, 0.0, 0.0)]]))
        with pytest.raises(DataError, match="'r1' needs at least 2 points"):
            max_speeds(*columns([[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], []]))

    def test_zero_time_delta_rejected(self):
        with pytest.raises(DataError, match="strictly increasing"):
            max_speeds(*columns([[(0.0, 0.0, 0.0), (0.0, 0.001, 0.0)]]))

    def test_decreasing_time_rejected(self):
        with pytest.raises(DataError, match="strictly increasing"):
            max_speeds(*columns([[(10.0, 0.0, 0.0), (5.0, 0.001, 0.0)]]))

    def test_coordinate_ranges(self):
        with pytest.raises(DataError, match="latitude 91.0 out of range"):
            max_speeds(*columns([[(0.0, 91.0, 0.0), (1.0, 0.0, 0.0)]]))
        with pytest.raises(DataError, match="longitude 181.0 out of range"):
            max_speeds(*columns([[(0.0, 0.0, 181.0), (1.0, 0.0, 0.0)]]))

    @pytest.mark.parametrize(
        "point, message",
        [
            ((0.0, math.nan, 0.0), "latitude nan out of range"),
            ((0.0, -math.inf, 0.0), "latitude -inf out of range"),
            ((0.0, -90.5, 0.0), "latitude -90.5 out of range"),
            ((0.0, 0.0, math.nan), "longitude nan out of range"),
            ((0.0, 0.0, math.inf), "longitude inf out of range"),
            ((0.0, 0.0, -180.5), "longitude -180.5 out of range"),
        ],
    )
    def test_coordinate_outside_its_range(self, point, message):
        # every comparison with NaN is false, so a NaN coordinate is out of range
        track = [point, (1.0, 0.0, 0.0)]
        with pytest.raises(DataError, match=f"^trajectory 'r0': {message}$") as error:
            max_speeds(*columns([track]))
        assert reference_track_fault("r0", track) == str(error.value)

    @pytest.mark.parametrize("lat, lon", [(90.0, 180.0), (-90.0, -180.0), (90.0, -180.0), (-90.0, 180.0)])
    def test_range_ends_accepted(self, lat, lon):
        track = [(0.0, lat, lon), (1.0, 0.0, 0.0)]
        assert reference_track_fault("r0", track) is None
        assert same_floats(speeds(track), [trajectory_speed(track).max_speed])

    @pytest.mark.parametrize(
        "times",
        [
            (math.nan, 1.0),
            (0.0, math.nan, 2.0),
            (0.0, math.inf),
            (-math.inf, 1.0),
        ],
    )
    def test_non_finite_time_rejected(self, times):
        # every comparison with NaN is false, so an order check alone passes it
        with pytest.raises(DataError, match="not finite"):
            max_speeds(*columns([[(t, 0.0, 0.0) for t in times]]))

    @pytest.mark.parametrize(
        "counts, message",
        [([3], "do not match"), ([3, 0], "do not match"), ([1, 1, 1], "do not match"),
         ([3, -1], "non-negative"), ([-2, 4], "non-negative"),
         ([2.7], "integers"), ([2.0], "integers"), ([True], "integers"), (["2"], "integers"),
         ("2", "integers"), ([[2]], "integers"), ([[1], [1]], "integers"), ([2, [0]], "integers"),
         ([2, False], "integers"), ([True, True], "integers"), ([np.True_, 1], "integers")],
    )
    def test_counts_that_do_not_describe_the_columns(self, counts, message):
        _, _, t, lat, lon = columns([[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]])
        ids = [f"r{k}" for k in range(len(counts))]
        with pytest.raises(ContractError, match=message):
            max_speeds(ids, counts, t, lat, lon)

    def test_one_id_per_count(self):
        ids, counts, t, lat, lon = columns([[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]])
        with pytest.raises(ContractError, match="do not match"):
            max_speeds(["r0", "r1"], counts, t, lat, lon)


def segment_speeds(points):
    """Each segment's speed, as the max speed of a record of that segment alone."""
    return speeds(*zip(points, points[1:]))


class TestSegmentSpeeds:
    def test_stationary(self):
        assert speeds([(0.0, 1.0, 2.0), (10.0, 1.0, 2.0)]) == [0.0]

    def test_millidegree_pin(self):
        [speed] = speeds([(0.0, 0.0, 0.0), (10.0, 0.001, 0.0)])
        assert speed == pytest.approx(MILLIDEGREE_M / 10.0, rel=1e-9)
        assert speed == pytest.approx(11.12, abs=0.01)
        assert haversine_m(0.0, 0.0, 0.001, 0.0) == pytest.approx(111.19, abs=0.01)

    def test_overflowing_quotient_is_inf(self):
        # a degree of latitude over a subnormal time step overflows to inf, as
        # Python's float division does, with no warning
        points = [(0.0, 0.0, 0.0), (5e-324, 1.0, 0.0)]
        assert repr(speeds(points)) == repr([trajectory_speed(points).max_speed]) == "[inf]"
        with pytest.raises(ContractError, match="must be finite"):
            fit_velocity_thresholds(["a"], np.array(speeds(points)))

    def test_three_points_two_segments(self):
        points = [(0.0, 0.0, 0.0), (10.0, 0.001, 0.0), (15.0, 0.002, 0.0)]
        per_segment = segment_speeds(points)
        assert len(per_segment) == 2
        assert speeds(points) == [max(per_segment)]
        assert per_segment[1] == pytest.approx(2 * per_segment[0], rel=1e-9)

    @given(
        st.floats(-80.0, 80.0),
        st.floats(0.0001, 0.01),
        st.floats(1.0, 100.0),
        st.floats(0.1, 0.9),
    )
    def test_meridian_midpoint_split_preserves_speed(self, lat0, dlat, dt, frac):
        # along a meridian, splitting a segment at proportional time keeps speeds
        lon = 12.0
        [target] = segment_speeds([(0.0, lat0, lon), (dt, lat0 + dlat, lon)])
        split = [(0.0, lat0, lon), (dt * frac, lat0 + dlat * frac, lon), (dt, lat0 + dlat, lon)]
        for speed in segment_speeds(split):
            assert speed == pytest.approx(target, rel=1e-9)


@st.composite
def trajectory_batches(draw):
    """Records anywhere on the sphere: poles, the antimeridian, antipodal and
    coincident points, and time steps from 1e-300 to 1e300 seconds."""
    coordinate = st.floats(-90.0, 90.0) | st.sampled_from([-90.0, 0.0, 90.0])
    longitude = st.floats(-180.0, 180.0) | st.sampled_from([-180.0, 0.0, 180.0])
    step = st.floats(1e-300, 1e300) | st.floats(1.0, 20.0)
    tracks = []
    for _ in range(draw(st.integers(0, 6))):
        t = draw(st.floats(-1e9, 1e9))
        lat, lon = draw(coordinate), draw(longitude)
        points = [(t, lat, lon)]
        for _ in range(draw(st.integers(1, 5))):
            t += draw(step)
            if not math.isfinite(t) or t <= points[-1][0]:
                break
            kind = draw(st.sampled_from(["any", "near", "antipode", "same"]))
            if kind == "any":
                lat, lon = draw(coordinate), draw(longitude)
            elif kind == "near":
                lat = min(90.0, max(-90.0, lat + draw(st.floats(-1e-6, 1e-6))))
                lon = min(180.0, max(-180.0, lon + draw(st.floats(-1e-6, 1e-6))))
            elif kind == "antipode":
                lat, lon = -lat, lon - 180.0 if lon > 0.0 else lon + 180.0
            points.append((t, lat, lon))  # "same" repeats the point: zero distance
        if len(points) >= 2:
            tracks.append(points)
    return tracks


def same_floats(got, expected) -> bool:
    return [repr(v) for v in got] == [repr(v) for v in expected]


class TestMaxSpeeds:
    @given(trajectory_batches())
    def test_same_floats_as_trajectory_speed(self, tracks):
        expected = [trajectory_speed(points).max_speed for points in tracks]
        assert same_floats(speeds(*tracks), expected)

    def test_same_floats_on_many_segments(self):
        # one segment per record, so every segment's float is compared; about
        # 0.1% of squares differ between pow(x, 2) and x * x, which this catches
        rng = np.random.default_rng(0)
        n = 20_000
        lat, lon = rng.uniform(-90.0, 90.0, n), rng.uniform(-180.0, 180.0, n)
        spread = np.where(rng.random(n) < 0.5, 1e-4, 90.0)  # near or far pairs
        lat2 = np.clip(lat + rng.normal(0.0, 1.0, n) * spread, -90.0, 90.0)
        lon2 = np.clip(lon + rng.normal(0.0, 2.0, n) * spread, -180.0, 180.0)
        dt = rng.uniform(1.0, 20.0, n)
        rows = zip(lat.tolist(), lon.tolist(), dt.tolist(), lat2.tolist(), lon2.tolist())
        tracks = [[(0.0, a, b), (t, c, d)] for a, b, t, c, d in rows]
        expected = [trajectory_speed(points).max_speed for points in tracks]
        assert same_floats(speeds(*tracks), expected)


class TestVelocityThresholds:
    def walk_track(self, speed):
        dlat = speed * 10.0 / (6_371_000.0 * math.pi / 180.0)
        return [(0.0, 0.0, 0.0), (10.0, dlat, 0.0)]

    def fit(self, speeds_and_labels, classes=None):
        tracks = [self.walk_track(speed) for speed, _ in speeds_and_labels]
        return fit_velocity_thresholds([label for _, label in speeds_and_labels], speeds(*tracks), classes)

    def test_single_record_per_class(self):
        thresholds = self.fit([(2.0, "walk")])
        assert thresholds["walk"] == pytest.approx(2.0, rel=1e-6)

    def test_max_of_two_records(self):
        thresholds = self.fit([(1.8, "walk"), (2.2, "walk")])
        assert thresholds["walk"] == pytest.approx(2.2, rel=1e-6)

    def test_mixed_corpus_per_class_maxima(self):
        thresholds = self.fit([(1.5, "walk"), (2.0, "walk"), (5.0, "bike"), (4.0, "bike")])
        assert thresholds["walk"] == pytest.approx(2.0, rel=1e-6)
        assert thresholds["bike"] == pytest.approx(5.0, rel=1e-6)

    def test_missing_class_error(self):
        with pytest.raises(UnknownClassError):
            self.fit([(2.0, "walk")], classes=["walk", "bike"])

    def test_unlabeled_record_rejected(self):
        with pytest.raises(ContractError, match="^every training record needs a class label$"):
            self.fit([(2.0, None)])

    def test_unlabeled_record_rejected_before_label_types(self):
        with pytest.raises(ContractError, match="^every training record needs a class label$"):
            fit_velocity_thresholds([1, None, "a"], [1.0, 2.0, 3.0])

    def test_classes_are_class_names(self):
        with pytest.raises(ContractError, match="^class names must be a sequence of strings, not the string 'ab'$"):
            fit_velocity_thresholds(["a", "b"], [1.0, 2.0], classes="ab")
        with pytest.raises(ContractError, match="^duplicate class name 'a'$"):
            fit_velocity_thresholds(["a", "b"], [1.0, 2.0], classes=["a", "a"])

    def test_labels_are_not_a_string(self):
        with pytest.raises(ContractError, match="^class labels must be a sequence of strings, not the string 'ab'$"):
            fit_velocity_thresholds("ab", [1.0, 2.0])

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([1, "a"], "^class labels must be strings, got 1$"),
            (["a", 2.5], "^class labels must be strings, got 2.5$"),
            ([b"a"], "^class labels must be strings, got b'a'$"),
            (["", "a"], "^empty class label in the sequence at index 0$"),
        ],
    )
    def test_labels_are_class_names(self, labels, message):
        # an empty label would make a condition named vel_over_
        with pytest.raises(ContractError, match=message):
            fit_velocity_thresholds(labels, [1.0, 2.0])

    def test_name_faults_stay_short(self):
        # one fault among 100,001 names is named by its index or its name, not by the whole list
        with pytest.raises(ContractError, match="^empty class label in the sequence at index 100000$"):
            fit_velocity_thresholds(["walk"] * 100_000 + [""], [1.0] * 100_001)
        with pytest.raises(ContractError, match="^duplicate class name 'walk'$"):
            fit_velocity_thresholds(["walk"], [1.0], classes=["walk"] * 100_001)

    @pytest.mark.parametrize(
        "thresholds, message",
        [
            ({1: 1.0, "a": 2.0}, "got 1$"),
            ({"a": 1.0, 2: 3.0}, "got 2$"),
            ({None: 1.0}, "got None$"),
            ({b"a": 1.0}, "got b'a'$"),
            ({"": 1.0}, "^empty class name in the sequence at index 0$"),
        ],
    )
    def test_ceilings_are_keyed_by_class_name(self, thresholds, message):
        # keys of mixed types cannot be sorted into column order
        with pytest.raises(ContractError, match=message):
            build_velocity_conditions(thresholds, np.array([1.0]))

    def test_one_label_per_speed(self):
        with pytest.raises(ContractError, match="labels"):
            fit_velocity_thresholds(["walk", "bike"], np.array([1.0]))

    def test_zero_speed_is_a_ceiling(self):
        assert fit_velocity_thresholds(["a", "a"], [0.0, 0.0]) == {"a": 0.0}

    @pytest.mark.parametrize(
        "labels, values, index, text",
        [
            (["a", "b"], [math.nan, 1.0], 0, "nan"),
            (["a"], [-5.0], 0, "-5.0"),
            (["a"], [-0.5], 0, "-0.5"),
            (["a", "a"], [1.0, math.inf], 1, "inf"),
            (["a", "b"], [1.0, -math.inf], 1, "-inf"),
        ],
    )
    def test_speed_must_be_finite_and_non_negative(self, labels, values, index, text):
        message = f"speed at index {index} must be finite and >= 0, got {text}$"
        with pytest.raises(ContractError, match=message):
            fit_velocity_thresholds(labels, np.array(values))

    @pytest.mark.parametrize("ceiling", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_ceiling_must_be_finite_and_non_negative(self, ceiling):
        message = f"ceiling of class 'a' must be finite and >= 0, got {ceiling}$"
        with pytest.raises(ContractError, match=message):
            build_velocity_conditions({"b": 1.0, "a": ceiling}, np.array([1.0]))

    @pytest.mark.parametrize(
        "speeds, message",
        [
            ([math.nan, -3.0], r"^speed at index 0 must be >= 0 and not NaN, got nan$"),
            ([1.0, -3.0], r"^speed at index 1 must be >= 0 and not NaN, got -3.0$"),
            ([0.0, -math.inf], r"^speed at index 1 must be >= 0 and not NaN, got -inf$"),
            (5.0, r"^speeds must be a 1-D sequence of numbers, got 5.0$"),
            ("x", r"^speeds must be a 1-D sequence of numbers, got 'x'$"),
            ([[1.0, 2.0]], r"^speeds must be a 1-D sequence of numbers, got \[\[1.0, 2.0\]\]$"),
            ([1.0, "x"], r"^speed at index 1 must be a number, got 'x'$"),
            (np.array(["1", "2"]), r"^speed at index 0 must be a number, got '1'$"),
            # a bool is not a number: numpy would read it as 0 or 1
            ([True, False], r"^speed at index 0 must be a number, got True$"),
            ([2.0, True], r"^speed at index 1 must be a number, got True$"),
            (np.array([False, True]), r"^speed at index 0 must be a number, got False$"),
            ([1.0, np.True_], r"^speed at index 1 must be a number, got np.True_$"),
            (np.array([1.0, True], dtype=object), r"^speed at index 1 must be a number, got True$"),
        ],
    )
    def test_build_checks_its_speeds(self, speeds, message):
        with pytest.raises(ContractError, match=message):
            build_velocity_conditions({"a": 1.0}, speeds)

    @pytest.mark.parametrize(
        "speeds, message",
        [
            (5.0, r"^speeds must be a 1-D sequence of numbers, got 5.0$"),
            ([1.0, "x"], r"^speed at index 1 must be a number, got 'x'$"),
            (np.ones((2, 1)), r"^speeds must be a 1-D sequence of numbers, got array"),
            ([True, 3.0], r"^speed at index 0 must be a number, got True$"),
        ],
    )
    def test_fit_checks_its_speeds(self, speeds, message):
        with pytest.raises(ContractError, match=message):
            fit_velocity_thresholds(["a", "b"], speeds)

    def test_ceiling_must_be_a_number(self):
        with pytest.raises(ContractError, match=r"^ceiling of class 'b' must be a number, got 'x'$"):
            build_velocity_conditions({"a": 1.0, "b": "x"}, [1.0])
        with pytest.raises(ContractError, match=r"^ceiling of class 'a' must be a number, got True$"):
            build_velocity_conditions({"a": True}, [1.0])

    def test_infinite_speed_is_over_every_ceiling(self):
        # max_speeds gives inf when a distance over a tiny time step overflows
        matrix = build_velocity_conditions({"a": 1.0}, np.array([0.5, math.inf]))
        assert matrix.values[:, matrix.column_index("vel_over_a")].tolist() == [False, True]

    def test_monotone_in_training_data(self):
        base = [(2.0, "walk")]
        assert self.fit(base + [(3.0, "walk")])["walk"] >= self.fit(base)["walk"]

    def test_own_class_strict_boundary(self):
        # a record is over its predicted class c when vel_over_c holds on its
        # row with pred == c, which needs it strictly faster than c's ceiling
        walked = np.array(speeds(self.walk_track(2.0)))
        exact = float(walked[0])
        table = make_table(["walk", "bike"], ["walk"])

        def over(ceiling):
            matrix = build_velocity_conditions({"walk": ceiling, "bike": 0.0}, walked)
            return bool((matrix.values[:, matrix.column_index("vel_over_walk")] & (table.pred_ids == 0))[0])

        assert over(exact) is False  # equality is not over
        assert over(exact / 2) is True
        assert over(exact * 2) is False

    def test_unfitted_class_has_no_column(self):
        matrix = build_velocity_conditions({"bike": 5.0}, np.array(speeds(self.walk_track(2.0))))
        assert matrix.condition_names == ("vel_over_bike",)
        with pytest.raises(UnknownConditionError):
            matrix.column_index("vel_over_walk")

    def test_build_matrix_per_class_and_own_class(self):
        record_speeds = np.array(speeds(self.walk_track(1.0), self.walk_track(9.0)))
        thresholds = {"walk": 2.0, "bike": 6.0}
        per_class = build_velocity_conditions(thresholds, record_speeds)
        assert per_class.condition_names == ("vel_over_bike", "vel_over_walk")
        assert per_class.values[:, per_class.column_index("vel_over_walk")].tolist() == [False, True]
        assert per_class.values[:, per_class.column_index("vel_over_bike")].tolist() == [False, True]

        # each row against its own predicted class: vel_over_c AND pred == c
        table = make_table(["walk", "bike"], ["bike", "walk"])
        own = np.zeros(table.n, dtype=bool)
        for i, name in enumerate(table.classes.names):
            own |= per_class.values[:, per_class.column_index(f"vel_over_{name}")] & (table.pred_ids == i)
        assert own.tolist() == [False, True]

    def test_no_records(self):
        matrix = build_velocity_conditions({"walk": 1.0}, max_speeds([], [], [], [], []))
        assert matrix.condition_names == ("vel_over_walk",) and matrix.values.shape == (0, 1)


class TestGenerateSynthetic:
    def test_same_seed_identical(self):
        a, a_columns = generated(seed=9, n_samples=120, noise=0.2)
        b, b_columns = generated(seed=9, n_samples=120, noise=0.2)
        for a_column, b_column in zip(a_columns, b_columns, strict=True):
            assert a_column.tobytes() == b_column.tobytes()
        assert same_table(a.table, b.table)
        assert a.conditions.condition_names == b.conditions.condition_names
        assert np.array_equal(a.conditions.values, b.conditions.values)

    def test_different_seed_differs(self):
        a = generate_synthetic(seed=1, n_samples=120, noise=0.2)
        b = generate_synthetic(seed=2, n_samples=120, noise=0.2)
        assert a.table.pred_ids.tolist() != b.table.pred_ids.tolist()

    def test_zero_noise_perfect_base_and_no_useful_rules(self):
        corpus = generate_synthetic(seed=3, n_samples=150, noise=0.0)
        assert accuracy(corpus.table) == 1.0
        # without errors there is nothing for rules to catch: any detection
        # rule that fits the budget has zero confidence, and no correction
        # can strictly beat a perfect baseline precision
        from edcr import det_corr_rule_learn

        rule_set = det_corr_rule_learn(0.1, corpus.table, corpus.conditions)
        assert all(rule.confidence == 0.0 for rule in rule_set.detection_rules)
        assert rule_set.correction_rules == ()

    def test_noise_rate_converges(self):
        corpus = generate_synthetic(seed=5, n_samples=10_000, noise=0.25)
        wrong = int(np.count_nonzero(corpus.table.pred_ids != corpus.table.gt_ids))
        assert wrong / corpus.table.n == pytest.approx(0.25, abs=0.02)

    def test_holdout_never_predicted(self):
        corpus = generate_synthetic(
            seed=6, n_samples=500, noise=0.25, holdout_classes=["walk", "drive"]
        )
        assert set(corpus.table.classes.names) == {"bike", "bus", "train"}
        predicted = corpus.table.names(corpus.table.pred_ids)
        truth = corpus.table.names(corpus.table.gt_ids)
        holdout_rows = [k for k, g in enumerate(truth) if g in ("walk", "drive")]
        assert holdout_rows  # the classes still occur in ground truth
        assert all(p not in ("walk", "drive") for p in predicted)
        holdout_correct = sum(1 for k in holdout_rows if predicted[k] == truth[k])
        assert holdout_correct == 0

    def test_condition_layout(self):
        corpus = generate_synthetic(seed=7, n_samples=50, noise=0.2)
        names = corpus.conditions.condition_names
        for cls in corpus.table.classes.names:
            assert f"g_{cls}" in names and f"not_g_{cls}" in names and f"vel_over_{cls}" in names
        g = corpus.conditions.values[:, corpus.conditions.column_index("g_walk")]
        not_g = corpus.conditions.values[:, corpus.conditions.column_index("not_g_walk")]
        assert np.array_equal(g, ~not_g)

    def test_config_errors(self):
        with pytest.raises(ContractError):
            generate_synthetic(seed=0, n_samples=10, noise=1.5)
        with pytest.raises(ContractError):
            generate_synthetic(seed=0, n_samples=0)
        with pytest.raises(ContractError):
            generate_synthetic(seed=0, n_samples=10, holdout_classes=["zeppelin"])
        with pytest.raises(ContractError):
            generate_synthetic(
                seed=0, n_samples=10, holdout_classes=["walk", "bike", "bus", "drive"]
            )

    @pytest.mark.parametrize("holdout, message", [
        (["walk", "walk"], "^duplicate holdout class name 'walk'$"),
        (["walk", ""], "^empty holdout class name in the sequence at index 1$"),
        ("walk", "^holdout class names must be a sequence of strings, not the string 'walk'"),
    ])
    def test_holdout_names_are_checked(self, holdout, message):
        with pytest.raises(ContractError, match=message):
            generate_synthetic(seed=0, n_samples=10, holdout_classes=holdout)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ContractError, match="seed"):
            generate_synthetic(seed=seed, n_samples=10)

    @pytest.mark.parametrize("n_samples", [7.0, "10", True, -1])
    def test_sample_count_must_be_non_negative_integer(self, n_samples):
        with pytest.raises(ContractError, match="n_samples must be a non-negative integer"):
            generate_synthetic(0, n_samples)


def generated(**args):
    """``generate_synthetic(**args)`` and the ``(counts, t, lat, lon)`` point
    columns that its ``_make_trajectories`` call returned, recorded on the
    way: the tracks the corpus's velocity conditions were computed from."""
    make, recorded = edcr.conditions._make_trajectories, []

    def record(*call):
        recorded.append(make(*call))
        return recorded[-1]

    with mock.patch.object(edcr.conditions, "_make_trajectories", record):
        corpus = generate_synthetic(**args)
    (columns,) = recorded
    return corpus, columns


def same_corpus(generated_corpus, b) -> bool:
    """A :func:`generated` corpus and its point columns against the reference
    generator's ``b``, field by field; floats by ``repr``, which is what the
    CSV writers emit, so ``0.0`` and ``-0.0`` differ."""
    a, columns = generated_corpus
    return (
        repr(point_tuples(*columns)) == repr(list(b.tracks))
        and same_table(a.table, b.table)
        and a.table.gt_ids.tolist() == b.table.gt_ids.tolist()
        and a.table.novel_names == b.table.novel_names
        and a.conditions.condition_names == b.conditions.condition_names
        and a.conditions.values.dtype == b.conditions.values.dtype
        and np.array_equal(a.conditions.values, b.conditions.values)
        and repr(a.thresholds) == repr(b.thresholds)
    )


@st.composite
def generator_args(draw):
    known = list(DEFAULT_SPEED_REGIMES)
    holdout = draw(st.lists(st.sampled_from(known), unique=True, max_size=len(known) - 2))
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return dict(
        seed=draw(st.integers(0, 2**64)),
        n_samples=draw(st.integers(len(known), 400)),
        noise=draw(rate),
        holdout_classes=holdout or None,
        condition_noise=draw(rate),
    )


class TestGeneratorMatchesReference:
    """The generator only draws in its loop, then runs the trajectory
    recurrence over all records at once and fits on one vectorised speed
    pass; the reference keeps one ``uniform``/``normal`` call per draw, the
    recurrence point by point and the scalar haversine.  Both must give the
    same corpus, bit for bit."""

    @pytest.mark.parametrize(
        "args",
        [
            dict(seed=7, n_samples=2000),
            dict(seed=0, n_samples=5),
            dict(seed=8, n_samples=300, noise=0.0, condition_noise=1.0),
            dict(seed=9, n_samples=300, noise=1.0, condition_noise=0.0),
            dict(seed=3, n_samples=400, holdout_classes=["walk", "train"]),
            dict(seed=4, n_samples=200, holdout_classes=["walk", "bike", "bus"]),
            dict(seed=5, n_samples=200, noise=0.5, holdout_classes=["bus"], condition_noise=0.3),
        ],
    )
    def test_listed_configurations(self, args):
        assert same_corpus(generated(**args), reference_generate_synthetic(**args))

    @settings(max_examples=40)
    @given(generator_args())
    def test_any_configuration(self, args):
        corpus, columns = generated(**args)
        assert same_corpus((corpus, columns), reference_generate_synthetic(**args))
        # the speeds of the generated columns are those of its point tuples
        used = max_speeds(corpus.table.sample_ids, *columns)
        assert same_floats(used.tolist(), [trajectory_speed(p).max_speed for p in point_tuples(*columns)])


def broken_columns(columns, fault):
    """A :func:`generated` corpus's point columns with one fault in record 2,
    at its point 3 (or, for ``one point``, with only its first point left)."""
    counts, t, lat, lon = (column.copy() for column in columns)
    start = int(counts[:2].sum())
    point = start + 3
    if fault == "one point":
        keep = np.ones(len(t), dtype=bool)
        keep[start + 1:start + counts[2]] = False
        counts[2] = 1
        t, lat, lon = t[keep], lat[keep], lon[keep]
    elif fault == "repeated t":
        t[point] = t[point - 1]
    elif fault == "decreasing t":
        t[point] = t[point - 1] - 1.0
    elif fault.endswith(" t"):
        t[point] = {"nan t": math.nan, "inf t": math.inf, "-inf t": -math.inf}[fault]
    elif fault.startswith("lat "):
        lat[point] = float(fault[4:])
    else:
        lon[point] = float(fault[4:])
    return counts, t, lat, lon


edge_points = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0, -math.inf, math.inf, math.nan]),
    st.sampled_from([0.0, 90.0, -90.0, 90.5, -91.0, math.nan]),
    st.sampled_from([0.0, 180.0, -180.0, -181.0, 180.5, math.nan]),
)


NOT_INTEGERS = ("bool", "float", "string", "nested")  # edits that make counts other than integers


@settings(max_examples=300)
@given(
    st.lists(st.lists(edge_points, max_size=4), max_size=5),
    st.sampled_from(["as drawn", "zero", "negative", "plus one", "minus one", "moved", *NOT_INTEGERS]),
    st.data(),
)
def test_column_check_reports_the_first_faulty_record(tracks, edit, data):
    """Over several records, with counts as drawn or edited: counts that are
    not integers, or that do not split the columns (a negative one, or a sum
    off by one), are a ``ContractError``; counts that do split them give the
    point-by-point rules' message for the first record of that split that
    breaks one, or, when none does, the scalar reference speeds, float for
    float."""
    ids, counts, t, lat, lon = columns(tracks)
    if counts and edit != "as drawn":
        k = data.draw(st.integers(0, len(counts) - 1))
        if edit == "zero":
            counts[k] = 0
        elif edit == "bool":
            counts = [bool(count) for count in counts]
        elif edit in ("float", "string", "nested"):
            counts[k] = {"float": float, "string": str, "nested": lambda count: [count]}[edit](counts[k])
        elif edit == "negative":
            counts[k] = -data.draw(st.integers(1, 3))
        elif edit == "moved" and len(counts) > 1:  # the sum stays; the split moves
            shift = data.draw(st.integers(1, 3))
            counts[k] -= shift
            counts[(k + 1) % len(counts)] += shift
        else:
            counts[k] += 1 if edit == "plus one" else -1
    if counts and edit in NOT_INTEGERS or min(counts, default=0) < 0 or sum(counts) != len(t):
        with pytest.raises(ContractError):
            max_speeds(ids, counts, t, lat, lon)
        return
    split = point_tuples(counts, t, lat, lon)
    faults = (reference_track_fault(sample_id, points) for sample_id, points in zip(ids, split))
    expected = next((fault for fault in faults if fault is not None), None)
    try:
        got = max_speeds(ids, counts, t, lat, lon).tolist()
    except DataError as err:
        assert str(err) == expected
        return
    assert expected is None
    assert same_floats(got, [trajectory_speed(points).max_speed for points in split])


@pytest.mark.parametrize(
    "fault",
    ["one point", "nan t", "inf t", "-inf t", "repeated t", "decreasing t",
     "lat 90.5", "lat nan", "lon -181", "lon 180.5"],
)
def test_column_fault_has_the_record_message(fault):
    """A corpus whose columns break a record rule is rejected by
    ``max_speeds`` with the message that the point-by-point rules give for
    the same points."""
    corpus, columns = generated(seed=1, n_samples=8)
    counts, t, lat, lon = broken_columns(columns, fault)
    expected = reference_track_fault("s00002", point_tuples(counts, t, lat, lon)[2])
    assert expected is not None and "'s00002'" in expected
    with pytest.raises(DataError) as error:
        max_speeds(corpus.table.sample_ids, counts, t, lat, lon)
    assert str(error.value) == expected


class TestIngestBinaryConditions:
    """Binary-classifier verdicts are ingested with ``io.read_conditions``."""

    def test_roundtrip_matrix(self, tmp_path):
        table = make_table(["a", "b"], ["a", "b", "a"], ids=["s1", "s2", "s3"])
        path = tmp_path / "conds.csv"
        path.write_text("sample_id,g_a,g_b\ns1,1,0\ns2,0,1\ns3,0,0\n")
        conds = read_conditions(path, table)
        assert conds.condition_names == ("g_a", "g_b")
        assert conds.values.tolist() == [[True, False], [False, True], [False, False]]

    def test_all_false(self, tmp_path):
        table = make_table(["a"], ["a", "a"], ids=["s1", "s2"])
        path = tmp_path / "conds.csv"
        path.write_text("sample_id,g_a\ns1,0\ns2,0\n")
        assert not read_conditions(path, table).values.any()

    def test_unknown_sample_named(self, tmp_path):
        table = make_table(["a"], ["a"], ids=["s1"])
        path = tmp_path / "conds.csv"
        path.write_text("sample_id,g_a\ns1,0\nmystery,1\n")
        with pytest.raises(DataError, match="mystery"):
            read_conditions(path, table)

    def test_missing_sample_named(self, tmp_path):
        table = make_table(["a"], ["a", "a"], ids=["s1", "s2"])
        path = tmp_path / "conds.csv"
        path.write_text("sample_id,g_a\ns1,0\n")
        with pytest.raises(DataError, match="s2"):
            read_conditions(path, table)

    def test_bad_value_has_line_number(self, tmp_path):
        table = make_table(["a"], ["a"], ids=["s1"])
        path = tmp_path / "conds.csv"
        path.write_text("sample_id,g_a\ns1,yes\n")
        with pytest.raises(DataError, match=":2:"):
            read_conditions(path, table)
