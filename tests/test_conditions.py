import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edcr import (
    ContractError,
    DataError,
    TrajectoryRecord,
    UnknownClassError,
    UnknownConditionError,
    accuracy,
    build_velocity_conditions,
    fit_velocity_thresholds,
    generate_synthetic,
    haversine_m,
    max_speeds,
)
from edcr.conditions import DEFAULT_SPEED_REGIMES, _check_tracks, column_max_speeds
from edcr.io import read_conditions
from helpers import (
    make_table,
    reference_generate_synthetic,
    reference_track_fault,
    same_table,
    trajectory_speed,
)

# one milli-degree of latitude on the R=6,371,000 m sphere, by hand:
# d = R * 0.001 * pi / 180
MILLIDEGREE_M = 6_371_000.0 * 0.001 * math.pi / 180.0  # 111.19492664455874


def track(points, sample_id="t0", label=None):
    return TrajectoryRecord(sample_id, tuple(points), label)


class TestTrajectoryRecord:
    def test_needs_two_points(self):
        with pytest.raises(DataError):
            track([(0.0, 0.0, 0.0)])

    def test_zero_time_delta_rejected(self):
        with pytest.raises(DataError):
            track([(0.0, 0.0, 0.0), (0.0, 0.001, 0.0)])

    def test_decreasing_time_rejected(self):
        with pytest.raises(DataError):
            track([(10.0, 0.0, 0.0), (5.0, 0.001, 0.0)])

    def test_coordinate_ranges(self):
        with pytest.raises(DataError):
            track([(0.0, 91.0, 0.0), (1.0, 0.0, 0.0)])
        with pytest.raises(DataError):
            track([(0.0, 0.0, 181.0), (1.0, 0.0, 0.0)])

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
            track([(t, 0.0, 0.0) for t in times])


def segment_speeds(points):
    """Each segment's speed, as the max speed of a record of that segment alone."""
    return max_speeds([track(pair) for pair in zip(points, points[1:])]).tolist()


class TestSegmentSpeeds:
    def test_stationary(self):
        assert max_speeds([track([(0.0, 1.0, 2.0), (10.0, 1.0, 2.0)])]).tolist() == [0.0]

    def test_millidegree_pin(self):
        [speed] = max_speeds([track([(0.0, 0.0, 0.0), (10.0, 0.001, 0.0)])]).tolist()
        assert speed == pytest.approx(MILLIDEGREE_M / 10.0, rel=1e-9)
        assert speed == pytest.approx(11.12, abs=0.01)
        assert haversine_m(0.0, 0.0, 0.001, 0.0) == pytest.approx(111.19, abs=0.01)

    def test_three_points_two_segments(self):
        points = [(0.0, 0.0, 0.0), (10.0, 0.001, 0.0), (15.0, 0.002, 0.0)]
        speeds = segment_speeds(points)
        assert len(speeds) == 2
        assert max_speeds([track(points)]).tolist() == [max(speeds)]
        assert speeds[1] == pytest.approx(2 * speeds[0], rel=1e-9)

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
    records = []
    for k in range(draw(st.integers(0, 6))):
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
            records.append(track(points, f"r{k}"))
    return records


class TestMaxSpeeds:
    @given(trajectory_batches())
    def test_same_floats_as_trajectory_speed(self, records):
        expected = [trajectory_speed(record).max_speed for record in records]
        assert [repr(v) for v in max_speeds(records).tolist()] == [repr(v) for v in expected]

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
        records = [track([(0.0, a, b), (t, c, d)], f"r{k}") for k, (a, b, t, c, d) in enumerate(rows)]
        expected = [trajectory_speed(record).max_speed for record in records]
        assert [repr(v) for v in max_speeds(records).tolist()] == [repr(v) for v in expected]


class TestVelocityThresholds:
    def walk_track(self, speed, sample_id, label="walk"):
        dlat = speed * 10.0 / (6_371_000.0 * math.pi / 180.0)
        return track([(0.0, 0.0, 0.0), (10.0, dlat, 0.0)], sample_id, label)

    def fit(self, records, classes=None):
        return fit_velocity_thresholds([r.label for r in records], max_speeds(records), classes)

    def test_single_record_per_class(self):
        thresholds = self.fit([self.walk_track(2.0, "w0")])
        assert thresholds["walk"] == pytest.approx(2.0, rel=1e-6)

    def test_max_of_two_records(self):
        thresholds = self.fit([self.walk_track(1.8, "w0"), self.walk_track(2.2, "w1")])
        assert thresholds["walk"] == pytest.approx(2.2, rel=1e-6)

    def test_mixed_corpus_per_class_maxima(self):
        records = [
            self.walk_track(1.5, "w0"),
            self.walk_track(2.0, "w1"),
            self.walk_track(5.0, "b0", label="bike"),
            self.walk_track(4.0, "b1", label="bike"),
        ]
        thresholds = self.fit(records)
        assert thresholds["walk"] == pytest.approx(2.0, rel=1e-6)
        assert thresholds["bike"] == pytest.approx(5.0, rel=1e-6)

    def test_missing_class_error(self):
        with pytest.raises(UnknownClassError):
            self.fit([self.walk_track(2.0, "w0")], classes=["walk", "bike"])

    def test_unlabeled_record_rejected(self):
        with pytest.raises(ContractError):
            self.fit([self.walk_track(2.0, "w0", label=None)])

    def test_one_label_per_speed(self):
        with pytest.raises(ContractError, match="labels"):
            fit_velocity_thresholds(["walk", "bike"], np.array([1.0]))

    def test_monotone_in_training_data(self):
        base = [self.walk_track(2.0, "w0")]
        more = base + [self.walk_track(3.0, "w1")]
        assert self.fit(more)["walk"] >= self.fit(base)["walk"]

    def test_own_class_strict_boundary(self):
        # a record is over its predicted class c when vel_over_c holds on its
        # row with pred == c, which needs it strictly faster than c's ceiling
        speeds = max_speeds([self.walk_track(2.0, "w0")])
        exact = float(speeds[0])
        table = make_table(["walk", "bike"], ["walk"])

        def over(ceiling):
            matrix = build_velocity_conditions({"walk": ceiling, "bike": 0.0}, speeds)
            return bool((matrix.column("vel_over_walk") & (table.pred_ids == 0))[0])

        assert over(exact) is False  # equality is not over
        assert over(exact / 2) is True
        assert over(exact * 2) is False

    def test_unfitted_class_has_no_column(self):
        speeds = max_speeds([self.walk_track(2.0, "w0")])
        matrix = build_velocity_conditions({"bike": 5.0}, speeds)
        assert matrix.condition_names == ("vel_over_bike",)
        with pytest.raises(UnknownConditionError):
            matrix.column("vel_over_walk")

    def test_build_matrix_per_class_and_own_class(self):
        speeds = max_speeds([self.walk_track(1.0, "r0"), self.walk_track(9.0, "r1")])
        thresholds = {"walk": 2.0, "bike": 6.0}
        per_class = build_velocity_conditions(thresholds, speeds)
        assert per_class.condition_names == ("vel_over_bike", "vel_over_walk")
        assert per_class.column("vel_over_walk").tolist() == [False, True]
        assert per_class.column("vel_over_bike").tolist() == [False, True]

        # each row against its own predicted class: vel_over_c AND pred == c
        table = make_table(["walk", "bike"], ["bike", "walk"])
        own = np.zeros(table.n, dtype=bool)
        for i, name in enumerate(table.classes.names):
            own |= per_class.column(f"vel_over_{name}") & (table.pred_ids == i)
        assert own.tolist() == [False, True]

    def test_no_records(self):
        matrix = build_velocity_conditions({"walk": 1.0}, max_speeds([]))
        assert matrix.condition_names == ("vel_over_walk",) and matrix.values.shape == (0, 1)


class TestGenerateSynthetic:
    def test_same_seed_identical(self):
        a = generate_synthetic(seed=9, n_samples=120, noise=0.2)
        b = generate_synthetic(seed=9, n_samples=120, noise=0.2)
        assert a.records == b.records
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
        g = corpus.conditions.column("g_walk")
        not_g = corpus.conditions.column("not_g_walk")
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

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ContractError, match="seed"):
            generate_synthetic(seed=seed, n_samples=10)


def same_corpus(a, b) -> bool:
    """Field by field; floats by ``repr``, which is what the CSV writers emit,
    so ``0.0`` and ``-0.0`` differ."""
    def records(corpus):
        return [(r.sample_id, repr(r.points), r.label) for r in corpus.records]

    return (
        records(a) == records(b)
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
        assert same_corpus(generate_synthetic(**args), reference_generate_synthetic(**args))

    @settings(max_examples=40)
    @given(generator_args())
    def test_any_configuration(self, args):
        corpus = generate_synthetic(**args)
        assert same_corpus(corpus, reference_generate_synthetic(**args))
        # the speeds the generator fitted on are those of its records
        used = column_max_speeds(corpus.counts, corpus.t, corpus.lat, corpus.lon)
        assert list(map(repr, max_speeds(corpus.records).tolist())) == list(map(repr, used.tolist()))


def broken_columns(corpus, fault):
    """The corpus's point columns with one fault in record 2, at its point 3
    (or, for ``one point``, with only its first point left)."""
    counts, t, lat, lon = (column.copy() for column in (corpus.counts, corpus.t, corpus.lat, corpus.lon))
    start = int(counts[:2].sum())
    point = start + 3
    if fault == "one point":
        keep = np.ones(len(t), dtype=bool)
        keep[start + 1:start + counts[2]] = False
        counts[2] = 1
        t, lat, lon = t[keep], lat[keep], lon[keep]
    elif fault == "repeated t":
        t[point] = t[point - 1]
    elif fault in ("nan t", "inf t"):
        t[point] = math.nan if fault == "nan t" else math.inf
    elif fault == "lat 90.5":
        lat[point] = 90.5
    else:
        lon[point] = -181.0
    return dict(counts=counts, t=t, lat=lat, lon=lon)


edge_points = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0, -math.inf, math.inf, math.nan]),
    st.sampled_from([0.0, 90.0, -90.0, 90.5, -91.0, math.nan]),
    st.sampled_from([0.0, 180.0, -180.0, -181.0, 180.5, math.nan]),
)


@settings(max_examples=300)
@given(st.lists(st.lists(edge_points, max_size=4), max_size=5))
def test_column_check_reports_the_first_faulty_record(tracks):
    """Over several records, the column check raises the point-by-point
    rules' message for the first record that breaks one, or nothing."""
    ids = tuple(f"r{k}" for k in range(len(tracks)))
    faults = (reference_track_fault(sample_id, points) for sample_id, points in zip(ids, tracks))
    expected = next((fault for fault in faults if fault is not None), None)
    columns = np.array([p for points in tracks for p in points], dtype=float).reshape(-1, 3).T
    try:
        _check_tracks(ids, [len(points) for points in tracks], *columns)
        got = None
    except DataError as err:
        got = str(err)
    assert got == expected


@pytest.mark.parametrize("fault", ["one point", "nan t", "inf t", "repeated t", "lat 90.5", "lon -181"])
def test_column_fault_has_the_record_message(fault):
    """A corpus whose columns break a record rule is rejected with the message
    that ``TrajectoryRecord`` gives the same points."""
    corpus = generate_synthetic(seed=1, n_samples=8)
    columns = broken_columns(corpus, fault)
    start = int(columns["counts"][:2].sum())
    end = start + int(columns["counts"][2])
    points = zip(*(columns[name][start:end].tolist() for name in ("t", "lat", "lon")))
    with pytest.raises(DataError) as record_error:
        TrajectoryRecord(corpus.table.sample_ids[2], tuple(points))
    assert "'s00002'" in str(record_error.value)
    with pytest.raises(DataError) as column_error:
        dataclasses.replace(corpus, **columns)
    assert str(column_error.value) == str(record_error.value)


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
