import numpy as np
import pytest
from hypothesis import given, strategies as st

from edcr import (
    ContractError,
    ScoringMode,
    UNKNOWN_NAME,
    accuracy,
    apply_ruleset,
    compute_class_stats,
    det_corr_rule_learn,
    epsilon_sweep,
    error_detection_metrics,
    f1_score,
    generate_synthetic,
    metrics_report,
    sequential_split,
    unseen_class_experiment,
)
from edcr.evaluate import Split
from helpers import make_table


class TestF1:
    def test_reported_model_rows(self):
        # reference harmonic-mean pins at reporting precision
        assert round(f1_score(0.996, 0.780), 3) == 0.875
        assert round(f1_score(0.987, 0.982), 3) == 0.984
        assert round(f1_score(0.999, 0.941), 3) == 0.969

    def test_trivials(self):
        assert f1_score(1.0, 1.0) == 1.0
        assert f1_score(0.0, 0.0) == 0.0


class TestErrorDetectionMetrics:
    def test_exact_fraction_realization(self):
        # 3237/3250 = 0.996 and 3237/4150 = 0.78 exactly; F1 rounds to 0.875
        n_true_flag, n_flag, n_err, n = 3237, 3250, 4150, 6000
        pred, gt, flags = [], [], []
        for k in range(n):
            is_err = k < n_err
            pred.append("a")
            gt.append("b" if is_err else "a")
        flags = [True] * n_true_flag + [False] * (n_err - n_true_flag)
        flags += [True] * (n_flag - n_true_flag)
        flags += [False] * (n - len(flags))
        table = make_table(["a", "b"], pred, gt)
        metrics = error_detection_metrics(flags, table)
        assert metrics.precision == pytest.approx(0.996, abs=1e-12)
        assert metrics.recall == pytest.approx(0.780, abs=1e-12)
        assert round(metrics.f1, 3) == 0.875

    def test_zero_conventions(self):
        table = make_table(["a"], ["a", "a"], ["a", "a"])
        metrics = error_detection_metrics([False, False], table)
        assert metrics == metrics.__class__(0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        table = make_table(["a"], ["a"], ["a"])
        with pytest.raises(ContractError):
            error_detection_metrics([True, False], table)

    def test_permutation_invariant(self):
        table = make_table(["a", "b"], ["a", "a", "b", "b"], ["a", "b", "b", "a"])
        flags = [False, True, False, True]
        base = error_detection_metrics(flags, table)
        order = [2, 0, 3, 1]
        shuffled = error_detection_metrics([flags[i] for i in order], table.subset(order))
        assert shuffled == base


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(make_table(["a"], ["a", "a"], ["a", "a"])) == 1.0

    def test_half_correct_strict(self):
        table = make_table(["a", "b"], ["a", "a", "b", "b"], ["a", "b", "a", "b"])
        assert accuracy(table, ScoringMode.STRICT) == 0.5

    def test_unknown_on_novel_class_by_mode(self):
        table = make_table(["a"], [UNKNOWN_NAME], ["scooter"])
        assert accuracy(table, ScoringMode.STRICT) == 0.0
        assert accuracy(table, ScoringMode.NOVEL_AWARE) == 1.0

    def test_unknown_on_known_class_always_wrong(self):
        table = make_table(["a"], [UNKNOWN_NAME], ["a"])
        assert accuracy(table, ScoringMode.NOVEL_AWARE) == 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_strict_never_exceeds_novel_aware(self, seed):
        rng = np.random.default_rng(seed)
        names = ["a", "b"]
        n = int(rng.integers(1, 30))
        pred = [
            UNKNOWN_NAME if rng.random() < 0.2 else names[int(rng.integers(0, 2))]
            for _ in range(n)
        ]
        gt = [
            "novel" if rng.random() < 0.3 else names[int(rng.integers(0, 2))] for _ in range(n)
        ]
        table = make_table(names, pred, gt)
        assert accuracy(table, ScoringMode.STRICT) <= accuracy(table, ScoringMode.NOVEL_AWARE)

    def test_mode_parsing(self):
        assert ScoringMode.from_string("strict") is ScoringMode.STRICT
        assert ScoringMode.from_string("novel-aware") is ScoringMode.NOVEL_AWARE
        assert ScoringMode.from_string("NOVEL_AWARE") is ScoringMode.NOVEL_AWARE
        with pytest.raises(ContractError):
            ScoringMode.from_string("lenient")


class TestSplit:
    def test_sequential_split_disjoint(self):
        corpus = generate_synthetic(seed=0, n_samples=100, noise=0.2)
        split = sequential_split(corpus.table, corpus.conditions, 0.6)
        assert split.learn_table.n == 60 and split.test_table.n == 40
        assert split.learn_table.sample_ids == corpus.table.sample_ids[:60]
        assert not set(split.learn_table.sample_ids) & set(split.test_table.sample_ids)
        assert np.array_equal(split.learn_conds.values, corpus.conditions.values[:60])

    def test_bad_fraction(self):
        corpus = generate_synthetic(seed=0, n_samples=10, noise=0.2)
        for fraction in (0.0, 1.0, -0.5):
            with pytest.raises(ContractError):
                sequential_split(corpus.table, corpus.conditions, fraction)

    def test_overlap_rejected(self):
        corpus = generate_synthetic(seed=0, n_samples=20, noise=0.2)
        with pytest.raises(ContractError):
            Split(corpus.table, corpus.conditions, corpus.table, corpus.conditions)


def small_split(seed=8, n=400, noise=0.25):
    corpus = generate_synthetic(seed=seed, n_samples=n, noise=noise)
    return sequential_split(corpus.table, corpus.conditions, 0.5)


class TestEpsilonSweep:
    def test_grid_is_complete(self):
        split = small_split()
        rows = epsilon_sweep([0.0, 0.1], split)
        n_classes = len(split.learn_table.classes)
        assert len(rows) == 2 * 2 * n_classes  # eps x split x class

    def test_zero_epsilon_keeps_learn_recall(self):
        split = small_split()
        rows = epsilon_sweep([0.0], split)
        for row in (row for row in rows if row.split == "learn"):
            assert row.theoretical_recall_reduction == pytest.approx(0.0, abs=1e-12)
            assert row.recall_after >= row.recall_before - 1e-9

    def test_learn_recall_within_epsilon(self):
        split = small_split()
        rows = epsilon_sweep([0.0, 0.05, 0.1, 0.2], split)
        for row in (row for row in rows if row.split == "learn"):
            reduction = row.recall_before - row.recall_after
            assert reduction <= row.theoretical_recall_reduction + 1e-9
            assert row.theoretical_recall_reduction <= row.epsilon + 1e-9
            assert row.recall_after >= row.recall_before - row.epsilon - 1e-9

    def test_epsilon_out_of_range(self):
        split = small_split()
        with pytest.raises(ContractError):
            epsilon_sweep([0.5, 1.2], split)

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractError, match="at least one epsilon"):
            epsilon_sweep([], small_split())

    def test_singleton_grid_equals_composition(self):
        # one sweep point is exactly learn + apply + eval
        split = small_split(seed=13)
        epsilon = 0.1
        rows = epsilon_sweep([epsilon], split)
        rule_set = det_corr_rule_learn(epsilon, split.learn_table, split.learn_conds)
        revised, _ = apply_ruleset(rule_set, split.test_table, split.test_conds)
        after = compute_class_stats(revised)
        for row in (row for row in rows if row.split == "test"):
            i = split.test_table.classes.index(row.class_name)
            assert row.precision_after == pytest.approx(float(after.precision[i]), abs=1e-12)
            assert row.recall_after == pytest.approx(float(after.recall[i]), abs=1e-12)


class TestUnseenClassExperiment:
    def corpus(self):
        return generate_synthetic(
            seed=21, n_samples=600, noise=0.25, holdout_classes=["walk", "drive"]
        )

    def test_fraction_zero_is_zero_shot(self):
        corpus = self.corpus()
        rows = unseen_class_experiment(
            corpus.table, corpus.conditions, holdout=["walk", "drive"], fractions=[0.0, 0.2]
        )
        assert rows[0].fraction == 0.0  # the zero-shot row comes first
        assert len(rows) == 2  # 0.0 deduped with the implicit zero-shot row

    def test_baseline_constant_across_fractions(self):
        corpus = self.corpus()
        rows = unseen_class_experiment(
            corpus.table, corpus.conditions, holdout=["walk", "drive"], fractions=[0.1, 0.2]
        )
        baselines = {row.baseline_accuracy for row in rows}
        assert len(baselines) == 1

    def test_bad_fraction(self):
        corpus = self.corpus()
        with pytest.raises(ContractError):
            unseen_class_experiment(
                corpus.table, corpus.conditions, holdout=["walk"], fractions=[1.2]
            )

    def test_holdout_must_be_unpredictable(self):
        corpus = generate_synthetic(seed=21, n_samples=200, noise=0.25)
        with pytest.raises(ContractError):
            unseen_class_experiment(corpus.table, corpus.conditions, holdout=["walk"])

    def test_holdout_must_occur_in_ground_truth(self):
        corpus = self.corpus()
        with pytest.raises(ContractError):
            unseen_class_experiment(corpus.table, corpus.conditions, holdout=["walk", "scooter"])


class TestMetricsReport:
    def test_report_shape(self):
        table = make_table(["a", "b"], ["a", "b", "a"], ["a", "b", "b"])
        report = metrics_report(table, ScoringMode.STRICT)
        assert report.n_samples == 3
        assert {entry.class_name for entry in report.per_class} == {"a", "b"}
        assert report.accuracy == report.accuracy_strict
        assert report.error_detection is None
        assert error_detection_metrics([False, False, True], table).precision == 1.0
        assert report.accuracy_strict <= report.accuracy_novel_aware
