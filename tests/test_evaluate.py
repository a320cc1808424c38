import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import edcr.core
from edcr import (
    ConditionMatrix,
    ContractError,
    ErrorMetrics,
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
        with pytest.raises(ContractError, match=re.escape("flags must have shape (1,), got (2,)")):
            error_detection_metrics([True, False], table)
        three = make_table(["a"], ["a"] * 3, ["a"] * 3)
        with pytest.raises(ContractError, match=re.escape("flags must have shape (3,), got (3, 1)")):
            error_detection_metrics([[True], [False], [True]], three)

    def test_permutation_invariant(self):
        table = make_table(["a", "b"], ["a", "a", "b", "b"], ["a", "b", "b", "a"])
        flags = [False, True, False, True]
        base = error_detection_metrics(flags, table)
        order = [2, 0, 3, 1]
        shuffled = error_detection_metrics([flags[i] for i in order], table.subset(order))
        assert shuffled == base


    def test_flags_are_bits(self):
        """A flag is a bool or a 0/1 integer; a string, a fraction, another
        integer or None is not one, where a bool cast would raise it."""
        table = make_table(["a", "b"], ["a", "b"], ["a", "a"])
        assert error_detection_metrics([0, 1], table) == error_detection_metrics([False, True], table)
        assert error_detection_metrics([], make_table(["a"], [], [])) == ErrorMetrics(0.0, 0.0, 0.0)
        for flags in (["0", "0"], [0.5, 0.0], [2, 0], [None, 1]):
            with pytest.raises(ContractError, match="^flags must be bools or 0/1 integers"):
                error_detection_metrics(flags, table)


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

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda table: accuracy(table, "novel-aware"), "'novel-aware'"),
            (lambda table: metrics_report(table, mode="strict"), "'strict'"),
            (lambda table: metrics_report(table, mode=None), "None"),
            (lambda table: ScoringMode.from_string(1), "unknown scoring mode 1;"),
        ],
        ids=["accuracy_name", "metrics_report_name", "metrics_report_none", "from_string_int"],
    )
    def test_mode_must_be_a_scoring_mode(self, call, named):
        # one UNKNOWN on a novel class: strict 2/3, novel-aware 1
        table = make_table(["a"], ["a", "a", UNKNOWN_NAME], ["a", "a", "scooter"])
        assert accuracy(table, ScoringMode.NOVEL_AWARE) == 1.0
        with pytest.raises(ContractError, match=re.escape(named)):
            call(table)


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

    @pytest.mark.parametrize("fraction", ["0.5", None, True])
    def test_fraction_must_be_a_number(self, fraction):
        corpus = generate_synthetic(seed=0, n_samples=20, noise=0.2)
        message = f"learn_fraction must be a finite number in [0, 1], got {fraction!r}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            sequential_split(corpus.table, corpus.conditions, fraction)

    def test_conditions_must_align(self):
        """A matrix longer than the table is not cut to the table's rows."""
        corpus = generate_synthetic(seed=0, n_samples=10, noise=0.2)
        values = np.vstack([corpus.conditions.values, corpus.conditions.values[:2]])
        longer = ConditionMatrix(corpus.conditions.condition_names, values)
        with pytest.raises(ContractError, match="12 rows for a table of 10 samples"):
            sequential_split(corpus.table, longer, 0.5)

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

    def test_stats_computed_once_per_table(self):
        # both split tables once, then the two revised tables of each epsilon
        split = small_split()
        epsilons = [0.0, 0.1, 0.2]
        spy = mock.patch.object(edcr.core, "compute_class_stats", wraps=edcr.core.compute_class_stats)
        with spy as counted:
            epsilon_sweep(epsilons, split)
        assert counted.call_count == 2 + 2 * len(epsilons)

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


# holdout names that are not a sequence of distinct non-empty names; a bare
# string would be read as its characters
HOLDOUT_NAME_FAULTS = [
    (["walk", "walk"], "^duplicate holdout class name 'walk'$"),
    (["walk", ""], "^empty holdout class name in the sequence at index 1$"),
    ("walk", "^holdout class names must be a sequence of strings, not the string 'walk'"),
]


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

    @pytest.mark.parametrize("holdout, message", HOLDOUT_NAME_FAULTS)
    def test_holdout_names_are_checked(self, holdout, message):
        corpus = self.corpus()
        with pytest.raises(ContractError, match=message):
            unseen_class_experiment(corpus.table, corpus.conditions, holdout=holdout)

    def test_learn_fraction_must_be_a_number(self):
        corpus = self.corpus()
        with pytest.raises(ContractError, match=r"^learn_fraction must be a finite number in \[0, 1\], got '0.5'$"):
            unseen_class_experiment(corpus.table, corpus.conditions, holdout=["walk"], learn_fraction="0.5")

    def test_conditions_must_align(self):
        corpus = self.corpus()
        values = np.vstack([corpus.conditions.values, corpus.conditions.values[:2]])
        longer = ConditionMatrix(corpus.conditions.condition_names, values)
        with pytest.raises(ContractError, match="602 rows for a table of 600 samples"):
            unseen_class_experiment(corpus.table, longer, holdout=["walk"])

    def test_does_not_import_numpy_ma(self):
        """The ground-truth ids are found without ``np.unique``, which (numpy
        2.4, no index output) imports ``numpy.ma``, about 1 MB that stays
        resident; checked in a fresh interpreter, where the corpus alone does
        not import it."""
        code = (
            "import sys\n"
            "from edcr import generate_synthetic, unseen_class_experiment\n"
            "corpus = generate_synthetic(seed=3, n_samples=300, holdout_classes=['walk'])\n"
            "before = 'numpy.ma' in sys.modules\n"
            "unseen_class_experiment(corpus.table, corpus.conditions, holdout=['walk'])\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(edcr.core.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "False False\n"


class TestMetricsReport:
    def test_report_shape(self):
        table = make_table(["a", "b"], ["a", "b", "a"], ["a", "b", "b"])
        report = metrics_report(table, ScoringMode.STRICT)
        assert report.n_samples == 3
        assert report.stats is table.stats and report.stats.classes.names == ("a", "b")
        assert report.accuracy == report.accuracy_strict
        assert report.error_detection is None
        assert error_detection_metrics([False, False, True], table).precision == 1.0
        assert report.accuracy_strict <= report.accuracy_novel_aware
