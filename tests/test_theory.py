from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edcr import (
    ContractError,
    DegenerateStatsError,
    apply_ruleset,
    brute_force_correction,
    brute_force_detection,
    build_correction_scenario,
    build_detection_scenario,
    check_submodular,
    compute_class_stats,
    correction_precision_delta,
    correction_recall_post,
    det_corr_rule_learn,
    epsilon_sweep,
    generate_synthetic,
    precision_delta_bound,
    precision_delta_exact,
    recall_delta_exact,
    theorem_report,
)
from edcr import ConditionMatrix, io, theory
from edcr.cli import main
from edcr.evaluate import Split
import helpers
from helpers import (
    make_conds,
    make_table,
    random_instance,
    reference_brute_force_correction,
    reference_brute_force_detection,
    reference_check_submodular,
)


class TestClosedForms:
    def test_precision_delta_trivials(self):
        assert precision_delta_exact(0.0, 0.9, 0.8) == 0.0
        assert precision_delta_exact(0.3, 0.25, 0.75) == pytest.approx(0.0)  # c = 1 - P

    def test_precision_delta_value(self):
        assert precision_delta_exact(0.2, 0.9, 0.8) == pytest.approx(0.175)

    def test_precision_delta_degenerate_support(self):
        with pytest.raises(DegenerateStatsError):
            precision_delta_exact(1.0, 0.9, 0.8)

    def test_precision_bound_values(self):
        assert precision_delta_bound(0.2, 0.0) == 0.0
        assert precision_delta_bound(0.2, 0.9) == pytest.approx(0.18)
        assert precision_delta_exact(0.2, 0.9, 0.8) <= precision_delta_bound(0.2, 0.9)

    @given(
        st.floats(0.0, 0.99),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_bound_holds_whenever_support_small(self, s, c, p):
        if s <= 1.0 - p:
            assert precision_delta_exact(s, c, p) <= precision_delta_bound(s, c) + 1e-12

    def test_recall_delta_trivials(self):
        assert recall_delta_exact(0.25, 1.0, 0.8, 0.8) == 0.0
        assert recall_delta_exact(0.0, 0.3, 0.8, 0.8) == 0.0

    def test_recall_delta_value(self):
        assert recall_delta_exact(0.25, 0.6, 0.8, 0.8) == pytest.approx(0.1)

    def test_recall_delta_zero_precision(self):
        with pytest.raises(DegenerateStatsError):
            recall_delta_exact(0.25, 0.6, 0.8, 0.0)

    def test_correction_precision_trivials(self):
        assert correction_precision_delta(0.1, 0.7, 0.7, 0.3) == 0.0  # c = P
        assert correction_precision_delta(0.0, 0.9, 0.7, 0.3) == 0.0

    def test_correction_precision_value(self):
        assert correction_precision_delta(0.1, 0.9, 0.7, 0.3) == pytest.approx(0.05)

    def test_correction_precision_degenerate(self):
        with pytest.raises(DegenerateStatsError):
            correction_precision_delta(0.0, 0.9, 0.7, 0.0)

    def test_correction_recall_post(self):
        assert correction_recall_post(8, 2, 0) == pytest.approx(0.8)
        assert correction_recall_post(8, 2, 1) == pytest.approx(0.9)
        with pytest.raises(DegenerateStatsError):
            correction_recall_post(0, 0, 1)


class TestDetectionReplay:
    def test_precision_delta_replayed(self):
        # 50 predictions of a with s=0.2, c=0.9, P=0.8: measured delta is 0.175
        scenario = build_detection_scenario(
            n_predicted=50, class_support=0.2, confidence=0.9, precision=0.8
        )
        before = compute_class_stats(scenario.table)
        revised, _ = apply_ruleset(scenario.ruleset(), scenario.table, scenario.conds)
        after = compute_class_stats(revised)
        i = scenario.rule.target
        measured = float(after.precision[i]) - float(before.precision[i])
        assert measured == pytest.approx(0.175, abs=1e-9)
        assert measured == pytest.approx(precision_delta_exact(0.2, 0.9, 0.8), abs=1e-9)
        assert measured <= precision_delta_bound(0.2, 0.9)

    def test_recall_delta_replayed(self):
        scenario = build_detection_scenario(
            n_predicted=80, class_support=0.25, confidence=0.6, precision=0.8, recall=0.8
        )
        before = compute_class_stats(scenario.table)
        revised, _ = apply_ruleset(scenario.ruleset(), scenario.table, scenario.conds)
        after = compute_class_stats(revised)
        i = scenario.rule.target
        measured = float(after.recall[i]) - float(before.recall[i])
        assert measured == pytest.approx(-0.1, abs=1e-9)
        assert measured == pytest.approx(-recall_delta_exact(0.25, 0.6, 0.8, 0.8), abs=1e-9)

    def test_non_realizable_rejected(self):
        with pytest.raises(ContractError):
            build_detection_scenario(n_predicted=10, class_support=0.33, confidence=0.5, precision=0.8)
        with pytest.raises(ContractError):
            # POS would exceed FP
            build_detection_scenario(n_predicted=10, class_support=0.8, confidence=1.0, precision=0.9)


class TestCorrectionReplay:
    def test_precision_delta_replayed(self):
        scenario = build_correction_scenario(
            n_total=100, prior=0.3, precision=0.7, support=0.1, confidence=0.9
        )
        before = compute_class_stats(scenario.table)
        revised, _ = apply_ruleset(scenario.ruleset(), scenario.table, scenario.conds)
        after = compute_class_stats(revised)
        i = scenario.rule.target
        measured = float(after.precision[i]) - float(before.precision[i])
        assert measured == pytest.approx(0.05, abs=1e-9)
        assert measured == pytest.approx(
            correction_precision_delta(0.1, 0.9, 0.7, 0.3), abs=1e-9
        )

    def test_recall_formula_replayed(self):
        scenario = build_correction_scenario(
            n_total=100, prior=0.3, precision=0.7, support=0.1, confidence=0.9, extra_fn=5
        )
        before = compute_class_stats(scenario.table)
        revised, _ = apply_ruleset(scenario.ruleset(), scenario.table, scenario.conds)
        after = compute_class_stats(revised)
        i = scenario.rule.target
        tp, fn = int(before.tp[i]), int(before.fn[i])
        pos = 9  # confidence 0.9 of a 10-row body
        assert float(after.recall[i]) == pytest.approx(correction_recall_post(tp, fn, pos), abs=1e-9)

    def test_sign_iff_confidence_beats_precision(self):
        for confidence, precision in [(0.9, 0.7), (0.5, 0.7), (0.7, 0.7)]:
            delta = correction_precision_delta(0.1, confidence, precision, 0.3)
            if confidence > precision:
                assert delta > 0
            elif confidence < precision:
                assert delta < 0
            else:
                assert delta == 0


class TestCorrectionScenarios:
    def test_replay_matches_closed_form(self):
        assert theory.check_correction_scenarios(20, seed=0)

    def test_wrong_closed_form_fails(self):
        def off(*args):
            return correction_precision_delta(*args) + 1e-6

        with mock.patch.object(theory, "correction_precision_delta", off):
            assert not theory.check_correction_scenarios(3, seed=0)

    @pytest.mark.parametrize("n_scenarios, seed", [(-1, 0), (1, -1)])
    def test_bad_count_or_seed(self, n_scenarios, seed):
        with pytest.raises(ContractError):
            theory.check_correction_scenarios(n_scenarios, seed)


class TestSubmodularity:
    def test_single_condition_vacuous(self):
        table = make_table(["a", "b"], ["a", "a"], ["a", "b"])
        conds = make_conds(["c"], [[1, 0]])
        for quantity in ("pos", "neg", "bod"):
            assert check_submodular(quantity, 0, table, conds).passed

    def test_random_instance_exhaustive(self):
        rng = np.random.default_rng(17)
        table, conds = random_instance(rng, n_max=50, max_conditions=8)
        for quantity in ("pos", "neg", "bod"):
            report = check_submodular(quantity, 0, table, conds)
            assert report.exhaustive and report.passed

    def test_adversarial_overlap_exhaustive(self):
        # nested, duplicated, and complementary coverage
        n = 40
        rng = np.random.default_rng(3)
        base = rng.random(n) < 0.5
        cols = [
            base,
            base | (rng.random(n) < 0.3),
            ~base,
            base.copy(),
            np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool),
        ]
        pred = ["a"] * (n // 2) + ["b"] * (n - n // 2)
        gt = ["a" if rng.random() < 0.6 else "b" for _ in range(n)]
        table = make_table(["a", "b"], pred, gt)
        conds = make_conds([f"c{j}" for j in range(len(cols))], cols)
        for quantity in ("pos", "neg", "bod"):
            report = check_submodular(quantity, 0, table, conds)
            assert report.exhaustive and report.passed

    def test_sampled_mode_for_large_universe(self):
        rng = np.random.default_rng(9)
        n, m = 60, 14
        cols = [rng.random(n) < rng.uniform(0.1, 0.6) for _ in range(m)]
        pred = ["a"] * n
        gt = ["a" if rng.random() < 0.7 else "x" for _ in range(n)]
        table = make_table(["a"], pred, gt)
        conds = make_conds([f"c{j}" for j in range(m)], cols)
        report = check_submodular("pos", 0, table, conds, trials=500)
        assert not report.exhaustive and report.passed

    def test_sampled_mode_beyond_64_conditions(self):
        rng = np.random.default_rng(21)
        n, m = 80, 130  # three 64-bit words per row
        cols = [rng.random(n) < 0.05 for _ in range(m)]
        gt = ["a" if rng.random() < 0.7 else "b" for _ in range(n)]
        table = make_table(["a", "b"], ["a"] * n, gt)
        conds = make_conds([f"c{j}" for j in range(m)], cols)
        for quantity in ("pos", "neg", "bod"):
            report = check_submodular(quantity, 0, table, conds, trials=200)
            assert not report.exhaustive and report.passed and report.pairs_checked == 200

    def test_negative_seed_rejected(self):
        table = make_table(["a", "b"], ["a", "a"], ["a", "b"])
        conds = make_conds(["c"], [[1, 0]])
        with pytest.raises(ContractError, match="seed"):
            check_submodular("pos", 0, table, conds, seed=-1)

    @given(st.integers(0, 2**32 - 1))
    def test_packed_words_count_like_any(self, seed):
        from edcr.core import _pack_rows
        from edcr.theory import _cover_counts

        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(0, 40)), int(rng.integers(1, 200))
        rows = rng.random((n, m)) < rng.choice([0.01, 0.1])
        subsets = rng.random((int(rng.integers(1, 20)), m)) < 0.5
        expected = [int((rows & subset).any(axis=1).sum()) for subset in subsets]
        assert _cover_counts(_pack_rows(rows), _pack_rows(subsets)).tolist() == expected


@st.composite
def counting_instances(draw, max_conditions=140):
    """A labeled table and conditions with empty, full and repeated columns,
    so that many rows share a pattern and many subsets tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    m = draw(st.integers(1, min(max_conditions, draw(st.sampled_from([8, 140])))))
    k = draw(st.integers(1, 3))
    classes = [f"k{j}" for j in range(k)]
    gt = rng.integers(0, k + 1, size=n)  # id k is a class outside the set
    pred = np.where(rng.random(n) < 0.4, rng.integers(0, k, size=n), gt % k)
    values = rng.random((n, m)) < rng.choice([0.0, 0.05, 0.3, 1.0], size=m)
    values[:, rng.random(m) < 0.2] = values[:, [0]]
    table = make_table(classes, [classes[i] for i in pred], [(classes + ["novel"])[i] for i in gt])
    return table, ConditionMatrix(tuple(f"c{j}" for j in range(m)), values)


class TestKernelMatchesReference:
    """The distinct-pattern kernel against the checks and oracles that count
    one subset at a time."""

    @given(counting_instances(), st.integers(0, 10), st.integers(0, 2**32 - 1), st.sampled_from([1, 500, None]))
    def test_check_submodular(self, instance, exhaustive_limit, seed, block_elements):
        table, conds = instance
        with mock.patch.object(theory, "_BLOCK_ELEMENTS", block_elements or theory._BLOCK_ELEMENTS):
            for quantity in ("pos", "neg", "bod"):
                args = (quantity, 0, table, conds, 300, seed, exhaustive_limit)
                assert check_submodular(*args) == reference_check_submodular(*args)

    @pytest.mark.parametrize(
        "m, weights, terms, seed, kind",
        [
            (5, [1] * 5, [(0, 4, 5)], 0, "lattice"),
            (70, [1] * 70, [(0, 69, 5)], 0, "lattice"),
            (5, [-1] * 5, [], 0, "monotone"),
            (70, [-1] * 70, [], 0, "monotone"),
            # both checks fail on the first failing row or pair
            (5, [10, 0, 0, 0, 0], [(0, 4, 3), (0, 1, -5)], 0, "lattice"),
            (70, np.random.default_rng(31).integers(-3, 4, size=70), [(0, 69, 4)], 31, "lattice"),
        ],
    )
    def test_counterexample_reached(self, m, weights, terms, seed, kind):
        # real coverage counts always pass, so counts that fail are fed to
        # both scans: a positive pair term breaks the lattice inequality,
        # negative weights break monotonicity
        report = self.fed(m, np.asarray(weights), terms, exhaustive_limit=12, seed=seed, quantity="pos")
        assert report.counterexample[0] == kind

    @given(
        st.integers(1, 70), st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(-40, 3),
        st.integers(-5, 5), st.sampled_from(["pos", "neg", "bod"]),
    )
    def test_counterexample_scan_order(self, m, seed, exhaustive_limit, first_last, first_second, quantity):
        weights = np.random.default_rng(seed).choice([-1, 1, 2, 3, 4, 5, 6, 7], size=m, p=[0.02] + [0.14] * 7)
        terms = [(0, m - 1, first_last), (0, 1 % m, first_second)]
        self.fed(m, weights, terms, exhaustive_limit, seed, quantity)

    @staticmethod
    def fed(m, weights, terms, exhaustive_limit, seed, quantity):
        """Both scans fed f(S) = the sum of ``weights`` over S, plus ``coef``
        for each term (i, j, coef) with conditions i and j in S; asserts they
        report the same pair and returns the report."""
        def fake(subsets):
            words = np.ascontiguousarray(subsets)
            bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little", count=m).astype(np.int64)
            return bits @ weights + sum(coef * bits[:, i] * bits[:, j] for i, j, coef in terms)

        table = make_table(["a"], ["a"] * 3, ["a", "x", "a"])
        conds = ConditionMatrix(tuple(f"c{j}" for j in range(m)), np.zeros((3, m), dtype=bool))
        args = (quantity, 0, table, conds, 300, seed, exhaustive_limit)
        with mock.patch.object(theory, "_cover_counts", lambda rows, subsets: fake(subsets)), \
                mock.patch.object(helpers, "_covered", lambda rows, subset: int(fake(subset[None])[0])):
            report = check_submodular(*args)
            assert report == reference_check_submodular(*args)
        return report

    @given(
        counting_instances(max_conditions=8),
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_brute_force(self, instance, epsilon, seed):
        table, conds = instance
        rng = np.random.default_rng(seed)
        names = list(conds.condition_names)
        det_conds = conds
        if rng.random() >= 0.5:  # a candidate pool: the matrix of just those columns
            pool = list(dict.fromkeys(rng.choice(names, size=int(rng.integers(0, 10))).tolist()))
            det_conds = ConditionMatrix(tuple(pool), conds.values[:, [names.index(c) for c in pool]])
        cc_all = [
            (names[int(rng.integers(len(names)))], int(rng.integers(len(table.classes))))
            for _ in range(int(rng.integers(0, 9)))
        ]
        for i in range(len(table.classes)):
            args = (i, epsilon, table, det_conds)
            assert brute_force_detection(*args) == reference_brute_force_detection(*args)
            args = (i, cc_all, table, conds)
            assert brute_force_correction(*args) == reference_brute_force_correction(*args)


class TestBruteForce:
    def test_single_feasible_condition(self):
        table = make_table(["a", "b"], ["a", "a", "a"], ["a", "b", "b"])
        conds = make_conds(["good", "costly"], [[0, 1, 1], [1, 1, 0]])
        result = brute_force_detection(0, 0.0, table, conds)
        assert result.conditions == ("good",) and result.pos == 2 and result.neg == 0

    def test_fewer_conditions_win_ties(self):
        # {c0, c1} and {c2} both catch every error at NEG 0; the smaller set
        # wins although its bitmask is larger
        table = make_table(["a", "b"], ["a", "a", "a"], ["a", "b", "b"])
        conds = make_conds(["c0", "c1", "c2"], [[0, 1, 0], [0, 0, 1], [0, 1, 1]])
        assert brute_force_detection(0, 0.0, table, conds).conditions == ("c2",)
        assert reference_brute_force_detection(0, 0.0, table, conds).conditions == ("c2",)

    def test_budget_excludes_everything(self):
        table = make_table(["a", "b"], ["a", "a"], ["a", "b"])
        conds = make_conds(["c"], [[1, 0]])  # NEG 1 at zero budget
        result = brute_force_detection(0, 0.0, table, conds)
        assert result.conditions == () and result.pos == 0

    def test_size_limit(self):
        n = 4
        table = make_table(["a"], ["a"] * n, ["a"] * n)
        conds = make_conds([f"c{j}" for j in range(17)], [[0] * n for _ in range(17)])
        with pytest.raises(ContractError):
            brute_force_detection(0, 0.1, table, conds)

    def test_correction_single_pair_threshold(self):
        # pair ratio 1.0 beats P_a = 0.5: selected
        table = make_table(["a", "b"], ["a", "a", "b", "b"], ["a", "b", "a", "a"])
        conds = make_conds(["c"], [[0, 0, 1, 1]])
        result = brute_force_correction(0, [("c", 1)], table, conds)
        assert result.pairs == (("c", 1),)
        # a perfect baseline cannot be strictly beaten even by a pure pair
        perfect = make_table(["a", "b"], ["a", "b", "b"], ["a", "a", "a"])
        pconds = make_conds(["c"], [[0, 1, 1]])
        assert brute_force_correction(0, [("c", 1)], perfect, pconds).pairs == ()

    def test_correction_zero_pos_pairs(self):
        table = make_table(["a", "b"], ["a", "b", "b"], ["a", "b", "b"])
        conds = make_conds(["c"], [[0, 1, 1]])
        result = brute_force_correction(0, [("c", 1)], table, conds)
        assert result.pairs == () and result.pos == 0

    def test_correction_size_limit(self):
        table = make_table(["a", "b"], ["a", "b"], ["a", "b"])
        conds = make_conds(["c"], [[1, 1]])
        pairs = [(f"c", 1)] * 1  # duplicates collapse; build distinct conds instead
        big = make_conds([f"c{j}" for j in range(17)], [[1, 1] for _ in range(17)])
        with pytest.raises(ContractError):
            brute_force_correction(0, [(f"c{j}", 1) for j in range(17)], table, big)


class TestTheoremReport:
    def test_synthetic_corpus_all_pass(self):
        corpus = generate_synthetic(seed=2, n_samples=300, noise=0.25)
        reports = theorem_report(corpus.table, corpus.conditions, epsilon=0.1)
        assert len(reports) == len(corpus.table.classes)
        assert all(report.passed for report in reports)
        assert any(not report.note for report in reports)  # at least one real rule


def degenerate_instance(prefix="s"):
    """Class a is predicted 4 times with 1 right (P = 1/4) and missed once
    (R = 1/2).  Condition all_a holds on every prediction of a, so at epsilon
    0.5 (a NEG budget of 1) the learner takes it: s_a = 1 and c = 3/4."""
    pred = ["a"] * 4 + ["b"] * 5
    gt = ["a", "b", "b", "b", "a", "b", "b", "b", "b"]
    table = make_table(["a", "b"], pred, gt, ids=[f"{prefix}{k}" for k in range(len(pred))])
    return table, make_conds(["all_a"], [[1, 1, 1, 1, 0, 0, 0, 0, 0]])


class TestDegenerateDetectionRule:
    """A learned rule with s_i = 1 has no defined precision change but a
    recall decrease of (1 - c) * R / P; ``theory.detection_effect`` gives both
    to ``edcr learn``, ``theorem_report`` and the sweep's recall overlay."""

    def test_detection_effect(self):
        table, conds = degenerate_instance()
        rule = det_corr_rule_learn(0.5, table, conds).detection_by_class[0]
        assert (rule.conditions, rule.class_support, rule.confidence) == (("all_a",), 1.0, 0.75)
        assert theory.detection_effect(rule, compute_class_stats(table)) == (None, 0.5)

    def test_theorem_report(self):
        report = theorem_report(*degenerate_instance(), epsilon=0.5)[0]
        assert report.note == "degenerate: rule covers every prediction of the class" and report.passed
        assert (report.class_support, report.confidence, report.bound_c_times_support) == (1.0, 0.75, 0.75)
        assert (report.predicted_delta_precision, report.predicted_delta_recall) == (0.0, 0.5)
        assert (report.empirical_delta_precision, report.empirical_delta_recall) == (0.0, 0.0)

    def test_learn_console_line(self, tmp_path, capsys):
        table, conds = degenerate_instance()
        io.write_predictions(tmp_path / "p.csv", table)
        io.write_conditions(tmp_path / "c.csv", table, conds)
        argv = ["learn", "--predictions", tmp_path / "p.csv", "--conditions", tmp_path / "c.csv",
                "--epsilon", "0.5", "--out", tmp_path / "out"]
        assert main([str(part) for part in argv]) == 0
        assert "a: detect via ['all_a'] s_i=1.0000 c=0.7500 (degenerate stats)\n" in capsys.readouterr().out

    def test_sweep_recall_overlay(self):
        rows = epsilon_sweep([0.5], Split(*degenerate_instance("l"), *degenerate_instance("t")))
        overlay = {(row.class_name, row.split): row.theoretical_recall_reduction for row in rows}
        assert overlay == {("a", "learn"): 0.5, ("a", "test"): 0.5, ("b", "learn"): 0.0, ("b", "test"): 0.0}
