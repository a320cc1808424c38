from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import edcr.learn

from edcr import (
    ConditionMatrix,
    ContractError,
    apply_ruleset,
    brute_force_correction,
    brute_force_detection,
    compute_class_stats,
    corr_rule_learn,
    correction_counts,
    det_corr_rule_learn,
    det_rule_learn,
    detection_counts,
    generate_synthetic,
)
from edcr.io import ruleset_to_dict
from edcr.learn import recall_budget
from helpers import (
    make_conds,
    make_table,
    random_instance,
    reference_corr_rule_learn,
    reference_det_rule_learn,
)


class TestLearningEpsilon:
    """``det_corr_rule_learn`` takes one epsilon for every class, or a mapping
    from class name to epsilon that names every class of the table."""

    def instance(self):
        table = make_table(["a", "b"], ["a", "a", "b", "b"], ["a", "b", "b", "a"])
        return table, make_conds(["c"], [[0, 1, 0, 1]])

    def test_scalar_out_of_range(self):
        with pytest.raises(ContractError, match="epsilon"):
            det_corr_rule_learn(1.5, *self.instance())

    def test_mapping_out_of_range(self):
        with pytest.raises(ContractError, match="epsilon"):
            det_corr_rule_learn({"a": -0.1, "b": 0.1}, *self.instance())
        with pytest.raises(ContractError, match="epsilon"):
            det_corr_rule_learn({"a": 0.1, "b": 0.1, "x": 2.0}, *self.instance())

    def test_mapping_missing_class(self):
        with pytest.raises(ContractError, match="no epsilon configured for class 'b'"):
            det_corr_rule_learn({"a": 0.1}, *self.instance())

    def test_scalar_broadcast(self):
        scalar = det_corr_rule_learn(0.2, *self.instance())
        mapping = det_corr_rule_learn({"a": 0.2, "b": 0.2}, *self.instance())
        assert scalar.epsilon == 0.2 and mapping.epsilon == {"a": 0.2, "b": 0.2}
        assert scalar.detection_rules == mapping.detection_rules
        assert scalar.correction_rules == mapping.correction_rules


class TestDetRuleLearn:
    def test_zero_budget_excludes_all(self):
        # every condition flags at least one correct prediction
        table = make_table(["a", "b"], ["a", "a", "a", "b"], ["a", "a", "b", "b"])
        conds = make_conds(["c1", "c2"], [[1, 0, 1, 0], [0, 1, 1, 0]])
        assert det_rule_learn(0, 0.0, table, conds) == ()

    def test_perfect_detector_selected_alone(self):
        # one condition true exactly on the errors of class a; the other costs NEG
        table = make_table(["a", "b"], ["a", "a", "a", "a", "b"], ["a", "a", "b", "b", "b"])
        conds = make_conds(["bad", "hit"], [[1, 0, 0, 0, 0], [0, 0, 1, 1, 0]])
        assert det_rule_learn(0, 0.0, table, conds) == ("hit",)
        counts = detection_counts(table, conds, 0, ("hit",))
        stats = compute_class_stats(table)
        assert counts.pos == stats.fp[0] and counts.neg == 0
        # the zero-cost max-gain condition survives any budget
        for epsilon in (0.0, 0.3, 1.0):
            assert "hit" in det_rule_learn(0, epsilon, table, conds)

    def test_skips_class_without_predictions(self):
        table = make_table(["a", "b"], ["a", "a"], ["a", "b"])
        conds = make_conds(["c"], [[1, 1]])
        assert det_rule_learn(1, 0.5, table, conds) == ()

    def test_skips_class_with_zero_recall(self):
        table = make_table(["a", "b"], ["b", "b"], ["a", "b"])
        conds = make_conds(["c"], [[1, 0]])
        assert det_rule_learn(0, 0.5, table, conds) == ()

    def test_epsilon_out_of_range(self):
        table = make_table(["a"], ["a"], ["a"])
        conds = make_conds(["c"], [[0]])
        with pytest.raises(ContractError):
            det_rule_learn(0, 1.2, table, conds)

    def test_twelve_sample_instance_against_oracle(self):
        # 8 a-predictions (5 TP, 3 FP), 4 b-predictions (1 FN_a);
        # budget at eps=0.2 is 0.2 * (5 + 1) = 1.2
        pred = ["a"] * 8 + ["b"] * 4
        gt = ["a"] * 5 + ["b"] * 3 + ["a", "b", "b", "b"]
        table = make_table(["a", "b"], pred, gt)
        conds = make_conds(
            ["c0", "c1", "c2", "c3"],
            [
                [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0],  # POS 2, NEG 0
                [1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],  # POS 1, NEG 1
                [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # POS 0, NEG 2
                [1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],  # POS 2, NEG 1
            ],
        )
        chosen = det_rule_learn(0, 0.2, table, conds)
        assert chosen == ("c0", "c1", "c3")
        counts = detection_counts(table, conds, 0, chosen)
        stats = compute_class_stats(table)
        budget = recall_budget(stats, 0, 0.2)
        assert counts.neg <= budget
        oracle = brute_force_detection(0, 0.2, table, conds)
        assert counts.pos <= oracle.pos
        assert oracle.pos == 3  # frozen from exhaustive enumeration of 2^4 subsets

    def test_zero_gain_feasible_condition_selected(self):
        # "never" flags no row: zero POS gain, zero NEG cost, still selected
        table = make_table(["a", "b"], ["a", "a", "a", "b"], ["a", "b", "b", "b"])
        conds = make_conds(["hit", "never"], [[0, 1, 1, 0], [0, 0, 0, 0]])
        assert det_rule_learn(0, 0.0, table, conds) == ("hit", "never")
        assert reference_det_rule_learn(0, 0.0, table, conds) == ("hit", "never")

    def test_ties_go_to_smallest_name(self):
        # "z" and "m" each catch the same error for one unit of NEG; the
        # budget at eps=0.5 is 0.5 * 2 = 1, so only the first pick fits
        table = make_table(["a", "b"], ["a", "a", "a", "a", "b"], ["a", "a", "b", "b", "b"])
        conds = make_conds(["z", "m"], [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0]])
        assert det_rule_learn(0, 0.5, table, conds) == ("m",)
        only_z = make_conds(["z"], [[1, 0, 1, 0, 0]])
        assert det_rule_learn(0, 0.5, table, only_z) == ("z",)

    @pytest.mark.parametrize("seed", range(8))
    def test_budget_safety_random(self, seed):
        rng = np.random.default_rng(seed)
        table, conds = random_instance(rng, n_max=150, max_conditions=6)
        stats = compute_class_stats(table)
        epsilon = float(rng.uniform(0.0, 0.4))
        for i in range(len(table.classes)):
            chosen = det_rule_learn(i, epsilon, table, conds, stats=stats)
            if not chosen:
                continue
            counts = detection_counts(table, conds, i, chosen)
            assert counts.neg <= recall_budget(stats, i, epsilon) + 1e-12


class TestCorrRuleLearn:
    def test_empty_candidates(self):
        table = make_table(["a", "b"], ["a", "b"], ["a", "b"])
        conds = make_conds(["c"], [[1, 1]])
        assert corr_rule_learn(0, [], table, conds) == ()

    def test_all_ratios_below_baseline(self):
        # baseline precision of a is 1.0; nothing can beat it
        table = make_table(["a", "b"], ["a", "a", "b", "b"], ["a", "a", "a", "b"])
        conds = make_conds(["c"], [[0, 0, 1, 1]])
        assert corr_rule_learn(0, [("c", 1)], table, conds) == ()

    def test_keeps_pure_pair_drops_diluting_pair(self):
        # (x, b) has confidence 1.0; (y, b) only 0.6 and would dilute the set
        pred = ["a", "a"] + ["b"] * 8
        gt = ["b", "b"] + ["a", "a", "a", "a", "a", "b", "b", "b"]
        table = make_table(["a", "b"], pred, gt)
        conds = make_conds(
            ["x", "y"],
            [[0, 0, 1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1, 1, 0]],
        )
        result = corr_rule_learn(0, [("x", 1), ("y", 1)], table, conds)
        assert result == (("x", 1),)
        assert correction_counts(table, conds, 0, result).confidence == 1.0

    def test_keeps_two_pure_pairs(self):
        pred = ["a", "a"] + ["b"] * 6
        gt = ["b", "b"] + ["a", "a", "a", "a", "b", "b"]
        table = make_table(["a", "b"], pred, gt)
        conds = make_conds(
            ["x", "z"],
            [[0, 0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 0, 0]],
        )
        result = corr_rule_learn(0, [("x", 1), ("z", 1)], table, conds)
        assert result == (("x", 1), ("z", 1))

    def test_singleton_ties_walk_in_pair_order(self):
        # (x, c), (y, b) and (y, c) each have singleton confidence 1/2 for a;
        # walked in (condition, class id) order they give another result
        # than walked in (class id, condition) order
        pred, gt = ["c", "b", "c", "b", "c", "a"], ["a", "b", "b", "a", "c", "c"]
        table = make_table(["a", "b", "c"], pred, gt)
        conds = make_conds(["x", "y"], [[1, 1, 0, 0, 1, 0], [1, 1, 1, 1, 0, 1]])
        cc_all = [("x", 1), ("y", 2), ("x", 2), ("y", 1)]
        assert corr_rule_learn(0, cc_all, table, conds) == (("x", 2), ("y", 1))
        assert reference_corr_rule_learn(0, cc_all, table, conds) == (("x", 2), ("y", 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_confidence_beats_baseline_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        table, conds = random_instance(rng, n_max=120, max_conditions=5)
        stats = compute_class_stats(table)
        cc_all = [
            (c, k)
            for c in conds.condition_names
            for k in range(len(table.classes))
            if rng.random() < 0.6
        ]
        for i in range(len(table.classes)):
            result = corr_rule_learn(i, cc_all, table, conds, stats=stats)
            if result:
                counts = correction_counts(table, conds, i, result)
                assert counts.confidence > stats.precision[i]
                oracle = brute_force_correction(i, cc_all, table, conds)
                assert counts.confidence <= oracle.confidence + 1e-12


class TestDetCorrRuleLearn:
    def test_zero_epsilon_and_costly_conditions_yield_nothing(self):
        table = make_table(["a", "b"], ["a", "a", "b", "b"], ["a", "b", "b", "a"])
        conds = make_conds(["c"], [[1, 1, 1, 1]])  # NEG >= 1 for both classes
        rule_set = det_corr_rule_learn(0.0, table, conds)
        assert rule_set.detection_rules == () and rule_set.correction_rules == ()

    def test_perfect_detector_feeds_correction_candidates(self):
        # single class; gt outside the class set marks the errors
        table = make_table(["a"], ["a"] * 6, ["a", "a", "a", "a", "x", "x"])
        conds = make_conds(["bad", "hit"], [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1]])
        rule_set = det_corr_rule_learn(0.0, table, conds)
        assert len(rule_set.detection_rules) == 1
        rule = rule_set.detection_rules[0]
        assert rule.target == 0 and rule.conditions == ("hit",)
        # the only candidate pair (hit, a) has zero confidence: no correction
        assert rule_set.correction_rules == ()

    def test_correction_pairs_come_from_detection_conditions(self):
        corpus = generate_synthetic(seed=3, n_samples=400, noise=0.3)
        rule_set = det_corr_rule_learn(0.15, corpus.table, corpus.conditions)
        selected = {
            (cond, rule.target)
            for rule in rule_set.detection_rules
            for cond in rule.conditions
        }
        for rule in rule_set.correction_rules:
            for pair in rule.pairs:
                assert pair in selected

    def test_recorded_stats_match_counts(self):
        corpus = generate_synthetic(seed=4, n_samples=300, noise=0.25)
        rule_set = det_corr_rule_learn(0.1, corpus.table, corpus.conditions)
        for rule in rule_set.detection_rules:
            counts = detection_counts(corpus.table, corpus.conditions, rule.target, rule.conditions)
            assert rule.class_support == counts.class_support
            assert rule.confidence == counts.confidence
        for rule in rule_set.correction_rules:
            counts = correction_counts(corpus.table, corpus.conditions, rule.target, rule.pairs)
            assert rule.support == counts.support
            assert rule.confidence == counts.confidence

    def test_recall_drop_within_epsilon_on_learning_table(self):
        # 200-sample synthetic replay: per-class recall drop stays within eps
        epsilon = 0.1
        corpus = generate_synthetic(seed=11, n_samples=200, noise=0.25)
        rule_set = det_corr_rule_learn(epsilon, corpus.table, corpus.conditions)
        before = compute_class_stats(corpus.table)
        revised, _ = apply_ruleset(rule_set, corpus.table, corpus.conditions)
        after = compute_class_stats(revised)
        for i in range(len(corpus.table.classes)):
            drop = float(before.recall[i]) - float(after.recall[i])
            assert drop <= epsilon + 1e-9

    def test_per_class_epsilon(self):
        corpus = generate_synthetic(seed=5, n_samples=300, noise=0.25)
        mapping = {name: 0.1 for name in corpus.table.classes.names}
        mapping["walk"] = 0.0
        rule_set = det_corr_rule_learn(mapping, corpus.table, corpus.conditions)
        assert rule_set.epsilon == mapping
        walk_rule = rule_set.detection_by_class.get(corpus.table.classes.index("walk"))
        if walk_rule is not None:
            counts = detection_counts(
                corpus.table, corpus.conditions, walk_rule.target, walk_rule.conditions
            )
            assert counts.neg == 0  # zero budget admits only zero-NEG conditions

    def test_requires_ground_truth(self):
        table = make_table(["a"], ["a"])
        conds = make_conds(["c"], [[1]])
        with pytest.raises(ContractError):
            det_corr_rule_learn(0.1, table, conds)


@st.composite
def learning_instances(draw):
    """A labeled table, a condition matrix, the candidate matrix and an
    epsilon (scalar or per class) that reach the learner's edge cases: n off
    a multiple of 64, m above 64, candidates cut down to the columns of a
    drawn pool (possibly empty, once each), classes never predicted or with
    zero recall, and all-false columns that are selected at no gain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    m = draw(st.integers(1, 140))
    k = draw(st.integers(1, 4))
    classes = [f"k{j}" for j in range(k)]
    gt = rng.integers(0, k + 1, size=n)  # id k is a class outside the set
    pred = np.where(rng.random(n) < draw(st.floats(0.0, 0.6)), rng.integers(0, k, size=n), gt % k)
    if k > 1 and draw(st.booleans()):
        pred[pred == k - 1] = 0  # class k-1 is never predicted
    if k > 1 and draw(st.booleans()):
        pred[(pred == 0) & (gt == 0)] = 1  # class 0 has zero recall
    error = pred != gt
    density = rng.choice([0.0, 0.02, 0.1, 0.4], size=m)
    boost = rng.choice([0.0, 0.3], size=m)
    values = rng.random((n, m)) < density + boost * error[:, None]
    names = [f"c{j}" for j in rng.permutation(m)]  # sorted order differs from column order
    table = make_table(classes, [classes[i] for i in pred], [(classes + ["novel"])[i] for i in gt])
    conds = candidates = ConditionMatrix(tuple(names), values)
    if draw(st.booleans()):
        pool = list(dict.fromkeys(rng.choice(names, size=int(rng.integers(0, 2 * m + 1))).tolist()))
        candidates = ConditionMatrix(tuple(pool), values[:, [names.index(name) for name in pool]])
    kind = draw(st.sampled_from(["zero", "one", "random", "per_class"]))
    epsilon = {"zero": 0.0, "one": 1.0, "random": float(rng.random())}.get(kind)
    if epsilon is None:
        epsilon = {name: float(rng.choice([0.0, 1.0, rng.random()])) for name in classes}
    return table, conds, candidates, epsilon


class TestIncrementalGreedyMatchesReference:
    """The packed-bitset learner against the learner that re-counts every
    candidate body from the table."""

    @given(learning_instances())
    def test_det_rule_learn(self, instance):
        table, _, conds, epsilon = instance
        stats = compute_class_stats(table)
        for i, name in enumerate(table.classes.names):
            eps = epsilon[name] if isinstance(epsilon, dict) else epsilon
            expected = reference_det_rule_learn(i, eps, table, conds, stats=stats)
            assert det_rule_learn(i, eps, table, conds, stats=stats) == expected

    @given(learning_instances())
    def test_det_corr_rule_learn(self, instance):
        table, _, conds, epsilon = instance
        with mock.patch.object(edcr.learn, "det_rule_learn", reference_det_rule_learn):
            expected = det_corr_rule_learn(epsilon, table, conds)
        assert ruleset_to_dict(det_corr_rule_learn(epsilon, table, conds)) == ruleset_to_dict(expected)


class TestPackedCorrectionMatchesReference:
    """The packed correction walk against the walk that calls
    ``correction_counts`` four times per pair."""

    @given(learning_instances(), st.integers(0, 2**32 - 1))
    def test_corr_rule_learn(self, instance, seed):
        table, conds, _, _ = instance
        rng = np.random.default_rng(seed)
        names = list(conds.condition_names)
        cc_all = [
            (names[int(rng.integers(len(names)))], int(rng.integers(len(table.classes))))
            for _ in range(int(rng.integers(0, 25)))
        ]
        cc_all += cc_all[: int(rng.integers(0, 3))]  # repeated pairs collapse
        stats = compute_class_stats(table)
        for i in range(len(table.classes)):
            expected = reference_corr_rule_learn(i, cc_all, table, conds, stats=stats)
            assert corr_rule_learn(i, cc_all, table, conds, stats=stats) == expected

    @given(learning_instances())
    def test_det_corr_rule_learn(self, instance):
        table, _, conds, epsilon = instance
        with mock.patch.object(edcr.learn, "corr_rule_learn", reference_corr_rule_learn):
            expected = det_corr_rule_learn(epsilon, table, conds)
        assert ruleset_to_dict(det_corr_rule_learn(epsilon, table, conds)) == ruleset_to_dict(expected)


class TestMetamorphic:
    @given(learning_instances(), st.integers(0, 2**32 - 1))
    def test_column_order_leaves_rules_unchanged(self, instance, seed):
        table, conds, _, epsilon = instance
        order = np.random.default_rng(seed).permutation(conds.n_conditions)
        shuffled = ConditionMatrix(
            tuple(conds.condition_names[j] for j in order), conds.values[:, order]
        )
        before = det_corr_rule_learn(epsilon, table, conds)
        after = det_corr_rule_learn(epsilon, table, shuffled)
        assert after.detection_rules == before.detection_rules
        assert after.correction_rules == before.correction_rules
        assert ruleset_to_dict(after)["conditions"] == list(shuffled.condition_names)

    @given(learning_instances())
    def test_detection_neg_within_integer_budget(self, instance):
        table, _, conds, epsilon = instance
        stats = compute_class_stats(table)
        for rule in det_corr_rule_learn(epsilon, table, conds).detection_rules:
            i = rule.target
            neg = detection_counts(table, conds, i, rule.conditions).neg
            eps = epsilon[table.classes.names[i]] if isinstance(epsilon, dict) else epsilon
            assert neg <= eps * (int(stats.tp[i]) + int(stats.fn[i]))

    @given(learning_instances())
    def test_correction_bodies_lie_inside_detection_flags(self, instance):
        """Each pair (c, r) of a learned correction has c among the conditions
        of class r's detection rule, so every row a correction body matches is
        one that detection flags: correcting only flagged rows would change
        nothing on a learned rule set."""
        table, _, conds, epsilon = instance
        rule_set = det_corr_rule_learn(epsilon, table, conds)
        for rule in rule_set.correction_rules:
            for cond, pair_class in rule.pairs:
                assert cond in rule_set.detection_by_class[pair_class].conditions
        _, trace = apply_ruleset(rule_set, table, conds)
        fired = np.array([names != "" for names in trace.fired_names])[trace.fired]
        assert not (fired & ~trace.flagged).any()
