"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here exactly as stated; nothing is deferred to later
calibration.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and the logged (unpinned) magnitudes.
"""
import numpy as np
import pytest

from edcr import (
    RuleSet,
    apply_ruleset,
    build_correction_scenario,
    check_submodular,
    compute_class_stats,
    corr_rule_learn,
    correction_counts,
    correction_precision_delta,
    correction_recall_post,
    det_corr_rule_learn,
    det_rule_learn,
    detection_counts,
    epsilon_sweep,
    f1_score,
    generate_synthetic,
    max_speeds,
    precision_delta_bound,
    precision_delta_exact,
    recall_delta_exact,
    sequential_split,
    unseen_class_experiment,
)
from edcr import io
from edcr.cli import main
from edcr.rules import DetectionRule
from helpers import (
    make_conds,
    make_table,
    random_instance,
    reference_brute_force_correction,
    reference_brute_force_detection,
)

EXACT = 1e-9


def test_criterion_1_error_f1_arithmetic_pins():
    """Reference error-detection F1 values reproduce from their P/R to 3 decimals."""
    assert round(f1_score(0.996, 0.780), 3) == 0.875
    assert round(f1_score(0.987, 0.982), 3) == 0.984
    print("ACCEPTANCE 1 error-F1 arithmetic pins: PASS")


def test_criterion_2_detection_theorem_exactness():
    """On >=100 random tables a learned single detection rule's measured
    precision/recall deltas equal the closed forms to 1e-9, and the c*s_i
    bound holds whenever s_i <= 1 - P_i."""
    checked = 0
    bound_checked = 0
    seed = 0
    while checked < 100 and seed < 500:
        rng = np.random.default_rng(seed)
        seed += 1
        table, conds = random_instance(rng, n_max=500, max_conditions=8)
        stats = table.stats
        epsilon = float(rng.uniform(0.02, 0.4))
        for i in range(len(table.classes)):
            if stats.n_predicted[i] == 0 or stats.recall[i] == 0.0 or stats.precision[i] == 0.0:
                continue
            dc = det_rule_learn(i, epsilon, table, conds)
            if not dc:
                continue
            counts = detection_counts(table, conds, i, dc)
            if counts.class_support == 1.0:
                continue
            rule = DetectionRule(i, dc, counts.class_support, counts.confidence)
            rules = RuleSet(table.classes, conds.condition_names, epsilon, detection_rules=(rule,))
            revised, _ = apply_ruleset(rules, table, conds)
            after = compute_class_stats(revised)
            p_i, r_i = float(stats.precision[i]), float(stats.recall[i])
            measured_dp = float(after.precision[i]) - p_i
            measured_dr = float(after.recall[i]) - r_i
            predicted_dp = precision_delta_exact(counts.class_support, counts.confidence, p_i)
            predicted_dr = recall_delta_exact(counts.class_support, counts.confidence, r_i, p_i)
            assert abs(measured_dp - predicted_dp) <= EXACT
            assert abs(measured_dr - (-predicted_dr)) <= EXACT
            if counts.class_support <= 1.0 - p_i:
                assert measured_dp <= precision_delta_bound(
                    counts.class_support, counts.confidence
                ) + EXACT
                bound_checked += 1
            checked += 1
    assert checked >= 100
    print(f"ACCEPTANCE 2 theorem exactness ({checked} rules, {bound_checked} bound checks): PASS")


def test_criterion_3_budget_safety_sweep():
    """For every epsilon and class on the pinned synthetic corpus, learn-split
    recall reduction <= TR <= epsilon, with TR equal to the closed form."""
    corpus = generate_synthetic(seed=7, n_samples=2000, noise=0.25)
    split = sequential_split(corpus.table, corpus.conditions, 0.5)
    epsilons = [0.0, 0.05, 0.1, 0.2, 0.3]
    learn_stats = compute_class_stats(split.learn_table)
    rows = [row for row in epsilon_sweep(epsilons, split) if row.split == "learn"]
    assert {row.epsilon for row in rows} == set(epsilons)
    for row in rows:
        reduction = row.recall_before - row.recall_after
        assert reduction <= row.theoretical_recall_reduction + EXACT
        assert row.theoretical_recall_reduction <= row.epsilon + EXACT
    # the emitted TR column is exactly the closed form of the learned rule
    for epsilon in epsilons:
        rule_set = det_corr_rule_learn(
            epsilon, split.learn_table, split.learn_conds
        )
        for row in rows:
            if row.epsilon != epsilon:
                continue
            i = split.learn_table.classes.index(row.class_name)
            rule = rule_set.detection_by_class.get(i)
            if rule is None:
                assert row.theoretical_recall_reduction == 0.0
            else:
                expected = recall_delta_exact(
                    rule.class_support,
                    rule.confidence,
                    float(learn_stats.recall[i]),
                    float(learn_stats.precision[i]),
                )
                assert row.theoretical_recall_reduction == expected
    print(f"ACCEPTANCE 3 budget safety over eps={epsilons}: PASS")


def test_criterion_4_greedy_vs_oracle():
    """Greedy learners on 50 random instances: detection never exceeds the
    oracle's NEG budget; correction confidence beats baseline precision
    whenever non-empty.  Greedy/optimal ratios are reported, not pinned."""
    pos_ratios = []
    conf_ratios = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        table, conds = random_instance(rng, n_max=200, max_conditions=10)
        stats = table.stats
        epsilon = float(rng.uniform(0.05, 0.4))
        i = int(rng.integers(0, len(table.classes)))
        dc = det_rule_learn(i, epsilon, table, conds)
        oracle = reference_brute_force_detection(i, epsilon, table, conds)
        if dc:
            counts = detection_counts(table, conds, i, dc)
            assert counts.neg <= oracle.budget
            assert counts.pos <= oracle.pos
            if oracle.pos > 0:
                pos_ratios.append(counts.pos / oracle.pos)

        cc_all = [
            (c, k)
            for c in conds.condition_names
            for k in range(len(table.classes))
            if rng.random() < 0.25
        ][:10]
        cc = corr_rule_learn(i, cc_all, table, conds)
        corr_oracle = reference_brute_force_correction(i, cc_all, table, conds)
        if cc:
            counts = correction_counts(table, conds, i, cc)
            assert counts.confidence > float(stats.precision[i])
            assert counts.confidence <= corr_oracle.confidence + EXACT
            conf_ratios.append(counts.confidence / corr_oracle.confidence)
    assert pos_ratios and conf_ratios
    print(
        "ACCEPTANCE 4 greedy vs oracle: PASS "
        f"(POS ratio mean={np.mean(pos_ratios):.3f} min={min(pos_ratios):.3f} on {len(pos_ratios)}; "
        f"confidence ratio mean={np.mean(conf_ratios):.3f} min={min(conf_ratios):.3f} on {len(conf_ratios)})"
    )


def test_criterion_5_submodularity_exhaustive():
    """Exhaustive subset-pair lattice, monotonicity, and normalization checks
    for POS/NEG/BOD with |C| <= 12: zero counterexamples."""
    instances = []
    rng = np.random.default_rng(17)
    instances.append(random_instance(rng, n_max=50, max_conditions=10))

    n = 60
    rng = np.random.default_rng(23)
    base = rng.random(n) < 0.4
    cols = [
        base,
        base | (rng.random(n) < 0.3),
        base | (rng.random(n) < 0.6),
        ~base,
        base.copy(),
        np.ones(n, dtype=bool),
        np.zeros(n, dtype=bool),
    ]
    while len(cols) < 12:
        cols.append(rng.random(n) < rng.uniform(0.1, 0.7))
    pred = ["a" if k < n // 2 else "b" for k in range(n)]
    gt = ["a" if rng.random() < 0.6 else "b" for _ in range(n)]
    instances.append(
        (make_table(["a", "b"], pred, gt), make_conds([f"c{j}" for j in range(12)], cols))
    )

    pairs_total = 0
    for table, conds in instances:
        for quantity in ("pos", "neg", "bod"):
            for i in range(len(table.classes)):
                report = check_submodular(quantity, i, table, conds)
                assert report.exhaustive
                assert report.passed, report.counterexample
                pairs_total += report.pairs_checked
    print(f"ACCEPTANCE 5 submodularity exhaustive ({pairs_total} subset pairs): PASS")


def test_criterion_6_unseen_class_direction():
    """On the pinned holdout protocol, zero-shot EDCR beats the baseline and
    few-shot at fraction 0.2 beats zero-shot (NOVEL_AWARE accuracy)."""
    corpus = generate_synthetic(
        seed=7, n_samples=2000, noise=0.25, holdout_classes=["walk", "drive"]
    )
    zero, few = unseen_class_experiment(
        corpus.table, corpus.conditions, holdout=["walk", "drive"], fractions=[0.2], epsilon=0.1
    )
    assert zero.fraction == 0.0 and few.fraction == 0.2
    assert zero.edcr_accuracy > zero.baseline_accuracy
    assert few.edcr_accuracy > zero.edcr_accuracy
    print(
        "ACCEPTANCE 6 unseen-class direction: PASS "
        f"(baseline={zero.baseline_accuracy:.4f} zero-shot={zero.edcr_accuracy:.4f} "
        f"few-shot@0.2={few.edcr_accuracy:.4f})"
    )


def test_criterion_7_correction_theorem_properties():
    """On 100 constructed correction scenarios: precision delta is positive
    iff confidence beats baseline precision, and recall strictly increases iff
    POS does; replayed deltas match the closed forms to 1e-9."""
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        n_i = int(rng.integers(5, 60))
        tp = int(rng.integers(1, n_i + 1))
        bod = int(rng.integers(1, 40))
        pos = int(rng.integers(0, bod + 1))
        extra_fn = int(rng.integers(0, 10))
        n_total = n_i + bod + extra_fn + int(rng.integers(0, 40))
        scenario = build_correction_scenario(
            n_total, n_i / n_total, tp / n_i, bod / n_total, pos / bod, extra_fn=extra_fn
        )
        before = compute_class_stats(scenario.table)
        revised, _ = apply_ruleset(scenario.ruleset(), scenario.table, scenario.conds)
        after = compute_class_stats(revised)
        i = scenario.rule.target
        p_i = float(before.precision[i])
        c = scenario.rule.confidence
        predicted = correction_precision_delta(scenario.rule.support, c, p_i, float(before.prior[i]))
        measured = float(after.precision[i]) - p_i
        assert abs(predicted - measured) <= EXACT
        assert (predicted > 0) == (c > p_i)
        assert (measured > EXACT) == (c > p_i)

        recall_after = float(after.recall[i])
        recall_before = float(before.recall[i])
        assert (recall_after > recall_before + EXACT) == (pos > 0)
        assert abs(recall_after - correction_recall_post(tp, int(before.fn[i]), pos)) <= EXACT
        checked += 1
    print(f"ACCEPTANCE 7 correction theorem properties ({checked} scenarios): PASS")


RESULT_FILES = (
    ("corpus", "predictions.csv"),
    ("corpus", "conditions.csv"),
    ("learned", "ruleset.yaml"),
    ("applied", "revised.csv"),
    ("applied", "trace.csv"),
    ("evaled", "metrics.csv"),
)


def _run_pipeline(root):
    corpus = root / "corpus"
    assert main(["gen", "--seed", "3", "--samples", "600", "--noise", "0.25",
                 "--out", str(corpus)]) == 0
    learned = root / "learned"
    assert main(["learn", "--predictions", str(corpus / "predictions.csv"),
                 "--conditions", str(corpus / "conditions.csv"), "--epsilon", "0.1",
                 "--out", str(learned)]) == 0
    applied = root / "applied"
    assert main(["apply", "--ruleset", str(learned / "ruleset.yaml"),
                 "--predictions", str(corpus / "predictions.csv"),
                 "--conditions", str(corpus / "conditions.csv"),
                 "--out", str(applied)]) == 0
    evaled = root / "evaled"
    assert main(["eval", "--predictions", str(applied / "revised.csv"),
                 "--trace", str(applied / "trace.csv"), "--mode", "strict",
                 "--out", str(evaled)]) == 0


def test_criterion_8_pipeline_determinism_and_roundtrip(tmp_path):
    """The gen->learn->apply->eval pipeline is byte-identical across runs with
    the same seed, and a serialized/loaded ruleset applies identically."""
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    _run_pipeline(run_a)
    _run_pipeline(run_b)
    for sub, name in RESULT_FILES:
        assert (run_a / sub / name).read_bytes() == (run_b / sub / name).read_bytes(), name

    rule_set = io.load_ruleset(run_a / "learned" / "ruleset.yaml")
    reload_path = tmp_path / "reload.yaml"
    io.save_ruleset(reload_path, rule_set)
    reloaded = io.load_ruleset(reload_path)
    assert reloaded == rule_set
    table = io.read_predictions(run_a / "corpus" / "predictions.csv", classes=rule_set.classes)
    conds = io.read_conditions(run_a / "corpus" / "conditions.csv", table)
    first, _ = apply_ruleset(rule_set, table, conds)
    second, _ = apply_ruleset(reloaded, table, conds)
    assert first.pred_ids.tolist() == second.pred_ids.tolist()
    print("ACCEPTANCE 8 pipeline determinism and ruleset round-trip: PASS")


def test_criterion_9_haversine_pin():
    """One millidegree of latitude over 10 s is 11.12 m/s within 0.01."""
    speed = float(max_speeds(["pin"], [2], [0.0, 10.0], [0.0, 0.001], [0.0, 0.0])[0])
    assert speed == pytest.approx(11.12, abs=0.01)
    # frozen independent hand computation: R * radians(0.001) / 10
    assert speed == pytest.approx(11.119492664455874, rel=1e-12)
    print(f"ACCEPTANCE 9 haversine pin: PASS (speed={speed:.6f} m/s)")
