"""The public API, pinned: any name added to or removed from ``edcr.__all__``
shows up as a diff of this list.  Also the boundary of its class ids: every
function that takes a class takes its int id, range-checked by ``ClassSet``."""
import pytest

import edcr
from edcr import (
    CorrectionRule,
    DetectionRule,
    RuleSet,
    UnknownClassError,
    brute_force_correction,
    brute_force_detection,
    check_submodular,
    corr_rule_learn,
    correction_counts,
    det_rule_learn,
    detection_counts,
    io,
)
from edcr.cli import main
from helpers import make_conds, make_table

PUBLIC_API = [
    "ApplyTrace",
    "ClassSet",
    "ClassStats",
    "ConditionMatrix",
    "ContractError",
    "CorrectionCounts",
    "CorrectionRule",
    "DataError",
    "DegenerateStatsError",
    "DetectionCounts",
    "DetectionRule",
    "EdcrError",
    "ErrorMetrics",
    "MetricsReport",
    "PredictionTable",
    "RuleSet",
    "ScoringMode",
    "Split",
    "TheoremReport",
    "TrajectoryRecord",
    "UNKNOWN_NAME",
    "UnknownClassError",
    "UnknownConditionError",
    "VerificationError",
    "accuracy",
    "apply_ruleset",
    "brute_force_correction",
    "brute_force_detection",
    "build_correction_scenario",
    "build_detection_scenario",
    "build_velocity_conditions",
    "check_submodular",
    "compute_class_stats",
    "corr_rule_learn",
    "correction_counts",
    "correction_precision_delta",
    "correction_recall_post",
    "det_corr_rule_learn",
    "det_rule_learn",
    "detection_counts",
    "epsilon_sweep",
    "error_detection_metrics",
    "f1_score",
    "fit_velocity_thresholds",
    "generate_synthetic",
    "haversine_m",
    "max_speeds",
    "metrics_report",
    "precision_delta_bound",
    "precision_delta_exact",
    "recall_delta_exact",
    "sequential_split",
    "theorem_report",
    "unseen_class_experiment",
]


def test_public_api_pinned():
    assert sorted(edcr.__all__) == PUBLIC_API
    assert len(set(edcr.__all__)) == len(edcr.__all__)


def test_public_names_resolve():
    for name in edcr.__all__:
        assert getattr(edcr, name) is not None, name


# each takes a class id k on a two-class table ("a" = 0, "b" = 1) with one condition "c"
CLASS_TAKERS = {
    "det_rule_learn": lambda k, table, conds: det_rule_learn(k, 0.1, table, conds),
    "corr_rule_learn": lambda k, table, conds: corr_rule_learn(k, [("c", 0)], table, conds),
    "detection_counts": lambda k, table, conds: detection_counts(table, conds, k, ["c"]),
    "correction_counts": lambda k, table, conds: correction_counts(table, conds, k, [("c", 0)]),
    "check_submodular": lambda k, table, conds: check_submodular("pos", k, table, conds),
    "brute_force_detection": lambda k, table, conds: brute_force_detection(k, 0.1, table, conds),
    "brute_force_correction": lambda k, table, conds: brute_force_correction(k, [("c", 0)], table, conds),
    "RuleSet detection target": lambda k, table, conds: RuleSet(
        table.classes, ("c",), 0.1, detection_rules=(DetectionRule(k, ("c",), 0.5, 0.5),)
    ),
    "RuleSet correction target": lambda k, table, conds: RuleSet(
        table.classes, ("c",), 0.1, correction_rules=(CorrectionRule(k, (("c", 0),), 0.5, 0.5),)
    ),
    "RuleSet pair class": lambda k, table, conds: RuleSet(
        table.classes, ("c",), 0.1, correction_rules=(CorrectionRule(0, (("c", k),), 0.5, 0.5),)
    ),
}


@pytest.mark.parametrize("bad", ["a", -1, 2], ids=["name", "minus_one", "len_classes"])
@pytest.mark.parametrize("call", CLASS_TAKERS.values(), ids=CLASS_TAKERS.keys())
def test_class_ids_are_range_checked(call, bad):
    table = make_table(["a", "b"], ["a", "b", "a", "b"], ["a", "a", "b", "b"])
    conds = make_conds(["c"], [[1, 0, 1, 1]])
    for k in range(len(table.classes)):
        call(k, table, conds)
    with pytest.raises(UnknownClassError):
        call(bad, table, conds)


@pytest.mark.parametrize(
    "rule",
    [
        "detection_rules: [{class: zeppelin, conditions: [c], class_support: 0.5, confidence: 0.5}]",
        "correction_rules: [{class: zeppelin, pairs: [[c, a]], support: 0.5, confidence: 0.5}]",
        "correction_rules: [{class: a, pairs: [[c, zeppelin]], support: 0.5, confidence: 0.5}]",
    ],
)
def test_ruleset_naming_unknown_class_exits_3(tmp_path, capsys, rule):
    table = make_table(["a", "b"], ["a", "b"], ids=["x", "y"])
    io.write_predictions(tmp_path / "p.csv", table)
    io.write_conditions(tmp_path / "c.csv", table, make_conds(["c"], [[1, 0]]))
    (tmp_path / "rules.yaml").write_text(
        f"format_version: 1\nclasses: [a, b]\nconditions: [c]\nepsilon: 0.1\n{rule}\n"
    )
    argv = ["apply", "--ruleset", tmp_path / "rules.yaml", "--predictions", tmp_path / "p.csv",
            "--conditions", tmp_path / "c.csv", "--out", tmp_path / "out"]
    assert main([str(part) for part in argv]) == 3
    assert "zeppelin" in capsys.readouterr().err
