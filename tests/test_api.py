"""The public API, pinned: any name added to or removed from ``edcr.__all__``
shows up as a diff of this list."""
import edcr

PUBLIC_API = [
    "ApplyTrace",
    "ClassLabel",
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
    "LearnConfig",
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
    "VelocityThresholds",
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
    "metrics_report",
    "precision_delta_bound",
    "precision_delta_exact",
    "recall_delta_exact",
    "sequential_split",
    "theorem_report",
    "trajectory_speed",
    "unseen_class_experiment",
    "velocity_condition",
]


def test_public_api_pinned():
    assert sorted(edcr.__all__) == PUBLIC_API
    assert len(set(edcr.__all__)) == len(edcr.__all__)


def test_public_names_resolve():
    for name in edcr.__all__:
        assert getattr(edcr, name) is not None, name
