"""Error-detecting and error-correcting rules (EDCR) for classifier repair.

Learns logical rules over a base model's predictions and boolean condition
signals, applies them to revise predictions (including routing to an
"unknown" class), and verifies the closed-form precision/recall effects of
single rules empirically.
"""
from .core import (
    UNKNOWN_NAME,
    ClassSet,
    ClassStats,
    ConditionMatrix,
    ContractError,
    CorrectionCounts,
    DataError,
    DegenerateStatsError,
    DetectionCounts,
    EdcrError,
    PredictionTable,
    UnknownClassError,
    UnknownConditionError,
    VerificationError,
    compute_class_stats,
    correction_counts,
    detection_counts,
)
from .rules import ApplyTrace, CorrectionRule, DetectionRule, RuleSet, apply_ruleset
from .learn import corr_rule_learn, det_corr_rule_learn, det_rule_learn
from .theory import (
    TheoremReport,
    build_correction_scenario,
    check_submodular,
    correction_precision_delta,
    correction_recall_post,
    precision_delta_bound,
    precision_delta_exact,
    recall_delta_exact,
    theorem_report,
)
from .conditions import (
    build_velocity_conditions,
    fit_velocity_thresholds,
    generate_synthetic,
    max_speeds,
)
from .evaluate import (
    ErrorMetrics,
    MetricsReport,
    ScoringMode,
    Split,
    accuracy,
    epsilon_sweep,
    error_detection_metrics,
    f1_score,
    metrics_report,
    sequential_split,
    unseen_class_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "UNKNOWN_NAME",
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
    "UnknownClassError",
    "UnknownConditionError",
    "VerificationError",
    "accuracy",
    "apply_ruleset",
    "build_correction_scenario",
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
    "max_speeds",
    "metrics_report",
    "precision_delta_bound",
    "precision_delta_exact",
    "recall_delta_exact",
    "sequential_split",
    "theorem_report",
    "unseen_class_experiment",
]
