import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edcr import (
    UNKNOWN_NAME,
    ApplyTrace,
    ClassSet,
    ContractError,
    CorrectionRule,
    DetectionRule,
    PredictionTable,
    RuleSet,
    det_corr_rule_learn,
    apply_ruleset,
    det_rule_learn,
    io,
)
from edcr.rules import _fired_codes
from helpers import fired_column, make_conds, make_table, reference_fired_codes


def names(table):
    return table.names(table.pred_ids)


def error_flags(rules, table, conds):
    """Phase-1 detection verdicts, read from the application trace."""
    return apply_ruleset(rules, table, conds)[1].flagged


def two_class_rules(det_conditions=("c2",), corr_pairs=(("c1", "a"),)):
    classes = ClassSet(("a", "b"))
    detection = (DetectionRule(0, tuple(det_conditions), 0.5, 0.5),)
    correction = (CorrectionRule(1, tuple((c, classes.index(k)) for c, k in corr_pairs), 0.3, 0.9),)
    return classes, RuleSet(
        classes=classes,
        condition_names=("c1", "c2"),
        epsilon=0.1,
        detection_rules=detection,
        correction_rules=correction,
    )


def six_sample():
    table = make_table(["a", "b"], ["a", "a", "a", "a", "b", "b"])
    conds = make_conds(["c1", "c2"], [[1, 0, 1, 0, 1, 0], [1, 1, 0, 0, 0, 1]])
    return table, conds


class TestRuleTypes:
    def test_detection_rule_needs_conditions(self):
        with pytest.raises(ContractError):
            DetectionRule(0, (), 0.0, 0.0)

    def test_correction_rule_needs_pairs(self):
        with pytest.raises(ContractError):
            CorrectionRule(0, (), 0.0, 0.0)

    def test_at_most_one_rule_per_class(self):
        classes = ClassSet(("a",))
        rule = DetectionRule(0, ("c",), 0.1, 0.5)
        with pytest.raises(ContractError):
            RuleSet(classes, ("c",), 0.1, detection_rules=(rule, rule))

    def test_rules_must_use_declared_conditions(self):
        classes = ClassSet(("a",))
        rule = DetectionRule(0, ("other",), 0.1, 0.5)
        with pytest.raises(ContractError):
            RuleSet(classes, ("c",), 0.1, detection_rules=(rule,))

    def test_condition_names_are_non_empty(self):
        classes = ClassSet(("a",))
        with pytest.raises(ContractError, match="empty condition name"):
            RuleSet(classes, ("", "c"), 0.1)
        with pytest.raises(ContractError, match="empty condition name"):
            RuleSet(classes, ("", "c"), 0.1, detection_rules=(DetectionRule(0, ("",), 0.1, 0.5),))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ClassSet("ab"),
            lambda: ClassSet(("a", 1)),
            lambda: RuleSet(ClassSet(("a",)), "c", 0.1),
            lambda: RuleSet(ClassSet(("a",)), ("c", 1), 0.1),
            lambda: DetectionRule(0, "speed", 0.5, 0.5),
            lambda: DetectionRule(0, ("c", 1), 0.5, 0.5),
            lambda: CorrectionRule(0, "c1", 0.5, 0.5),
            lambda: CorrectionRule(0, ((1, 0),), 0.5, 0.5),
            lambda: CorrectionRule(0, [("c1",)], 0.5, 0.5),
            lambda: CorrectionRule(0, [("c1", "b")], 0.5, 0.5),
            lambda: CorrectionRule(0, [("c1", 0, 1)], 0.5, 0.5),
        ],
        ids=["class_string", "class_int", "declared_string", "declared_int", "detection_string",
             "detection_int", "pairs_string", "pair_condition_int", "pair_one_item", "pair_class_string",
             "pair_three_items"],
    )
    def test_names_are_sequences_of_strings(self, build):
        # a bare string would be read as its characters
        with pytest.raises(ContractError, match="must be"):
            build()

    def test_declared_conditions_are_unique(self):
        with pytest.raises(ContractError, match="duplicate"):
            RuleSet(ClassSet(("a",)), ("c", "d", "c"), 0.1)

    @pytest.mark.parametrize("epsilon", [{"a": 0.1}, {"zeppelin": 0.1}, {"a": 0.1, "b": 0.1, "c": 0.1}, {}])
    def test_epsilon_mapping_names_exactly_the_classes(self, epsilon):
        classes = ClassSet(("a", "b"))
        assert RuleSet(classes, ("c",), {"b": 0.2, "a": 0.1}).epsilon == {"b": 0.2, "a": 0.1}
        with pytest.raises(ContractError, match="epsilon mapping"):
            RuleSet(classes, ("c",), epsilon)


@pytest.mark.parametrize("bad", [-3, 7.0, float("nan"), float("inf"), -0.01, 1.01, True, False, "0.5", None])
class TestUnitIntervalValues:
    def test_detection_rule_stats(self, bad):
        a = 0
        with pytest.raises(ContractError, match="class_support"):
            DetectionRule(a, ("c",), bad, 0.5)
        with pytest.raises(ContractError, match="confidence"):
            DetectionRule(a, ("c",), 0.5, bad)

    def test_correction_rule_stats(self, bad):
        a = 0
        with pytest.raises(ContractError, match="support"):
            CorrectionRule(a, (("c", a),), bad, 0.5)
        with pytest.raises(ContractError, match="confidence"):
            CorrectionRule(a, (("c", a),), 0.5, bad)

    def test_ruleset_epsilon(self, bad):
        classes = ClassSet(("a",))
        with pytest.raises(ContractError, match="epsilon"):
            RuleSet(classes, ("c",), bad)
        with pytest.raises(ContractError, match="epsilon"):
            RuleSet(classes, ("c",), {"a": bad})

    def test_learning_epsilon(self, bad):
        table = make_table(["a", "b"], ["a", "b"], ["a", "a"])
        conds = make_conds(["c"], [[1, 0]])
        with pytest.raises(ContractError, match="epsilon"):
            det_corr_rule_learn(bad, table, conds)
        with pytest.raises(ContractError, match="epsilon"):
            det_corr_rule_learn({"a": bad, "b": 0.1}, table, conds)
        with pytest.raises(ContractError, match="epsilon"):
            det_rule_learn(0, bad, table, conds)


def trace_columns(**changes):
    """The fields of a trace over a two-sample table, ids x and y predicted
    a and b, as lists, with ``changes`` applied."""
    table = PredictionTable(ClassSet(("a", "b")), ("x", "y"), [0, 1])
    columns = dict(table=table, flagged=[True, False], fired=[0, 1], fired_names=("", "b"), final=[-1, 1])
    return {**columns, **changes}


class TestApplyTrace:
    def test_columns_may_be_lists(self, tmp_path):
        trace = ApplyTrace(**trace_columns(flagged=[1, 0]))
        assert trace.flagged.dtype == bool and not trace.final.flags.writeable
        io.write_trace(tmp_path / "t.csv", trace)
        assert (tmp_path / "t.csv").read_text() == (
            "sample_id,original,flagged,fired,final\nx,a,1,,__unknown__\ny,b,0,b,b\n"
        )

    def test_flagged_is_a_private_copy(self):
        flagged = np.array([True, False])
        trace = ApplyTrace(**trace_columns(flagged=flagged))
        assert trace.flagged is not flagged and not trace.flagged.flags.writeable
        flagged[0] = False  # the caller's array stays writable
        assert trace.flagged.tolist() == [True, False]

    @pytest.mark.parametrize("column, value, message", [
        ("table", "x", r"^a trace's table must be a PredictionTable, got str$"),
        ("flagged", [True], r"^flagged must have shape \(2,\), got \(1,\)$"),
        ("fired", [0, 0, 0], r"^fired has 3 entries for 2 sample ids"),
        ("final", [1], r"^final has 1 entries for 2 sample ids"),
        ("final", [2, 0], r"^final ids must lie in \[-1, 2\)"),
        ("final", [-2, 0], r"^final ids must lie in \[-1, 2\)"),
        ("final", [0, True], r"^final must be a 1-D array of integers"),
        ("fired", [0, 2], r"^fired ids must lie in \[0, 2\)"),
        ("flagged", ["0", "1"], r"^flagged must be bools or 0/1 integers"),
        ("flagged", [2, 0], r"^flagged must be bools or 0/1 integers"),
        ("table", ClassSet(("a", "b")), r"^a trace's table must be a PredictionTable, got ClassSet$"),
        ("fired_names", ("", 1), r"^fired names must be strings, got 1$"),
        ("fired_names", "ab", r"^fired names must be a sequence of strings, not the string 'ab'$"),
        ("flagged", [[True], [False]], r"^flagged must have shape \(2,\), got \(2, 1\)$"),
    ])
    def test_columns_are_checked(self, column, value, message):
        # the table's ids, classes and predictions are checked by its own
        # constructor (tests/test_core.py::TestPredictionTable)
        with pytest.raises(ContractError, match=message):
            ApplyTrace(**trace_columns(**{column: value}))


class TestApplyRuleset:
    def test_empty_ruleset_is_identity(self):
        table, conds = six_sample()
        empty = RuleSet(table.classes, conds.condition_names, 0.0)
        revised, trace = apply_ruleset(empty, table, conds)
        assert names(revised) == names(table)
        assert not trace.flagged.any() and fired_column(trace) == [""] * table.n

    def test_detect_only_routes_to_unknown(self):
        table, conds = six_sample()
        classes = table.classes
        rules = RuleSet(
            classes,
            conds.condition_names,
            0.1,
            detection_rules=(DetectionRule(0, ("c2",), 0.5, 0.5),),
        )
        revised, _ = apply_ruleset(rules, table, conds)
        assert names(revised) == [
            UNKNOWN_NAME,
            UNKNOWN_NAME,
            "a",
            "a",
            "b",
            "b",
        ]

    def test_two_phase_hand_trace(self):
        # det a <- pred_a & c2 ; corr b <- c1 & pred_a, traced by hand
        table, conds = six_sample()
        _, rules = two_class_rules()
        revised, trace = apply_ruleset(rules, table, conds)
        assert names(revised) == ["b", UNKNOWN_NAME, "b", "a", "b", "b"]
        assert trace.flagged.tolist() == [True, True, False, False, False, False]
        # row 2 matches the correction body without being flagged: a correction
        # applies wherever its body matches
        assert fired_column(trace) == ["b", "", "b", "", "", ""]
        assert trace.table is table
        assert trace.final.tolist() == revised.pred_ids.tolist()

    def test_missing_condition_is_config_error(self):
        table, _ = six_sample()
        _, rules = two_class_rules()
        narrow = make_conds(["c1"], [[1, 0, 1, 0, 1, 0]])
        with pytest.raises(ContractError):
            apply_ruleset(rules, table, narrow)

    def test_works_without_ground_truth(self):
        table, conds = six_sample()
        assert not table.has_ground_truth
        _, rules = two_class_rules()
        revised, _ = apply_ruleset(rules, table, conds)
        assert revised.n == table.n

    def test_untouched_samples_unchanged(self):
        table, conds = six_sample()
        _, rules = two_class_rules()
        revised, trace = apply_ruleset(rules, table, conds)
        for k, entry in enumerate(fired_column(trace)):
            if not trace.flagged[k] and not entry:
                assert revised.pred_ids[k] == table.pred_ids[k]

    def test_deterministic(self):
        table, conds = six_sample()
        _, rules = two_class_rules()
        first = apply_ruleset(rules, table, conds)
        second = apply_ruleset(rules, table, conds)
        assert names(first[0]) == names(second[0])
        assert first[1].flagged.tolist() == second[1].flagged.tolist()
        assert fired_column(first[1]) == fired_column(second[1])

    def test_confidence_then_class_id_tie_break(self):
        classes = ClassSet(("a", "b", "c"))
        a, b, c = range(3)
        table = make_table(["a", "b", "c"], ["a"])
        conds = make_conds(["c1"], [[1]])
        low = CorrectionRule(c, (("c1", a),), 0.1, 0.4)
        high = CorrectionRule(b, (("c1", a),), 0.1, 0.9)
        rules = RuleSet(classes, ("c1",), 0.1, correction_rules=(low, high))
        revised, trace = apply_ruleset(rules, table, conds)
        assert names(revised)[0] == "b"  # higher confidence wins
        assert fired_column(trace) == ["b;c"]

        tied_b = CorrectionRule(b, (("c1", a),), 0.1, 0.4)
        rules = RuleSet(classes, ("c1",), 0.1, correction_rules=(low, tied_b))
        revised, _ = apply_ruleset(rules, table, conds)
        assert names(revised)[0] == "b"  # equal confidence: lowest id

    def test_unknown_predictions_pass_through(self):
        table = make_table(["a", "b"], [UNKNOWN_NAME, "a"])
        conds = make_conds(["c1", "c2"], [[1, 1], [1, 1]])
        _, rules = two_class_rules()
        revised, _ = apply_ruleset(rules, table, conds)
        assert names(revised)[0] == UNKNOWN_NAME


class TestErrorPredictions:
    def test_no_rules_all_false(self):
        table, conds = six_sample()
        empty = RuleSet(table.classes, conds.condition_names, 0.0)
        assert not error_flags(empty, table, conds).any()

    def test_body_reduces_to_pred_i(self):
        table, conds = six_sample()
        always = make_conds(["c1"], [[1] * 6])
        rules = RuleSet(
            table.classes,
            ("c1",),
            0.1,
            detection_rules=(DetectionRule(0, ("c1",), 1.0, 0.5),),
        )
        flags = error_flags(rules, table, always)
        assert flags.tolist() == [p == "a" for p in names(table)]

    def test_mixed_two_rule_hand_scan(self):
        table = make_table(["a", "b"], ["a", "a", "b", "b", "a", "b", "a", "b"])
        conds = make_conds(
            ["c1", "c2"],
            [[1, 0, 0, 1, 0, 0, 1, 0], [0, 1, 1, 1, 0, 0, 0, 0]],
        )
        classes = table.classes
        rules = RuleSet(
            classes,
            conds.condition_names,
            0.1,
            detection_rules=(
                DetectionRule(0, ("c1",), 0.1, 0.5),
                DetectionRule(1, ("c2",), 0.1, 0.5),
            ),
        )
        flags = error_flags(rules, table, conds)
        assert flags.tolist() == [True, False, True, True, False, False, True, False]

    def test_flags_independent_of_corrections(self):
        table, conds = six_sample()
        _, with_corr = two_class_rules()
        detect_only = RuleSet(
            with_corr.classes,
            with_corr.condition_names,
            with_corr.epsilon,
            detection_rules=with_corr.detection_rules,
        )
        assert np.array_equal(
            error_flags(with_corr, table, conds),
            error_flags(detect_only, table, conds),
        )


class TestFiredCodes:
    """``_fired_codes`` against the row-wise ``unique`` it replaced
    (``helpers.reference_fired_codes``); past 8 and 16 rules a packed row
    spans two and three bytes, and past 62 the int64 key is re-ranked."""

    @settings(max_examples=200)
    @given(n=st.integers(0, 60), k=st.integers(0, 20), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_same_as_reference(self, n, k, density, seed):
        matches = np.random.default_rng(seed).random((n, k)) < density
        targets = [f"t{j}" for j in range(k)]
        codes, names = _fired_codes(matches, targets)
        expected_codes, expected_names = reference_fired_codes(matches, targets)
        assert codes.tolist() == expected_codes.tolist()
        assert names == expected_names

    @pytest.mark.parametrize("k", [61, 62, 63, 64, 100, 124, 125, 130])
    @pytest.mark.parametrize(
        "n, density, seed",
        [(1, 0.5, 0), (60, 0.5, 1), (60, 0.02, 2), (60, 0.98, 3), (1024, 0.5, 4), (1024, 0.01, 5), (1024, 0.2, 6)],
    )
    def test_past_the_int64_key(self, k, n, density, seed):
        """More rules than an int64 key has bits: the key is re-ranked before
        it could overflow, and the codes and names keep the reference order."""
        matches = np.random.default_rng(seed).random((n, k)) < density
        targets = [f"t{j}" for j in range(k)]
        codes, names = _fired_codes(matches, targets)
        expected_codes, expected_names = reference_fired_codes(matches, targets)
        assert codes.tolist() == expected_codes.tolist()
        assert names == expected_names

    def test_later_bytes_order_the_codes(self):
        matches = np.zeros((3, 12), dtype=bool)
        matches[0, 11], matches[1, 0], matches[2, [0, 11]] = True, True, True
        codes, names = _fired_codes(matches, [f"t{j}" for j in range(12)])
        assert codes.tolist() == [0, 1, 2]
        assert names == ("t11", "t0", "t0;t11")
