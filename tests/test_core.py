import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edcr import (
    UNKNOWN_NAME,
    ClassSet,
    ClassStats,
    ConditionMatrix,
    ContractError,
    CorrectionRule,
    DetectionRule,
    PredictionTable,
    RuleSet,
    UnknownClassError,
    UnknownConditionError,
    apply_ruleset,
    compute_class_stats,
    corr_rule_learn,
    correction_counts,
    detection_counts,
    f1_score,
)
from edcr import core
from edcr.core import rule_body
from helpers import many_class_instance, make_conds, make_table, oracle_correction_counts, oracle_detection_counts


class TestClassSet:
    def test_dense_ids(self):
        classes = ClassSet(("walk", "bike", "bus"))
        assert [classes.index(name) for name in classes.names] == [0, 1, 2]
        assert classes.check_id(1) == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContractError):
            ClassSet(("a", "a"))

    def test_reserved_name_rejected(self):
        with pytest.raises(ContractError):
            ClassSet(("a", UNKNOWN_NAME))

    def test_unknown_lookup_raises(self):
        with pytest.raises(UnknownClassError):
            ClassSet(("a",)).index("b")


class TestPredictionTable:
    def test_from_names_outside_ids(self):
        table = make_table(["a", "b"], [UNKNOWN_NAME, "b"], ["scooter", "a"])
        assert table.novel_names == ("scooter",)
        assert table.gt_ids.tolist() == [2, 0]  # novel ids follow the class ids
        assert table.pred_ids.tolist() == [-1, 1]
        assert table.names(table.gt_ids) == ["scooter", "a"]
        assert table.names(table.pred_ids) == [UNKNOWN_NAME, "b"]

    @pytest.mark.parametrize(
        "predicted, ground_truth, message",
        [
            ("ab", ["b", "a"], r"^predicted labels must be a sequence of strings, not the string 'ab'$"),
            (["a", "b"], "ba", r"^ground-truth labels must be a sequence of strings, not the string 'ba'$"),
            ([["a"], "b"], None, r"^predicted labels must be strings, got \['a'\]$"),
            (["a", "b"], ["a", 1], r"^ground-truth labels must be strings, got 1$"),
        ],
    )
    def test_from_names_takes_sequences_of_labels(self, predicted, ground_truth, message):
        with pytest.raises(ContractError, match=message):
            PredictionTable.from_names(ClassSet(("a", "b")), ["x", "y"], predicted, ground_truth)

    def test_from_names_takes_other_iterables(self):
        classes = ClassSet(("a", "b"))
        table = PredictionTable.from_names(classes, ["x", "y"], iter(["a", "b"]), (c for c in "ba"))
        assert table.names(table.pred_ids) == ["a", "b"] and table.names(table.gt_ids) == ["b", "a"]

    def test_unknown_never_ground_truth(self):
        with pytest.raises(ContractError):
            make_table(["a"], ["a"], [UNKNOWN_NAME])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError):
            make_table(["a"], ["a", "a"], ids=["x", "x"])

    def test_repeated_ids_are_named(self):
        """The first id that repeats, in order of first appearance, as the
        predictions reader reports it."""
        ids = [*"gfedcba", *"gfedcba", "z"]
        with pytest.raises(ContractError, match=r"^duplicate sample id 'g'$"):
            PredictionTable.from_names(ClassSet(("a",)), ids, ["a"] * len(ids))

    def test_novel_ground_truth_allowed(self):
        table = make_table(["a", "b"], ["a", "b"], ["a", "scooter"])
        assert table.gt_ids.tolist() == [0, 2]
        assert table.novel_names == ("scooter",)

    def test_unknown_prediction_allowed(self):
        table = make_table(["a"], [UNKNOWN_NAME, "a"])
        assert table.pred_ids.tolist() == [-1, 0]

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            make_table(["a"], ["a", "a"], ["a"], ids=["x", "y"])

    def test_undeclared_prediction_rejected(self):
        with pytest.raises(ContractError, match="zebra"):
            make_table(["a"], ["zebra"])

    @pytest.mark.parametrize(
        "pred_ids, gt_ids, novel",
        [
            ([2], None, ()),  # predicted id past the class set
            ([-2], None, ()),  # below UNKNOWN
            ([0], [2], ()),  # ground-truth id with no novel name
            ([0], [-1], ()),  # ground truth UNKNOWN
            ([0], [0], ("a",)),  # novel name repeats a class
            ([0], [2], (UNKNOWN_NAME,)),  # novel name is the reserved label
            ([0], [2], ("",)),  # an empty novel name, which would be written as an empty cell
            ([0], [2], (1,)),  # a novel name that is not a str
            ([0], [2], "xy"),  # a bare string, which would be read as the names x and y
            ([0, 1], None, ()),  # one predicted id per sample id
        ],
    )
    def test_id_columns_validated(self, pred_ids, gt_ids, novel):
        with pytest.raises(ContractError):
            PredictionTable(ClassSet(("a", "b")), ["x"], pred_ids, gt_ids, novel)

    @pytest.mark.parametrize(
        "pred_ids, gt_ids, role",
        [
            ([0.7, 1.2], [0, 1], "predicted"),  # floats, which numpy would truncate
            ([True, False], None, "predicted"),  # a bool is not an id
            ([0, True], None, "predicted"),  # nor among ints, which numpy reads as 1
            ([0, 1], [0, np.True_], "ground_truth"),
            (["0", "1"], None, "predicted"),  # nor is a digit string
            ([2**33, 0], None, "predicted"),  # past int32, which numpy would refuse bare
            ([0, 1], [0, 2**33], "ground_truth"),
        ],
    )
    def test_id_columns_are_integers(self, pred_ids, gt_ids, role):
        with pytest.raises(ContractError, match=f"^{role} "):
            PredictionTable(ClassSet(("a", "b")), ("x", "y"), pred_ids, gt_ids)

    @pytest.mark.parametrize("sample_ids", [("x", 1), "xy", (b"x", b"y")])
    def test_sample_ids_are_strings(self, sample_ids):
        # a bare string would be read as its characters, and write_predictions
        # would fail on a number
        with pytest.raises(ContractError, match="^sample ids must be"):
            PredictionTable(ClassSet(("a", "b")), sample_ids, [0, 1])

    @pytest.mark.parametrize(
        "build",
        [
            lambda ids: PredictionTable(ClassSet(("a", "b")), ids, [0, 1]),
            lambda ids: PredictionTable.from_names(ClassSet(("a", "b")), ids, ["a", "b"]),  # read as x, y before
        ],
        ids=["constructor", "from_names"],
    )
    def test_a_bare_string_of_ids_is_rejected(self, build):
        with pytest.raises(ContractError, match=r"^sample ids must be a sequence of strings, not the string 'xy'$"):
            build("xy")

    @pytest.mark.parametrize("given", [("x", "y"), ["x", "y"], iter(("x", "y"))], ids=["tuple", "list", "iterator"])
    def test_fresh_ids_are_copied_once(self, given):
        """``check_names`` returns a tuple it is given as it is, so the one
        copy of fresh ids is the table's ``core._SampleIds``, which
        ``check_names`` checks and the table keeps."""
        ids = ("x", "y")
        assert core.check_names("sample id", ids) is ids
        with mock.patch.object(core, "check_names", wraps=core.check_names) as spy:
            table = PredictionTable(ClassSet(("a",)), given, [0, 0])
        checked = next(call.args[1] for call in spy.call_args_list if call.args[0] == "sample id")
        assert table.sample_ids is checked and type(checked) is core._SampleIds and checked == ids

    @pytest.mark.parametrize(
        "build, index",
        [
            (lambda classes: PredictionTable(classes, ("", "y"), [0, 1]), 0),
            (lambda classes: PredictionTable.from_names(classes, ["x", ""], ["a", "b"], ["a", "a"]), 1),
        ],
        ids=["constructor", "from_names"],
    )
    def test_sample_ids_are_not_empty(self, build, index):
        # no reader takes an empty id, so a table holding one could be
        # written but not read back
        with pytest.raises(ContractError, match=f"^empty sample id in the sequence at index {index}$"):
            build(ClassSet(("a", "b")))

    def test_subset_does_not_recheck_ids(self):
        """Distinct rows of a checked table have distinct ids, so ``subset``
        builds its table without a sample-id check (``core.check_names``)."""
        table = make_table(["a", "b"], ["a", "b", "a"], ["b", "scooter", "a"], ids=["x", "y", "z"])
        with mock.patch.object(core, "check_names", wraps=core.check_names) as spy:
            part = table.subset([2, 0])
        assert "sample id" not in [call.args[0] for call in spy.call_args_list]
        assert part.sample_ids == ("z", "x") and part.names(part.pred_ids) == ["a", "a"]
        assert part.names(part.gt_ids) == ["a", "b"] and part.novel_names == ("scooter",)
        assert not part.pred_ids.flags.writeable and not part.gt_ids.flags.writeable

    @pytest.mark.parametrize("indices, repeated", [([0, 0], "x"), ([1, 0, 2, 0, 1], "y"), ([2, 1, 1], "y")])
    def test_subset_repeated_row(self, indices, repeated):
        table = make_table(["a", "b"], ["a", "b", "a"], ids=["x", "y", "z"])
        with pytest.raises(ContractError, match=f"^duplicate sample id '{repeated}'$"):
            table.subset(indices)

    @pytest.mark.parametrize("indices", [[True, False], [0, True], [1.9], [-1], [2], [[0]]])
    def test_subset_checks_its_indices(self, indices):
        table = make_table(["a", "b"], ["a", "b"], ids=["x", "y"])
        with pytest.raises(ContractError, match="^row indices "):
            table.subset(indices)

    def test_id_columns_read_only(self):
        table = make_table(["a"], ["a"], ["a"])
        with pytest.raises(ValueError):
            table.pred_ids[0] = -1

    @pytest.mark.parametrize("pred_ids", [[0], [0, 1, 0], [0, 2], [-2, 0], [[0, 1]]])
    def test_with_predictions_checks_the_new_column(self, pred_ids):
        table = make_table(["a", "b"], ["a", "b"], ["a", "scooter"])
        with pytest.raises(ContractError, match="predicted"):
            table.with_predictions(pred_ids)

    def test_with_predictions_shares_the_checked_columns(self):
        table = make_table(["a", "b"], ["a", "b"], ["a", "scooter"])
        revised = table.with_predictions([-1, 0])
        assert revised.pred_ids.tolist() == [-1, 0] and not revised.pred_ids.flags.writeable
        assert table.pred_ids.tolist() == [0, 1]
        assert revised.sample_ids is table.sample_ids and revised.gt_ids is table.gt_ids
        assert revised.classes == table.classes and revised.novel_names == ("scooter",)


@pytest.mark.parametrize(
    "build, what, bad",
    [
        (lambda: PredictionTable(ClassSet(("a",)), ("s", "x\ud800"), [0, 0]), "sample ids", "x\ud800"),
        (lambda: ClassSet(("a", "b\udc00c")), "class names", "b\udc00c"),
        (lambda: ConditionMatrix(("c1", "\ud800"), np.zeros((1, 2), dtype=bool)), "condition names", "\ud800"),
        (
            lambda: PredictionTable.from_names(ClassSet(("a",)), ["s"], ["a"], ["x\ud800"]),
            "ground-truth labels",
            "x\ud800",
        ),
    ],
    ids=["sample id", "class name", "condition name", "from_names label"],
)
def test_names_are_utf8(build, what, bad):
    """A name with a lone surrogate, which UTF-8 cannot encode, is a contract
    error naming the first such item, not a UnicodeEncodeError in a writer."""
    with pytest.raises(ContractError, match=re.escape(f"{what} must be encodable as UTF-8, got {bad!r}")):
        build()


class TestClassStats:
    def test_perfect_prediction(self):
        stats = compute_class_stats(make_table(["a", "b"], ["a", "b"], ["a", "b"]))
        a = 0
        assert stats.tp[a] == 1 and stats.fp[a] == 0 and stats.fn[a] == 0
        assert stats.precision[a] == 1.0 and stats.recall[a] == 1.0

    def test_six_sample_enumeration(self):
        # gt aaabbb / pred aabbba, counted by hand
        stats = compute_class_stats(
            make_table(["a", "b"], ["a", "a", "b", "b", "b", "a"], ["a", "a", "a", "b", "b", "b"])
        )
        a = 0
        assert stats.tp[a] == 2 and stats.fp[a] == 1 and stats.fn[a] == 1
        assert stats.precision[a] == pytest.approx(2 / 3)
        assert stats.recall[a] == pytest.approx(2 / 3)

    def test_unknown_counts_as_not_class(self):
        stats = compute_class_stats(make_table(["a"], [UNKNOWN_NAME, "a"], ["a", "a"]))
        a = 0
        assert stats.tp[a] == 1 and stats.fn[a] == 1
        assert stats.n_predicted[a] == 1
        assert stats.recall[a] == pytest.approx(0.5)

    def test_novel_gt_is_never_class_i(self):
        stats = compute_class_stats(make_table(["a"], ["a", "a"], ["a", "scooter"]))
        assert stats.tp[0] == 1 and stats.fp[0] == 1

    def test_counts_partition_table(self):
        rng = np.random.default_rng(5)
        from helpers import random_instance

        table, _ = random_instance(rng, n_max=200)
        stats = compute_class_stats(table)
        for i in range(len(table.classes)):
            assert stats.tp[i] + stats.fp[i] + stats.tn[i] + stats.fn[i] == table.n
            assert stats.n_predicted[i] == stats.tp[i] + stats.fp[i]

    def test_requires_ground_truth(self):
        with pytest.raises(ContractError):
            compute_class_stats(make_table(["a"], ["a"]))
        with pytest.raises(ContractError, match="ground truth"):
            make_table(["a"], ["a"]).stats

    def test_predicted_totals_bounded_by_n(self):
        full = compute_class_stats(make_table(["a", "b"], ["a", "b", "b"], ["a", "a", "b"]))
        assert int(full.n_predicted.sum()) == 3
        routed = compute_class_stats(
            make_table(["a", "b"], ["a", UNKNOWN_NAME, "b"], ["a", "a", "b"])
        )
        assert int(routed.n_predicted.sum()) == 2  # UNKNOWN predictions count for no class

    @given(st.randoms(use_true_random=False))
    def test_permutation_invariant(self, rnd):
        table = make_table(
            ["a", "b"],
            ["a", "a", "b", "b", "b", "a"],
            ["a", "a", "a", "b", "b", "b"],
        )
        order = list(range(table.n))
        rnd.shuffle(order)
        shuffled = table.subset(order)
        before, after = compute_class_stats(table), compute_class_stats(shuffled)
        assert before.tp.tolist() == after.tp.tolist()
        assert before.fp.tolist() == after.fp.tolist()
        assert before.fn.tolist() == after.fn.tolist()

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", UNKNOWN_NAME]), st.sampled_from(["a", "b", "c", "novel"])),
            min_size=1,
            max_size=40,
        )
    )
    def test_f1_is_f1_score_exactly(self, rows):
        # "d" is never predicted nor true; the draws also hold classes that
        # are predicted but never right (precision 0) or true but never
        # predicted (recall 0)
        pred, gt = zip(*rows)
        stats = compute_class_stats(make_table(["a", "b", "c", "d"], pred, gt))
        assert stats.f1[3] == 0.0 and not stats.f1.flags.writeable
        counts = (stats.tp, stats.fp, stats.tn, stats.fn)
        assert (
            all(c.dtype == np.int64 and c.shape == (4,) and (c >= 0).all() for c in counts)
            and stats.total == len(rows) and (sum(counts) == stats.total).all()
            and not any(a.flags.writeable for a in vars(stats).values() if isinstance(a, np.ndarray))
        )
        for i in range(4):
            assert stats.f1[i] == f1_score(float(stats.precision[i]), float(stats.recall[i]))

    def test_built_from_its_table_only(self):
        table = make_table(["a"], ["a"], ["a"])
        assert ClassStats(table).tp.tolist() == [1]
        with pytest.raises(TypeError):
            ClassStats(table.classes, 1, [1], [0], [0], [0])


def assert_same_stats(stats, expected):
    for name in ("tp", "fp", "tn", "fn", "n_predicted", "n_actual", "precision", "recall", "prior", "f1"):
        assert getattr(stats, name).tolist() == getattr(expected, name).tolist(), name


class TestTableStats:
    def test_computed_once_and_kept(self):
        table = make_table(["a", "b"], ["a", "b", "b"], ["a", "a", "b"])
        assert table.stats is table.stats
        assert_same_stats(table.stats, compute_class_stats(table))

    def test_derived_tables_do_not_inherit_the_cache(self):
        table = make_table(["a", "b"], ["a", "a", "b", "b"], ["a", "b", "b", "a"])
        conds = make_conds(["c"], [[0, 1, 0, 1]])
        cached = table.stats
        rule_set = RuleSet(table.classes, ("c",), 0.5, detection_rules=(DetectionRule(0, ("c",), 0.5, 1.0),))
        revised = apply_ruleset(rule_set, table, conds)[0]
        swapped = table.with_predictions([1, 0, 0, 1])
        for derived in (revised, swapped):
            assert derived.stats is not cached
            assert_same_stats(derived.stats, compute_class_stats(derived))
        assert cached.fp.tolist() == [1, 1]
        assert revised.stats.fp.tolist() == [0, 1] and swapped.stats.tp.tolist() == [0, 0]


# fixed 8-sample, 2-condition instance; expectations derived by a hand row scan
EIGHT = dict(
    pred=["a", "a", "a", "a", "a", "b", "b", "b"],
    gt=["a", "a", "b", "b", "a", "a", "b", "b"],
    c1=[1, 0, 1, 0, 0, 1, 0, 1],
    c2=[0, 0, 1, 1, 0, 0, 1, 0],
)


def eight_sample():
    table = make_table(["a", "b"], EIGHT["pred"], EIGHT["gt"])
    conds = make_conds(["c1", "c2"], [EIGHT["c1"], EIGHT["c2"]])
    return table, conds


class TestDetectionCounts:
    def test_empty_condition_convention(self):
        table, conds = eight_sample()
        counts = detection_counts(table, conds, 0, ())
        assert (counts.pos, counts.neg, counts.bod) == (0, 0, 0)
        assert counts.class_support == 0.0 and counts.confidence == 0.0
        # an empty body, a zero-row table and a class that is never predicted
        # all take the zero branches of the ratios
        no_rows = make_table(["a", "b"], [], []), make_conds(["c1", "c2"], [[], []])
        unpredicted = make_table(["a", "b", "c"], EIGHT["pred"], EIGHT["gt"]), conds
        for (table, conds), class_i, dc in [
            (no_rows, 0, ()), (no_rows, 1, ("c1", "c2")), (unpredicted, 2, ()), (unpredicted, 2, ("c1", "c2")),
        ]:
            counts = detection_counts(table, conds, class_i, dc)
            assert (counts.pos, counts.neg, counts.bod, counts.class_support, counts.confidence) == (0, 0, 0, 0, 0)

    def test_perfect_error_detector(self):
        # condition true exactly on the false positives of class a
        table = make_table(["a", "b"], ["a", "a", "a", "b"], ["a", "b", "b", "b"])
        conds = make_conds(["hit"], [[0, 1, 1, 0]])
        counts = detection_counts(table, conds, 0, {"hit"})
        assert counts.pos == 2 and counts.neg == 0
        assert counts.confidence == 1.0
        assert counts.class_support == pytest.approx(2 / 3)

    def test_eight_sample_hand_scan(self):
        table, conds = eight_sample()
        both = detection_counts(table, conds, 0, {"c1", "c2"})
        assert (both.pos, both.neg, both.bod) == (2, 1, 3)
        assert both.class_support == pytest.approx(3 / 5)
        assert both.confidence == pytest.approx(2 / 3)
        only1 = detection_counts(table, conds, 0, {"c1"})
        assert (only1.pos, only1.neg, only1.bod) == (1, 1, 2)
        only2 = detection_counts(table, conds, 0, {"c2"})
        assert (only2.pos, only2.neg, only2.bod) == (2, 0, 2)

    def test_unknown_condition_name(self):
        table, conds = eight_sample()
        with pytest.raises(UnknownConditionError):
            detection_counts(table, conds, 0, {"nope"})

    def test_pos_identity_c_times_s(self):
        # c * s_i * N_i == POS exactly, for every subset of the fixed instance
        table, conds = eight_sample()
        n_a = sum(1 for p in EIGHT["pred"] if p == "a")
        for dc in [set(), {"c1"}, {"c2"}, {"c1", "c2"}]:
            counts = detection_counts(table, conds, 0, dc)
            assert counts.confidence * counts.class_support * n_a == pytest.approx(counts.pos)

    @given(st.integers(0, 2**32 - 1))
    def test_matches_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        from helpers import random_instance

        table, conds = random_instance(rng, n_max=60, max_conditions=4)
        names = list(conds.condition_names)
        dc = [n for n in names if rng.random() < 0.5]
        target = int(rng.integers(0, len(table.classes)))
        counts = detection_counts(table, conds, target, dc)
        assert (counts.pos, counts.neg, counts.bod, counts.class_support, counts.confidence) == (
            oracle_detection_counts(table, conds, target, dc)
        )


# fixed 10-sample instance with two overlapping pairs, scanned by hand
TEN = dict(
    pred=["b", "b", "b", "b", "b", "c", "c", "c", "a", "a"],
    gt=["a", "a", "b", "c", "a", "a", "b", "a", "a", "b"],
    c1=[1, 0, 1, 0, 1, 0, 1, 1, 0, 0],
    c2=[0, 1, 1, 0, 0, 1, 0, 0, 1, 0],
)


class TestCorrectionCounts:
    def ten_sample(self):
        table = make_table(["a", "b", "c"], TEN["pred"], TEN["gt"])
        conds = make_conds(["c1", "c2"], [TEN["c1"], TEN["c2"]])
        return table, conds

    def test_empty_pairs_convention(self):
        table, conds = self.ten_sample()
        counts = correction_counts(table, conds, 0, ())
        assert (counts.pos, counts.bod, counts.support, counts.confidence) == (0, 0, 0.0, 0.0)
        # a zero-row table, and pairs of a class that is never predicted
        no_rows = make_table(["a", "b"], [], []), make_conds(["c1", "c2"], [[], []])
        unpredicted = make_table(["a", "b", "c", "d"], TEN["pred"], TEN["gt"]), conds
        for (table, conds), cc in [
            (no_rows, ()), (no_rows, [("c1", 1), ("c2", 0)]), (unpredicted, [("c1", 3), ("c2", 3)]),
        ]:
            counts = correction_counts(table, conds, 0, cc)
            assert (counts.pos, counts.bod, counts.support, counts.confidence) == (0, 0, 0.0, 0.0)

    def test_perfect_corrector(self):
        table = make_table(["a", "b"], ["b", "b", "b"], ["a", "a", "b"])
        conds = make_conds(["hit"], [[1, 1, 0]])
        counts = correction_counts(table, conds, 0, [("hit", 1)])
        assert counts.confidence == 1.0 and counts.pos == 2

    def test_ten_sample_overlap_dedupes(self):
        table, conds = self.ten_sample()
        counts = correction_counts(table, conds, 0, [("c1", 1), ("c2", 1)])
        # bodies {0,2,4} and {1,2} union to 4 rows; row 2 counted once
        assert (counts.pos, counts.bod) == (3, 4)
        assert counts.support == pytest.approx(0.4)
        assert counts.confidence == pytest.approx(0.75)

    def test_unknown_class_in_pair(self):
        # each caller checks pair class ids with ClassSet.check_pairs
        table, conds = self.ten_sample()
        rule = CorrectionRule(0, (("c1", 3),), 0.5, 0.5)
        for call in (
            lambda: correction_counts(table, conds, 0, [("c1", 3)]),
            lambda: corr_rule_learn(0, [("c1", 3)], table, conds),
            lambda: RuleSet(table.classes, conds.condition_names, 0.1, correction_rules=(rule,)),
        ):
            with pytest.raises(UnknownClassError, match=r"^class id 3 is not in \[0, 3\)"):
                call()

    @given(st.integers(0, 2**32 - 1))
    def test_matches_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        from helpers import random_instance

        table, conds = random_instance(rng, n_max=60, max_conditions=4)
        all_pairs = [(c, k) for c in conds.condition_names for k in range(len(table.classes))]
        pairs = [p for p in all_pairs if rng.random() < 0.4]
        target = int(rng.integers(0, len(table.classes)))
        counts = correction_counts(table, conds, target, pairs)
        assert (counts.pos, counts.bod, counts.support, counts.confidence) == (
            oracle_correction_counts(table, conds, target, pairs)
        )


@pytest.mark.parametrize(
    "call",
    [
        lambda t, c: correction_counts(t, c, 0, "c1"),
        lambda t, c: correction_counts(t, c, 0, [("c1",)]),
        lambda t, c: correction_counts(t, c, 0, [("c1", "b")]),
        lambda t, c: correction_counts(t, c, 0, [("", 1)]),
        lambda t, c: corr_rule_learn(0, [("c1",)], t, c),
        lambda t, c: corr_rule_learn(0, "c1", t, c),
        lambda t, c: detection_counts(t, c, 0, "c1"),
        lambda t, c: detection_counts(t, c, 0, ["c1", 2]),
    ],
    ids=["pairs_string", "pair_one_item", "pair_class_string", "pair_empty_condition", "learn_one_item",
         "learn_string", "detection_string", "detection_int"],
)
def test_bodies_are_checked_by_type(call):
    """A correction pair is a (non-empty str, integer class id) 2-item pair and
    a body is never a bare string, which would be read as its characters."""
    with pytest.raises(ContractError, match="correction pairs must be|condition names must be"):
        call(*eight_sample())


class TestCountingLattice:
    """Submodularity / monotonicity / normalization of POS, NEG, BOD over
    condition subsets, on small random instances (the exhaustive suite lives
    with the theory checks)."""

    @given(st.integers(0, 2**32 - 1))
    def test_lattice_inequality_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        from helpers import random_instance

        table, conds = random_instance(rng, n_max=50, max_conditions=5)
        names = list(conds.condition_names)
        target = 0
        a = {n for n in names if rng.random() < 0.5}
        b = {n for n in names if rng.random() < 0.5}

        def values(dc):
            counts = detection_counts(table, conds, target, dc)
            return np.array([counts.pos, counts.neg, counts.bod])

        fa, fb = values(a), values(b)
        assert (fa + fb >= values(a | b) + values(a & b)).all()
        assert (fa <= values(a | b)).all()
        assert (values(set()) == 0).all()


class TestConditionMatrix:
    def test_shape_validation(self):
        with pytest.raises(ContractError):
            ConditionMatrix(("a",), np.zeros((3, 2), dtype=bool))

    def test_duplicate_names(self):
        with pytest.raises(ContractError):
            ConditionMatrix(("a", "a"), np.zeros((3, 2), dtype=bool))

    @pytest.mark.parametrize("values", [[[0.5], [2]], [["0"], ["1"]], [[None], [1]], [[1], [2]], [[0], [1, 0]]])
    def test_values_are_bits(self, values):
        with pytest.raises(ContractError, match="values"):
            ConditionMatrix(("c",), values)

    @pytest.mark.parametrize("indices", [[5], [-1], np.array([False, True, True]), [True, 0], [0.0]])
    def test_rows_checks_its_indices(self, indices):
        conds = make_conds(["c"], [[1, 0, 1]])
        with pytest.raises(ContractError, match="^row indices "):
            conds.rows(indices)

    def test_rule_body_empty_is_false(self):
        conds = make_conds(["a"], [[1, 1]])
        assert not rule_body(conds, np.zeros(2, dtype=np.int32), []).any()

    def test_rule_body_groups_pairs_by_class(self):
        table, conds = eight_sample()
        pairs = [("c1", 0), ("c2", 0), ("c2", 1)]
        expected = [
            any(EIGHT[c][row] and EIGHT["pred"][row] == "ab"[k] for c, k in pairs)
            for row in range(table.n)
        ]
        assert rule_body(conds, table.pred_ids, pairs).tolist() == expected

    def test_pair_words_match_a_per_pair_reference(self):
        """At k=400 classes, in pairs that name their classes in any order and
        repeat them, each pair's words are its condition's words AND the
        packed rows predicted its class."""
        rng = np.random.default_rng(400)
        table, conds = many_class_instance(rng, k=400, n=3000)
        pairs = [(str(conds.condition_names[col]), int(class_id)) for col, class_id in
                 zip(rng.integers(0, 800, size=4000), rng.integers(0, 400, size=4000))]
        expected = [
            conds.words[conds.column_index(name)] & core._pack_rows((table.pred_ids == class_id)[None])[0]
            for name, class_id in pairs
        ]
        assert np.array_equal(core._pair_words(conds, table.pred_ids, pairs), np.array(expected))

    def test_bool_values_are_checked_without_a_copy(self):
        """The bit rule returns a bool array as it is, so the matrix's one
        copy is its packed words."""
        from edcr.core import _bit_array

        values = np.zeros((3, 2), dtype=bool)
        assert _bit_array("values", values) is values
        assert _bit_array("values", []).dtype == bool
        assert ConditionMatrix(("a",), np.zeros((0, 1))).n_rows == 0

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
    def test_packed_words_are_checked_and_kept(self, n):
        """Words packed as the conditions scanner packs them are kept as they
        are; a wrong dtype, a shape that is not the names' and rows', or a
        set padding bit is a contract error."""
        words = ConditionMatrix(("a", "b"), np.ones((n, 2), dtype=bool)).words.copy()
        bad = [(words.view(np.int64), n), (words, n + 65), (words[:1], n)]
        if n % 64 or not n:
            padded = words.copy()
            padded[1, n // 64] |= np.uint64(1) << np.uint64(n % 64)
            bad.append((padded, n))
        for value, rows in bad:
            with pytest.raises(ContractError, match="^packed condition words "):
                ConditionMatrix(("a", "b"), core._Packed(value, rows))
        conds = ConditionMatrix(("a", "b"), core._Packed(words, n))
        assert conds.words is words and not words.flags.writeable and conds.n_rows == n
        assert np.array_equal(conds.values, np.ones((n, 2), dtype=bool))

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
    def test_words_at_word_boundaries(self, n):
        """The words hold each column along the samples with zero padding
        bits, ``values`` unpacks them back, and ``rule_body`` matches a
        row-by-row evaluation, also where the last word is partly filled."""
        rng = np.random.default_rng(n)
        bits = rng.random((n, 3)) < 0.5
        bits[:, 2] = True  # a full column leaves only its padding bits zero
        conds = ConditionMatrix(("a", "b", "c"), bits)
        assert conds.words.shape == (3, max(1, -(-n // 64))) and conds.words.dtype == np.uint64
        assert not conds.words.flags.writeable
        assert conds.values.dtype == bool and np.array_equal(conds.values, bits)
        assert np.array_equal(ConditionMatrix(conds.condition_names, conds.values).words, conds.words)
        unpacked = np.unpackbits(conds.words.view(np.uint8), axis=1, bitorder="little")
        assert unpacked[:, :n].T.tolist() == bits.tolist() and not unpacked[:, n:].any()
        pred = rng.integers(-1, 3, size=n)
        pairs = [("a", 0), ("b", 0), ("b", 1), ("c", 2)]
        expected = [any(bits[row, "abc".index(c)] and pred[row] == k for c, k in pairs) for row in range(n)]
        assert rule_body(conds, pred, pairs).tolist() == expected

    @pytest.mark.parametrize("slice_bools", [128, None])
    @pytest.mark.parametrize("rows, m", [(0, 65), (3, 0), (7, 65), (40_000, 15), (300, 20_000)])
    def test_pack_rows_in_slices(self, monkeypatch, slice_bools, rows, m):
        """``_pack_rows`` packs a slice of rows at a time, and its words are
        those of one ``np.packbits`` over a zero-padded copy of the whole
        input, across slice boundaries and for a transposed input too; the
        two larger shapes span several slices of the default size."""
        if slice_bools is not None:
            monkeypatch.setattr(core, "_PACK_SLICE", slice_bools)
        bits = np.random.default_rng(rows + m).random((rows, m)) < 0.5
        padded = np.zeros((rows, 64 * max(1, -(-m // 64))), dtype=bool)
        padded[:, :m] = bits
        expected = np.packbits(padded, axis=1, bitorder="little").view("<u8")
        for cols in (bits, np.ascontiguousarray(bits.T).T):  # the second as ConditionMatrix packs
            words = core._pack_rows(cols)
            assert words.dtype == np.dtype("<u8") and np.array_equal(words, expected)

    def test_values_column_contiguous(self):
        conds = make_conds(["a", "b"], [[1, 0, 1], [0, 0, 1]])
        assert conds.values.flags.f_contiguous

    def test_values_read_only(self):
        conds = make_conds(["a"], [[1, 0]])
        with pytest.raises(ValueError):
            conds.values[0, 0] = False

    def test_values_are_not_kept(self):
        """Only the words stay on the matrix: reading ``values`` leaves no
        8x larger copy of the bools behind."""
        conds = make_conds(["a", "b"], [[1, 0, 1], [0, 0, 1]])
        assert conds.values.tolist() == [[True, False], [False, False], [True, True]]
        conds.rows([0, 2])
        assert "values" not in vars(conds)
