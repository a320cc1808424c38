"""Command-line surface tying the library into reproducible pipelines.

Exit codes come from the error classes: 0 is success, an ``EdcrError`` exits
with its ``exit_code`` (2 for a ``ContractError``, 3 for a ``DataError``, 4 for
a ``VerificationError``), and an ``OSError`` exits 3, as a ``DataError`` does.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import io
from .conditions import generate_synthetic
from .core import (
    ContractError,
    DataError,
    EdcrError,
    PredictionTable,
    VerificationError,
    compute_class_stats,
    name_column,
)
from .evaluate import (
    ScoringMode,
    error_detection_metrics,
    metrics_report,
    sequential_split,
    epsilon_sweep,
    unseen_class_experiment,
)
from .learn import det_corr_rule_learn
from .rules import apply_ruleset
from .theory import check_correction_scenarios, check_submodular, detection_effect, theorem_report

EXIT_OK = 0


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ContractError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ContractError(f"expected at least one number, got {text!r}")
    return values


def _parse_epsilon(args, classes) -> float | dict[str, float]:
    """Scalar epsilon, or a full per-class mapping with --epsilon-per-class
    entries overriding the scalar default."""
    if not args.epsilon_per_class:
        return args.epsilon
    mapping = {name: args.epsilon for name in classes.names}
    for chunk in args.epsilon_per_class.split(","):
        if "=" not in chunk:
            raise ContractError(f"expected class=value, got {chunk!r}")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name not in mapping:
            raise ContractError(f"--epsilon-per-class names unknown class {name!r}")
        try:
            mapping[name] = float(value)
        except ValueError:
            raise ContractError(f"bad epsilon value in {chunk!r}") from None
    return mapping


def cmd_gen(args) -> int:
    corpus = generate_synthetic(
        seed=args.seed,
        n_samples=args.samples,
        noise=args.noise,
        holdout_classes=args.holdout.split(",") if args.holdout else None,
        condition_noise=args.condition_noise,
    )
    out = _out_dir(args)
    trajectories = out / "trajectories.csv"
    predictions = out / "predictions.csv"
    conditions = out / "conditions.csv"
    io.write_trajectories(trajectories, corpus.records)
    io.write_predictions(predictions, corpus.table)
    io.write_conditions(conditions, corpus.table, corpus.conditions)
    io.write_manifest(
        out,
        command="gen",
        config={
            "samples": args.samples,
            "noise": args.noise,
            "holdout": args.holdout or "",
            "condition_noise": args.condition_noise,
        },
        output_paths=[trajectories, predictions, conditions],
        seed=args.seed,
    )
    print(f"wrote {corpus.table.n} samples, {corpus.conditions.n_conditions} conditions to {out}")
    return EXIT_OK


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _labeled_table(args):
    table = io.read_predictions(args.predictions)
    if not table.has_ground_truth:
        raise ContractError(f"{args.predictions}: predictions file has no gt column")
    return table


def cmd_learn(args) -> int:
    table = _labeled_table(args)
    conds = io.read_conditions(args.conditions, table)
    rule_set = det_corr_rule_learn(_parse_epsilon(args, table.classes), table, conds)
    stats = compute_class_stats(table)

    out = _out_dir(args)
    ruleset_path = out / "ruleset.yaml"
    io.save_ruleset(ruleset_path, rule_set)
    io.write_manifest(
        out,
        command="learn",
        config={"epsilon": rule_set.epsilon},
        input_paths=[args.predictions, args.conditions],
        output_paths=[ruleset_path],
    )

    names = table.classes.names
    for i, name in enumerate(names):
        det = rule_set.detection_by_class.get(i)
        corr = rule_set.correction_by_class.get(i)
        if det is not None:
            dp, dr = detection_effect(det, stats)
            effect = " (degenerate stats)" if dp is None else f" predicted dP={dp:+.4f} dR={-dr:+.4f}"
            print(
                f"{name}: detect via {list(det.conditions)} "
                f"s_i={det.class_support:.4f} c={det.confidence:.4f}{effect}"
            )
        else:
            print(f"{name}: no detection rule")
        if corr is not None:
            pairs = [(cond, names[cls]) for cond, cls in corr.pairs]
            print(f"{name}: correct via {pairs} s={corr.support:.4f} c={corr.confidence:.4f}")
    print(f"wrote {ruleset_path}")
    return EXIT_OK


def cmd_apply(args) -> int:
    rule_set = io.load_ruleset(args.ruleset)
    table = io.read_predictions(args.predictions, classes=rule_set.classes)
    conds = io.read_conditions(args.conditions, table)
    revised, trace = apply_ruleset(rule_set, table, conds)

    out = _out_dir(args)
    revised_path = out / "revised.csv"
    trace_path = out / "trace.csv"
    io.write_predictions(revised_path, revised)
    io.write_trace(trace_path, trace)
    io.write_manifest(
        out,
        command="apply",
        config={},
        input_paths=[args.ruleset, args.predictions, args.conditions],
        output_paths=[revised_path, trace_path],
    )
    n_unknown = int(np.count_nonzero(revised.pred_ids == -1))
    n_changed = int(np.count_nonzero(revised.pred_ids != table.pred_ids))
    print(f"revised {n_changed} of {table.n} predictions ({n_unknown} now unknown); wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    table = _labeled_table(args)
    mode = ScoringMode.from_string(args.mode)
    report = metrics_report(table, mode=mode)
    if args.trace:
        trace = io.read_trace(args.trace, table.classes)
        rows = trace.rows_for(table.sample_ids, source=str(args.trace))
        # detection verdicts are scored against the original predictions
        original = trace.original[rows]
        if trace.classes == table.classes:
            original_table = table.with_predictions(original)
        else:  # the trace names a class revised.csv no longer predicts: compare names
            gt = table.names(table.gt_ids)
            original_table = PredictionTable.from_names(
                trace.classes, table.sample_ids, name_column(trace.classes.names, original), gt
            )
        detection = error_detection_metrics(trace.flagged[rows], original_table)
        report = dataclasses.replace(report, error_detection=detection)

    out = _out_dir(args)
    metrics_path = out / "metrics.csv"
    io.write_metrics(metrics_path, report)
    inputs = [args.predictions] + ([args.trace] if args.trace else [])
    io.write_manifest(
        out,
        command="eval",
        config={"mode": mode.value},
        input_paths=inputs,
        output_paths=[metrics_path],
    )
    print(f"accuracy ({mode.value}): {report.accuracy:.4f}")
    for entry in report.per_class:
        print(
            f"{entry.class_name}: P={entry.precision:.4f} R={entry.recall:.4f} F1={entry.f1:.4f}"
        )
    if report.error_detection is not None:
        d = report.error_detection
        print(f"error detection: P={d.precision:.4f} R={d.recall:.4f} F1={d.f1:.4f}")
    print(f"wrote {metrics_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    table = _labeled_table(args)
    conds = io.read_conditions(args.conditions, table)
    epsilons = _parse_floats(args.epsilons)
    split = sequential_split(table, conds, args.learn_fraction)
    rows = epsilon_sweep(epsilons, split)

    out = _out_dir(args)
    sweep_path = out / "sweep.csv"
    io.write_sweep(sweep_path, rows)
    io.write_manifest(
        out,
        command="sweep",
        config={"epsilons": epsilons, "learn_fraction": args.learn_fraction},
        input_paths=[args.predictions, args.conditions],
        output_paths=[sweep_path],
    )
    print(f"wrote {len(rows)} sweep rows to {sweep_path}")
    return EXIT_OK


def cmd_unseen(args) -> int:
    table = _labeled_table(args)
    conds = io.read_conditions(args.conditions, table)
    fractions = _parse_floats(args.fractions)
    rows = unseen_class_experiment(
        table,
        conds,
        holdout=args.holdout.split(","),
        fractions=fractions,
        epsilon=args.epsilon,
        learn_fraction=args.learn_fraction,
    )

    out = _out_dir(args)
    unseen_path = out / "unseen.csv"
    io.write_unseen(unseen_path, rows)
    io.write_manifest(
        out,
        command="unseen",
        config={
            "holdout": args.holdout,
            "fractions": fractions,
            "epsilon": args.epsilon,
            "learn_fraction": args.learn_fraction,
        },
        input_paths=[args.predictions, args.conditions],
        output_paths=[unseen_path],
    )
    for row in rows:
        print(
            f"fraction={row.fraction:.2f}: baseline={row.baseline_accuracy:.4f} "
            f"edcr={row.edcr_accuracy:.4f} delta={row.delta:+.4f}"
        )
    print(f"wrote {unseen_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # the correction theorems replay constructed scenarios seeded from this
    # run; they read no input, so a bad count or seed fails before any read
    correction_fail = not check_correction_scenarios(args.correction_scenarios, args.seed)
    table = _labeled_table(args)
    conds = io.read_conditions(args.conditions, table)

    reports = theorem_report(table, conds, epsilon=args.epsilon)
    failures = [r for r in reports if not r.passed]
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        note = f" ({r.note})" if r.note else ""
        print(
            f"detection theorems {r.class_name}: {status}{note} "
            f"dP pred={r.predicted_delta_precision:+.6f} meas={r.empirical_delta_precision:+.6f} "
            f"dR pred={-r.predicted_delta_recall:+.6f} meas={r.empirical_delta_recall:+.6f}"
        )

    submodular_fail = False
    for quantity in ("pos", "neg", "bod"):
        result = check_submodular(quantity, 0, table, conds, trials=args.trials, seed=args.seed)
        status = "ok" if result.passed else "FAIL"
        scope = "exhaustive" if result.exhaustive else f"{result.pairs_checked} sampled pairs"
        print(f"submodularity {quantity}: {status} ({scope})")
        if not result.passed:
            submodular_fail = True
            print(f"  counterexample: {result.counterexample}")

    print(f"correction theorems: {'FAIL' if correction_fail else 'ok'} "
          f"({args.correction_scenarios} constructed scenarios)")

    out = _out_dir(args)
    report_path = out / "theorem_report.csv"
    io.write_theorem_reports(report_path, reports)
    io.write_manifest(
        out,
        command="verify",
        config={"epsilon": args.epsilon, "trials": args.trials,
                "correction_scenarios": args.correction_scenarios},
        input_paths=[args.predictions, args.conditions],
        output_paths=[report_path],
        seed=args.seed,
    )
    print(f"wrote {report_path}")
    if failures or submodular_fail or correction_fail:
        raise VerificationError("one or more theorem checks failed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edcr",
        description="Learn, apply, and verify error-detecting and error-correcting rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--noise", type=float, default=0.25)
    p.add_argument("--holdout", default="", help="comma-separated classes the mock model never predicts")
    p.add_argument("--condition-noise", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("learn", help="learn a rule set from predictions + conditions")
    p.add_argument("--predictions", required=True)
    p.add_argument("--conditions", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--epsilon-per-class", default="", help="overrides, e.g. walk=0.05,bike=0.2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("apply", help="apply a saved rule set to predictions")
    p.add_argument("--ruleset", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--conditions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("eval", help="score a (possibly revised) predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--trace", default="", help="trace.csv from apply, for error-detection metrics")
    p.add_argument("--mode", default="strict", help="strict or novel-aware")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="epsilon sweep with theoretical recall overlay")
    p.add_argument("--predictions", required=True)
    p.add_argument("--conditions", required=True)
    p.add_argument("--epsilons", default="0,0.05,0.1,0.2,0.3")
    p.add_argument("--learn-fraction", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("unseen", help="zero/few-shot unseen-class experiment")
    p.add_argument("--predictions", required=True)
    p.add_argument("--conditions", required=True)
    p.add_argument("--holdout", required=True, help="comma-separated holdout classes")
    p.add_argument("--fractions", default="0,0.1,0.2")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--learn-fraction", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unseen)

    p = sub.add_parser("verify", help="run theorem and submodularity checks on a corpus")
    p.add_argument("--predictions", required=True)
    p.add_argument("--conditions", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--correction-scenarios", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EdcrError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:  # a file that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
