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
from .core import ContractError, DataError, EdcrError, VerificationError, check_count
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
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ContractError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_epsilon(args, classes) -> float | dict[str, float]:
    """Scalar epsilon, or a full per-class mapping with --epsilon-per-class
    entries, at most one per class, overriding the scalar default; the
    library rejects a name that is not a class (``rules.check_epsilon``)."""
    if not args.epsilon_per_class:
        return args.epsilon
    overrides: dict[str, float] = {}
    for chunk in args.epsilon_per_class.split(","):
        if "=" not in chunk:
            raise ContractError(f"expected class=value, got {chunk!r}")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name in overrides:
            raise ContractError(f"--epsilon-per-class names class {name!r} more than once")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ContractError(f"bad epsilon value in {chunk!r}") from None
    return {**dict.fromkeys(classes.names, args.epsilon), **overrides}


def cmd_gen(args) -> int:
    corpus = generate_synthetic(
        seed=args.seed,
        n_samples=args.samples,
        noise=args.noise,
        holdout_classes=args.holdout.split(",") if args.holdout else None,
        condition_noise=args.condition_noise,
    )
    config = {"samples": args.samples, "noise": args.noise, "holdout": args.holdout or "",
              "condition_noise": args.condition_noise}
    table = corpus.table
    out = _save(
        args,
        config,
        ("predictions.csv", io.write_predictions, table),
        ("conditions.csv", io.write_conditions, table, corpus.conditions),
        seed=args.seed,
    )
    print(f"wrote {table.n} samples, {corpus.conditions.n_conditions} conditions to {out}")
    return EXIT_OK


def _save(args, config, *outputs, seed=None) -> Path:
    """Write each ``(file name, writer, *data)`` output into ``--out`` in the
    order given, then the manifest, which records the files named by
    whichever input flags the command has and was given, each under its flag,
    and digests the outputs. Return the directory. An input's digest is that
    of the bytes its reader parsed (``io._digesting``), so an output that
    replaces its own input does not lend it its digest, and an earlier run's
    manifest is deleted first, so a run that fails part way leaves none."""
    flags = ("ruleset", "predictions", "conditions", "trace")
    inputs = {
        flag: {"path": str(path), "sha256": args.digests[str(Path(path))]}
        for flag in flags if (path := getattr(args, flag, ""))
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for name, writer, *data in outputs:
        writer(out / name, *data)
    io.write_manifest(
        out,
        command=args.command,
        config=config,
        inputs=inputs,
        output_paths=[out / name for name, *_ in outputs],
        seed=seed,
    )
    return out


def _labeled_table(args):
    table = io.read_predictions(args.predictions)
    if not table.has_ground_truth:
        raise ContractError(f"{args.predictions}: predictions file has no gt column")
    return table


def _corpus(args):
    """The labeled predictions table and its conditions."""
    table = _labeled_table(args)
    return table, io.read_conditions(args.conditions, table)


def cmd_learn(args) -> int:
    table, conds = _corpus(args)
    rule_set = det_corr_rule_learn(_parse_epsilon(args, table.classes), table, conds)
    out = _save(args, {"epsilon": rule_set.epsilon}, ("ruleset.yaml", io.save_ruleset, rule_set))

    names = table.classes.names
    for i, name in enumerate(names):
        det = rule_set.detection_by_class.get(i)
        corr = rule_set.correction_by_class.get(i)
        if det is not None:
            dp, dr = detection_effect(det, table.stats)
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
    print(f"wrote {out / 'ruleset.yaml'}")
    return EXIT_OK


def cmd_apply(args) -> int:
    rule_set = io.load_ruleset(args.ruleset)
    table = io.read_predictions(args.predictions, classes=rule_set.classes)
    conds = io.read_conditions(args.conditions, table)
    revised, trace = apply_ruleset(rule_set, table, conds)
    out = _save(
        args, {}, ("revised.csv", io.write_predictions, revised), ("trace.csv", io.write_trace, trace)
    )
    n_unknown = int(np.count_nonzero(revised.pred_ids == -1))
    n_changed = int(np.count_nonzero(revised.pred_ids != table.pred_ids))
    print(f"revised {n_changed} of {table.n} predictions ({n_unknown} now unknown); wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    table = _labeled_table(args)
    mode = ScoringMode.from_string(args.mode)
    detection = None
    if args.trace:
        trace = io.read_trace(args.trace, table)
        differs = np.flatnonzero(trace.final != table.pred_ids)  # the trace's class set extends the table's
        if differs.size:
            raise DataError(f"{args.trace}: final class of sample id {table.sample_ids[differs[0]]!r} "
                            f"differs from {args.predictions}")
        # scored over the trace's class set, which keeps a class apply routed every prediction away from
        table = trace.table.with_predictions(trace.final)
        # detection verdicts are scored against the original predictions
        detection = error_detection_metrics(trace.flagged, trace.table)
    report = dataclasses.replace(metrics_report(table, mode=mode), error_detection=detection)

    out = _save(args, {"mode": mode.value}, ("metrics.csv", io.write_metrics, report))
    print(f"accuracy ({mode.value}): {report.accuracy:.4f}")
    stats = report.stats
    for i, name in enumerate(stats.classes.names):
        print(f"{name}: P={stats.precision[i]:.4f} R={stats.recall[i]:.4f} F1={stats.f1[i]:.4f}")
    if report.error_detection is not None:
        d = report.error_detection
        print(f"error detection: P={d.precision:.4f} R={d.recall:.4f} F1={d.f1:.4f}")
    print(f"wrote {out / 'metrics.csv'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    table, conds = _corpus(args)
    epsilons = _parse_floats(args.epsilons)
    split = sequential_split(table, conds, args.learn_fraction)
    rows = epsilon_sweep(epsilons, split)
    config = {"epsilons": epsilons, "learn_fraction": args.learn_fraction}
    out = _save(args, config, ("sweep.csv", io.write_sweep, rows))
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_unseen(args) -> int:
    table, conds = _corpus(args)
    fractions = _parse_floats(args.fractions)
    rows = unseen_class_experiment(
        table,
        conds,
        holdout=args.holdout.split(","),
        fractions=fractions,
        epsilon=args.epsilon,
        learn_fraction=args.learn_fraction,
    )
    config = {"holdout": args.holdout, "fractions": fractions, "epsilon": args.epsilon,
              "learn_fraction": args.learn_fraction}
    out = _save(args, config, ("unseen.csv", io.write_unseen, rows))
    for row in rows:
        print(
            f"fraction={row.fraction:.2f}: baseline={row.baseline_accuracy:.4f} "
            f"edcr={row.edcr_accuracy:.4f} delta={row.delta:+.4f}"
        )
    print(f"wrote {out / 'unseen.csv'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # a bad trial count, scenario count or seed fails before any read: the
    # correction theorems replay scenarios seeded from this run and read no input
    check_count("trials", args.trials)
    correction_fail = not check_correction_scenarios(args.correction_scenarios, args.seed)
    table, conds = _corpus(args)
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
        skipped = not result.exhaustive and not result.pairs_checked  # --trials 0 on a sampled scan
        status = "FAIL" if not result.passed else "skipped" if skipped else "ok"
        scope = "exhaustive" if result.exhaustive else f"{result.pairs_checked} sampled pairs"
        print(f"submodularity {quantity}: {status} ({scope})")
        if not result.passed:
            submodular_fail = True
            print(f"  counterexample: {result.counterexample}")

    status = "FAIL" if correction_fail else "ok" if args.correction_scenarios else "skipped"
    print(f"correction theorems: {status} ({args.correction_scenarios} constructed scenarios)")
    config = {"epsilon": args.epsilon, "trials": args.trials,
              "correction_scenarios": args.correction_scenarios}
    out = _save(args, config, ("theorem_report.csv", io.write_theorem_reports, reports), seed=args.seed)
    print(f"wrote {out / 'theorem_report.csv'}")
    if failures or submodular_fail or correction_fail:
        raise VerificationError("one or more theorem checks failed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edcr",
        description="Learn, apply, and verify error-detecting and error-correcting rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(flag, **options) -> argparse.ArgumentParser:  # a flag several commands take, declared once
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(flag, **options)
        return parent

    predictions, conditions = shared("--predictions", required=True), shared("--conditions", required=True)
    epsilon = shared("--epsilon", type=float, default=0.1)
    learn_fraction = shared("--learn-fraction", type=float, default=0.5)
    seed = shared("--seed", type=int, default=0)
    out = shared("--out", required=True)

    def command(name, func, help, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, "generate a synthetic corpus", seed)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--noise", type=float, default=0.25)
    p.add_argument("--holdout", default="", help="comma-separated classes the mock model never predicts")
    p.add_argument("--condition-noise", type=float, default=0.05)

    p = command("learn", cmd_learn, "learn a rule set from predictions + conditions",
                predictions, conditions, epsilon)
    p.add_argument("--epsilon-per-class", default="", help="overrides, e.g. walk=0.05,bike=0.2")

    p = command("apply", cmd_apply, "apply a saved rule set to predictions", predictions, conditions)
    p.add_argument("--ruleset", required=True)

    p = command("eval", cmd_eval, "score a (possibly revised) predictions file", predictions)
    p.add_argument("--trace", default="", help="trace.csv from apply, for error-detection metrics")
    p.add_argument("--mode", default="strict", help="strict or novel-aware")

    p = command("sweep", cmd_sweep, "epsilon sweep with theoretical recall overlay",
                predictions, conditions, learn_fraction)
    p.add_argument("--epsilons", default="0,0.05,0.1,0.2,0.3")

    p = command("unseen", cmd_unseen, "zero/few-shot unseen-class experiment",
                predictions, conditions, epsilon, learn_fraction)
    p.add_argument("--holdout", required=True, help="comma-separated holdout classes")
    p.add_argument("--fractions", default="0,0.1,0.2")

    p = command("verify", cmd_verify, "run theorem and submodularity checks on a corpus",
                predictions, conditions, epsilon, seed)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--correction-scenarios", type=int, default=100)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with io._digesting() as args.digests:
            return args.func(args)
    except EdcrError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:  # a file that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
