"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 a file that cannot be read,
decoded, parsed or written, 3 precondition failure, 4 runtime failure; a
failing command writes one line, "<command>: <message>", to stderr.  Dataset
paths come from flags or the CTXCLASS_DATA_DIR environment variable; nothing
is fetched from the network.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import data, harness, preprocess, taxonomy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LOAD = 2
EXIT_PRECONDITION = 3
EXIT_RUNTIME = 4


class _Refusal(Exception):
    """A command's refusal to run: ``main`` reports the message and exits
    with the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _mapped(code: int, error: type[ValueError] = ValueError):
    """Turn an ``error`` raised in the block into a refusal with ``code``."""
    try:
        yield
    except error as exc:
        raise _Refusal(code, str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _default_path(filename: str) -> Path | None:
    d = os.environ.get("CTXCLASS_DATA_DIR")
    p = Path(d) / filename if d else None
    return p if p and p.exists() else None


def _bin_count(text: str) -> int:
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 bins, got {k}")
    return k


def _tolerance(text: str) -> float:
    eps = float(text)
    if not data.SUM_TOLERANCE <= eps < float("inf"):
        raise argparse.ArgumentTypeError(
            f"need a finite tolerance >= {data.SUM_TOLERANCE:g}, got {text}")
    return eps


def _split_count(text: str) -> int:
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 splits for the paired t-test, got {k}")
    return k


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctxclass", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("taxonomy", parents=[], help="label features primary/contextual/irrelevant")
    p.add_argument("--data", help="CSV data file (requires --schema)")
    p.add_argument("--schema", help="JSON schema sidecar for --data")
    p.add_argument("--spec", help="JSON joint-distribution file (exact probabilities)")
    p.add_argument("--eps", type=_tolerance, default=None,
                   help="comparison tolerance (default: 1e-9 for --spec, 0.03 for --data)")
    p.add_argument("--bins", type=_bin_count, default=None,
                   help="equal-frequency bin count for continuous features of --data")
    p.add_argument("--json", dest="json_out", help="also write the verdict as JSON")

    p = sub.add_parser("run-grid", help="run the 8-combo strategy grid")
    p.add_argument("--dataset", required=True, choices=("vowel", "hepatitis"))
    p.add_argument("--train", help="vowel training file (default: $CTXCLASS_DATA_DIR/vowel-context.data)")
    p.add_argument("--test", help="vowel testing file (default: same as --train)")
    p.add_argument("--data", help="hepatitis file (default: $CTXCLASS_DATA_DIR/hepatitis.data)")
    p.add_argument("--classifier", default="nn", choices=harness.CLASSIFIERS)
    p.add_argument("--splits", type=_split_count, default=10,
                   help="hepatitis split count (at least 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="base path for report files (.txt/.csv/.schema.json)")

    p = sub.add_parser("compare-normalizers", help="grid of classifiers x normalization methods")
    p.add_argument("--train", help="training CSV (requires --train-schema)")
    p.add_argument("--train-schema")
    p.add_argument("--test", help="testing CSV (requires --test-schema)")
    p.add_argument("--test-schema")
    p.add_argument("--shift", type=float, default=5.0, help="synthetic context shift")
    p.add_argument("--noise", type=float, default=0.1, help="synthetic noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline-class", default=None,
                   help="class label whose training rows form the baseline set (default: first)")
    p.add_argument("--out", help="base path for report files")

    p = sub.add_parser("synth", help="generate a planted-context train/test pair")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--features", type=int, default=3)
    p.add_argument("--train-rows", type=int, default=200)
    p.add_argument("--test-rows", type=int, default=200)
    p.add_argument("--shift", type=float, default=5.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix (writes <out>.train.csv etc.)")

    p = sub.add_parser("impute", help="fill MISSING cells by nearest-neighbor donation")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--train", help="donor CSV (default: --data imputed against itself)")
    p.add_argument("--train-schema")
    p.add_argument("--out", required=True)

    p = sub.add_parser("normalize", help="normalize the primary features of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--mode", default="zscore",
                   choices=("minmax", "zscore", "percentile", "contextual"))
    p.add_argument("--context", help="context feature for --mode contextual")
    p.add_argument("--bins", type=_bin_count, default=None,
                   help="equal-frequency bins for a continuous context feature")
    p.add_argument("--out", required=True)
    return parser


def _cmd_taxonomy(args) -> None:
    if bool(args.spec) == bool(args.data):
        raise _Refusal(EXIT_USAGE, "exactly one of --spec or --data is required")
    if args.spec and (args.schema, args.bins) != (None, None):
        raise _Refusal(EXIT_USAGE, "--schema and --bins apply only to --data")
    if args.spec:
        try:
            dist = data.JointDistribution.from_json(Path(args.spec).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise _Refusal(EXIT_LOAD, f"cannot load {args.spec}: {exc}") from None
        eps = args.eps if args.eps is not None else taxonomy.EXACT_EPS
    else:
        if not args.schema:
            raise _Refusal(EXIT_USAGE, "--data requires --schema")
        ds = data.load_table(args.data, args.schema)
        continuous = [f.name for f in ds.schema if f.kind == "continuous"]
        if bool(continuous) != (args.bins is not None):
            raise _Refusal(EXIT_PRECONDITION,
                           f"continuous features {continuous} need --bins to discretize" if continuous
                           else "--bins needs a continuous feature to discretize")
        with _mapped(EXIT_PRECONDITION):
            if continuous:
                ds = _discretize(ds, args.bins)
            dist = taxonomy.estimate_distribution(ds)
        eps = args.eps if args.eps is not None else taxonomy.EMPIRICAL_EPS
    verdict = taxonomy.classify_features(dist, eps)
    print(taxonomy.verdict_table(verdict))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(taxonomy.verdict_json(verdict), indent=2) + "\n",
                                       encoding="utf-8")


def _discretize(ds: data.Dataset, k: int) -> data.Dataset:
    """Equal-frequency-bin every continuous feature so the taxonomy tests apply."""
    feats, values = list(ds.schema), ds.values.copy()
    for i, f in enumerate(ds.schema):
        if f.kind == "continuous":
            values[:, i] = preprocess._bin_column(preprocess.column_bins(ds, i, k), values[:, i])
            feats[i] = data.Feature(f.name, f.role, "discrete", tuple(f"b{j}" for j in range(k)))
    return data.Dataset(data.FeatureSchema(tuple(feats)), values)


def _cmd_run_grid(args) -> None:
    with _mapped(EXIT_RUNTIME):
        if args.dataset == "vowel":
            train_path = args.train or _default_path("vowel-context.data")
            test_path = args.test or train_path
            if train_path is None:
                raise _Refusal(EXIT_LOAD, "vowel files not found; "
                               "pass --train/--test or set CTXCLASS_DATA_DIR")
            train, test = data.load_vowel(train_path, test_path)
            report = harness.run_vowel_grid(train, test, args.classifier)
        else:
            path = args.data or _default_path("hepatitis.data")
            if path is None:
                raise _Refusal(EXIT_LOAD, "hepatitis file not found; "
                               "pass --data or set CTXCLASS_DATA_DIR")
            ds = data.load_hepatitis(path)
            report = harness.run_hepatitis_grid(
                ds, n_splits=args.splits, seed=args.seed, classifier=args.classifier
            )
    print(harness.emit_table(report, "text"))
    singles, joint = harness.synergy(report)
    print(f"synergy: separate strategies gain {singles} points, together {joint} points")
    if args.out:
        harness.write_report(report, args.out)


def _check_same_schema(train, test, train_schema, test_schema) -> None:
    """Models apply by the training schema's column positions and codes, so
    a pair whose sidecars differ is a load error."""
    if train.schema != test.schema:
        raise data.LoadError(f"{train_schema} and {test_schema} describe different schemas")


def _cmd_compare_normalizers(args) -> None:
    if args.train:
        if not (args.train_schema and args.test and args.test_schema):
            raise _Refusal(EXIT_USAGE, "--train requires --train-schema, --test, --test-schema")
        train = data.load_table(args.train, args.train_schema)
        test = data.load_table(args.test, args.test_schema)
        _check_same_schema(train, test, args.train_schema, args.test_schema)
    else:
        with _mapped(EXIT_USAGE):  # synthetic-pair parameters
            params = data.PlantedContextParams(shift=args.shift, noise=args.noise)
        with _mapped(EXIT_USAGE, data.NonFiniteRowsError):
            train, test = data.plant_context_dataset(params, args.seed)
    if test.n_rows == 0:
        raise _Refusal(EXIT_PRECONDITION, "test set has no rows")
    feature = train.schema.class_feature
    label = args.baseline_class or feature.alphabet[0]
    (baseline_rows,) = (train.class_codes() == feature.codes.get(label, -1)).nonzero()
    if not baseline_rows.size:
        raise _Refusal(EXIT_PRECONDITION, f"no training rows with class {label!r}")
    baseline = train.subset(baseline_rows)
    with _mapped(EXIT_RUNTIME):
        report = harness.run_normalization_comparison(train, test, baseline=baseline)
    print(harness.emit_table(report, "text"))
    if args.out:
        harness.write_report(report, args.out)


def _cmd_synth(args) -> None:
    with _mapped(EXIT_USAGE):
        params = data.PlantedContextParams(
            n_classes=args.classes,
            n_primary=args.features,
            n_train=args.train_rows,
            n_test=args.test_rows,
            shift=args.shift,
            noise=args.noise,
        )
    with _mapped(EXIT_USAGE, data.NonFiniteRowsError):
        train, test = data.plant_context_dataset(params, args.seed)
    out = Path(args.out)
    data.write_table(train, out.with_suffix(".train.csv"), out.with_suffix(".train.schema.json"))
    data.write_table(test, out.with_suffix(".test.csv"), out.with_suffix(".test.schema.json"))
    print(f"wrote {out.with_suffix('.train.csv')} and {out.with_suffix('.test.csv')}")


def _cmd_impute(args) -> None:
    target = data.load_table(args.data, args.schema)
    if args.train:
        train_schema = args.train_schema or args.schema
        train = data.load_table(args.train, train_schema)
        _check_same_schema(train, target, train_schema, args.schema)
    else:
        train = target
    with _mapped(EXIT_PRECONDITION):
        filled = preprocess.impute_missing(train, target)
    data.write_table(filled, args.out)
    print(f"wrote {args.out} ({target.missing_count()} cells filled)")


def _cmd_normalize(args) -> None:
    if args.mode != "contextual" and (args.context, args.bins) != (None, None):
        raise _Refusal(EXIT_USAGE, "--context and --bins apply only to --mode contextual")
    ds = data.load_table(args.data, args.schema)
    context = None
    if args.mode == "contextual":
        if not args.context:
            raise _Refusal(EXIT_USAGE, "--mode contextual requires --context")
        if args.context not in [ds.schema.names[i] for i in ds.schema.contextual_indices]:
            raise _Refusal(EXIT_USAGE, f"{args.context!r} is not a contextual feature")
        ctx_idx = ds.schema.index_of(args.context)
        continuous = ds.schema.features[ctx_idx].kind == "continuous"
        if continuous != (args.bins is not None):
            raise _Refusal(EXIT_PRECONDITION, "continuous context requires --bins" if continuous
                           else "--bins needs a continuous context to discretize")
        with _mapped(EXIT_PRECONDITION):
            boundaries = preprocess.column_bins(ds, ctx_idx, args.bins) if continuous else None
        context = preprocess.ContextKey(args.context, boundaries)
    with _mapped(EXIT_RUNTIME):
        config = preprocess.PipelineConfig(
            normalize=args.mode, context=context, impute=ds.missing_count() > 0
        )
        out, _ = preprocess.run_pipeline(config, ds, ds.subset([]))
    data.write_table(out, args.out)
    print(f"wrote {args.out}")


_COMMANDS = {
    "taxonomy": _cmd_taxonomy,
    "run-grid": _cmd_run_grid,
    "compare-normalizers": _cmd_compare_normalizers,
    "synth": _cmd_synth,
    "impute": _cmd_impute,
    "normalize": _cmd_normalize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _COMMANDS[args.command](args)
    except _Refusal as exc:
        code, message = exc.code, exc
    except (data.LoadError, OSError) as exc:  # unreadable, undecodable, unparsable, unwritable
        code, message = EXIT_LOAD, exc
    else:
        return EXIT_OK
    sys.stderr.write(f"{args.command}: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
