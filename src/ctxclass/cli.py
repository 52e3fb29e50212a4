"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 input/load error, 3 precondition
failure, 4 runtime failure.  Dataset paths come from flags or the
CTXCLASS_DATA_DIR environment variable; nothing is fetched from the network.
"""

from __future__ import annotations

import argparse
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


class _UsageError(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _data_dir() -> Path | None:
    d = os.environ.get("CTXCLASS_DATA_DIR")
    return Path(d) if d else None


def _default_path(filename: str) -> Path | None:
    d = _data_dir()
    if d is None:
        return None
    p = d / filename
    return p if p.exists() else None


def _bin_count(text: str) -> int:
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 bins, got {k}")
    return k


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
    p.add_argument("--eps", type=float, default=None,
                   help="comparison tolerance (default: 1e-9 for --spec, 0.03 for --data)")
    p.add_argument("--bins", type=_bin_count, default=None,
                   help="equal-frequency bin count for continuous features")
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
                   choices=[m for m in preprocess.NORMALIZE_MODES if m not in ("off", "baseline")])
    p.add_argument("--context", help="context feature for --mode contextual")
    p.add_argument("--bins", type=_bin_count, default=None,
                   help="equal-frequency bins for a continuous context feature")
    p.add_argument("--out", required=True)
    return parser


def _cmd_taxonomy(args) -> int:
    if bool(args.spec) == bool(args.data):
        sys.stderr.write("taxonomy: exactly one of --spec or --data is required\n")
        return EXIT_USAGE
    if args.spec:
        try:
            spec = data.JointSpec.from_json(Path(args.spec).read_text())
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"taxonomy: cannot load {args.spec}: {exc}\n")
            return EXIT_LOAD
        dist = taxonomy.JointDistribution.from_spec(spec)
        eps = args.eps if args.eps is not None else taxonomy.EXACT_EPS
    else:
        if not args.schema:
            sys.stderr.write("taxonomy: --data requires --schema\n")
            return EXIT_USAGE
        try:
            ds = data.load_table(args.data, args.schema)
        except (data.LoadError, OSError) as exc:
            sys.stderr.write(f"taxonomy: {exc}\n")
            return EXIT_LOAD
        continuous = [f.name for f in ds.schema if f.kind == "continuous"]
        if continuous and args.bins is None:
            sys.stderr.write(
                f"taxonomy: continuous features {continuous} need --bins to discretize\n"
            )
            return EXIT_PRECONDITION
        try:
            if continuous:
                ds = _discretize(ds, args.bins)
            dist = taxonomy.estimate_distribution(ds)
        except ValueError as exc:
            sys.stderr.write(f"taxonomy: {exc}\n")
            return EXIT_PRECONDITION
        eps = args.eps if args.eps is not None else taxonomy.EMPIRICAL_EPS
    verdict = taxonomy.classify_features(dist, eps)
    print(taxonomy.verdict_table(verdict))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(taxonomy.verdict_json(verdict), indent=2) + "\n")
    return EXIT_OK


def _discretize(ds: data.Dataset, k: int) -> data.Dataset:
    """Equal-frequency-bin every continuous feature so the taxonomy tests apply."""
    feats, values = list(ds.schema), ds.values.copy()
    for i, f in enumerate(ds.schema):
        if f.kind == "continuous":
            values[:, i] = preprocess._bin_column(preprocess.column_bins(ds, i, k), values[:, i])
            feats[i] = data.Feature(f.name, f.role, "discrete", tuple(f"b{j}" for j in range(k)))
    return data.Dataset(data.FeatureSchema(tuple(feats)), values)


def _cmd_run_grid(args) -> int:
    try:
        if args.dataset == "vowel":
            train_path = args.train or _default_path("vowel-context.data")
            test_path = args.test or train_path
            if train_path is None:
                sys.stderr.write(
                    "run-grid: vowel files not found; pass --train/--test or set CTXCLASS_DATA_DIR\n"
                )
                return EXIT_LOAD
            train, test = data.load_vowel(train_path, test_path)
            report = harness.run_vowel_grid(train, test, args.classifier)
        else:
            path = args.data or _default_path("hepatitis.data")
            if path is None:
                sys.stderr.write(
                    "run-grid: hepatitis file not found; pass --data or set CTXCLASS_DATA_DIR\n"
                )
                return EXIT_LOAD
            ds = data.load_hepatitis(path)
            report = harness.run_hepatitis_grid(
                ds, n_splits=args.splits, seed=args.seed, classifier=args.classifier
            )
    except (data.LoadError, OSError) as exc:
        sys.stderr.write(f"run-grid: {exc}\n")
        return EXIT_LOAD
    except ValueError as exc:
        sys.stderr.write(f"run-grid: {exc}\n")
        return EXIT_RUNTIME
    print(harness.emit_table(report, "text"))
    singles, joint = harness.synergy(report)
    print(f"synergy: separate strategies gain {singles} points, together {joint} points")
    if args.out:
        harness.write_report(report, args.out)
    return EXIT_OK


def _load_pair(args):
    if args.train:
        if not (args.train_schema and args.test and args.test_schema):
            raise _UsageError(EXIT_USAGE)
        train = data.load_table(args.train, args.train_schema)
        test = data.load_table(args.test, args.test_schema)
    else:
        params = data.PlantedContextParams(shift=args.shift, noise=args.noise)
        train, test = data.plant_context_dataset(params, args.seed)
    return train, test


def _cmd_compare_normalizers(args) -> int:
    try:
        train, test = _load_pair(args)
    except _UsageError:
        sys.stderr.write(
            "compare-normalizers: --train requires --train-schema, --test, --test-schema\n"
        )
        return EXIT_USAGE
    except (data.LoadError, OSError) as exc:
        sys.stderr.write(f"compare-normalizers: {exc}\n")
        return EXIT_LOAD
    label = args.baseline_class or train.schema.class_feature.alphabet[0]
    baseline_rows = [i for i, c in enumerate(train.class_labels()) if c == label]
    if not baseline_rows:
        sys.stderr.write(f"compare-normalizers: no training rows with class {label!r}\n")
        return EXIT_PRECONDITION
    baseline = train.subset(baseline_rows)
    try:
        report = harness.run_normalization_comparison(train, test, baseline=baseline)
    except ValueError as exc:
        sys.stderr.write(f"compare-normalizers: {exc}\n")
        return EXIT_RUNTIME
    print(harness.emit_table(report, "text"))
    if args.out:
        harness.write_report(report, args.out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        params = data.PlantedContextParams(
            n_classes=args.classes,
            n_primary=args.features,
            n_train=args.train_rows,
            n_test=args.test_rows,
            shift=args.shift,
            noise=args.noise,
        )
    except ValueError as exc:
        sys.stderr.write(f"synth: {exc}\n")
        return EXIT_USAGE
    train, test = data.plant_context_dataset(params, args.seed)
    out = Path(args.out)
    data.write_table(train, out.with_suffix(".train.csv"), out.with_suffix(".train.schema.json"))
    data.write_table(test, out.with_suffix(".test.csv"), out.with_suffix(".test.schema.json"))
    print(f"wrote {out.with_suffix('.train.csv')} and {out.with_suffix('.test.csv')}")
    return EXIT_OK


def _cmd_impute(args) -> int:
    try:
        target = data.load_table(args.data, args.schema)
        if args.train:
            train = data.load_table(args.train, args.train_schema or args.schema)
        else:
            train = target
    except (data.LoadError, OSError) as exc:
        sys.stderr.write(f"impute: {exc}\n")
        return EXIT_LOAD
    try:
        filled = preprocess.impute_missing(train, target)
    except ValueError as exc:
        sys.stderr.write(f"impute: {exc}\n")
        return EXIT_PRECONDITION
    data.write_table(filled, args.out)
    print(f"wrote {args.out} ({target.missing_count()} cells filled)")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    try:
        ds = data.load_table(args.data, args.schema)
    except (data.LoadError, OSError) as exc:
        sys.stderr.write(f"normalize: {exc}\n")
        return EXIT_LOAD
    context = None
    if args.mode == "contextual":
        if not args.context:
            sys.stderr.write("normalize: --mode contextual requires --context\n")
            return EXIT_USAGE
        if args.context not in ds.schema.names:
            sys.stderr.write(f"normalize: no feature named {args.context!r}\n")
            return EXIT_USAGE
        boundaries = None
        ctx_idx = ds.schema.index_of(args.context)
        if ds.schema.features[ctx_idx].kind == "continuous":
            if args.bins is None:
                sys.stderr.write("normalize: continuous context requires --bins\n")
                return EXIT_PRECONDITION
            try:
                boundaries = preprocess.column_bins(ds, ctx_idx, args.bins)
            except ValueError as exc:
                sys.stderr.write(f"normalize: {exc}\n")
                return EXIT_PRECONDITION
        context = preprocess.ContextKey(args.context, boundaries)
    try:
        config = preprocess.PipelineConfig(
            normalize=args.mode, context=context, impute=ds.missing_count() > 0
        )
        out, _ = preprocess.run_pipeline(config, ds, ds.subset([]))
    except ValueError as exc:
        sys.stderr.write(f"normalize: {exc}\n")
        return EXIT_RUNTIME
    data.write_table(out, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
