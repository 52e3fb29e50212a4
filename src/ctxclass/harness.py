"""Experiment orchestration: strategy grids, accuracy accounting, reports.

The strategy grid is the 2^3 cube of (contextual normalization, contextual
expansion, contextual weighting).  ``run_strategy_grid`` runs each pipeline
stage once per distinct prefix of the combos, which gives the same pairs as
one full pipeline per combo.  Percentages are reported as half-up rounded
integers, with exact correct counts kept alongside.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from ._dist import student_t_two_sided
from .classify import mlr_fit_many, mlr_predict_dataset, nn_fit, nn_predict_dataset
from .data import Dataset, Feature, FeatureRole, FeatureSchema, schema_to_json, split_random
from .preprocess import ContextKey, PipelineConfig, column_bins, run_pipeline

CLASSIFIERS = ("nn", "mlr")

#: grid in table order: (normalization, expansion, weighting), No-rows first
STRATEGY_COMBOS = (
    (False, False, False),
    (False, False, True),
    (False, True, False),
    (False, True, True),
    (True, False, False),
    (True, False, True),
    (True, True, False),
    (True, True, True),
)


def percent(correct: int, total: int) -> int:
    """Half-up integer percentage."""
    return int(math.floor(100.0 * correct / total + 0.5))


@dataclass(frozen=True)
class CellResult:
    combo: tuple  # strategy flags, or (classifier, normalizer) labels
    correct: int
    total: int

    def __post_init__(self):
        if not 0 <= self.correct <= self.total:
            raise ValueError("correct count out of range")

    @property
    def percent(self) -> int:
        return percent(self.correct, self.total)


@dataclass(frozen=True)
class TTestResult:
    combo: tuple
    t: float | None
    p: float | None
    no_variance: bool = False


@dataclass(frozen=True)
class ExperimentReport:
    dataset_id: str
    classifier_id: str
    cells: tuple[CellResult, ...]
    per_split: tuple = ()  # (split index, combo, correct, total) records
    significance: tuple[TTestResult, ...] = ()

    def cell(self, combo: tuple) -> CellResult:
        for c in self.cells:
            if c.combo == combo:
                return c
        raise KeyError(f"no cell for combo {combo!r}")


def evaluate(classifier: str, train: Dataset, test: Dataset) -> int:
    """Fit on train, count correct predictions on test."""
    return evaluate_many(classifier, [(train, test)])[0]


def evaluate_many(classifier: str, pairs: Sequence[tuple[Dataset, Dataset]]) -> list[int]:
    """Fit on each train of the (train, test) pairs and count correct predictions
    on its test: nn fits one train at a time, mlr fits them all in one mlr_fit_many."""
    trains = [train for train, _ in pairs]
    if classifier == "nn":
        models, predict = map(nn_fit, trains), nn_predict_dataset
    elif classifier == "mlr":
        models, predict = mlr_fit_many(trains), mlr_predict_dataset
    else:
        raise ValueError(f"unknown classifier {classifier!r}")
    return [int((predict(model, test) == test.class_codes()).sum())
            for model, (_, test) in zip(models, pairs)]


def run_strategy_grid(
    train: Dataset,
    test: Dataset,
    classifier: str,
    context: ContextKey,
    expand_feature: str,
    normalize: str = "contextual",
    impute: bool = False,
) -> tuple[CellResult, ...]:
    """Score the 8 combos of STRATEGY_COMBOS on one train/test pair.

    Each pipeline stage runs once per distinct prefix of the fixed order
    impute+encode -> normalize -> weight -> expand: the root pair is imputed
    (both splits in one ranking) and encoded once, then normalization and
    weighting run on every pair of the level before them when their flag is
    on and pass the pair through when it is off (1 normalization, 2
    weightings).  They rewrite only primary columns, and the expanded feature
    is contextual, so the one expansion of the root pair gives every expanded
    leaf its column and schema.  Every stage reads only the output of the
    stage before it and encoding already-encoded data changes nothing, so
    each leaf equals the full per-combo run_pipeline output.
    The normalizer is ``normalize``: "contextual" fits group statistics on
    the training split, "contextual-transductive" on each split's own rows.
    One evaluate_many call scores the 8 leaves, so their mlr fits run as stacks.
    """
    stages = (
        PipelineConfig(normalize=normalize, context=context),
        PipelineConfig(weight=True, context=context),
    )
    # leaf pairs keyed by the pipeline-order flags (normalize, weight, expand)
    leaves = {(): run_pipeline(PipelineConfig(impute=impute), train, test)}
    for stage in stages:
        leaves = {
            flags + (on,): run_pipeline(stage, *pair) if on else pair
            for flags, pair in leaves.items()
            for on in (False, True)
        }
    expanded = run_pipeline(PipelineConfig(expand=(expand_feature,)), *leaves[False, False])
    at = [train.schema.index_of(expand_feature)]
    leaves = {
        flags + (on,): tuple(ds.replace_columns(at, e.values[:, at], e.schema)
                             for ds, e in zip(pair, expanded)) if on else pair
        for flags, pair in leaves.items()
        for on in (False, True)
    }
    # table order (normalize, expand, weight) to pipeline order
    pairs = [leaves[(normalize, weight, expand)] for normalize, expand, weight in STRATEGY_COMBOS]
    return tuple(CellResult(combo, correct, test.n_rows)
                 for combo, correct in zip(STRATEGY_COMBOS, evaluate_many(classifier, pairs)))


def run_vowel_grid(train: Dataset, test: Dataset, classifier: str) -> ExperimentReport:
    """The 8-combo grid on the vowel pair: speaker is the context, sex is the
    expansion feature, and the normalizer is "contextual-transductive": the
    group statistics of each speaker are fitted on that speaker's own rows
    in whichever split they fall, then applied to those rows."""
    cells = run_strategy_grid(
        train,
        test,
        classifier,
        context=ContextKey("speaker"),
        expand_feature="sex",
        normalize="contextual-transductive",
    )
    return ExperimentReport("vowel", classifier, cells)


HEPATITIS_TRAIN_ROWS = 100
HEPATITIS_AGE_BINS = 5


def run_hepatitis_grid(
    dataset: Dataset, n_splits: int = 10, seed: int = 0, classifier: str = "nn"
) -> ExperimentReport:
    """Aggregate the 8-combo grid over seeded random train/test splits.

    Per split: HEPATITIS_TRAIN_ROWS rows train; the age context is cut into
    HEPATITIS_AGE_BINS equal-frequency intervals computed on them, then
    run_strategy_grid imputes from them and expands by age.  Counts are
    summed over splits; the patient's sex stays unused.
    """
    rng = random.Random(seed)
    split_seeds = [rng.randrange(2**32) for _ in range(n_splits)]
    per_split = []
    age_idx = dataset.schema.index_of("age")
    for s, split_seed in enumerate(split_seeds):
        train, test = split_random(dataset, HEPATITIS_TRAIN_ROWS, split_seed)
        context = ContextKey("age", column_bins(train, age_idx, HEPATITIS_AGE_BINS))
        grid = run_strategy_grid(train, test, classifier, context, "age", impute=True)
        per_split += [(s, c.combo, c.correct, c.total) for c in grid]
    by_combo = {combo: [r for r in per_split if r[1] == combo] for combo in STRATEGY_COMBOS}
    cells = tuple(
        CellResult(combo, sum(r[2] for r in records), sum(r[3] for r in records))
        for combo, records in by_combo.items()
    )
    accuracy = {combo: [r[2] / r[3] for r in records] for combo, records in by_combo.items()}
    significance = tuple(
        paired_t_test(accuracy[combo], accuracy[STRATEGY_COMBOS[0]], combo=combo)
        for combo in STRATEGY_COMBOS[1:]
    )
    return ExperimentReport(
        "hepatitis", classifier, cells, per_split=tuple(per_split), significance=significance
    )


NORMALIZER_MENU = (
    "none",
    "minmax",
    "zscore",
    "percentile",
    "baseline",
    "contextual-nn",
    "contextual-linear",
)


def run_normalization_comparison(
    train: Dataset,
    test: Dataset,
    baseline: Dataset | None = None,
) -> ExperimentReport:
    """One cell per (classifier of CLASSIFIERS, normalizer of NORMALIZER_MENU) on
    a labeled pair with context.

    Each normalizer is fitted on the training split, or, for "baseline",
    "contextual-nn" and "contextual-linear", on ``baseline``, the reference
    set.  The context is the first contextual feature; the regression context
    models read it as a number, so a discrete one is refused before any
    pipeline runs, as is a missing ``baseline``.  Each normalizer's pipeline
    runs once and feeds every classifier; the cells are listed classifier by
    classifier."""
    ctx_idx = train.schema.contextual_indices
    if not ctx_idx:
        raise ValueError("dataset has no contextual features")
    context = train.schema.features[ctx_idx[0]]
    if context.kind == "discrete":
        raise ValueError(f"context feature {context.name!r} is discrete; "
                         "contextual-nn and contextual-linear need a continuous context")
    # every config is built first, so a missing baseline is refused before any pipeline runs
    configs = [PipelineConfig(normalize=norm, context=ContextKey(context.name), baseline=baseline)
               for norm in NORMALIZER_MENU]
    correct = {}
    for config in configs:
        tr, te = run_pipeline(config, train, test)
        for classifier in CLASSIFIERS:
            correct[classifier, config.normalize] = evaluate(classifier, tr, te)
        del tr, te  # one normalized pair alive at a time
    cells = tuple(CellResult((c, n), correct[c, n], test.n_rows)
                  for c in CLASSIFIERS for n in NORMALIZER_MENU)
    return ExperimentReport("normalization-comparison", "+".join(CLASSIFIERS), cells)


def synergy(report: ExperimentReport) -> tuple[int, int]:
    """(sum of single-strategy gains, joint gain) in rounded percentage points."""
    base = report.cell((False, False, False)).percent
    singles = [
        report.cell(c).percent - base
        for c in ((True, False, False), (False, True, False), (False, False, True))
    ]
    joint = report.cell((True, True, True)).percent - base
    return sum(singles), joint


def paired_t_test(
    acc_a: Sequence[float], acc_b: Sequence[float], combo: tuple = ()
) -> TTestResult:
    """Two-sided paired Student t on per-split accuracy differences; the
    p-value is the Student tail of ``_dist``, an incomplete beta function."""
    if len(acc_a) != len(acc_b):
        raise ValueError("sequences must have equal length")
    if len(acc_a) < 2:
        raise ValueError("need at least 2 paired observations")
    diffs = [a - b for a, b in zip(acc_a, acc_b)]
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    # accuracy differences are quotients of small integers; deviations at
    # rounding scale mean the differences are constant for our purposes
    if sd <= 1e-12 * max(1.0, abs(mean)):
        if abs(mean) <= 1e-12:
            return TTestResult(combo, 0.0, 1.0)
        return TTestResult(combo, None, None, no_variance=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(combo, t, student_t_two_sided(t, n - 1))


# ---------------------------------------------------------------------------
# Report emission

def _combo_words(combo: tuple) -> tuple[str, ...]:
    if all(isinstance(x, bool) for x in combo):
        return tuple("Yes" if x else "No" for x in combo)
    return tuple(str(x) for x in combo)


def _columns(report: ExperimentReport) -> tuple[str, ...]:
    first = report.cells[0].combo if report.cells else (False, False, False)
    if all(isinstance(x, bool) for x in first):
        return ("normalize", "expand", "weight")
    return ("classifier", "normalizer")


def emit_table(report: ExperimentReport, format: str = "text") -> str:
    """Render a report; 'text' for eyes, 'csv' for machines.  Output is
    byte-stable for a fixed report."""
    key_cols = _columns(report)
    header = key_cols + ("correct", "total", "percent")
    rows = [
        _combo_words(c.combo) + (str(c.correct), str(c.total), str(c.percent))
        for c in report.cells
    ]
    if format == "csv":
        return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def report_schema_json(report: ExperimentReport) -> str:
    """Sidecar schema so the CSV emission round-trips through load_table."""
    keys = tuple(
        Feature(name, FeatureRole.CONTEXTUAL if i else FeatureRole.CLASS, "discrete",
                tuple(sorted({_combo_words(c.combo)[i] for c in report.cells})) or ("No", "Yes"))
        for i, name in enumerate(_columns(report)))
    counts = tuple(Feature(name, FeatureRole.PRIMARY, "continuous")
                   for name in ("correct", "total", "percent"))
    return schema_to_json(FeatureSchema(keys + counts))


def write_report(report: ExperimentReport, base_path) -> tuple[str, str]:
    """Write <base>.txt and <base>.csv (plus <base>.schema.json); returns paths."""
    from pathlib import Path

    base = Path(base_path)
    txt, csvp = base.with_suffix(".txt"), base.with_suffix(".csv")
    # the data file proper has no header row; load_table expects raw cells
    body = "\n".join(emit_table(report, "csv").splitlines()[1:]) + "\n"
    for path, text in ((txt, emit_table(report, "text")), (csvp, body),
                       (base.with_suffix(".schema.json"), report_schema_json(report) + "\n")):
        path.write_text(text, encoding="utf-8")
    return str(txt), str(csvp)
