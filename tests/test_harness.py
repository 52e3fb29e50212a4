import hashlib
import math
import random

import pytest
import scipy.stats

from ctxclass import data, harness, preprocess
from ctxclass.harness import (
    CLASSIFIERS,
    STRATEGY_COMBOS,
    CellResult,
    ExperimentReport,
    emit_table,
    paired_t_test,
    percent,
    run_hepatitis_grid,
    run_normalization_comparison,
    run_strategy_grid,
    run_vowel_grid,
    synergy,
    write_report,
)
from ctxclass.preprocess import ContextKey, PipelineConfig, column_bins, run_pipeline


def fake_report(percents):
    """Report with the 8 standard combos at given integer percents (of 100)."""
    cells = tuple(
        CellResult(combo, p, 100) for combo, p in zip(STRATEGY_COMBOS, percents)
    )
    return ExperimentReport("fake", "nn", cells)


class TestSynergy:
    def test_reference_vowel_numbers(self):
        # grid percents in table order: NNN, NNY, NYN, NYY, YNN, YNY, YYN, YYY
        report = fake_report([56, 58, 55, 59, 58, 64, 59, 66])
        assert synergy(report) == (3, 10)

    def test_reference_hepatitis_numbers(self):
        report = fake_report([71, 71, 71, 71, 83, 84, 83, 84])
        assert synergy(report) == (12, 13)

    def test_flat_grid(self):
        report = fake_report([50] * 8)
        assert synergy(report) == (0, 0)

    def test_missing_cell_is_error(self):
        report = ExperimentReport("fake", "nn", (CellResult((True, True, True), 1, 2),))
        with pytest.raises(KeyError):
            synergy(report)


class TestPairedT:
    def test_equal_sequences(self):
        r = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert (r.t, r.p, r.no_variance) == (0.0, 1.0, False)

    def test_constant_difference_has_no_variance(self):
        r = paired_t_test([0.6, 0.7, 0.8], [0.5, 0.6, 0.7])
        assert r.no_variance

    def test_textbook_computation(self):
        diffs = [2, 3, 1, 4, 2, 3, 1, 2, 3, 4]
        a = [50 + d for d in diffs]
        b = [50.0] * 10
        r = paired_t_test(a, b)
        # hand computation: mean and sample deviation of the differences
        n = len(diffs)
        mean = sum(diffs) / n
        sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (n - 1))
        t = mean / (sd / math.sqrt(n))
        assert r.t == pytest.approx(t)
        assert r.p == pytest.approx(2 * scipy.stats.t.sf(abs(t), n - 1))

    def test_length_and_size_checks(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])


class TestEmitTable:
    def test_eight_rows_in_order(self):
        report = fake_report([56, 58, 55, 59, 58, 64, 59, 66])
        text = emit_table(report, "text")
        lines = text.splitlines()
        assert len(lines) == 10  # header + rule + 8 rows
        assert lines[0].split()[:3] == ["normalize", "expand", "weight"]
        assert lines[2].startswith("No")
        assert lines[-1].split()[:3] == ["Yes", "Yes", "Yes"]

    def test_empty_report(self):
        report = ExperimentReport("fake", "nn", ())
        text = emit_table(report, "text")
        assert "normalize" in text

    def test_byte_stable(self):
        report = fake_report([1, 2, 3, 4, 5, 6, 7, 8])
        assert emit_table(report, "csv") == emit_table(report, "csv")
        assert emit_table(report, "text") == emit_table(report, "text")

    def test_csv_round_trips_through_load_table(self, tmp_path):
        report = fake_report([56, 58, 55, 59, 58, 64, 59, 66])
        _, csv_path = write_report(report, tmp_path / "rep")
        back = data.load_table(csv_path, tmp_path / "rep.schema.json")
        assert back.n_rows == 8
        corrects = back.column(back.schema.index_of("correct"))
        assert [int(c) for c in corrects] == [c.correct for c in report.cells]


@pytest.fixture(scope="module")
def vowel_report(synthetic_vowel_pair):
    train, test = synthetic_vowel_pair
    return run_vowel_grid(train, test, "nn")


@pytest.fixture(scope="module")
def hep_report(synthetic_hepatitis):
    return run_hepatitis_grid(synthetic_hepatitis, n_splits=3, seed=7, classifier="nn")


@pytest.fixture(scope="module")
def planted():
    params = data.PlantedContextParams()
    train, test = data.plant_context_dataset(params, seed=0)
    baseline = train.subset(
        [i for i, c in enumerate(train.class_labels()) if c == "c0"]
    )
    return train, test, baseline


class TestVowelGrid:
    def test_grid_shape(self, vowel_report):
        assert len(vowel_report.cells) == 8
        assert {c.combo for c in vowel_report.cells} == set(STRATEGY_COMBOS)
        assert all(c.total == 462 for c in vowel_report.cells)

    def test_contextual_normalization_helps_on_planted_data(self, vowel_report):
        # the synthetic speakers have planted offset/scale, so removing them
        # must beat the raw baseline
        base = vowel_report.cell((False, False, False)).percent
        assert vowel_report.cell((True, True, True)).percent > base

    def test_deterministic(self, synthetic_vowel_pair):
        train, test = synthetic_vowel_pair
        a = run_vowel_grid(train, test, "nn")
        b = run_vowel_grid(train, test, "nn")
        assert emit_table(a, "csv") == emit_table(b, "csv")

    def test_mlr_variant_runs(self, synthetic_vowel_pair):
        train, test = synthetic_vowel_pair
        report = run_vowel_grid(train, test, "mlr")
        assert len(report.cells) == 8

    @pytest.mark.parametrize("classifier, text_sha, csv_sha", [
        ("nn", "2742cbb47a8197e621c0db2ccd4f183fd7eb5ab42aea92c4ff6864c048c7c23c",
         "013e216efc722873457171a37d33a973380aad5863350aace411b1acdfa0fa69"),
        ("mlr", "942c4fbb8b3fee44202b9252ebc48a9f7649cef448a64d7d70488fb5eee02a06",
         "87f9e144816119d69fea5809dfadeb23db45da7c256766183d8f6ba09008eda5"),
    ])
    def test_report_bytes_are_pinned(self, synthetic_vowel_pair, classifier, text_sha, csv_sha):
        # the benchmark digests cover neither this grid nor the transductive
        # normalizer, so its report bytes are pinned here
        report = run_vowel_grid(*synthetic_vowel_pair, classifier)
        assert hashlib.sha256(emit_table(report, "text").encode()).hexdigest() == text_sha
        assert hashlib.sha256(emit_table(report, "csv").encode()).hexdigest() == csv_sha


class TestHepatitisGrid:
    def test_aggregation(self, hep_report):
        assert len(hep_report.cells) == 8
        for cell in hep_report.cells:
            assert cell.total == 3 * 55
            split_sum = sum(
                c for (_, combo, c, _) in hep_report.per_split if combo == cell.combo
            )
            assert split_sum == cell.correct

    def test_percent_from_aggregates(self, hep_report):
        for cell in hep_report.cells:
            assert cell.percent == percent(cell.correct, cell.total)

    def test_determinism(self, synthetic_hepatitis):
        a = run_hepatitis_grid(synthetic_hepatitis, n_splits=2, seed=5)
        b = run_hepatitis_grid(synthetic_hepatitis, n_splits=2, seed=5)
        assert emit_table(a, "csv") == emit_table(b, "csv")
        assert a.per_split == b.per_split

    def test_significance_entries(self, hep_report):
        assert len(hep_report.significance) == 7
        for entry in hep_report.significance:
            assert entry.no_variance or (entry.t is not None and 0.0 <= entry.p <= 1.0)


class TestNormalizationComparison:
    def test_grid_shape(self, planted):
        train, test, baseline = planted
        report = run_normalization_comparison(train, test, baseline=baseline)
        assert len(report.cells) == 14

    def test_contextual_beats_plain_on_planted_shift(self, planted):
        train, test, baseline = planted
        report = run_normalization_comparison(train, test, baseline=baseline)
        plain = report.cell(("nn", "none")).percent
        ctx = report.cell(("nn", "contextual-linear")).percent
        assert ctx - plain >= 10

    def test_zero_shift_all_within_five_points(self):
        params = data.PlantedContextParams(shift=0.0)
        train, test = data.plant_context_dataset(params, seed=0)
        baseline = train.subset(
            [i for i, c in enumerate(train.class_labels()) if c == "c0"]
        )
        report = run_normalization_comparison(train, test, baseline=baseline)
        pcts = [c.percent for c in report.cells if c.combo[0] == "nn"]
        assert max(pcts) - min(pcts) <= 5

    def test_baseline_required(self, planted):
        train, test, _ = planted
        with pytest.raises(ValueError, match="baseline"):
            run_normalization_comparison(train, test, baseline=None)

    def test_missing_baseline_is_refused_before_any_evaluation(self, planted, monkeypatch):
        train, test, _ = planted
        calls = []
        monkeypatch.setattr(harness, "evaluate", lambda classifier, tr, te: calls.append(classifier))
        with pytest.raises(ValueError, match="^baseline normalization requires a baseline set$"):
            run_normalization_comparison(train, test, baseline=None)
        assert calls == []

    def test_discrete_context_is_refused_before_any_pipeline(self, monkeypatch):
        schema = data.FeatureSchema((
            data.Feature("g", data.FeatureRole.CONTEXTUAL, "discrete", ("0", "1")),
            data.Feature("x", data.FeatureRole.PRIMARY, "continuous"),
            data.Feature("cls", data.FeatureRole.CLASS, "discrete", ("a", "b")),
        ))
        ds = data.Dataset.build(schema, [(str(i % 2), i / 10, "ab"[i % 2]) for i in range(20)])
        monkeypatch.setattr(harness, "run_pipeline", lambda *a: pytest.fail("a pipeline ran"))
        with pytest.raises(ValueError) as raised:
            run_normalization_comparison(ds, ds, baseline=ds)
        assert str(raised.value) == (
            "context feature 'g' is discrete; "
            "contextual-nn and contextual-linear need a continuous context")

    def test_one_pipeline_per_normalizer(self, planted, monkeypatch):
        train, test, baseline = planted
        calls = []

        def counting_run_pipeline(config, *args):
            calls.append(config.normalize)
            return run_pipeline(config, *args)

        monkeypatch.setattr(harness, "run_pipeline", counting_run_pipeline)
        report = run_normalization_comparison(train, test, baseline=baseline)
        assert calls == list(harness.NORMALIZER_MENU)
        assert [c.combo for c in report.cells] == [
            (c, n) for c in harness.CLASSIFIERS for n in harness.NORMALIZER_MENU
        ]


class TestEvaluate:
    def test_unknown_classifier(self, synthetic_vowel_pair):
        train, test = synthetic_vowel_pair
        with pytest.raises(ValueError):
            harness.evaluate("forest", train, test)


def per_combo_grid(train, test, classifier, context, expand_feature,
                   normalizer="contextual", impute=False):
    """Reference for run_strategy_grid: the full pipeline of each combo run
    from the raw pair.  Returns the cells and the pair each one scored."""
    cells, pairs = [], []
    for combo in STRATEGY_COMBOS:
        normalize, expand, weight = combo
        config = PipelineConfig(
            normalize=normalizer if normalize else "none",
            expand=(expand_feature,) if expand else (),
            weight=weight,
            context=context,
            impute=impute,
        )
        tr, te = run_pipeline(config, train, test)
        pairs.append((tr, te))
        cells.append(CellResult(combo, harness.evaluate(classifier, tr, te), test.n_rows))
    return tuple(cells), pairs


def scored_pairs(monkeypatch):
    """Record every (train, test) pair that harness.evaluate_many scores."""
    pairs = []
    real = harness.evaluate_many

    def recording(classifier, scored):
        pairs.extend(scored)
        return real(classifier, scored)

    monkeypatch.setattr(harness, "evaluate_many", recording)
    return pairs


def hepatitis_age_context(train):
    return ContextKey("age", column_bins(train, train.schema.index_of("age"), 5))


class TestGridMatchesPerComboPipeline:
    @pytest.mark.parametrize("classifier", CLASSIFIERS)
    def test_hepatitis_split(self, synthetic_hepatitis, classifier, monkeypatch):
        train, test = data.split_random(synthetic_hepatitis, 100, seed=3)
        context = hepatitis_age_context(train)
        expected, expected_pairs = per_combo_grid(
            train, test, classifier, context, "age", impute=True
        )
        pairs = scored_pairs(monkeypatch)
        assert run_strategy_grid(train, test, classifier, context, "age", impute=True) == expected
        assert pairs == expected_pairs

    @pytest.mark.parametrize("classifier", CLASSIFIERS)
    def test_vowel_pair(self, synthetic_vowel_pair, classifier, monkeypatch):
        train, test = synthetic_vowel_pair
        context = ContextKey("speaker")
        expected, expected_pairs = per_combo_grid(
            train, test, classifier, context, "sex", normalizer="contextual-transductive"
        )
        pairs = scored_pairs(monkeypatch)
        assert run_vowel_grid(train, test, classifier).cells == expected
        assert pairs == expected_pairs

    def test_hepatitis_per_split_records(self, synthetic_hepatitis, hep_report):
        # hep_report: 3 splits, seed 7, nn, 100 training rows
        rng = random.Random(7)
        records = []
        for s in range(3):
            train, test = data.split_random(synthetic_hepatitis, 100, rng.randrange(2**32))
            cells, _ = per_combo_grid(
                train, test, "nn", hepatitis_age_context(train), "age", impute=True
            )
            records += [(s, c.combo, c.correct, c.total) for c in cells]
        assert hep_report.per_split == tuple(records)


def test_grid_runs_each_shared_stage_once_per_prefix(synthetic_hepatitis, monkeypatch):
    calls = {"impute_missing": 0, "fit_contextual": 0, "compute_weights": 0, "fit_expansion": 0}
    for name in calls:
        real = getattr(preprocess, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(preprocess, name, counting)
    run_hepatitis_grid(synthetic_hepatitis, n_splits=3)
    # per split: impute train and test in one ranking, one normalization, two
    # weightings, one expansion
    assert calls == {"impute_missing": 3, "fit_contextual": 3, "compute_weights": 6,
                     "fit_expansion": 3}


def test_comparison_reaches_each_fit_through_its_module_attribute(planted, monkeypatch):
    # the normalizer dispatch looks each fit up when it runs, so a patched
    # module attribute (a test double, the benchmark's tracer) sees every call
    calls = {"fit_context_nn": 0, "fit_context_linear": 0, "fit_zscore": 0}
    for name in calls:
        real = getattr(preprocess, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(preprocess, name, counting)
    train, test, baseline = planted
    run_normalization_comparison(train, test, baseline=baseline)
    # one pipeline per normalizer: "zscore" and "baseline" both fit a z-score
    assert calls == {"fit_context_nn": 1, "fit_context_linear": 1, "fit_zscore": 2}


def test_transductive_normalization_fits_each_split_through_the_module_attribute(
        synthetic_vowel_pair, monkeypatch):
    fitted, real = [], preprocess.fit_contextual

    def counting(fit_set, key):
        fitted.append((fit_set, key))
        return real(fit_set, key)

    monkeypatch.setattr(preprocess, "fit_contextual", counting)
    train, test = synthetic_vowel_pair
    run_vowel_grid(train, test, "nn")
    # one normalization in the grid: each split fitted on its own rows
    assert fitted == [(train, ContextKey("speaker")), (test, ContextKey("speaker"))]


def test_grid_and_comparison_build_no_rows_after_loading(synthetic_hepatitis, planted,
                                                         monkeypatch):
    # every stage works on the loaded matrix: no row is validated or built
    # again, and no column of symbols is read back (the class is a code)
    calls = {"check_row": 0, "build": 0, "column": 0}
    check_row, build = data.FeatureSchema.check_row, data.Dataset.build.__func__
    column = data.Dataset.column

    def counting_check_row(*args, **kwargs):
        calls["check_row"] += 1
        return check_row(*args, **kwargs)

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counting_column(*args, **kwargs):
        calls["column"] += 1
        return column(*args, **kwargs)

    monkeypatch.setattr(data.FeatureSchema, "check_row", counting_check_row)
    monkeypatch.setattr(data.Dataset, "build", classmethod(counting_build))
    monkeypatch.setattr(data.Dataset, "column", counting_column)
    run_hepatitis_grid(synthetic_hepatitis, classifier="mlr")
    assert calls == {"check_row": 0, "build": 0, "column": 0}
    train, test, baseline = planted
    run_normalization_comparison(train, test, baseline=baseline)
    assert calls == {"check_row": 0, "build": 0, "column": 0}


def _no_context_pair():
    schema = data.FeatureSchema((
        data.Feature("x", data.FeatureRole.PRIMARY, "continuous"),
        data.Feature("cls", data.FeatureRole.CLASS, "discrete", ("a", "b")),
    ))
    return data.Dataset.build(schema, [(i / 10, "ab"[i % 2]) for i in range(6)])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: CellResult((), 5, 4), "correct count out of range", id="count-range"),
    pytest.param(lambda: run_normalization_comparison(_no_context_pair(), _no_context_pair()),
                 "dataset has no contextual features", id="comparison-without-context"),
    pytest.param(lambda: emit_table(fake_report([50] * 8), "xml"), "unknown format 'xml'",
                 id="unknown-format"),
])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
