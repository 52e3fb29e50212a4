"""End-to-end acceptance checks.

One test per criterion; the terminal summary prints a PASS/FAIL/SKIP line
for each.  Criteria 3-5 need the real recorded datasets (see conftest for
the lookup rules) and are skipped honestly when the files are absent.
"""

import math
import random
import time

import numpy as np
import pytest

from ctxclass import data, harness, taxonomy
from ctxclass.classify import mlr_fit, mlr_predict_dataset, similarity
from ctxclass.data import MISSING, Dataset, Feature, FeatureRole, FeatureSchema
from ctxclass.preprocess import (
    ContextKey,
    WeightVector,
    apply_contextual,
    apply_weights,
    apply_zscore,
    compute_weights,
    fit_contextual,
    fit_zscore,
    impute_missing,
)

from test_preprocess import numeric_dataset

pytestmark = [pytest.mark.simd_off, pytest.mark.katmai]

#: reference per-cell percents for the vowel grid with the nearest neighbor,
#: in standard combo order
VOWEL_TABLE = dict(zip(harness.STRATEGY_COMBOS, (56, 58, 55, 59, 58, 64, 59, 66)))

ALL_NO = (False, False, False)
ALL_YES = (True, True, True)


class TestCriterion1Taxonomy:
    def test_exact_verdict(self, worked_dist):
        start = time.perf_counter()
        verdict = taxonomy.classify_features(worked_dist, eps=1e-9)
        assert verdict.labels == {
            "x1": "primary",
            "x2": "contextual",
            "x3": "irrelevant",
        }
        assert verdict.sensitive_to["x1"] == ("x2",)
        assert time.perf_counter() - start < 1.0


class TestCriterion2WorkedProbabilities:
    def test_conditionals(self, worked_dist):
        start = time.perf_counter()
        assert taxonomy.cond_prob(worked_dist, ("x0", "1")) == pytest.approx(0.5)
        assert taxonomy.cond_prob(worked_dist, ("x0", "1"), {"x1": "1"}) == pytest.approx(0.44)
        both = taxonomy.cond_prob(worked_dist, ("x0", "1"), {"x1": "1", "x2": "1"})
        assert both == pytest.approx(0.5333, abs=0.0005)
        assert time.perf_counter() - start < 1.0


class TestCriterion3VowelGrid:
    def test_table_reproduction(self, real_vowel_pair):
        train, test = real_vowel_pair
        start = time.perf_counter()
        report = harness.run_vowel_grid(train, test, "nn")
        elapsed = time.perf_counter() - start
        for combo, want in VOWEL_TABLE.items():
            got = report.cell(combo).percent
            tol = 2 if combo == ALL_NO else 3
            assert abs(got - want) <= tol, f"combo {combo}: {got}% vs reference {want}%"
        gap = report.cell(ALL_YES).percent - report.cell(ALL_NO).percent
        assert gap >= 6
        assert elapsed < 60.0


class TestCriterion4HepatitisGrid:
    def test_aggregates_over_seeds(self, real_hepatitis):
        start = time.perf_counter()
        for seed in range(5):
            report = harness.run_hepatitis_grid(
                real_hepatitis, n_splits=10, seed=seed, classifier="nn"
            )
            base = report.cell(ALL_NO).percent
            top = report.cell(ALL_YES).percent
            assert abs(base - 71) <= 3, f"seed {seed}: baseline {base}%"
            assert abs(top - 84) <= 3, f"seed {seed}: all-three {top}%"
            for combo in harness.STRATEGY_COMBOS:
                if combo[0]:
                    assert report.cell(combo).percent >= 79, f"seed {seed}: {combo}"
        assert time.perf_counter() - start < 30.0


class TestCriterion5Synergy:
    def test_vowel_joint_exceeds_sum(self, real_vowel_pair):
        train, test = real_vowel_pair
        report = harness.run_vowel_grid(train, test, "nn")
        singles, joint = harness.synergy(report)
        assert joint > singles

    def test_hepatitis_joint_close_to_sum(self, real_hepatitis):
        report = harness.run_hepatitis_grid(real_hepatitis, n_splits=10, seed=0)
        singles, joint = harness.synergy(report)
        assert joint >= singles - 1


class TestCriterion6PlantedContext:
    def _percents(self, params, seed=0):
        train, test = data.plant_context_dataset(params, seed=seed)
        baseline = train.subset(
            [i for i, c in enumerate(train.class_labels()) if c == "c0"]
        )
        report = harness.run_normalization_comparison(train, test, baseline=baseline)
        return {c.combo[1]: c.percent for c in report.cells if c.combo[0] == "nn"}

    def test_contextual_normalization_dominates(self):
        pct = self._percents(data.PlantedContextParams())
        ctx = pct["contextual-linear"]
        assert ctx - pct["none"] >= 10
        for other in ("minmax", "zscore", "percentile"):
            assert ctx - pct[other] >= 5, f"{other}: {pct[other]}% vs {ctx}%"

    def test_no_planted_shift_levels_the_field(self):
        pct = self._percents(data.PlantedContextParams(shift=0.0))
        assert max(pct.values()) - min(pct.values()) <= 5


class TestCriterion7Properties:
    def test_a_single_group_equals_global_zscore(self):
        rng = random.Random(70)
        ds = numeric_dataset(
            [[rng.gauss(0, 3) for _ in range(30)], [rng.uniform(-5, 5) for _ in range(30)]],
            [rng.choice("ab") for _ in range(30)],
            context=["only"] * 30,
        )
        ctx_out = apply_contextual(fit_contextual(ds, ContextKey("ctx")), ds)
        z_out = apply_zscore(fit_zscore(ds), ds)
        for a, b in zip(ctx_out.rows, z_out.rows):
            for u, v in zip(a, b):
                if isinstance(u, float):
                    assert abs(u - v) <= 1e-9

    def test_b_per_group_stats_zero_one(self):
        rng = random.Random(71)
        context = [rng.choice("pqr") for _ in range(90)]
        ds = numeric_dataset(
            [[rng.gauss(10 * (ord(c) % 5), 1 + ord(c) % 3) for c in context]],
            [rng.choice("ab") for _ in range(90)],
            context=context,
        )
        out = apply_contextual(fit_contextual(ds, ContextKey("ctx")), ds)
        for g in "pqr":
            vals = [row[1] for row in out.rows if row[0] == g]
            mean = sum(vals) / len(vals)
            dev = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
            assert abs(mean) <= 1e-9
            assert abs(dev - 1.0) <= 1e-9

    def test_c_similarity_identity_exact(self):
        rng = random.Random(72)
        for _ in range(1000):
            d = rng.randrange(1, 8)
            x = [rng.uniform(-3, 3) for _ in range(d)]
            y = [rng.uniform(-3, 3) for _ in range(d)]
            assert similarity(x, y) == d - sum(abs(a - b) for a, b in zip(x, y))

    def _random_toys(self, seed, count=20):
        rng = random.Random(seed)
        for _ in range(count):
            n, d = 40, rng.randrange(2, 5)
            cols = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)]
            labels = [rng.choice("abc") for _ in range(n)]
            yield numeric_dataset(cols, labels), cols, labels, d, rng

    def test_d_full_fit_affine_invariance(self):
        for ds, cols, labels, d, rng in self._random_toys(73):
            base = mlr_predict_dataset(mlr_fit(ds, select=False), ds)
            alphas = [rng.choice([1, -1]) * rng.uniform(0.2, 5) for _ in range(d)]
            betas = [rng.uniform(-10, 10) for _ in range(d)]
            mapped = numeric_dataset(
                [[alphas[j] * v + betas[j] for v in cols[j]] for j in range(d)], labels
            )
            model2 = mlr_fit(mapped, select=False)
            assert np.array_equal(mlr_predict_dataset(model2, mapped), base)

    def test_e_weights_leave_full_fit_unchanged(self):
        for ds, cols, labels, d, rng in self._random_toys(74):
            base = mlr_predict_dataset(mlr_fit(ds, select=False), ds)
            w = tuple(rng.uniform(0.1, 9) for _ in range(d))
            weighted = apply_weights(
                WeightVector(ds.schema.primary_indices, w, w, (1.0,) * d), ds
            )
            model_w = mlr_fit(weighted, select=False)
            assert np.array_equal(mlr_predict_dataset(model_w, weighted), base)

    def test_f_toy_weight_value(self):
        ds = numeric_dataset(
            [[0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0]],
            ["c1", "c1", "c2", "c2", "c1", "c1", "c2", "c2"],
            context=["A", "A", "A", "A", "B", "B", "B", "B"],
        )
        w = compute_weights(ds, ContextKey("ctx"))
        assert w.weights[0] == pytest.approx(2.2361, abs=1e-3)

    def test_g_imputation_matches_brute_force(self):
        rng = random.Random(75)
        for _ in range(50):
            n_feat = rng.randrange(2, 5)
            n_train = rng.randrange(3, 8)
            feats = [Feature(f"x{i}", FeatureRole.PRIMARY, "continuous") for i in range(n_feat)]
            feats.append(Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b")))
            sch = FeatureSchema(tuple(feats))

            def cell():
                return MISSING if rng.random() < 0.2 else round(rng.uniform(0, 10), 3)

            train_rows = []
            for _ in range(n_train):
                row = [cell() for _ in range(n_feat)]
                while all(c is MISSING for c in row):
                    row = [cell() for _ in range(n_feat)]
                train_rows.append((*row, rng.choice("ab")))
            for j in range(n_feat):
                if all(r[j] is MISSING for r in train_rows):
                    train_rows[0] = tuple(
                        1.0 if k == j else c for k, c in enumerate(train_rows[0])
                    )
            train = Dataset.build(sch, train_rows)
            target_row = [cell() for _ in range(n_feat)] + [rng.choice("ab")]
            target = Dataset.build(sch, [tuple(target_row)])
            out = impute_missing(train, target)
            assert out.missing_count() == 0

            lo = [min(float(r[j]) for r in train_rows if r[j] is not MISSING) for j in range(n_feat)]
            hi = [max(float(r[j]) for r in train_rows if r[j] is not MISSING) for j in range(n_feat)]

            def rescale(j, v):
                return 0.5 if hi[j] == lo[j] else (v - lo[j]) / (hi[j] - lo[j])

            def sim(row_a, row_b):
                s = 0.0
                for j in range(n_feat):
                    if row_a[j] is not MISSING and row_b[j] is not MISSING:
                        s += 1.0 - abs(rescale(j, row_a[j]) - rescale(j, row_b[j]))
                return s

            sims = [sim(target_row, r) for r in train_rows]
            order = sorted(range(n_train), key=lambda i: (-sims[i], i))
            for j in range(n_feat):
                if target_row[j] is not MISSING:
                    assert out.rows[0][j] == target_row[j]
                else:
                    donor = next(i for i in order if train_rows[i][j] is not MISSING)
                    assert out.rows[0][j] == train_rows[donor][j]


class TestCriterion8Determinism:
    def test_vowel_reports_byte_identical(self, any_vowel_pair):
        train, test = any_vowel_pair
        a = harness.run_vowel_grid(train, test, "nn")
        b = harness.run_vowel_grid(train, test, "nn")
        assert harness.emit_table(a, "csv") == harness.emit_table(b, "csv")
        assert harness.emit_table(a, "text") == harness.emit_table(b, "text")

    def test_hepatitis_reports_byte_identical(self, any_hepatitis):
        a = harness.run_hepatitis_grid(any_hepatitis, n_splits=10, seed=3)
        b = harness.run_hepatitis_grid(any_hepatitis, n_splits=10, seed=3)
        assert harness.emit_table(a, "csv") == harness.emit_table(b, "csv")
        assert a.per_split == b.per_split
        assert a.significance == b.significance
