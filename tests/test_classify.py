import random

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxclass import classify
from ctxclass.classify import (
    SelectionParams,
    mlr_fit,
    mlr_predict,
    mlr_predict_dataset,
    nn_fit,
    nn_predict,
    nn_predict_dataset,
    similarity,
)
from ctxclass.data import Dataset, Feature, FeatureRole, FeatureSchema, split_random
from ctxclass.preprocess import encode_numeric, impute_missing

from test_preprocess import numeric_dataset


class TestSimilarity:
    def test_identical_vectors(self):
        assert similarity((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)) == pytest.approx(3.0)

    def test_opposite_corners(self):
        assert similarity((0.0, 0.0), (1.0, 1.0)) == pytest.approx(0.0)

    def test_arithmetic(self):
        assert similarity((0.2, 0.5), (0.4, 0.1)) == pytest.approx(1.4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            similarity((1.0,), (1.0, 2.0))

    def test_equals_d_minus_l1_on_random_pairs(self):
        rng = random.Random(0)
        for _ in range(1000):
            d = rng.randrange(1, 8)
            x = [rng.uniform(-3, 3) for _ in range(d)]
            y = [rng.uniform(-3, 3) for _ in range(d)]
            l1 = sum(abs(a - b) for a, b in zip(x, y))
            assert similarity(x, y) == d - l1


class TestNearestNeighbor:
    def train_set(self):
        return numeric_dataset(
            [[0.0, 1.0, 0.5], [0.0, 1.0, 0.5]], ["a", "b", "a"]
        )

    def test_exact_match(self):
        model = nn_fit(self.train_set())
        assert nn_predict(model, (1.0, 1.0, "b")) == "b"

    def test_tie_breaks_to_earliest_row(self):
        ds = numeric_dataset([[0.0, 2.0]], ["a", "b"])
        model = nn_fit(ds)
        assert nn_predict(model, (1.0, "a")) == "a"  # equidistant, first row wins

    def test_empty_training_set(self):
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a",)),
            )
        )
        with pytest.raises(ValueError):
            nn_fit(Dataset.build(sch, []))

    def test_self_accuracy_on_distinct_rows(self):
        rng = random.Random(1)
        ds = numeric_dataset(
            [[rng.uniform(0, 1) for _ in range(40)], [rng.uniform(0, 1) for _ in range(40)]],
            [rng.choice("ab") for _ in range(40)],
        )
        model = nn_fit(ds)
        preds = nn_predict_dataset(model, ds)
        assert preds == ds.class_labels()

    def test_batch_matches_single(self):
        rng = random.Random(2)
        train = numeric_dataset(
            [[rng.gauss(0, 1) for _ in range(30)], [rng.gauss(0, 1) for _ in range(30)]],
            [rng.choice("abc") for _ in range(30)],
        )
        test = numeric_dataset(
            [[rng.gauss(0, 1) for _ in range(10)], [rng.gauss(0, 1) for _ in range(10)]],
            [rng.choice("abc") for _ in range(10)],
        )
        model = nn_fit(train)
        batch = nn_predict_dataset(model, test)
        single = tuple(nn_predict(model, row) for row in test.rows)
        assert batch == single

    def test_scale_sensitivity_witness(self):
        # multiplying one feature by 10 changes the prediction: documented
        # behavior of an L1 matcher, not a bug
        train = numeric_dataset([[0.0, 1.0], [0.0, 1.0]], ["a", "b"])
        query = (0.4, 0.9, "a")
        model = nn_fit(train)
        assert nn_predict(model, query) == "b"
        scaled = numeric_dataset([[0.0, 10.0], [0.0, 1.0]], ["a", "b"])
        model10 = nn_fit(scaled)
        assert nn_predict(model10, (4.0, 0.9, "a")) == "a"


class TestLinearDiscriminant:
    def test_separable_one_feature(self):
        ds = numeric_dataset([[0.0, 0.1, 0.9, 1.0]], ["a", "a", "b", "b"])
        model = mlr_fit(ds, SelectionParams(enabled=False))
        eq_a, eq_b = model.equations
        assert eq_a.coefs[0] < 0 < eq_b.coefs[0]
        assert mlr_predict_dataset(model, ds) == ("a", "a", "b", "b")
        # oracle: closed-form simple regression for the class-b equation
        x = np.array([0.0, 0.1, 0.9, 1.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        slope = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
        intercept = y.mean() - slope * x.mean()
        assert eq_b.coefs[0] == pytest.approx(slope)
        assert eq_b.intercept == pytest.approx(intercept)

    def test_forward_selection_excludes_noise(self):
        rng = random.Random(3)
        n = 200
        informative = [float(i % 2) + 0.2 * rng.gauss(0, 1) for i in range(n)]
        noise = [rng.gauss(0, 1) for _ in range(n)]
        labels = ["a" if i % 2 == 0 else "b" for i in range(n)]
        ds = numeric_dataset([informative, noise], labels)
        model = mlr_fit(ds, SelectionParams(enabled=True, f_enter=4.0))
        for eq in model.equations:
            assert eq.selected == (0,)

        # oracle: partial F of the noise feature given the informative one
        x0 = np.array(informative)
        x1 = np.array(noise)
        y = np.array([1.0 if l == "a" else 0.0 for l in labels])

        def rss(cols):
            design = np.vstack([np.ones(n)] + cols).T
            beta, *_ = np.linalg.lstsq(design, y, rcond=None)
            r = y - design @ beta
            return float(r @ r)

        rss_base = rss([x0])
        rss_both = rss([x0, x1])
        f_noise = (rss_base - rss_both) / (rss_both / (n - 3))
        assert f_noise < 4.0

    def test_constant_feature_excluded(self):
        ds = numeric_dataset([[0.0, 0.0, 1.0, 1.0], [5.0, 5.0, 5.0, 5.0]], ["a", "a", "b", "b"])
        sel = mlr_fit(ds, SelectionParams(enabled=True))
        full = mlr_fit(ds, SelectionParams(enabled=False))
        for eq in sel.equations + full.equations:
            assert 1 not in eq.selected

    def test_predict_ties_to_lowest_class_index(self):
        ds = numeric_dataset([[0.0, 1.0]], ["a", "b"])
        model = mlr_fit(ds, SelectionParams(enabled=False))
        # replace with identical equations for every class
        eq = model.equations[0]
        tied = classify.LinearDiscriminantModel(
            model.schema,
            tuple(
                classify.ClassEquation(e.label, eq.selected, eq.intercept, eq.coefs)
                for e in model.equations
            ),
        )
        assert mlr_predict(tied, (0.3, "a")) == "a"

    def test_majority_only_model(self):
        # intercept-only equations predict the majority class everywhere
        ds = numeric_dataset([[float(i) for i in range(10)]], ["live"] * 8 + ["die"] * 2)
        model = mlr_fit(ds, SelectionParams(enabled=True, f_enter=1e9))
        for eq in model.equations:
            assert eq.selected == ()
        preds = mlr_predict_dataset(model, ds)
        assert set(preds) == {"live"}

    def test_training_prediction_matches_equations(self):
        rng = random.Random(4)
        ds = numeric_dataset(
            [[rng.gauss(i % 3, 0.1) for i in range(30)]],
            [f"c{i % 3}" for i in range(30)],
        )
        model = mlr_fit(ds, SelectionParams(enabled=False))
        for row in ds.rows:
            vec = [row[0]]
            scores = {eq.label: eq.intercept + eq.coefs[0] * vec[0] for eq in model.equations}
            want = max(sorted(scores), key=lambda k: scores[k])
            # max with ties to lowest index: sorted() puts lower labels first
            best = max(scores.values())
            want = next(eq.label for eq in model.equations if scores[eq.label] == best)
            assert mlr_predict(model, row) == want

    def test_full_fit_affine_invariance(self):
        rng = random.Random(5)
        for _ in range(20):
            n, d = 40, rng.randrange(2, 5)
            cols = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)]
            labels = [rng.choice("abc") for _ in range(n)]
            ds = numeric_dataset(cols, labels)
            model = mlr_fit(ds, SelectionParams(enabled=False))
            base = mlr_predict_dataset(model, ds)
            alphas = [rng.choice([1, -1]) * rng.uniform(0.2, 5) for _ in range(d)]
            betas = [rng.uniform(-10, 10) for _ in range(d)]
            mapped = numeric_dataset(
                [[alphas[j] * v + betas[j] for v in cols[j]] for j in range(d)], labels
            )
            model2 = mlr_fit(mapped, SelectionParams(enabled=False))
            assert mlr_predict_dataset(model2, mapped) == base

    def test_positive_weights_leave_full_fit_unchanged(self):
        from ctxclass.preprocess import WeightVector, apply_weights

        rng = random.Random(6)
        for _ in range(20):
            n, d = 40, rng.randrange(2, 5)
            cols = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)]
            labels = [rng.choice("ab") for _ in range(n)]
            ds = numeric_dataset(cols, labels)
            model = mlr_fit(ds, SelectionParams(enabled=False))
            base = mlr_predict_dataset(model, ds)
            idx = ds.schema.primary_indices
            w = tuple(rng.uniform(0.1, 9) for _ in range(d))
            weighted = apply_weights(WeightVector(idx, w, w, (1.0,) * d), ds)
            model_w = mlr_fit(weighted, SelectionParams(enabled=False))
            assert mlr_predict_dataset(model_w, weighted) == base

    def test_determinism(self):
        ds = numeric_dataset([[0.1, 0.7, 0.3, 0.9]], ["a", "b", "a", "b"])
        m1 = mlr_fit(ds)
        m2 = mlr_fit(ds)
        assert m1.describe() == m2.describe()

    def test_describe_is_stable(self):
        ds = numeric_dataset([[0.0, 1.0]], ["a", "b"])
        model = mlr_fit(ds, SelectionParams(enabled=False))
        assert model.describe() == mlr_fit(ds, SelectionParams(enabled=False)).describe()
        nn = nn_fit(ds)
        assert "2 stored rows" in nn.describe()


def _oracle_fit_forward(x, y, params):
    """Forward selection as a per-candidate scan: every step refits
    np.linalg.lstsq on the intercept, the selected columns and each remaining
    column, and the strict < keeps the first minimum.  Returns the fit and,
    for every step, each column's candidate residual sum (inf once selected)."""

    def lstsq_rss(design):
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        r = y - design @ coef
        return float(r @ r)

    n, d = x.shape
    limit = d if params.max_features is None else min(d, params.max_features)
    selected, scores = [], []
    ones = np.ones((n, 1))
    rss = lstsq_rss(ones)
    while len(selected) < limit:
        cand = np.full(d, np.inf)
        best = None
        for j in range(d):
            if j in selected:
                continue
            cand[j] = lstsq_rss(np.hstack([ones, x[:, selected + [j]]]))
            if best is None or cand[j] < best[1]:
                best = (j, cand[j])
        scores.append(cand)
        j, new_rss = best
        p = len(selected) + 2
        if n - p <= 0:
            break
        if rss - new_rss <= 1e-10 * max(1.0, float(y @ y)):
            break
        if new_rss <= 0.0:
            f_stat = np.inf if rss > 0.0 else 0.0
        else:
            f_stat = (rss - new_rss) / (new_rss / (n - p))
        if f_stat <= params.f_enter:
            break
        selected.append(j)
        rss = new_rss
    return classify._fit_selected(x, y, tuple(selected)), scores


@st.composite
def selection_problems(draw):
    """Columns that are random at mixed scales, duplicates of an earlier
    column, constants, exact sums of two earlier columns, or an affine map of
    one class's 0/1 target (a perfect fit for that class); labels of 2-4
    classes on 2-24 rows; f_enter and max_features."""
    n = draw(st.integers(2, 24))
    k = draw(st.integers(2, 4))
    labels = [f"c{c}" for c in draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "random", "duplicate", "constant", "sum", "fit"]))
        if kind == "duplicate" and columns:
            col = columns[draw(st.integers(0, len(columns) - 1))].copy()
        elif kind == "sum" and len(columns) >= 2:
            a, b = draw(st.lists(st.integers(0, len(columns) - 1), min_size=2, max_size=2,
                                 unique=True))
            col = columns[a] + columns[b]
        elif kind == "constant":
            col = np.full(n, rng.normal())
        elif kind == "fit":
            target = np.array([lab == draw(st.sampled_from(labels)) for lab in labels])
            col = rng.uniform(0.5, 3.0) * target + rng.normal()
        else:
            col = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
        columns.append(col)
    params = SelectionParams(f_enter=draw(st.sampled_from([0.0, 4.0, 1e9])),
                             max_features=draw(st.sampled_from([None, 1, 2])))
    return columns, labels, params


class TestForwardSelectionMatchesOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(problem=selection_problems())
    def test_equations_match_the_lstsq_scan(self, problem):
        columns, labels, params = problem
        model = mlr_fit(numeric_dataset([c.tolist() for c in columns], labels), params)
        x = np.column_stack(columns)
        for eq in model.equations:
            y = np.array([1.0 if lab == eq.label else 0.0 for lab in labels])
            want, scores = _oracle_fit_forward(x, y, params)
            got = (eq.intercept, eq.selected, eq.coefs, eq.dropped)
            assert len(got[1]) == len(want[1]), f"selected {got[1]}, oracle {want[1]}"
            # the scans may part only at ties the oracle itself cannot order:
            # distinct columns of equal span (x0 and x0 + x1 once x1 is in,
            # two perfect fits) whose residual sums differ by rounding alone;
            # of equal columns the lowest must win
            for step, (a, b) in enumerate(zip(got[1], want[1])):
                if a != b:
                    assert not np.array_equal(x[:, a], x[:, b]), f"x{a} == x{b}"
                    assert abs(scores[step][a] - scores[step][b]) <= 1e-9 * max(1.0, y @ y)
            if got[1] == want[1]:
                assert got == want

    def test_selection_solves_one_least_squares_per_class(self, synthetic_hepatitis,
                                                          monkeypatch):
        train, _ = split_random(synthetic_hepatitis, 100, seed=0)
        train = encode_numeric(impute_missing(train, train))
        assert len(train.schema.primary_indices) == 17
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
        model = mlr_fit(train, SelectionParams())
        assert any(eq.selected for eq in model.equations)
        assert len(calls) == len(model.equations) == 2


def _oracle_full_columns(x):
    """The columns scipy's pivoted Householder QR of the centered design keeps:
    those whose pivot |R_jj| exceeds PIVOT_TOL of the leading one.  A column
    whose centered norm is at most PIVOT_TOL of its own norm is constant, in
    the intercept's span, and stays out of the QR, which on an all-constant
    design would pivot on rounding noise."""
    centered = x - x.mean(axis=0)
    live = np.flatnonzero((centered ** 2).sum(axis=0) > classify.PIVOT_TOL ** 2 * (x ** 2).sum(axis=0))
    if not live.size:
        return ()
    _, r, piv = scipy.linalg.qr(centered[:, live], mode="economic", pivoting=True)
    diag = np.abs(np.diag(np.atleast_2d(r)))
    return tuple(sorted(int(live[piv[j]]) for j in range(len(diag))
                        if diag[j] > classify.PIVOT_TOL * diag[0]))


@st.composite
def full_fit_designs(draw, dependent):
    """2-24 rows of 1-6 columns, random at mixed scales; with ``dependent``
    some columns are duplicates of earlier ones, constants or exact sums of
    two earlier ones, at least one of them."""
    n = draw(st.integers(2, 24))
    labels = [f"c{c}" for c in draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["random", "duplicate", "constant", "sum"] if dependent else ["random"]
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "duplicate" and columns:
            col = columns[draw(st.integers(0, len(columns) - 1))].copy()
        elif kind == "sum" and len(columns) >= 2:
            a, b = draw(st.lists(st.integers(0, len(columns) - 1), min_size=2, max_size=2,
                                 unique=True))
            col = columns[a] + columns[b]
        elif kind == "constant":
            col = np.full(n, rng.normal())
        else:
            col = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
        columns.append(col)
    if dependent and not draw(st.booleans()):
        columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
    return np.column_stack(columns), labels


def _full_fit_columns(x, labels):
    model = mlr_fit(numeric_dataset([c.tolist() for c in x.T], labels),
                    SelectionParams(enabled=False))
    kept = {eq.selected for eq in model.equations}
    assert len(kept) == 1, "the kept columns depend on the design alone"
    for eq in model.equations:
        assert eq.dropped == tuple(j for j in range(x.shape[1]) if j not in eq.selected)
    return kept.pop()


class TestFullFitMatchesPivotedQR:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(design=full_fit_designs(dependent=False))
    def test_keeps_the_oracle_columns(self, design):
        x, labels = design
        assert _full_fit_columns(x, labels) == _oracle_full_columns(x)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(design=full_fit_designs(dependent=True))
    def test_dependent_design_keeps_the_oracle_column_space(self, design):
        # which member of an exactly dependent set pivots in rests on rounding,
        # so the kept sets may differ; they must span the same columns
        x, labels = design
        got, want = _full_fit_columns(x, labels), _oracle_full_columns(x)
        centered = x - x.mean(axis=0)
        tol = 1e-9 * max(1.0, float(np.abs(x).max()))

        def rank(cols):
            return np.linalg.matrix_rank(centered[:, sorted(cols)], tol=tol) if cols else 0

        assert len(got) == len(want)
        assert rank(got) == rank(want) == rank(set(got) | set(want))

    def test_equal_columns_tie_to_the_lowest_index(self):
        rng = random.Random(8)
        a, b = ([rng.gauss(0, 1) for _ in range(12)] for _ in range(2))
        labels = [rng.choice("ab") for _ in range(12)]
        x = np.column_stack([b, a, a, b])
        assert _full_fit_columns(x, labels) == (0, 1)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(n=st.integers(2, 24), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_all_constant_design_keeps_nothing(self, n, d, seed):
        # centering leaves each column rounding noise, at most PIVOT_TOL of its own norm
        rng = np.random.default_rng(seed)
        x = np.tile(rng.normal(size=d) * 10.0 ** rng.integers(-2, 3, size=d), (n, 1))
        y = rng.integers(0, 2, size=n).astype(float)
        assert classify._fit_full(x, y)[1] == ()

    def test_exactly_centered_constant_design_keeps_nothing(self):
        x = np.column_stack([np.full(5, 2.0), np.zeros(5)])
        assert _full_fit_columns(x, ["a", "b", "a", "b", "a"]) == ()
