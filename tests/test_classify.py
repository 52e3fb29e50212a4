import random
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxclass import classify
from ctxclass.classify import (
    mlr_fit,
    mlr_fit_many,
    mlr_predict_dataset,
    nn_fit,
    nn_predict_dataset,
    similarity,
)
from ctxclass.data import Dataset, Feature, FeatureRole, FeatureSchema, split_random
from ctxclass.harness import STRATEGY_COMBOS, evaluate
from ctxclass.preprocess import (
    ContextKey,
    PipelineConfig,
    column_bins,
    encode_numeric,
    impute_missing,
    run_pipeline,
)

from test_preprocess import numeric_dataset


def predict_row(predict, model, schema, row):
    """The class that predict (nn_predict_dataset or mlr_predict_dataset)
    gives the one-row dataset holding row under schema, decoded to its symbol."""
    (code,) = predict(model, Dataset.build(schema, [row]))
    return schema.class_feature.alphabet[code]


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
        train = self.train_set()
        model = nn_fit(train)
        assert predict_row(nn_predict_dataset, model, train.schema, (1.0, 1.0, "b")) == "b"

    def test_tie_breaks_to_earliest_row(self):
        ds = numeric_dataset([[0.0, 2.0]], ["a", "b"])
        model = nn_fit(ds)
        # equidistant, first row wins
        assert predict_row(nn_predict_dataset, model, ds.schema, (1.0, "a")) == "a"

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
        assert np.array_equal(preds, ds.class_codes())

    def test_scale_sensitivity_witness(self):
        # multiplying one feature by 10 changes the prediction: documented
        # behavior of an L1 matcher, not a bug
        train = numeric_dataset([[0.0, 1.0], [0.0, 1.0]], ["a", "b"])
        query = (0.4, 0.9, "a")
        model = nn_fit(train)
        assert predict_row(nn_predict_dataset, model, train.schema, query) == "b"
        scaled = numeric_dataset([[0.0, 10.0], [0.0, 1.0]], ["a", "b"])
        model10 = nn_fit(scaled)
        assert predict_row(nn_predict_dataset, model10, scaled.schema, (4.0, 0.9, "a")) == "a"


class TestLinearDiscriminant:
    def test_separable_one_feature(self):
        ds = numeric_dataset([[0.0, 0.1, 0.9, 1.0]], ["a", "a", "b", "b"])
        model = mlr_fit(ds, select=False)
        eq_a, eq_b = model.equations
        assert eq_a.coefs[0] < 0 < eq_b.coefs[0]
        assert mlr_predict_dataset(model, ds).tolist() == [0, 0, 1, 1]
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
        model = mlr_fit(ds)
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
        sel = mlr_fit(ds)
        full = mlr_fit(ds, select=False)
        for eq in sel.equations + full.equations:
            assert 1 not in eq.selected

    def test_predict_ties_to_lowest_class_index(self):
        ds = numeric_dataset([[0.0, 1.0]], ["a", "b"])
        model = mlr_fit(ds, select=False)
        # replace with identical equations for every class
        eq = model.equations[0]
        tied = classify.LinearDiscriminantModel(tuple(
            classify.ClassEquation(e.label, eq.selected, eq.intercept, eq.coefs)
            for e in model.equations
        ))
        assert predict_row(mlr_predict_dataset, tied, ds.schema, (0.3, "a")) == "a"

    def test_majority_only_model(self):
        # intercept-only equations predict the majority class everywhere
        ds = numeric_dataset([[float(i) for i in range(10)]], ["live"] * 8 + ["die"] * 2)
        with mock.patch.object(classify, "F_ENTER", 1e9):
            model = mlr_fit(ds)
        for eq in model.equations:
            assert eq.selected == ()
        preds = mlr_predict_dataset(model, ds)
        assert set(preds.tolist()) == {ds.schema.class_feature.codes["live"]}

    def test_training_prediction_matches_equations(self):
        rng = random.Random(4)
        ds = numeric_dataset(
            [[rng.gauss(i % 3, 0.1) for i in range(30)]],
            [f"c{i % 3}" for i in range(30)],
        )
        model = mlr_fit(ds, select=False)
        for row in ds.rows:
            vec = [row[0]]
            scores = {eq.label: eq.intercept + eq.coefs[0] * vec[0] for eq in model.equations}
            want = max(sorted(scores), key=lambda k: scores[k])
            # max with ties to lowest index: sorted() puts lower labels first
            best = max(scores.values())
            want = next(eq.label for eq in model.equations if scores[eq.label] == best)
            assert predict_row(mlr_predict_dataset, model, ds.schema, row) == want

    def test_full_fit_affine_invariance(self):
        rng = random.Random(5)
        for _ in range(20):
            n, d = 40, rng.randrange(2, 5)
            cols = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)]
            labels = [rng.choice("abc") for _ in range(n)]
            ds = numeric_dataset(cols, labels)
            model = mlr_fit(ds, select=False)
            base = mlr_predict_dataset(model, ds)
            alphas = [rng.choice([1, -1]) * rng.uniform(0.2, 5) for _ in range(d)]
            betas = [rng.uniform(-10, 10) for _ in range(d)]
            mapped = numeric_dataset(
                [[alphas[j] * v + betas[j] for v in cols[j]] for j in range(d)], labels
            )
            model2 = mlr_fit(mapped, select=False)
            assert np.array_equal(mlr_predict_dataset(model2, mapped), base)

    def test_positive_weights_leave_full_fit_unchanged(self):
        from ctxclass.preprocess import WeightVector, apply_weights

        rng = random.Random(6)
        for _ in range(20):
            n, d = 40, rng.randrange(2, 5)
            cols = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)]
            labels = [rng.choice("ab") for _ in range(n)]
            ds = numeric_dataset(cols, labels)
            model = mlr_fit(ds, select=False)
            base = mlr_predict_dataset(model, ds)
            idx = ds.schema.primary_indices
            w = tuple(rng.uniform(0.1, 9) for _ in range(d))
            weighted = apply_weights(WeightVector(idx, w, w, (1.0,) * d), ds)
            model_w = mlr_fit(weighted, select=False)
            assert np.array_equal(mlr_predict_dataset(model_w, weighted), base)

    def test_determinism(self):
        ds = numeric_dataset([[0.1, 0.7, 0.3, 0.9]], ["a", "b", "a", "b"])
        m1 = mlr_fit(ds)
        m2 = mlr_fit(ds)
        assert m1.describe() == m2.describe()

    def test_describe_is_stable(self):
        ds = numeric_dataset([[0.0, 1.0]], ["a", "b"])
        model = mlr_fit(ds, select=False)
        assert model.describe() == mlr_fit(ds, select=False).describe()
        nn = nn_fit(ds)
        assert "2 stored rows" in nn.describe()

    def test_repeated_class_symbol_predicts_its_first_code(self):
        # an alphabet may repeat a symbol; its cells take the first index (code 0 for "u")
        schema = FeatureSchema((
            Feature("c", FeatureRole.CLASS, "discrete", ("u", "v", "u")),
            Feature("x", FeatureRole.PRIMARY, "continuous"),
            Feature("y", FeatureRole.PRIMARY, "continuous"),
            Feature("g", FeatureRole.CONTEXTUAL, "discrete", ("p", "q")),
        ))
        rng = random.Random(7)

        def rows(n):
            out = []
            for _ in range(n):
                c = rng.choice("uv")
                shift = 0.6 if c == "v" else 0.0
                out.append((c, rng.gauss(shift, 0.5), rng.gauss(-shift, 0.5), rng.choice("pq")))
            return out

        train, test = Dataset.build(schema, rows(30)), Dataset.build(schema, rows(20))
        eq_u, eq_v, eq_u2 = mlr_fit(train).equations
        assert eq_u2 == eq_u and eq_v != eq_u
        for predict, model in ((nn_predict_dataset, nn_fit(train)),
                               (mlr_predict_dataset, mlr_fit(train))):
            preds = predict(model, test)
            assert preds.dtype == np.intp and set(preds.tolist()) <= {0, 1}
        # the counts the symbol-comparing evaluation gave
        assert (evaluate("nn", train, test), evaluate("mlr", train, test)) == (14, 17)


def _oracle_fit_forward(x, y):
    """Forward selection as a per-candidate scan: every step refits
    np.linalg.lstsq on the intercept, the selected columns and each remaining
    column, and the strict < keeps the first minimum.  Returns the fit and,
    for every step, each column's candidate residual sum (inf once selected)."""

    def lstsq_rss(design):
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        r = y - design @ coef
        return float(r @ r)

    n, d = x.shape
    selected, scores = [], []
    ones = np.ones((n, 1))
    rss = lstsq_rss(ones)
    while len(selected) < d:
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
        if f_stat <= classify.F_ENTER:
            break
        selected.append(j)
        rss = new_rss
    return classify._fit_selected(x, y, tuple(selected)), scores


@st.composite
def selection_problems(draw):
    """Columns that are random at mixed scales, duplicates of an earlier
    column, constants, exact sums of two earlier columns, or an affine map of
    one class's 0/1 target (a perfect fit for that class); labels of 2-4
    classes on 2-24 rows; and an F-to-enter."""
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
    return columns, labels, draw(st.sampled_from([0.0, 4.0, 1e9]))


class TestForwardSelectionMatchesOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(problem=selection_problems())
    def test_equations_match_the_lstsq_scan(self, problem):
        columns, labels, f_enter = problem
        with mock.patch.object(classify, "F_ENTER", f_enter):
            model = mlr_fit(numeric_dataset([c.tolist() for c in columns], labels))
            x = np.column_stack(columns)
            for eq in model.equations:
                y = np.array([1.0 if lab == eq.label else 0.0 for lab in labels])
                want, scores = _oracle_fit_forward(x, y)
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
        model = mlr_fit(train)
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
    model = mlr_fit(numeric_dataset([c.tolist() for c in x.T], labels), select=False)
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


def _unfused_sweep(b, z):
    """_sweep as it was before its sums became einsum reductions: each is a
    multiply, an (n, d) temporary and .sum(axis=0).  Kept as its bit-for-bit
    reference."""
    z -= b[:, None] * (b[:, None] * z).sum(axis=0)
    return (z * z).sum(axis=0)


def _unfused_fit_full(x, y):
    """_fit_full over _unfused_sweep, with its two norms multiplied and summed."""
    z, selected = x - x.mean(axis=0), []
    zz = (z * z).sum(axis=0)
    floor = classify.PIVOT_TOL ** 2 * np.maximum(zz.max(initial=0.0), (x * x).sum(axis=0))
    while (live := zz > floor).any():
        selected.append(j := int(np.argmax(np.where(live, zz, 0.0))))
        zz = _unfused_sweep(z[:, j] / np.sqrt(zz[j]), z)
        zz[selected] = 0.0
    return classify._fit_selected(x, y, tuple(sorted(selected)))


def _unfused_fit_forward(x, y):
    """_fit_forward as it was before its column sums became einsum reductions
    written through one work buffer.  Kept as its bit-for-bit reference."""
    n, d = x.shape
    selected = []
    collinear_below = classify.PIVOT_TOL ** 2 * (x * x).sum(axis=0)
    q = np.empty((n, d + 1))
    r, z = y.copy(), x.copy()
    b = np.full(n, 1.0 / np.sqrt(n))
    while True:
        q[:, len(selected)] = b
        r -= b * (b @ r)
        zz = _unfused_sweep(b, z)
        rss = float(r @ r)
        if len(selected) == d:
            break
        collinear = zz <= collinear_below
        t = (z * r[:, None]).sum(axis=0) / np.where(collinear, 1.0, zz)
        cand = ((r[:, None] - z * t) ** 2).sum(axis=0)
        cand[collinear] = rss
        cand[selected] = np.inf
        j = int(np.argmin(cand))
        new_rss = float(cand[j])
        p = len(selected) + 2
        if n - p <= 0:
            break
        if rss - new_rss <= 1e-10 * max(1.0, float(y @ y)):
            break
        if new_rss <= 0.0:
            f_stat = np.inf if rss > 0.0 else 0.0
        else:
            f_stat = (rss - new_rss) / (new_rss / (n - p))
        if f_stat <= classify.F_ENTER:
            break
        selected.append(j)
        basis = q[:, :len(selected)]
        b = z[:, j] / np.sqrt(zz[j])
        b -= basis @ (basis.T @ b)
        b /= np.linalg.norm(b)
    return classify._fit_selected(x, y, tuple(selected))


def _stacked_fit_selected(x, y, selected):
    """_fit_selected as it was with its design stacked by np.hstack and one
    float() per coefficient.  Kept as its bit-for-bit reference."""
    design = np.hstack([np.ones((len(x), 1)), x[:, selected]])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    dropped = tuple(sorted(set(range(x.shape[1])) - set(selected)))
    return float(coef[0]), selected, tuple(float(c) for c in coef[1:]), dropped


@st.composite
def wide_designs(draw):
    """A C-ordered design of 1-30 columns (often one) on 2-300 rows (often at
    most one more than the columns); the columns random at scales from 1e-6 to
    1e6, duplicates, constants or exact sums of two earlier ones; and the 0/1
    targets of 2-3 classes."""
    d = draw(st.sampled_from([1, 1, 2]) | st.integers(1, 30))
    n = draw(st.integers(2, d + 1) | st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["random", "random", "duplicate", "constant", "sum"]))
        scale = 10.0 ** draw(st.integers(-6, 6))
        if kind == "duplicate" and columns:
            col = columns[draw(st.integers(0, len(columns) - 1))].copy()
        elif kind == "sum" and len(columns) >= 2:
            a, b = rng.choice(len(columns), size=2, replace=False)
            col = columns[a] + columns[b]
        elif kind == "constant":
            col = np.full(n, rng.normal() * scale)
        else:
            col = rng.normal(size=n) * scale
        columns.append(col)
    labels = rng.integers(0, draw(st.integers(2, 3)), size=n)
    targets = [(labels == c).astype(float) for c in range(labels.max() + 1)]
    return np.column_stack(columns), targets


def _bits(fit):
    """A fit (intercept, selected, coefs, dropped) with its floats as bytes."""
    intercept, selected, coefs, dropped = fit
    return np.array([intercept, *coefs]).tobytes(), selected, dropped


class TestFusedSumsMatchMultiplyThenSum:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(design=wide_designs(), f_enter=st.sampled_from([0.0, 4.0, 1e9]))
    def test_forward_selection_is_bit_equal(self, design, f_enter):
        x, targets = design
        with mock.patch.object(classify, "F_ENTER", f_enter):
            for y in targets:
                (got,) = classify._fit_forward(x[None], y[None])  # a stack of one
                assert _bits(got) == _bits(_unfused_fit_forward(x, y))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(design=wide_designs())
    def test_full_fit_is_bit_equal(self, design):
        x, targets = design
        for y in targets:
            assert _bits(classify._fit_full(x, y)) == _bits(_unfused_fit_full(x, y))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(design=wide_designs(), picks=st.lists(st.integers(0, 29), unique=True))
    def test_final_fit_is_bit_equal(self, design, picks):
        x, targets = design
        selected = tuple(j for j in picks if j < x.shape[1])
        for y in targets:
            got = classify._fit_selected(x, y, selected)
            assert _bits(got) == _bits(_stacked_fit_selected(x, y, selected))
            assert [type(c) for c in (got[0], *got[2])] == [float] * (len(selected) + 1)

    @pytest.mark.parametrize("d", [1, 2, 7])
    @pytest.mark.parametrize("n", [9, 100, 257])
    def test_sweep_norms_and_residuals_are_bit_equal(self, n, d):
        # numpy sums an (n, 1) column pairwise and a wider matrix's rows in
        # sequence: without the one-column case the norms part by rounding
        rng = np.random.default_rng(n * 31 + d)
        for _ in range(20):
            z = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=d)
            b = rng.normal(size=n)
            b /= np.linalg.norm(b)
            want_z, got_z = z.copy(), z.copy()
            want = _unfused_sweep(b, want_z)
            got = classify._sweep(b, got_z, np.empty_like(z))
            assert got.tobytes() == want.tobytes()
            assert got_z.tobytes() == want_z.tobytes()


@st.composite
def design_stacks(draw):
    """1-6 designs of one shape: 1-12 columns (often one) on 2-80 rows (often
    at most one more than the columns), each column random at a scale from
    1e-6 to 1e6, a duplicate, a constant or an exact sum of two earlier ones.
    Each design has its own 0/1 target: random classes, a threshold on the sum
    of up to three of its columns, or a target that one of its columns maps
    affinely (a perfect fit), so members admit different numbers of columns."""
    d = draw(st.sampled_from([1, 1, 2]) | st.integers(1, 12))
    n = draw(st.integers(2, d + 1) | st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, ys = [], []
    for _ in range(draw(st.integers(1, 6))):
        columns = []
        for _ in range(d):
            kind = rng.choice(["random", "random", "duplicate", "constant", "sum"])
            scale = 10.0 ** rng.integers(-6, 7)
            if kind == "duplicate" and columns:
                col = columns[rng.integers(len(columns))].copy()
            elif kind == "sum" and len(columns) >= 2:
                a, b = rng.choice(len(columns), size=2, replace=False)
                col = columns[a] + columns[b]
            elif kind == "constant":
                col = np.full(n, rng.normal() * scale)
            else:
                col = rng.normal(size=n) * scale
            columns.append(col)
        x = np.column_stack(columns)
        target = rng.choice(["classes", "threshold", "fit"])
        if target == "threshold":
            picks = rng.choice(d, size=min(d, rng.integers(1, 4)), replace=False)
            signal = (x[:, picks] / np.abs(x[:, picks]).max(axis=0).clip(1e-300)).sum(axis=1)
            y = (signal + 0.2 * rng.normal(size=n) > np.median(signal)).astype(float)
        else:
            y = (rng.integers(0, rng.integers(2, 4), size=n) == 0).astype(float)
            if target == "fit":
                x[:, rng.integers(d)] = rng.uniform(0.5, 3.0) * y + rng.normal()
        xs.append(x)
        ys.append(y)
    return xs, ys


def near_tie_design(seed):
    """An odd number of rows, 3-79, of 2-8 columns, some of them an earlier column
    plus a constant (equal to it once centered, but for rounding), and a 0/1
    target that a threshold on the first two columns sets, so the best candidates
    of a step tie but for rounding."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 40)) * 2 + 1, int(rng.integers(2, 9))
    x = rng.normal(size=(n, d))
    for j in range(1, d):
        if rng.random() < 0.5:
            x[:, j] = x[:, rng.integers(j)] + rng.normal() * 10.0 ** rng.integers(-1, 4)
    y = (x[:, :2].sum(axis=1) + 0.5 * rng.normal(size=n) > 0).astype(float)
    return x, y


def hepatitis_leaf_trains(dataset):
    """The training sets of the 8 strategy leaves of one hepatitis stand-in
    split, each from its full per-combo pipeline: 4 of 17 primary columns,
    4 of 18 (expanded by age)."""
    train, test = split_random(dataset, 100, seed=0)
    context = ContextKey("age", column_bins(train, train.schema.index_of("age"), 5))
    return [run_pipeline(PipelineConfig(normalize="contextual" if normalize else "none",
                                        expand=("age",) if expand else (), weight=weight,
                                        context=context, impute=True), train, test)[0]
            for normalize, expand, weight in STRATEGY_COMBOS]


class TestStackedForwardSelection:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stack=design_stacks(), f_enter=st.sampled_from([0.0, 4.0, 1e9]))
    def test_each_member_is_bit_equal_to_its_walk_alone(self, stack, f_enter):
        xs, ys = stack
        with mock.patch.object(classify, "F_ENTER", f_enter):
            got = classify._fit_forward(np.stack(xs), np.stack(ys))
            assert [_bits(fit) for fit in got] == [
                _bits(_unfused_fit_forward(x, y)) for x, y in zip(xs, ys)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stack=design_stacks(), f_enter=st.sampled_from([0.0, 4.0]))
    def test_a_members_bits_do_not_depend_on_its_stack_mates(self, stack, f_enter):
        xs, ys = stack
        with mock.patch.object(classify, "F_ENTER", f_enter):
            alone = [_bits(classify._fit_forward(x[None], y[None])[0]) for x, y in zip(xs, ys)]
            reversed_stack = classify._fit_forward(xs[::-1], ys[::-1])[::-1]
            doubled = classify._fit_forward(xs + xs, ys + ys)
        assert [_bits(fit) for fit in reversed_stack] == alone
        assert [_bits(fit) for fit in doubled] == alone + alone

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 9))
    @example(seed=20, size=9)  # selects differently at 8 mod 16 bytes under that kernel
    def test_a_design_fits_alike_at_odd_and_even_offsets(self, seed, size):
        # in a stack of one design of an odd row count, every other member sits 8
        # bytes off the 16-byte boundary of a fresh array, where OpenBLAS's generic
        # SSE kernel (Katmai) dots in another order; near-ties then flip a selection
        x, y = near_tie_design(seed)
        alone = _bits(classify._fit_forward(x[None], y[None])[0])
        got = classify._fit_forward(np.stack([x] * size), np.stack([y] * size))
        assert [_bits(fit) for fit in got] == [alone] * size

    def test_members_that_stop_at_different_steps(self):
        # member k's target is a threshold on its first k columns; the members
        # stop after 0, 2, 2 and 3 admissions, so they leave the stack at three steps
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(4, 60, 5))
        ys = [(xs[k, :, :k].sum(axis=1) + 0.2 * rng.normal(size=60) > 0).astype(float)
              for k in range(4)]
        got = classify._fit_forward(xs, ys)
        assert [len(fit[1]) for fit in got] == [0, 2, 2, 3]
        assert [_bits(fit) for fit in got] == [
            _bits(_unfused_fit_forward(x, y)) for x, y in zip(xs, ys)]

    def test_each_member_keeps_its_own_noise_floor(self):
        # an RSS drop of 3e-10 is evidence for a target with one positive (floor
        # 1e-10) but not for one with six (6e-10): member a must admit its second
        # column after member b has left the stack, beside member c
        rng, n = np.random.default_rng(5), 12
        y_b = np.array([1.0] * 6 + [0.0] * 6)
        x_b = np.tile([2.0, -3.0], (n, 1))  # constant: b stops at once
        y_a = np.zeros(n)
        y_a[3] = 1.0
        col = y_a + 0.3 * rng.normal(size=n)
        design = np.column_stack([np.ones(n), col])
        residual = y_a - design @ np.linalg.lstsq(design, y_a, rcond=None)[0]
        basis = np.linalg.qr(np.column_stack([design, residual]))[0]
        u = rng.normal(size=n)
        u -= basis @ (basis.T @ u)
        tilt = np.sqrt(3e-10) / (residual @ residual)  # ||u|| = 1: the drop is 3e-10
        x_a = np.column_stack([col, u / np.linalg.norm(u) + tilt * residual])
        y_c = np.array([1.0, 0.0] * 6)
        x_c = np.column_stack([y_c + 0.3 * rng.normal(size=n), y_c + 0.5 * rng.normal(size=n)])
        with mock.patch.object(classify, "F_ENTER", 0.0):
            got = classify._fit_forward([x_b, x_a, x_c], [y_b, y_a, y_c])
            assert [fit[1] for fit in got] == [(), (0, 1), (0, 1)]
            assert [_bits(fit) for fit in got] == [_bits(_unfused_fit_forward(x, y))
                                                   for x, y in ((x_b, y_b), (x_a, y_a), (x_c, y_c))]

    def test_mlr_fit_many_is_one_mlr_fit_per_train(self, synthetic_hepatitis, monkeypatch):
        trains = hepatitis_leaf_trains(synthetic_hepatitis)
        assert sorted(len(t.schema.primary_indices) for t in trains) == [17] * 4 + [18] * 4
        models = mlr_fit_many(trains)
        want = repr([mlr_fit(train) for train in trains])
        assert repr(models) == want
        for train, model in zip(trains, models):
            x = train.values[:, list(train.schema.primary_indices)]
            codes = train.class_codes()
            for code, eq in enumerate(model.equations):
                y = (codes == code).astype(float)
                assert _bits((eq.intercept, eq.selected, eq.coefs, eq.dropped)) == _bits(
                    _unfused_fit_forward(x, y))
        # stacks of 1, of 2 and of 3, 3 and 2 designs (a basis of 100 x 18 or
        # 100 x 19 cells a design): where the cap splits a group changes no fit
        for cells in (1, 3800, 6000):
            monkeypatch.setattr(classify, "_STACK_CELLS", cells)
            assert repr(mlr_fit_many(trains)) == want
        assert repr(mlr_fit_many(trains, select=False)) == repr(
            [mlr_fit(t, select=False) for t in trains])


def test_empty_training_set_is_refused():
    empty = numeric_dataset([[0.0, 1.0]], ["a", "b"]).subset([])
    for fit in (mlr_fit, nn_fit):
        with pytest.raises(ValueError) as raised:
            fit(empty)
        assert str(raised.value) == "empty training set"


def test_describe_lists_the_columns_a_fit_dropped():
    # x1 repeats x0, so no fit can admit both
    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    model = mlr_fit(numeric_dataset([x, x], ["a", "a", "a", "b", "b", "b"]))
    assert "  dropped (singular): [1]" in model.describe().splitlines()
