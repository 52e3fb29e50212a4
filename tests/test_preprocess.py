import math
import random
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ctxclass import data, preprocess
from ctxclass.data import MISSING, Dataset, Feature, FeatureRole, FeatureSchema
from ctxclass.preprocess import (
    NORMALIZERS,
    ContextKey,
    PipelineConfig,
    apply_contextual,
    apply_expansion,
    apply_minmax,
    apply_percentile,
    apply_weights,
    apply_zscore,
    column_bins,
    compute_weights,
    encode_numeric,
    equal_freq_bins,
    fit_context_linear,
    fit_context_nn,
    fit_contextual,
    fit_expansion,
    fit_minmax,
    fit_percentile,
    fit_zscore,
    impute_missing,
    run_pipeline,
)


def numeric_dataset(columns, labels, context=None):
    """Build a dataset from per-feature value lists plus class labels and an
    optional discrete context column."""
    feats = []
    if context is not None:
        feats.append(Feature("ctx", FeatureRole.CONTEXTUAL, "discrete", tuple(sorted(set(context)))))
    feats += [Feature(f"x{i}", FeatureRole.PRIMARY, "continuous") for i in range(len(columns))]
    feats.append(Feature("cls", FeatureRole.CLASS, "discrete", tuple(sorted(set(labels)))))
    schema = FeatureSchema(tuple(feats))
    rows = []
    for r in range(len(labels)):
        row = []
        if context is not None:
            row.append(context[r])
        row += [col[r] for col in columns]
        row.append(labels[r])
        rows.append(tuple(row))
    return Dataset.build(schema, rows)


def encode_value(feature, cell):
    """A discrete symbol's numeric code, a cell at a time: its alphabet index
    scaled into [0, 1].  Kept as the oracle of encode_numeric's column code."""
    k = len(feature.alphabet)
    return feature.alphabet.index(cell) / (k - 1) if k > 1 else 0.0


def apply_to_value(apply, model, x):
    """What apply(model, ...) maps x to, as the only cell of the first
    primary feature of a one-row dataset."""
    sch = FeatureSchema(
        (
            Feature("x0", FeatureRole.PRIMARY, "continuous"),
            Feature("cls", FeatureRole.CLASS, "discrete", ("a",)),
        )
    )
    return apply(model, Dataset.build(sch, [(x, "a")])).rows[0][0]


class TestMinMax:
    def test_endpoints(self):
        ds = numeric_dataset([[1.0, 3.0, 5.0]], ["a", "b", "a"])
        model = fit_minmax(ds)
        out = apply_minmax(model, ds)
        col = out.column(0)
        assert col[0] == 0.0 and col[2] == 1.0

    def test_constant_feature_maps_to_half(self):
        ds = numeric_dataset([[2.0, 2.0]], ["a", "b"])
        out = apply_minmax(fit_minmax(ds), ds)
        assert out.column(0) == (0.5, 0.5)

    def test_test_values_not_clipped(self):
        train = numeric_dataset([[0.0, 10.0]], ["a", "b"])
        test = numeric_dataset([[15.0, -5.0]], ["a", "b"])
        out = apply_minmax(fit_minmax(train), test)
        assert out.column(0) == (1.5, -0.5)

    def test_training_data_maps_into_unit_interval(self):
        rng = random.Random(0)
        ds = numeric_dataset(
            [[rng.uniform(-50, 50) for _ in range(30)]], ["a"] * 15 + ["b"] * 15
        )
        out = apply_minmax(fit_minmax(ds), ds)
        assert all(0.0 <= v <= 1.0 for v in out.column(0))

    def test_empty_set(self):
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a",)),
            )
        )
        with pytest.raises(ValueError, match="empty set"):
            fit_minmax(Dataset.build(sch, []))


class TestZScore:
    def test_mean_and_one_sigma(self):
        ds = numeric_dataset([[1.0, 2.0, 3.0]], ["a", "b", "a"])
        model = fit_zscore(ds)
        assert apply_to_value(apply_zscore, model, 2.0) == pytest.approx(0.0)
        sigma = math.sqrt(2.0 / 3.0)  # population deviation of {1,2,3}
        assert apply_to_value(apply_zscore, model, 2.0 + sigma) == pytest.approx(1.0)
        assert apply_to_value(apply_zscore, model, 3.0) == pytest.approx(1.2247, abs=1e-4)

    def test_zero_sigma_floored(self):
        ds = numeric_dataset([[5.0, 5.0]], ["a", "b"])
        model = fit_zscore(ds)
        floored = 1.0 / preprocess.SIGMA_FLOOR
        assert apply_to_value(apply_zscore, model, 6.0) == pytest.approx(floored)


class TestPercentile:
    def test_below_all(self):
        ds = numeric_dataset([[10.0, 20.0, 30.0]], ["a", "b", "a"])
        assert apply_to_value(apply_percentile, fit_percentile(ds), 5.0) == 0.0

    def test_median_of_odd_set(self):
        ds = numeric_dataset([[10.0, 20.0, 30.0]], ["a", "b", "a"])
        assert apply_to_value(apply_percentile, fit_percentile(ds), 20.0) == pytest.approx(0.5)

    def test_decile(self):
        vals = [float(v) for v in range(10, 101, 10)]
        ds = numeric_dataset([vals], ["a", "b"] * 5)
        assert apply_to_value(apply_percentile, fit_percentile(ds), 15.0) == pytest.approx(0.1)

    def test_always_in_unit_interval(self):
        rng = random.Random(1)
        ds = numeric_dataset([[rng.gauss(0, 5) for _ in range(40)]], ["a", "b"] * 20)
        model = fit_percentile(ds)
        for x in [-1e9, -3.3, 0.0, 2.2, 1e9]:
            assert 0.0 <= apply_to_value(apply_percentile, model, x) <= 1.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(columns=st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 1e-300]) | st.floats(-5, 5),
                 min_size=k, max_size=k), min_size=1, max_size=30)))
    def test_sorted_arrays_rank_as_the_sorted_tuples_did(self, columns):
        # ties, duplicates and -0.0/0.0: the fitted arrays rank every query
        # bit for bit as the tuples of sorted numpy scalars the model held before
        ds = numeric_dataset([list(c) for c in zip(*columns)], ["a"] * len(columns))
        model = fit_percentile(ds)
        m = ds.values[:, list(model.indices)]
        tuples = preprocess.PercentileModel(
            model.indices, tuple(tuple(sorted(m[:, j])) for j in range(m.shape[1])))
        queries = Dataset(ds.schema, np.concatenate([ds.values, -ds.values, ds.values + 1e-9]))
        assert (apply_percentile(model, queries).values.tobytes()
                == apply_percentile(tuples, queries).values.tobytes())


class TestEqualFreqBins:
    def test_uniform_hundred(self):
        b = equal_freq_bins([float(v) for v in range(1, 101)], 5)
        assert len(b) == 4
        bins = preprocess._bin_column(b, np.arange(1.0, 101.0)).astype(int)
        assert np.bincount(bins, minlength=5).tolist() == [20] * 5

    def test_median_split(self):
        b = equal_freq_bins([1.0, 2.0, 3.0, 4.0], 2)
        assert b == (2.5,)

    def test_heavy_ties_error(self):
        with pytest.raises(ValueError):
            equal_freq_bins([1.0] * 50 + [2.0] * 50, 5)

    def test_out_of_range_maps_to_edge_bins(self):
        b = equal_freq_bins([float(v) for v in range(1, 11)], 2)
        assert preprocess._bin_column(b, np.array([-100.0]))[0] == 0
        assert preprocess._bin_column(b, np.array([100.0]))[0] == 1


def _scan_equal_freq_bins(values, k):
    """equal_freq_bins as it was before its gap search became np.searchsorted:
    each boundary sorts every gap past the last one by distance.  Kept as its
    reference, outputs and messages alike."""
    if not values:
        raise ValueError("no values to bin")
    if k < 2:
        raise ValueError("need at least 2 bins")
    s = sorted(float(v) for v in values)
    n = len(s)
    if len(set(s)) < k:
        raise ValueError(f"only {len(set(s))} distinct values, cannot make {k} bins")
    gaps = [i for i in range(1, n) if s[i - 1] < s[i]]
    boundaries = []
    last_gap = -1
    for j in range(1, k):
        target = j * n / k
        candidates = sorted((abs(g - target), g) for g in gaps if g > last_gap)
        if not candidates:
            raise ValueError(f"ties prevent {k} equal-frequency bins")
        gap = candidates[0][1]
        last_gap = gap
        boundaries.append((s[gap - 1] + s[gap]) / 2.0)
    return tuple(boundaries)


def _outcome(f, values, k):
    """f(values, k) with each boundary as its type and bytes, or its ValueError's message."""
    try:
        return [(type(b), struct.pack("<d", b)) for b in f(values, k)]
    except ValueError as exc:
        return str(exc)


class TestEqualFreqBinsMatchesTheScan:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(values=st.lists(st.sampled_from([-0.0, 0.0, -1.5, 2.0, 3.25, 1e-300])
                           | st.floats(-1e6, 1e6) | st.integers(-3, 3), max_size=60),
           k=st.integers(2, 8))
    @example(values=[0.0] * 10 + [1.0, 2.0] + [3.0] * 88, k=4)  # ties prevent 4 bins
    def test_outputs_and_messages(self, values, k):
        assert _outcome(equal_freq_bins, values, k) == _outcome(_scan_equal_freq_bins, values, k)

    @pytest.mark.parametrize("values, k, want", [
        # gaps at 10, 11 and 12 of 100: the first boundary takes gap 12, leaving none
        ([0.0] * 10 + [1.0, 2.0] + [3.0] * 88, 4, "ties prevent 4 equal-frequency bins"),
        ([1.0] * 50 + [2.0] * 50, 5, "only 2 distinct values, cannot make 5 bins"),
        ([], 3, "no values to bin"),
        ([1.0, 2.0, 3.0], 1, "need at least 2 bins"),
        # gaps 1 and 3 lie equally far from the target 2: the lower one wins
        ([0.0, 1.0, 1.0, 2.0], 2, (0.5,)),
        ([3.0, -0.0, 0.0, 1.0, 1.0, 2.0, 2.0, -3.0], 4, (-1.5, 0.5, 1.5)),
    ])
    def test_pinned_cases(self, values, k, want):
        got = _outcome(equal_freq_bins, values, k)
        assert got == _outcome(_scan_equal_freq_bins, values, k)
        assert got == (want if isinstance(want, str) else
                       [(float, struct.pack("<d", b)) for b in want])


def quarter_grid(rng, n, d):
    """n x d values on a grid of quarters, so every L1 sum is exact and
    equal distances really tie."""
    return np.array([[rng.randrange(-8, 9) / 4 for _ in range(d)] for _ in range(n)])


def brute_nearest(queries, reference, leave_one_out=False):
    """First index of the smallest L1 distance, by explicit loops."""
    out = []
    for qi, q in enumerate(queries):
        best = None
        for ri, r in enumerate(reference):
            if leave_one_out and ri == qi:
                continue
            d = sum(abs(a - b) for a, b in zip(q, r))
            if best is None or d < best[0]:
                best = (d, ri)
        out.append(best[1] if best else 0)
    return out


class TestNearestRows:
    @pytest.mark.parametrize("n_queries", [1, 3, 4, 5, 11, 12, 13])
    def test_blocks_match_brute_force(self, monkeypatch, n_queries):
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 4)
        rng = random.Random(n_queries)
        reference = quarter_grid(rng, 9, 3)
        queries = quarter_grid(rng, n_queries, 3)
        got = preprocess._nearest_rows(queries, reference)
        assert got.tolist() == brute_nearest(queries, reference)

    def test_exact_ties_pick_earliest_row(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 2)
        reference = np.array([[3.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        queries = np.array([[1.0, 0.0]] * 5)  # rows 1-4 all lie at distance 1
        assert preprocess._nearest_rows(queries, reference).tolist() == [1] * 5
        assert brute_nearest(queries, reference) == [1] * 5

    def test_leave_one_out_never_matches_itself(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 3)
        rng = random.Random(9)
        rows = quarter_grid(rng, 10, 2)
        rows[7] = rows[4]  # an exact duplicate: the two must match each other
        got = preprocess._nearest_rows(rows, rows, leave_one_out=True).tolist()
        assert all(g != i for i, g in enumerate(got))
        assert got == brute_nearest(rows, rows, leave_one_out=True)
        assert np.abs(rows[got[7]] - rows[7]).sum() == 0.0

    def test_leave_one_out_single_row(self):
        rows = np.array([[1.5, 2.0]])
        assert preprocess._nearest_rows(rows, rows, leave_one_out=True).tolist() == [0]


def nearest_rows_oracle(queries, reference, leave_one_out=False):
    """The kernel before it added one feature column at a time: numpy sums a
    block x n_ref x d tensor of |differences|.  Kept as its reference."""
    nearest = np.empty(len(queries), dtype=np.intp)
    for start in range(0, len(queries), preprocess._NN_BLOCK_ROWS):
        block = queries[start:start + preprocess._NN_BLOCK_ROWS]
        dists = np.abs(block[:, None, :] - reference).sum(axis=2)
        if leave_one_out:
            rows = np.arange(len(block))
            dists[rows, start + rows] = np.inf
        nearest[start:start + len(block)] = dists.argmin(axis=1)
    return nearest


# every order of numpy's pairwise sum: in sequence (d < 8), round 8
# accumulators (8-128), split in halves once or twice (above 128)
KERNEL_WIDTHS = st.integers(0, 30) | st.sampled_from([64, 127, 128, 129, 136, 200, 255, 257, 300, 520])


class TestColumnKernelMatchesTheTensorSum:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=KERNEL_WIDTHS, n_queries=st.integers(1, 9), n_ref=st.integers(1, 9),
           block=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_distances_are_bit_equal(self, monkeypatch, d, n_queries, n_ref, block, seed):
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", block)
        rng = np.random.default_rng(seed)
        queries, reference = (rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
                              for n in (n_queries, n_ref))

        def fill(rows, out):
            np.abs(np.subtract(queries[rows].T[:, :, None], reference.T[:, None], out=out), out=out)

        got = [(start, sums.copy())
               for start, sums in preprocess._block_sums(n_queries, n_ref, d, fill)]
        rows = max(1, min(block, 9 * block // max(d, 1),  # at most 9 x block query cells
                          preprocess._NN_BLOCK_CELLS // max(d * n_ref, 1)))
        assert [start for start, _ in got] == list(range(0, n_queries, rows))
        want = np.abs(queries[:, None] - reference).sum(axis=2)
        assert np.array_equal(np.concatenate([sums for _, sums in got]), want)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=KERNEL_WIDTHS, n_queries=st.integers(1, 12), n_ref=st.integers(1, 12),
           block=st.integers(1, 5), leave_one_out=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_nearest_rows_on_tie_heavy_grids(self, monkeypatch, d, n_queries, n_ref, block,
                                             leave_one_out, seed):
        # cells in tenths: many distances equal in exact arithmetic, which
        # tie or not as their sums round
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", block)
        rng = np.random.default_rng(seed)
        reference = rng.integers(-3, 4, size=(n_ref, d)) / 10
        queries = reference if leave_one_out else rng.integers(-3, 4, size=(n_queries, d)) / 10
        got = preprocess._nearest_rows(queries, reference, leave_one_out)
        assert got.tolist() == nearest_rows_oracle(queries, reference, leave_one_out).tolist()


def tenths_rows(rng, n, d, active):
    """n x d cells in tenths, wide (-3..3) in the first `active` columns and
    narrow (-0.1..0.1) in the rest: rows near an active-dimensional set, on
    which leaves prune, with many distances equal in exact arithmetic."""
    wide = rng.integers(-30, 31, size=(n, d)) / 10
    return np.where(np.arange(d) < active, wide, rng.integers(-1, 2, size=(n, d)) / 10)


@pytest.fixture
def pruning(monkeypatch):
    """Prune above 0 reference rows; the list of what each pruned search returned."""
    monkeypatch.setattr(preprocess, "_NN_PRUNE_ROWS", 0)
    outcomes, search = [], preprocess._pruned_search

    def spy(*args):
        outcomes.append(search(*args))
        return outcomes[-1]

    monkeypatch.setattr(preprocess, "_pruned_search", spy)
    return outcomes


def computed_pairs(monkeypatch):
    """A list that gathers the (query, reference) pairs of every kernel call."""
    pairs, kernel = [], preprocess._block_sums

    def spy(n_queries, n_ref, d, fill):
        pairs.append(n_queries * n_ref)
        return kernel(n_queries, n_ref, d, fill)

    monkeypatch.setattr(preprocess, "_block_sums", spy)
    return pairs


class TestPrunedSearchMatchesTheOracle:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, 30), active=st.integers(1, 3) | st.just(30),
           n_queries=st.integers(1, 40), n_ref=st.integers(1, 60), leaf=st.integers(1, 8),
           copies=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
    def test_indices_equal_the_oracle(self, monkeypatch, pruning, d, active, n_queries, n_ref,
                                      leaf, copies, seed):
        # duplicate reference rows, and queries equal to reference rows, tie
        # exactly; a leaf size that rarely divides the query count
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", leaf)
        rng = np.random.default_rng(seed)
        reference = tenths_rows(rng, n_ref, d, active)
        twins = rng.integers(n_ref, size=(2, n_ref // 4))
        reference[twins[0]] = reference[twins[1]]
        queries = tenths_rows(rng, n_queries, d, active)
        queries[:copies] = reference[rng.integers(n_ref, size=min(copies, n_queries))]
        pruning.clear()
        got = preprocess._nearest_rows(queries, reference)
        assert len(pruning) == 1
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    def test_prunes_a_low_dimensional_design(self, monkeypatch, pruning):
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 8)
        pairs = computed_pairs(monkeypatch)
        rng = np.random.default_rng(5)
        reference, queries = tenths_rows(rng, 200, 6, 1), tenths_rows(rng, 37, 6, 1)
        got = preprocess._nearest_rows(queries, reference)
        assert pruning == [True]
        assert sum(pairs) < 37 * 200 / 2
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    @pytest.mark.parametrize("other_leaf_first", [True, False])
    def test_a_tie_across_leaves_goes_to_the_lower_index(self, monkeypatch, pruning,
                                                          other_leaf_first):
        # leaves of 2: from the origin the near leaf's box bounds at 0, and its
        # row (1, 0) gives the upper bound 1; the other leaf's box bounds at 1,
        # so it is kept, and its row (0, -1) lies at 1 exactly.  The lower of
        # the two indices must win, whichever leaf holds it; the twelve far
        # rows are ruled out.
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 2)
        near_leaf, other_leaf = [[1.0, 0.0], [-0.5, 1.0]], [[0.0, -1.0], [-0.5, -1.5]]
        rows = other_leaf + near_leaf if other_leaf_first else near_leaf + other_leaf
        reference = np.array(rows + [[0.0, 100.0 + i] for i in range(12)])
        query = np.zeros((1, 2))
        got = preprocess._nearest_rows(query, reference)
        assert pruning == [True]
        assert got.tolist() == [0] == nearest_rows_oracle(query, reference).tolist()

    @pytest.mark.parametrize("normalize", ["none", "zscore"])
    def test_prunes_the_planted_context_pair(self, monkeypatch, normalize):
        # the nn searches of compare-normalizers at 1,000 x 1,000 rows and 10
        # primaries, raw and z-scored: they computed 6.3% of the pairs when
        # this was written, and a search that stops pruning computes them all
        pairs = computed_pairs(monkeypatch)
        params = data.PlantedContextParams(n_primary=10, n_train=1000, n_test=1000)
        train, test = data.plant_context_dataset(params, seed=0)
        if normalize == "zscore":
            model = fit_zscore(train)
            train, test = apply_zscore(model, train), apply_zscore(model, test)
        primaries = train.schema.primary_indices
        reference, queries = (s.values.take(primaries, axis=1) for s in (train, test))
        got = preprocess._nearest_rows(queries, reference)
        assert sum(pairs) <= 0.065 * len(queries) * len(reference)
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    def test_a_single_query_leaf(self, monkeypatch, pruning):
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 8)
        rng = np.random.default_rng(6)
        reference, queries = tenths_rows(rng, 100, 3, 1), tenths_rows(rng, 8, 3, 1)
        queries[:, 0] = rng.integers(10, 15, size=8) / 10  # near each other
        got = preprocess._nearest_rows(queries, reference)
        assert pruning == [True]
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    def test_a_single_reference_leaf_searches_in_full(self, pruning):
        rng = np.random.default_rng(7)
        reference, queries = tenths_rows(rng, 40, 4, 2), tenths_rows(rng, 150, 4, 2)
        got = preprocess._nearest_rows(queries, reference)
        assert pruning == [False]
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    def test_bails_out_when_every_leaf_is_as_near(self, monkeypatch, pruning):
        # rows on the L1 unit circle: from the origin no leaf's box can be
        # ruled out, so the first query leaf keeps them all and the search
        # runs in full, every query leaf with it
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 2)
        a = np.arange(-10, 11) / 10
        reference = np.concatenate([np.stack([a, 1 - abs(a)], 1), np.stack([a, abs(a) - 1], 1)])
        queries = np.zeros((5, 2))
        got = preprocess._nearest_rows(queries, reference)
        assert pruning == [False]
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    @pytest.mark.parametrize("where", ["queries", "reference"])
    @pytest.mark.parametrize("cell", [np.inf, -np.inf])
    def test_a_non_finite_cell_searches_in_full(self, pruning, where, cell):
        rng = np.random.default_rng(8)
        rows = {"queries": tenths_rows(rng, 100, 3, 1), "reference": tenths_rows(rng, 100, 3, 1)}
        rows[where][17, 1] = cell
        got = preprocess._nearest_rows(rows["queries"], rows["reference"])
        assert pruning == []
        assert got.tolist() == nearest_rows_oracle(rows["queries"], rows["reference"]).tolist()

    @pytest.mark.parametrize("n_queries, d", [(0, 3), (5, 0)])
    def test_no_query_or_no_column_searches_in_full(self, pruning, n_queries, d):
        queries, reference = np.zeros((n_queries, d)), np.zeros((100, d))
        got = preprocess._nearest_rows(queries, reference)
        assert pruning == []
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    def test_leave_one_out_searches_in_full(self, pruning):
        rows = tenths_rows(np.random.default_rng(9), 150, 3, 1)
        got = preprocess._nearest_rows(rows, rows, leave_one_out=True)
        assert pruning == []
        assert got.tolist() == nearest_rows_oracle(rows, rows, leave_one_out=True).tolist()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, 12), n_queries=st.integers(1, 40), n_ref=st.integers(2, 60),
           leaf=st.integers(1, 8), sides=st.sampled_from(["above", "below", "mixed"]),
           seed=st.integers(0, 2**32 - 1))
    def test_queries_outside_the_box_in_every_dimension(self, monkeypatch, pruning, d, n_queries,
                                                        n_ref, leaf, sides, seed):
        # above the box in every column, a query's distance to any row is
        # sum q - sum r, so rows of equal sums tie in exact arithmetic, and
        # twin rows, cut into other leaves, tie exactly
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", leaf)
        rng = np.random.default_rng(seed)
        reference = rng.integers(0, 6, size=(n_ref, d)) / 10
        twins = rng.integers(n_ref, size=(2, n_ref // 3 + 1))
        reference[twins[0]] = reference[twins[1]]
        side = {"above": np.ones(d), "below": -np.ones(d),
                "mixed": rng.choice([-1.0, 1.0], size=d)}[sides]
        outside = rng.integers(1, 8, size=(n_queries, d)) / 10
        queries = np.where(side > 0, reference.max(axis=0) + outside, reference.min(axis=0) - outside)
        pruning.clear()
        got = preprocess._nearest_rows(queries, reference)
        assert len(pruning) == 1
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    def test_one_query_leaf_prunes_and_another_runs_in_full(self, monkeypatch, pruning):
        # rows on the L1 unit circle, leaves of 2: the far query leaf prunes;
        # from the origin no leaf can be ruled out, so that query leaf runs
        # over every row, and the search still returns True
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 2)
        a = np.arange(-10, 11) / 10
        reference = np.concatenate([np.stack([a, 1 - abs(a)], 1), np.stack([a, abs(a) - 1], 1)])
        queries = np.array([[5.0, 0.3], [0.0, 0.0], [5.0, 0.2], [0.0, 0.1]])
        searched, among = [set() for _ in queries], preprocess._nearest_among

        def spy(q, reference, r, *args):
            for i, query in enumerate(queries):
                if (q == query).all(axis=1).any():
                    searched[i].update(r.tolist())
            return among(q, reference, r, *args)

        monkeypatch.setattr(preprocess, "_nearest_among", spy)
        got = preprocess._nearest_rows(queries, reference)
        assert pruning == [True]
        assert [len(rows) == len(reference) for rows in searched] == [False, True, False, True]
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, 6), active=st.integers(1, 3), n_queries=st.integers(1, 60),
           n_ref=st.integers(1, 80), leaf=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_query_leaves_across_reference_leaves(self, monkeypatch, pruning, d, active,
                                                  n_queries, n_ref, leaf, seed):
        # whole-number rows, twins among them, and queries at whole or half
        # steps from the same range: every distance is exact, a query half way
        # between rows ties with both, and a median cut puts equal cells in
        # two leaves, so query leaves straddle reference leaves and ties cross
        # them
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", leaf)
        rng = np.random.default_rng(seed)
        wide = np.arange(d) < active
        reference = np.where(wide, rng.integers(0, 8, size=(n_ref, d)),
                             rng.integers(0, 2, size=(n_ref, d))).astype(float)
        twins = rng.integers(n_ref, size=(2, n_ref // 3))
        reference[twins[0]] = reference[twins[1]]
        queries = np.where(wide, rng.integers(-2, 18, size=(n_queries, d)) / 2,
                           rng.integers(0, 2, size=(n_queries, d)))
        pruning.clear()
        got = preprocess._nearest_rows(queries, reference)
        assert len(pruning) == 1
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    def test_a_planted_search_holds_its_bounds_in_little_memory(self):
        # one 4,000 x 4,000 x 10 planted search: the leaf-to-leaf bounds are
        # 64 x 64 cells, and a query leaf's point bounds 63 x its kept leaves
        # x 11 (bounding each query against every leaf peaked at about 4.5 MB)
        params = data.PlantedContextParams(n_primary=10, n_train=4000, n_test=4000)
        train, test = data.plant_context_dataset(params, seed=0)
        primaries = train.schema.primary_indices
        reference, queries = (s.values.take(primaries, axis=1) for s in (train, test))
        tracemalloc.start()
        try:
            preprocess._nearest_rows(queries, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(1, 10), n_queries=st.integers(1, 30), n_ref=st.integers(2, 60),
           leaf=st.integers(1, 8), offset=st.sampled_from([1e6, -1e6, 3e6]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_far_from_the_origin(self, monkeypatch, pruning, d, n_queries, n_ref, leaf,
                                      offset, seed):
        # sums near d x 1e6 round by about 1e-10, distances are a few 1e-3:
        # only the rounding margin keeps the row-sum bound below them
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", leaf)
        rng = np.random.default_rng(seed)
        reference = offset + rng.integers(0, 4, size=(n_ref, d)) * 1e-3
        queries = offset + rng.integers(-2, 6, size=(n_queries, d)) * 1e-3
        pruning.clear()
        got = preprocess._nearest_rows(queries, reference)
        assert len(pruning) == 1
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.integers(2, 4), n_queries=st.integers(1, 20), n_ref=st.integers(2, 40),
           leaf=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_row_sums_that_overflow(self, monkeypatch, pruning, d, n_queries, n_ref, leaf, seed):
        # finite cells whose sums (and margins) are infinite: the row-sum
        # bound is then undefined, and the box bound alone must decide
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", leaf)
        rng = np.random.default_rng(seed)
        reference, queries = (rng.integers(5, 10, size=(n, d)) * 1e307 for n in (n_ref, n_queries))
        pruning.clear()
        got = preprocess._nearest_rows(queries, reference)
        assert len(pruning) == 1
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()

    @pytest.mark.parametrize("n_rows, share", [(1000, 0.065), (4000, 0.03)])
    def test_prunes_the_contextual_nn_planted_pair(self, monkeypatch, n_rows, share):
        # the test contexts lie past every training context, so each query
        # is outside the normalized rows' box, where the box bounds rule out
        # little (a quarter of the pairs was computed before the row-sum
        # bound); the row sums rule out every leaf but one.  Each query runs
        # over at least its own leaf of up to 64 rows: 6.3% of 1,000 rows
        params = data.PlantedContextParams(n_primary=10, n_train=n_rows, n_test=n_rows)
        train, test = data.plant_context_dataset(params, seed=0)
        baseline = train.subset(np.flatnonzero(train.class_codes() == 0))
        config = PipelineConfig(normalize="contextual-nn", context=ContextKey("condition"),
                                baseline=baseline)
        train, test = run_pipeline(config, train, test)
        primaries = train.schema.primary_indices
        reference, queries = (s.values.take(primaries, axis=1) for s in (train, test))
        pairs = computed_pairs(monkeypatch)
        got = preprocess._nearest_rows(queries, reference)
        assert sum(pairs) <= share * len(queries) * len(reference)
        assert got.tolist() == nearest_rows_oracle(queries, reference).tolist()


def test_no_kernel_buffer_exceeds_nine_blocks_of_rows(monkeypatch, synthetic_hepatitis):
    # the buffer of d x block x n_ref terms holds at most 9 x _NN_BLOCK_ROWS
    # x n_ref cells, as the per-column kernel's lanes and scratch did
    buffers, kernel = [], preprocess._block_sums

    def spy(n_queries, n_ref, d, fill):
        def recording(rows, out):
            buffers.append((out.base.size, n_ref))
            fill(rows, out)
        return kernel(n_queries, n_ref, d, recording)

    monkeypatch.setattr(preprocess, "_block_sums", spy)
    rng = np.random.default_rng(10)
    for d in (1, 8, 9, 10, 17, 64, 129, 520):
        preprocess._nearest_rows(rng.normal(size=(150, d)), rng.normal(size=(7, d)))
    params = data.PlantedContextParams(n_primary=10, n_train=1000, n_test=1000)
    reference, queries = (s.values[:, 1:-1] for s in data.plant_context_dataset(params, seed=0))
    preprocess._nearest_rows(queries, reference)
    impute_missing(synthetic_hepatitis, synthetic_hepatitis)
    assert len(buffers) > 20
    assert all(cells <= 9 * preprocess._NN_BLOCK_ROWS * n_ref for cells, n_ref in buffers)


class TestContextualGroups:
    def test_group_statistics(self):
        ds = numeric_dataset([[2.0, 4.0, 6.0]], ["a", "b", "a"], context=["g", "g", "g"])
        model = fit_contextual(ds, ContextKey("ctx"))
        mu, sigma = model.groups["g"]
        assert mu[0] == pytest.approx(4.0)
        assert sigma[0] == pytest.approx(1.633, abs=1e-3)

    def test_single_context_equals_global_zscore(self):
        rng = random.Random(2)
        ds = numeric_dataset(
            [[rng.gauss(3, 2) for _ in range(25)], [rng.uniform(0, 9) for _ in range(25)]],
            ["a", "b", "a", "b", "a"] * 5,
            context=["only"] * 25,
        )
        ctx_out = apply_contextual(fit_contextual(ds, ContextKey("ctx")), ds)
        z_out = apply_zscore(fit_zscore(ds), ds)
        for a, b in zip(ctx_out.rows, z_out.rows):
            for u, v in zip(a, b):
                if isinstance(u, float):
                    assert u == pytest.approx(v, abs=1e-9)

    def test_boolean_pure_group(self):
        ds = numeric_dataset([[1.0, 1.0]], ["a", "b"], context=["g", "g"])
        model = fit_contextual(ds, ContextKey("ctx"))
        mu, sigma = model.groups["g"]
        assert (mu[0], sigma[0]) == (1.0, 0.0)

    def test_apply_centers_value(self):
        ds = numeric_dataset([[5.0, 7.0, 3.0]], ["a", "b", "a"], context=["g"] * 3)
        out = apply_contextual(fit_contextual(ds, ContextKey("ctx")), ds)
        assert out.column(1)[0] == pytest.approx((5.0 - 5.0) / fit_contextual(ds, ContextKey("ctx")).groups["g"][1][0])

    def test_post_normalization_group_stats(self):
        rng = random.Random(3)
        context = [rng.choice("pqr") for _ in range(60)]
        ds = numeric_dataset(
            [[rng.gauss(ord(c), 1 + ord(c) % 3) for c in context]],
            [rng.choice("ab") for _ in range(60)],
            context=context,
        )
        out = apply_contextual(fit_contextual(ds, ContextKey("ctx")), ds)
        for g in "pqr":
            vals = [row[1] for row in out.rows if row[0] == g]
            mean = sum(vals) / len(vals)
            dev = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
            assert mean == pytest.approx(0.0, abs=1e-9)
            assert dev == pytest.approx(1.0, abs=1e-9)

    def test_bin_boundaries_on_a_discrete_context_are_an_error(self):
        # the symbols "1"/"2" are codes 0/1 in the matrix: binning them would
        # silently bin the codes, not the symbols
        ds = numeric_dataset([[1.0, 2.0, 3.0]], ["a", "b", "a"], context=["1", "2", "2"])
        with pytest.raises(ValueError, match="bin boundaries need a continuous feature"):
            fit_contextual(ds, ContextKey("ctx", (1.5,)))

    def test_unseen_group_uses_fallback(self):
        train = numeric_dataset([[1.0, 3.0]], ["a", "b"], context=["g", "g"])
        test = numeric_dataset([[2.0]], ["a"], context=["h"])
        model = fit_contextual(train, ContextKey("ctx"))
        out = apply_contextual(model, test)
        # fallback is the global mean/dev: (2-2)/1 = 0
        assert out.column(1) == (0.0,)


@st.composite
def grouped_matrices(draw):
    """A matrix of 1-6 columns, each random, constant or zero at a magnitude
    from 1e-8 to 1e8, with zeros of either sign sprinkled in, and a group
    number for each of its 1-60 rows: -1 (MISSING) or 0 to k - 1, every one of
    which has a row; one-row groups are common."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        kind, scale = draw(st.sampled_from(["random", "constant", "zero"])), 10.0 ** draw(
            st.integers(-8, 8))
        col = {"random": rng.normal(size=n), "constant": np.full(n, rng.normal()),
               "zero": np.zeros(n)}[kind] * scale
        col[rng.random(n) < 0.1] = 0.0
        col[rng.random(n) < 0.1] = -0.0
        columns.append(col)
    raw = draw(st.lists(st.integers(-1, draw(st.integers(1, 8))), min_size=n, max_size=n))
    raw[0] = max(raw[0], 0)
    number = {g: i for i, g in enumerate(dict.fromkeys(g for g in raw if g >= 0))}
    return np.stack(columns, axis=1), np.array([number.get(g, -1) for g in raw]), len(number)


class TestGroupMomentsMatchTheMaskedMoments:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=grouped_matrices())
    def test_bit_for_bit(self, case):
        m, group, n_groups = case
        mean, std = preprocess._group_moments(m, group, n_groups)
        assert mean.shape == std.shape == (n_groups, m.shape[1])
        for g in range(n_groups):
            rows = m[group == g]
            # the bytes hold the sign of a zero as well
            assert mean[g].tobytes() == rows.mean(axis=0).tobytes()
            assert std[g].tobytes() == rows.std(axis=0).tobytes()


class TestContextualModel:
    def _baseline(self, slope, noise, n=60, seed=5):
        rng = random.Random(seed)
        ctx = [rng.uniform(0, 10) for _ in range(n)]
        feats = [slope * c + noise * rng.gauss(0, 1) for c in ctx]
        sch = FeatureSchema(
            (
                Feature("c", FeatureRole.CONTEXTUAL, "continuous"),
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("h",)),
            )
        )
        return Dataset.build(sch, [(c, f, "h") for c, f in zip(ctx, feats)])

    def test_exact_linear_fit(self):
        ds = self._baseline(2.0, 0.0)
        model = fit_context_linear(ds, ContextKey("c"))
        mu, sigma = model.row_stats(Dataset.build(ds.schema, [(4.0, 0.0, "h")]))
        assert mu[0, 0] == pytest.approx(8.0, abs=1e-9)
        assert sigma[0, 0] <= 1e-9

    def test_nn_regressor_returns_matching_row(self):
        ds = self._baseline(1.5, 0.3)
        model = fit_context_nn(ds, ContextKey("c"))
        c0, x0 = ds.rows[7][0], ds.rows[7][1]
        mu, _ = model.row_stats(Dataset.build(ds.schema, [(c0, 0.0, "h")]))
        assert mu[0, 0] == pytest.approx(x0)

    def test_noisy_linear_residual_sigma_matches_normal_equations(self):
        ds = self._baseline(3.0, 0.7, n=200)
        model = fit_context_linear(ds, ContextKey("c"))
        # independent closed-form least squares as the oracle
        c = np.array([r[0] for r in ds.rows])
        x = np.array([r[1] for r in ds.rows])
        design = np.vstack([np.ones_like(c), c]).T
        beta = np.linalg.solve(design.T @ design, design.T @ x)
        resid = x - design @ beta
        assert model.resid_sigma[0] == pytest.approx(resid.std(), abs=1e-9)

    def test_linear_row_stats_round_as_the_scalar_formula(self):
        rng = random.Random(10)
        sch = FeatureSchema(
            (
                Feature("c", FeatureRole.CONTEXTUAL, "continuous"),
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("y", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("h",)),
            )
        )
        rows = [
            (a, 0.3 * a + rng.gauss(0, 0.1), -1.7 * a + rng.gauss(0, 0.1), "h")
            for a in (rng.uniform(-4, 9) for _ in range(40))
        ]
        ds = Dataset.build(sch, rows)
        model = fit_context_linear(ds, ContextKey("c"))
        mu, _ = model.row_stats(ds)
        for r, row in enumerate(ds.rows):
            for j, (a, b) in enumerate(zip(model.intercept, model.slope)):
                assert mu[r, j] == a + b * row[0]

    def _constant_context(self):
        rng = random.Random(6)
        sch = FeatureSchema(
            (
                Feature("c", FeatureRole.CONTEXTUAL, "continuous"),
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("h",)),
            )
        )
        return Dataset.build(sch, [(1.0, rng.random(), "h") for _ in range(10)])

    def test_degenerate_design_falls_back(self):
        ds = self._constant_context()
        with pytest.warns(UserWarning):
            model = fit_context_linear(ds, ContextKey("c"))
        mu, sigma = model.row_stats(Dataset.build(ds.schema, [(9.0, 0.0, "h")]))
        vals = [r[1] for r in ds.rows]
        assert mu[0, 0] == pytest.approx(sum(vals) / len(vals))

    def test_degenerate_fallback_is_bit_equal_to_the_global_statistics(self):
        rng = random.Random(7)
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("c", FeatureRole.CONTEXTUAL, "continuous"),
                Feature("y", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("h",)),
            )
        )
        ds = Dataset.build(sch, [(rng.gauss(3, 2), -2.5, rng.gauss(-1, 0.3), "h")
                                 for _ in range(25)])
        with pytest.warns(UserWarning, match="degenerate context design"):
            model = fit_context_linear(ds, ContextKey("c"))
        assert model.slope == (0.0, 0.0)
        # the statistics the group estimator's global fallback gave
        m = ds.values.take(ds.schema.primary_indices, axis=1)
        queries = Dataset.build(sch, [(0.0, c, 0.0, "h") for c in (-7.0, -2.5, 0.0, 3.25)])
        mu, sigma = model.row_stats(queries)
        assert np.array_equal(mu, np.tile(m.mean(axis=0), (4, 1)))
        assert np.array_equal(sigma, np.tile(m.std(axis=0), (4, 1)))

    @pytest.mark.parametrize("fit, constant", [(fit_context_linear, True),
                                               (fit_context_linear, False),
                                               (fit_context_nn, False)],
                             ids=["degenerate-linear", "linear", "nn"])
    def test_missing_context_cell_needs_imputing(self, fit, constant):
        ds = self._constant_context() if constant else self._baseline(2.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the degenerate design's warning
            model = fit(ds, ContextKey("c"))
        query = Dataset.build(ds.schema, [(MISSING, 0.5, "h")])
        with pytest.raises(ValueError, match="feature 'c' has MISSING cells; impute first"):
            apply_contextual(model, query)


class TestWeights:
    def toy(self):
        # 2 speakers x 2 classes: A:{c1: 0,2; c2: 4,6}, B:{c1: 1,3; c2: 5,7}
        values = [0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0]
        labels = ["c1", "c1", "c2", "c2", "c1", "c1", "c2", "c2"]
        context = ["A", "A", "A", "A", "B", "B", "B", "B"]
        return numeric_dataset([values], labels, context=context)

    def test_toy_weights(self):
        w = compute_weights(self.toy(), ContextKey("ctx"))
        assert w.inter[0] == pytest.approx(2.2361, abs=1e-3)
        assert w.intra[0] == pytest.approx(1.0, abs=1e-9)
        assert w.weights[0] == pytest.approx(2.2361, abs=1e-3)

    def test_matches_brute_force(self):
        ds = self.toy()
        w = compute_weights(ds, ContextKey("ctx"))

        def popstd(vals):
            m = sum(vals) / len(vals)
            return math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals))

        groups = {}
        cells = {}
        for row in ds.rows:
            groups.setdefault(row[0], []).append(row[1])
            cells.setdefault((row[0], row[2]), []).append(row[1])
        inter = sum(popstd(v) for v in groups.values()) / len(groups)
        intra = sum(popstd(v) for v in cells.values()) / len(cells)
        assert w.weights[0] == pytest.approx(inter / intra)

    def test_invariant_ratio(self):
        w = compute_weights(self.toy(), ContextKey("ctx"))
        assert w.weights[0] * w.intra[0] == pytest.approx(w.inter[0], abs=1e-9)

    def test_constant_within_cells_maxes_out(self):
        values = [0.0, 0.0, 9.0, 9.0]
        ds = numeric_dataset([values], ["c1", "c1", "c2", "c2"], context=["A"] * 4)
        w = compute_weights(ds, ContextKey("ctx"))
        assert w.intra[0] == 0.0
        assert w.weights[0] > 1e9

    def test_uninformative_feature_weight_near_one(self):
        # identical distribution across classes within each group
        values = [0.0, 2.0, 0.0, 2.0]
        ds = numeric_dataset([values], ["c1", "c1", "c2", "c2"], context=["A"] * 4)
        w = compute_weights(ds, ContextKey("ctx"))
        assert w.weights[0] == pytest.approx(1.0)

    def test_shift_and_scale_invariance(self):
        ds = self.toy()
        w0 = compute_weights(ds, ContextKey("ctx"))
        shifted = numeric_dataset(
            [[r[1] + 100.0 for r in ds.rows]], list(ds.class_labels()), context=[r[0] for r in ds.rows]
        )
        ws = compute_weights(shifted, ContextKey("ctx"))
        assert ws.weights[0] == pytest.approx(w0.weights[0])
        scaled = numeric_dataset(
            [[r[1] * 3.0 for r in ds.rows]], list(ds.class_labels()), context=[r[0] for r in ds.rows]
        )
        wc = compute_weights(scaled, ContextKey("ctx"))
        assert wc.inter[0] == pytest.approx(3.0 * w0.inter[0])
        assert wc.intra[0] == pytest.approx(3.0 * w0.intra[0])
        assert wc.weights[0] == pytest.approx(w0.weights[0])

    def test_apply_weights(self):
        ds = numeric_dataset([[3.0], [5.0]], ["a"], context=["g"])
        w = preprocess.WeightVector(ds.schema.primary_indices, (2.0, 0.0), (1.0, 1.0), (0.5, 1.0))
        out = apply_weights(w, ds)
        assert out.rows[0][1:3] == (6.0, 0.0)

    def test_identity_weights(self):
        ds = self.toy()
        w = preprocess.WeightVector(ds.schema.primary_indices, (1.0,), (1.0,), (1.0,))
        assert apply_weights(w, ds).rows == ds.rows


class TestExpansion:
    def test_discrete_expansion(self, synthetic_vowel_pair):
        train, _ = synthetic_vowel_pair
        model = fit_expansion(train, ["sex"])
        out = apply_expansion(model, train)
        assert len(out.schema.primary_indices) == 11
        sex_idx = out.schema.index_of("sex")
        assert set(out.column(sex_idx)) <= {0.0, 1.0}

    def test_continuous_expansion_scaled(self, synthetic_hepatitis):
        ds = synthetic_hepatitis
        model = fit_expansion(ds, ["age"])
        out = apply_expansion(model, ds)
        assert len(out.schema.primary_indices) == 18
        ages = [v for v in out.column(out.schema.index_of("age")) if v is not MISSING]
        assert min(ages) == 0.0 and max(ages) == 1.0

    def test_empty_selection_is_identity(self, synthetic_hepatitis):
        model = fit_expansion(synthetic_hepatitis, [])
        assert apply_expansion(model, synthetic_hepatitis) is synthetic_hepatitis

    def test_selecting_class_is_error(self, synthetic_hepatitis):
        with pytest.raises(ValueError):
            fit_expansion(synthetic_hepatitis, ["class"])

    def test_matches_per_cell_formula(self, synthetic_hepatitis):
        # a constant context column maps to 0.5; MISSING cells stay MISSING
        ds = synthetic_hepatitis
        age, sex = ds.schema.index_of("age"), ds.schema.index_of("sex")

        def with_age(value):
            return Dataset.build(ds.schema, tuple(
                r[:age] + (MISSING if k % 7 == 0 else value(r[age]),) + r[age + 1:]
                for k, r in enumerate(ds.rows)))

        for table in (with_age(float), with_age(lambda _: 40.0)):
            ages = [c for c in table.column(age) if c is not MISSING]
            lo, hi = min(ages), max(ages)
            out = apply_expansion(fit_expansion(table, ["age", "sex"]), table)
            sex_feature = table.schema.features[sex]
            for before, after in zip(table.rows, out.rows):
                want_age = (MISSING if before[age] is MISSING else 0.5 if hi == lo
                            else (float(before[age]) - lo) / (hi - lo))
                want_sex = (MISSING if before[sex] is MISSING
                            else encode_value(sex_feature, before[sex]))
                assert after[age] is want_age or after[age] == want_age
                assert after[sex] is want_sex or after[sex] == want_sex
                assert after[:age] + after[sex + 1:] == before[:age] + before[sex + 1:]
            assert any(c is MISSING for c in out.column(age))
            assert out.schema.features[age].role is FeatureRole.PRIMARY


class TestImputation:
    def test_single_donor(self):
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("y", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b")),
            )
        )
        train = Dataset.build(sch, [(0.0, 1.0, "a"), (10.0, 9.0, "b")])
        target = Dataset.build(sch, [(0.1, MISSING, "a")])
        out = impute_missing(train, target)
        assert out.rows[0][1] == 1.0

    def test_no_missing_returned_unchanged(self):
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a",)),
            )
        )
        ds = Dataset.build(sch, [(1.0, "a")])
        assert impute_missing(ds, ds) is ds

    def test_three_row_donor_choice(self):
        # distances after min-max rescaling are hand-checkable
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("y", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b")),
            )
        )
        train = Dataset.build(
            sch, [(0.0, 0.0, "a"), (10.0, 2.0, "b"), (2.0, 10.0, "a")]
        )
        target = Dataset.build(sch, [(1.5, MISSING, "a")])
        # rescaled x: 0.15 vs {0.0, 1.0, 0.2} -> nearest is row 2 (|0.15-0.2|)
        out = impute_missing(train, target)
        assert out.rows[0][1] == 10.0

    def test_donor_must_have_value(self):
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("y", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b")),
            )
        )
        train = Dataset.build(
            sch, [(1.0, MISSING, "a"), (2.0, 7.0, "b")]
        )
        target = Dataset.build(sch, [(1.0, MISSING, "a")])
        out = impute_missing(train, target)
        assert out.rows[0][1] == 7.0  # nearest donor lacks the cell, next supplies it

    def test_entirely_missing_feature_is_error(self):
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a",)),
            )
        )
        train = Dataset.build(sch, [(MISSING, "a")])
        with pytest.raises(ValueError):
            impute_missing(train, train)

    def test_error_names_first_entirely_missing_feature(self):
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("y", FeatureRole.PRIMARY, "continuous"),
                Feature("z", FeatureRole.PRIMARY, "discrete", ("p", "q")),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a",)),
            )
        )
        train = Dataset.build(sch, [(1.0, MISSING, MISSING, "a")])
        with pytest.raises(ValueError, match="'y' is entirely MISSING"):
            impute_missing(train, train)

    @pytest.mark.parametrize("train_rows, target_row, problem", [
        # p spans 2e308, past the float range: scaled, the target's present p
        # was NaN, taken for MISSING and overwritten by a donor's
        ([(1e308, 1.0), (-1e308, 2.0), (0.0, 3.0)], (1e308, MISSING),
         "'p' spans a training range too wide to scale"),
        # the target's p scales to inf, every similarity to -inf, and the
        # donor was row 0, whose q is MISSING too
        ([(-1e308, MISSING), (-0.9e308, 5.0)], (1e308, MISSING),
         "'p' has a cell too far outside its training range to scale"),
        # each cell scales to about 1e308, and two of them sum past the float range
        ([(0.0, 0.0, MISSING), (1e-300, 1e-300, 5.0)], (-1e8, -1e8, MISSING),
         "'p' has a cell too far outside its training range to scale"),
    ])
    def test_a_feature_that_cannot_be_scaled_is_an_error(self, train_rows, target_row, problem):
        names = ["p", "q"] if len(target_row) == 2 else ["p", "r", "q"]
        sch = FeatureSchema(tuple(Feature(n, FeatureRole.PRIMARY, "continuous") for n in names)
                            + (Feature("cls", FeatureRole.CLASS, "discrete", ("a",)),))
        train = Dataset.build(sch, [(*row, "a") for row in train_rows])
        target = Dataset.build(sch, [(*target_row, "a")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=problem):
                impute_missing(train, target)

    def test_constant_training_column(self):
        # x has span 0 in training: every present x rescales to 0.5, whatever
        # its value (9.0 in the target), while a MISSING x shares nothing
        sch = FeatureSchema(
            (
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("y", FeatureRole.PRIMARY, "continuous"),
                Feature("z", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b")),
            )
        )
        train = Dataset.build(
            sch,
            [(MISSING, 1.0, 0.0, "a"), (5.0, 2.0, 0.0, "b"), (5.0, 3.0, 10.0, "a")],
        )
        target = Dataset.build(sch, [(9.0, MISSING, 0.0, "a")])
        # similarities: row 0 -> 1 (z only), row 1 -> 1 + 1, row 2 -> 1 + 0
        out = impute_missing(train, target)
        assert out.rows[0] == (9.0, 2.0, 0.0, "a")

    def test_discrete_and_continuous_features(self):
        # d is scored by its alphabet code (a 0, b 0.5, c 1), x by the
        # training min/max 0..4, y by 1..3
        sch = FeatureSchema(
            (
                Feature("d", FeatureRole.CONTEXTUAL, "discrete", ("a", "b", "c")),
                Feature("x", FeatureRole.PRIMARY, "continuous"),
                Feature("y", FeatureRole.PRIMARY, "continuous"),
                Feature("cls", FeatureRole.CLASS, "discrete", ("u", "v")),
            )
        )
        train = Dataset.build(
            sch, [("a", 0.0, 1.0, "u"), ("c", 1.0, 2.0, "v"), ("b", 4.0, 3.0, "u")]
        )
        target = Dataset.build(sch, [("c", 3.0, MISSING, "v"), (MISSING, 0.5, 1.1, "u")])
        # row 0: similarities 0.25, 1.5, 1.25 (x alone would pick the last row)
        # row 1: similarities 1.825, 1.425, 0.175
        out = impute_missing(train, target)
        assert out.rows == (("c", 3.0, 2.0, "v"), ("a", 0.5, 1.1, "u"))

    def test_train_as_target_matches_an_equal_copy(self, synthetic_hepatitis):
        ds = synthetic_hepatitis
        copy = Dataset.build(ds.schema, ds.rows)
        assert copy is not ds
        filled = impute_missing(ds, ds)
        assert filled.missing_count() == 0
        assert filled == impute_missing(ds, copy)

    def test_random_datasets_match_brute_force(self):
        rng = random.Random(11)
        for trial in range(50):
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
            # every feature needs at least one training value
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

            # brute force oracle
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
                    continue
                donor = next(i for i in order if train_rows[i][j] is not MISSING)
                assert out.rows[0][j] == train_rows[i := donor][j]

    def test_never_alters_present_cells(self, synthetic_hepatitis):
        train, test = data.split_random(synthetic_hepatitis, 100, seed=2)
        out = impute_missing(train, test)
        assert out.missing_count() == 0
        for before, after in zip(test.rows, out.rows):
            for b, a in zip(before, after):
                if b is not MISSING:
                    assert a == b


def impute_oracle(train, target):
    """The row-at-a-time impute_missing that the blocked version replaced,
    kept as its reference: one similarity ranking and one donor walk per
    target row, over the cells of the row views."""
    schema = train.schema
    indices = [i for i, f in enumerate(schema) if f.role is not FeatureRole.CLASS]

    def code_matrix(ds):
        m = np.empty((ds.n_rows, len(indices)))
        for j, i in enumerate(indices):
            feat = schema.features[i]
            codes = {MISSING: np.nan}
            if feat.kind == "discrete":
                codes.update((s, encode_value(feat, s)) for s in feat.alphabet)
            m[:, j] = [codes.get(cell, cell) for cell in ds.column(i)]
        return m

    train_raw = code_matrix(train)
    if target.missing_count() == 0:
        return target
    lo, hi = np.nanmin(train_raw, axis=0), np.nanmax(train_raw, axis=0)
    train_m = preprocess._minmax_scale(train_raw, lo, hi)
    target_m = train_m if target is train else preprocess._minmax_scale(code_matrix(target), lo, hi)
    train_present = ~np.isnan(train_m)
    train_rows = train.rows
    rows = []
    for r, row in enumerate(target.rows):
        if all(c is not MISSING for c in row):
            rows.append(row)
            continue
        q = target_m[r]
        shared = train_present & ~np.isnan(q)
        diffs = np.where(shared, np.abs(train_m - q), 0.0)
        sims = np.where(shared, 1.0 - diffs, 0.0).sum(axis=1)
        order = np.lexsort((np.arange(len(sims)), -sims))
        out = list(row)
        for i in indices:
            if out[i] is MISSING:
                out[i] = next(train_rows[d][i] for d in order if train_rows[d][i] is not MISSING)
        rows.append(tuple(out))
    return Dataset.build(target.schema, rows)


@st.composite
def imputation_tables(draw):
    """A training table and a target table (or the training table itself)
    over 1-4 continuous and discrete non-class features, the class placed
    anywhere.  Cells come from a few coarse values, so equal similarities
    occur; some training columns are constant; every training column has a
    value; 1-14 target rows."""
    n_feat = draw(st.integers(1, 4))
    feats, pools = [], []
    for j in range(n_feat):
        if draw(st.booleans()):
            alphabet = ("a", "b", "c")[:draw(st.integers(1, 3))]
            feats.append(Feature(f"d{j}", FeatureRole.CONTEXTUAL, "discrete", alphabet))
            pools.append(list(alphabet))
        else:
            feats.append(Feature(f"x{j}", FeatureRole.PRIMARY, "continuous"))
            pools.append([0.0, 0.5, 1.0, 2.0])
    class_at = draw(st.integers(0, n_feat))
    feats.insert(class_at, Feature("cls", FeatureRole.CLASS, "discrete", ("u", "v")))
    schema = FeatureSchema(tuple(feats))
    constant = [draw(st.booleans()) and draw(st.booleans()) for _ in range(n_feat)]

    def table(n_rows, fill_every_column):
        columns = []
        for pool, const in zip(pools, constant):
            values = pool[:1] if const else pool
            col = [draw(st.sampled_from([MISSING, *values, *values])) for _ in range(n_rows)]
            if fill_every_column and all(c is MISSING for c in col):
                col[0] = values[-1]
            columns.append(col)
        labels = [draw(st.sampled_from(["u", "v"])) for _ in range(n_rows)]
        rows = [list(r) for r in zip(*columns)]
        for row, label in zip(rows, labels):
            row.insert(class_at, label)
        return Dataset.build(schema, rows)

    train = table(draw(st.integers(1, 9)), True)
    if draw(st.booleans()):
        return train, train
    return train, table(draw(st.integers(1, 14)), False)


class TestImputationMatchesOracle:
    @pytest.mark.parametrize("part", ["train", "test"])
    def test_every_hepatitis_grid_split(self, synthetic_hepatitis, part):
        rng = random.Random(0)  # the split seeds run_hepatitis_grid draws at seed 0
        for split_seed in [rng.randrange(2**32) for _ in range(10)]:
            train, test = data.split_random(synthetic_hepatitis, 100, split_seed)
            target = train if part == "train" else test
            assert target.missing_count() > 0
            assert impute_missing(train, target) == impute_oracle(train, target)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables=imputation_tables())
    def test_random_tables_in_small_blocks(self, monkeypatch, tables):
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 3)
        train, target = tables
        got, want = impute_missing(train, target), impute_oracle(train, target)
        assert got == want
        assert got.rows == want.rows

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables=imputation_tables())
    def test_the_pipeline_ranks_both_splits_at_once(self, monkeypatch, tables):
        # blocks of 3 rows: training and target rows share blocks
        monkeypatch.setattr(preprocess, "_NN_BLOCK_ROWS", 3)
        train, target = tables
        got = run_pipeline(PipelineConfig(impute=True), train, target)
        # every discrete feature of the tables is contextual, so encoding keeps it
        want = impute_oracle(train, train), impute_oracle(train, target)
        assert got == want
        assert [ds.rows for ds in got] == [ds.rows for ds in want]


class TestEncodeNumeric:
    def test_binary_becomes_zero_one(self, synthetic_hepatitis):
        filled = impute_missing(synthetic_hepatitis, synthetic_hepatitis)
        out = encode_numeric(filled)
        idx = out.schema.index_of("steroid")
        assert set(out.column(idx)) <= {0.0, 1.0}
        assert out.schema.features[idx].kind == "continuous"

    def test_matches_per_cell_formula(self, synthetic_hepatitis):
        out = encode_numeric(synthetic_hepatitis)
        for i, f in enumerate(synthetic_hepatitis.schema):
            col = synthetic_hepatitis.column(i)
            if f.role is FeatureRole.PRIMARY and f.kind == "discrete":
                want = tuple(c if c is MISSING else encode_value(f, c) for c in col)
                assert MISSING in want
            else:
                want = col
            assert out.column(i) == want

    def test_contextual_and_class_untouched(self, synthetic_hepatitis):
        out = encode_numeric(synthetic_hepatitis)
        assert out.column(out.schema.index_of("sex")) == synthetic_hepatitis.column(
            synthetic_hepatitis.schema.index_of("sex")
        )
        assert out.class_labels() == synthetic_hepatitis.class_labels()


class TestPipeline:
    def test_all_off_only_imputes(self, synthetic_hepatitis):
        train, test = data.split_random(synthetic_hepatitis, 100, seed=1)
        cfg = PipelineConfig(impute=True)
        tr, te = run_pipeline(cfg, train, test)
        assert tr.missing_count() == 0 and te.missing_count() == 0

    def test_determinism(self, synthetic_vowel_pair):
        train, test = synthetic_vowel_pair
        cfg = PipelineConfig(
            normalize="contextual-transductive",
            context=ContextKey("speaker"),
            weight=True,
            expand=("sex",),
        )
        a = run_pipeline(cfg, train, test)
        b = run_pipeline(cfg, train, test)
        assert a[0].rows == b[0].rows and a[1].rows == b[1].rows

    def test_full_combo_shapes(self, synthetic_vowel_pair):
        train, test = synthetic_vowel_pair
        cfg = PipelineConfig(
            normalize="contextual-transductive",
            context=ContextKey("speaker"),
            weight=True,
            expand=("sex",),
        )
        tr, te = run_pipeline(cfg, train, test)
        assert len(tr.schema.primary_indices) == 11
        assert tr.n_rows == train.n_rows and te.n_rows == test.n_rows

    def test_a_stage_that_overflows_is_named(self, monkeypatch):
        ds = numeric_dataset([[1.0, 2.0, 3.0, 4.0], [1e300, -1e300, 1e300, 1.0]],
                             ["a", "b", "a", "b"], context=["0", "0", "1", "1"])
        config = PipelineConfig(weight=True, context=ContextKey("ctx"))
        monkeypatch.setattr(preprocess, "apply_weights", lambda w, d: d.replace_columns(
            w.indices, d.values[:, list(w.indices)] * 1e10))  # 1e310: inf, unwarned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                run_pipeline(config, ds, ds.subset([]))
        assert str(raised.value) == "weighting turned finite cells of feature 'x1' non-finite"

    def test_an_expansion_that_overflows_is_named(self):
        # c's training range is 2e308: inf, so the scaled cells are not finite
        schema = FeatureSchema((Feature("c", FeatureRole.CONTEXTUAL, "continuous"),
                                Feature("x", FeatureRole.PRIMARY, "continuous"),
                                Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b"))))
        ds = Dataset.build(schema, [(1e308, 1.0, "a"), (-1e308, 2.0, "b"), (0.0, 3.0, "a")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                run_pipeline(PipelineConfig(expand=("c",)), ds, ds.subset([]))
        assert str(raised.value) == "expansion turned finite cells of feature 'c' non-finite"

    def test_a_group_statistic_that_overflows_is_named(self):
        # group u's squared deviations of 1e160 overflow: its deviation is inf
        schema = FeatureSchema((Feature("g", FeatureRole.CONTEXTUAL, "discrete", ("u", "v")),
                                Feature("p", FeatureRole.PRIMARY, "continuous"),
                                Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b"))))
        ds = Dataset.build(schema, [("u", 1e160, "a"), ("u", -1e160, "b"),
                                    ("u", -1e160, "a"), ("v", 1.0, "b")])
        config = PipelineConfig(normalize="contextual", context=ContextKey("g"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                run_pipeline(config, ds, ds.subset([]))
        assert str(raised.value) == (
            "contextual normalization fitted a non-finite statistic of feature 'p'")

    def test_missing_cells_that_stay_missing_are_not_refused(self):
        schema = FeatureSchema((Feature("x", FeatureRole.PRIMARY, "continuous"),
                                Feature("g", FeatureRole.CONTEXTUAL, "discrete", ("u", "v")),
                                Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b"))))
        ds = Dataset.build(schema, [(1.0, "u", "a"), (2.0, MISSING, "b"), (3.0, "v", "a")])
        # the normalizer leaves the context column, and its MISSING cell, as they are
        train, _ = run_pipeline(PipelineConfig(normalize="zscore"), ds, ds)
        assert np.isnan(train.values).tolist() == np.isnan(ds.values).tolist()
        assert not np.array_equal(train.values[:, 0], ds.values[:, 0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(normalize="contextual")  # no context key
        with pytest.raises(ValueError):
            PipelineConfig(weight=True)
        with pytest.raises(ValueError):
            PipelineConfig(normalize="baseline")
        with pytest.raises(ValueError):
            PipelineConfig(normalize="bogus")

    def test_config_with_a_baseline_stays_hashable(self, synthetic_vowel_pair):
        # a Dataset holds a mutable-typed matrix and is unhashable; the config
        # hashes without it and still compares it
        train, _ = synthetic_vowel_pair
        a = PipelineConfig(normalize="baseline", baseline=train)
        b = PipelineConfig(normalize="baseline", baseline=train.subset(range(train.n_rows)))
        assert a == b and hash(a) == hash(b)
        assert a != PipelineConfig(normalize="baseline", baseline=train.subset([0]))

    def test_fit_uses_only_fit_set(self):
        train = numeric_dataset([[0.0, 10.0]], ["a", "b"])
        test1 = numeric_dataset([[100.0]], ["a"])
        test2 = numeric_dataset([[-100.0]], ["a"])
        model = fit_minmax(train)
        apply_minmax(model, test1)
        out = apply_minmax(model, test2)
        assert out.column(0) == (-10.0,)  # model unchanged by earlier application


@pytest.mark.parametrize("fit, message", [
    (fit_minmax, "cannot fit min-max on an empty set"),
    (fit_zscore, "cannot fit z-score on an empty set"),
    (fit_percentile, "cannot fit percentiles on an empty set"),
    (lambda ds: fit_contextual(ds, ContextKey("ctx")), "cannot fit a context model on an empty set"),
    (lambda ds: fit_context_nn(ds, ContextKey("c")), "empty baseline set"),
    (lambda ds: fit_context_linear(ds, ContextKey("c")), "empty baseline set"),
    (lambda ds: compute_weights(ds, ContextKey("ctx")), "no labeled rows"),
], ids=["minmax", "zscore", "percentile", "contextual", "context-nn", "context-linear",
        "weights"])
def test_fit_on_a_set_with_no_rows_names_its_set(fit, message):
    schema = FeatureSchema((
        Feature("ctx", FeatureRole.CONTEXTUAL, "discrete", ("u", "v")),
        Feature("c", FeatureRole.CONTEXTUAL, "continuous"),
        Feature("x", FeatureRole.PRIMARY, "continuous"),
        Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b")),
    ))
    with pytest.raises(ValueError) as raised:
        fit(Dataset.build(schema, []))
    assert str(raised.value) == message


@pytest.fixture(scope="module")
def planted_pair():
    """The planted-context pair, its class-c0 training rows as the baseline
    set, and the context binned into 4 groups on the training split."""
    train, test = data.plant_context_dataset(data.PlantedContextParams(), seed=0)
    baseline = train.subset([i for i, c in enumerate(train.class_labels()) if c == "c0"])
    key = ContextKey("condition", column_bins(train, train.schema.index_of("condition"), 4))
    return train, test, baseline, key


def normalized_by_hand(name, train, test, baseline, key):
    """The normalizer `name` as a direct fit_*/apply_* call on its fit set."""
    if name == "none":
        return train, test
    if name == "contextual-transductive":
        return (apply_contextual(fit_contextual(train, key), train),
                apply_contextual(fit_contextual(test, key), test))
    model, apply = {
        "minmax": lambda: (fit_minmax(train), apply_minmax),
        "zscore": lambda: (fit_zscore(train), apply_zscore),
        "percentile": lambda: (fit_percentile(train), apply_percentile),
        "baseline": lambda: (fit_zscore(baseline), apply_zscore),
        "contextual": lambda: (fit_contextual(train, key), apply_contextual),
        "contextual-nn": lambda: (fit_context_nn(baseline, key), apply_contextual),
        "contextual-linear": lambda: (fit_context_linear(baseline, key), apply_contextual),
    }[name]()
    return apply(model, train), apply(model, test)


class TestNormalizerMenu:
    @pytest.mark.parametrize("name", NORMALIZERS)
    def test_pipeline_matches_the_direct_fit_and_apply(self, planted_pair, name):
        train, test, baseline, key = planted_pair
        config = PipelineConfig(normalize=name, context=key, baseline=baseline)
        expected = normalized_by_hand(name, train, test, baseline, key)
        assert run_pipeline(config, train, test) == expected
        assert name == "none" or expected != (train, test)

    @pytest.mark.parametrize("name, fields, message", [
        ("contextual", {}, "context key"),
        ("contextual-transductive", {}, "context key"),
        ("contextual-nn", {"baseline": True}, "context key"),
        ("contextual-linear", {"baseline": True}, "context key"),
        ("baseline", {"context": True}, "requires a baseline set"),
        ("contextual-nn", {"context": True}, "requires a baseline set"),
        ("contextual-linear", {"context": True}, "requires a baseline set"),
        ("off", {}, "unknown normalizer 'off'"),
        ("contextual-groups", {"context": True, "baseline": True}, "unknown normalizer"),
    ])
    def test_config_validation(self, planted_pair, name, fields, message):
        _, _, baseline, key = planted_pair
        given = {"context": key, "baseline": baseline}
        with pytest.raises(ValueError, match=message):
            PipelineConfig(normalize=name, **{f: given[f] for f in fields})

    @pytest.mark.parametrize("name", ["baseline", "contextual-nn", "contextual-linear"])
    def test_baseline_with_missing_cells_is_imputed(self, planted_pair, name):
        train, test, baseline, key = planted_pair
        values = baseline.values.copy()
        values[0, baseline.schema.index_of("p1")] = np.nan
        values[1, baseline.schema.index_of("condition")] = np.nan
        holed = Dataset(baseline.schema, values)
        config = PipelineConfig(normalize=name, context=key, baseline=holed, impute=True)
        expected = normalized_by_hand(name, train, test, impute_missing(holed, holed), key)
        assert run_pipeline(config, train, test) == expected


# a discrete and a continuous context, both entirely MISSING, and one primary feature
_UNRESOLVED = Dataset(FeatureSchema((
    Feature("g", FeatureRole.CONTEXTUAL, "discrete", ("0", "1")),
    Feature("c", FeatureRole.CONTEXTUAL, "continuous"),
    Feature("x", FeatureRole.PRIMARY, "continuous"),
    Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b")),
)), np.array([[np.nan, np.nan, 0.1, 0.0], [np.nan, np.nan, 0.2, 1.0]]))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ContextKey("c", (1.0, 1.0)), "bin boundaries must be strictly increasing",
                 id="boundaries-not-increasing"),
    pytest.param(lambda: fit_contextual(_UNRESOLVED, ContextKey("g")),
                 "context feature 'g' has no resolvable values", id="fit-contextual-all-missing"),
    pytest.param(lambda: compute_weights(_UNRESOLVED, ContextKey("g")),
                 "context feature 'g' has no resolvable values", id="weights-all-missing"),
    pytest.param(lambda: fit_expansion(_UNRESOLVED, ["x"]), "'x' is not a contextual feature",
                 id="expand-a-primary-feature"),
    pytest.param(lambda: fit_expansion(_UNRESOLVED, ["c"]),
                 "contextual feature 'c' is entirely MISSING", id="expand-all-missing"),
])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
