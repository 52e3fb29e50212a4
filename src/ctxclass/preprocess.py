"""Data transforms: imputation, normalization menu, contextual models, weighting.

All deviations are population deviations (divide by N), and every division
by a deviation floors it at SIGMA_FLOOR: boolean features inside a pure
context group legitimately have zero spread.

Fit/apply are strictly separated: fit_* functions read only their fit set
and return an immutable model.  apply_* functions slice the primary columns
out of the dataset's matrix, transform them elementwise (context models give
per-row mean and deviation matrices via ``row_stats``) and return a new
Dataset holding a copy of the matrix with those columns replaced; rows stay
independent.

A normalizer is a fit, an apply, and the set it is fitted on: the training
split ("minmax", "zscore", "percentile", "contextual"), a baseline set
("baseline", "contextual-nn", "contextual-linear"), or each split itself
("contextual-transductive").  NORMALIZERS lists them after "none", and one
dispatch gives each one's apply and fitted models, which run_pipeline
applies to both splits.  The context fits take the fit set and a ContextKey:
fit_contextual groups by it; fit_context_nn and fit_context_linear regress on
its feature's raw values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, Feature, FeatureRole, FeatureSchema

SIGMA_FLOOR = 1e-12

_NN_BLOCK_ROWS = 64  # most queries per L1 kernel block; reference rows per pruned-search leaf
_NN_PRUNE_ROWS = 512  # reference rows above which _nearest_rows prunes its search
_NN_BLOCK_CELLS = 1 << 17  # most terms a kernel block writes: 1 MB, to stay in cache


def _require_numeric(dataset: Dataset, indices: Sequence[int]) -> np.ndarray:
    """The listed columns as a C-ordered n_rows x len(indices) matrix (sums
    round by their order), once each is numeric: a MISSING cell, then a
    discrete column with rows, is an error that names its feature.  One
    reduction finds whether there is a fault; the walk names the first."""
    m = dataset.values.take(indices, axis=1)
    if np.isnan(m.min(initial=0.0)) or len(m) and not dataset.schema.discrete.isdisjoint(indices):
        missing = np.isnan(m).any(axis=0)
        for j, i in enumerate(indices):
            feature = dataset.schema.features[i]
            problem = ("has MISSING cells; impute first" if missing[j]
                       else "is symbolic; encode_numeric first"
                       if feature.kind == "discrete" and len(m) else None)
            if problem:
                raise ValueError(f"feature {feature.name!r} {problem}")
    return m


def _fit_matrix(fit_set: Dataset, empty_message: str) -> tuple[tuple[int, ...], np.ndarray]:
    """A fit set's primary indices and their numeric matrix; a set with no
    rows is an error with empty_message."""
    if fit_set.n_rows == 0:
        raise ValueError(empty_message)
    idx = fit_set.schema.primary_indices
    return idx, _require_numeric(fit_set, idx)


def _mean_std(m: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return tuple(m.mean(axis=0)), tuple(m.std(axis=0))


def _group_moments(m: np.ndarray, group: np.ndarray, n_groups: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Each group's mean and population deviation, as n_groups x columns
    matrices: bit for bit m[group == g].mean(axis=0) and .std(axis=0) of
    groups 0 to n_groups - 1, each with a row (group -1 is skipped).  A stable
    sort makes each group a contiguous slice of its rows in their order, and
    the slice runs numpy's own steps: sum / n, deviations squared in place,
    sum / n, then one square root."""
    ends = np.cumsum(np.bincount(group + 1, minlength=n_groups + 1)).tolist()
    rows, mean, var = m[np.argsort(group, kind="stable")], *np.empty((2, n_groups, m.shape[1]))
    for g, (lo, hi) in enumerate(zip(ends, ends[1:])):
        mean[g] = rows[lo:hi].sum(axis=0) / (hi - lo)
        dev = rows[lo:hi] - mean[g]
        var[g] = np.multiply(dev, dev, out=dev).sum(axis=0) / (hi - lo)
    return mean, np.sqrt(var, out=var)


def _add_planes(planes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """planes[lo] set to the sum of planes[lo:hi], added as numpy's pairwise
    summation adds a contiguous axis (add.reduce): fewer than 8 in sequence; up
    to 128 in 8 lanes, joined as ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)) before the
    rest add in order; more as two halves split at n/2 rounded down to a
    multiple of 8.  Every add is one in-place elementwise add of whole planes."""
    n = hi - lo
    if n > 128:
        mid = lo + n // 2 - n // 2 % 8
        _add_planes(planes, lo, mid)
        planes[lo] += _add_planes(planes, mid, hi)
        return planes[lo]
    if n == 0:
        planes[lo].fill(0.0)
    tail = hi - n % 8 if n >= 8 else lo + 1
    for j in range(lo + 8, tail, 8):
        planes[lo:lo + 8] += planes[j:j + 8]
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)) if n >= 8 else ():
        planes[lo + a] += planes[lo + b]  # one plane a time: numpy buffers strided stacks
    for j in range(tail, hi):
        planes[lo] += planes[j]
    return planes[lo]


def _block_sums(n_queries: int, n_ref: int, d: int, fill):
    """Yield (start, sums) for each block of queries from start: fill(rows, out)
    writes the d x block x n_ref terms of the query rows in the slice rows into
    out; sums (block x n_ref, overwritten by the next block) adds them as the
    tensor's .sum(axis=2) does, bit for bit, whatever SIMD numpy dispatches to.
    A buffer holds at most 9 x _NN_BLOCK_ROWS x n_ref and _NN_BLOCK_CELLS
    cells, unless one query needs more."""
    rows = max(1, min(_NN_BLOCK_ROWS, 9 * _NN_BLOCK_ROWS // max(d, 1),
                      _NN_BLOCK_CELLS // max(d * n_ref, 1)))
    buffer = np.empty(max(d, 1) * min(n_queries, rows) * n_ref)
    for start in range(0, n_queries, rows):  # contiguous planes: numpy buffers strided ones
        block = min(rows, n_queries - start)
        planes = buffer[:max(d, 1) * block * n_ref].reshape(max(d, 1), block, n_ref)
        fill(slice(start, start + block), planes[:d])
        yield start, _add_planes(planes, 0, d)


def _leaves(m: np.ndarray, index: np.ndarray):
    """Yield the rows index of m, each part in ascending order, halved at the
    median of their widest column until each part holds at most _NN_BLOCK_ROWS."""
    if len(index) <= _NN_BLOCK_ROWS:
        yield np.sort(index)
        return
    rows, half = m[index], len(index) // 2
    order = np.argpartition(rows[:, (rows.max(axis=0) - rows.min(axis=0)).argmax()], half)
    yield from _leaves(m, index[order[:half]])
    yield from _leaves(m, index[order[half:]])


def _nearest_among(queries: np.ndarray, reference: np.ndarray, rows: np.ndarray,
                   leave_one_out: bool = False):
    """The first of the ascending reference rows nearest each query, and its
    distance; with leave_one_out query i skips rows[i]."""
    sub, query_columns = np.ascontiguousarray(reference[rows].T), queries.T
    best, dist = np.empty(len(queries), np.intp), np.empty(len(queries))

    def l1(block, out):  # a copy, then one broadcast operand: half the buffering of one subtract
        np.copyto(out, query_columns[:, block, None])
        np.abs(np.subtract(out, sub[:, None], out=out), out=out)

    for start, sums in _block_sums(len(queries), len(rows), len(sub), l1):
        at = np.arange(len(sums))
        if leave_one_out:
            sums[at, start + at] = np.inf
        first = sums.argmin(axis=1)
        best[start:start + len(at)], dist[start:start + len(at)] = rows[first], sums[at, first]
    return best, dist


def _boxes(m: np.ndarray, parts) -> tuple[np.ndarray, np.ndarray]:
    """Each part's least and greatest cell by column of m, then of its row sums."""
    rows, starts = m[np.concatenate(parts)], np.cumsum([0] + [len(part) for part in parts[:-1]])
    rows = np.column_stack([rows, rows @ np.ones(m.shape[1])])
    return np.minimum.reduceat(rows, starts), np.maximum.reduceat(rows, starts)


@np.errstate(over="ignore", invalid="ignore")  # sums of huge rows: inf, and inf - inf
def _pruned_search(queries: np.ndarray, reference: np.ndarray, nearest: np.ndarray) -> bool:
    """Fill nearest a leaf of queries at a time; False, with nothing filled,
    if no query leaf can rule out half the reference rows."""
    d, n, dist = queries.shape[1], len(reference), np.empty(len(queries))
    # a sum of d cells, in any order, is off by under d x eps x d x the largest cell
    margin = (np.abs(queries).max() + np.abs(reference).max()) * d * (d + 2) * np.finfo(float).eps
    leaves, parts = (list(_leaves(m, np.arange(len(m)))) for m in (reference, queries))
    (lo, hi), (q_lo, q_hi) = _boxes(reference, leaves), _boxes(queries, parts)
    bound, sizes = np.zeros((len(parts), len(leaves))), np.array([len(leaf) for leaf in leaves])
    for j in range(d + 1):  # a column at a time: leaves x leaves x d gaps would be large
        gap = np.maximum(lo[:, j] - q_hi[:, j, None], q_lo[:, j, None] - hi[:, j])
        if j < d:  # the boxes' gaps add up to below the L1 distance of two leaves' rows
            bound += np.maximum(gap, 0.0, out=gap)
    bound = np.fmax(bound, gap - margin, out=bound)  # or the sums' gap; inf - inf gives NaN: none
    near = (bound == bound.min(axis=1, keepdims=True)).argmax(axis=1)  # first leaf of least bound
    # above every distance from a query leaf's rows to its near leaf's rows
    far = np.maximum(np.abs(q_hi - lo[near]), np.abs(hi[near] - q_lo))[:, :d].sum(axis=1)
    if (2 * ((bound <= far[:, None]) @ sizes) > n).all():
        return False
    for k in set(near.tolist()):  # the query leaves nearest one leaf run over it at once
        group = np.concatenate([parts[a] for a in np.flatnonzero(near == k)])
        nearest[group], dist[group] = _nearest_among(queries[group], reference, leaves[k])
    keep = bound <= np.array([dist[part].max() for part in parts])[:, None] * (1 + 1e-9)
    keep[np.arange(len(parts)), near] = False  # the other leaves that might hold a nearer row
    runs = {}  # the query leaves that run over the same leaves next
    for a in np.flatnonzero(keep.any(axis=1)):
        part, kept = parts[a], np.flatnonzero(keep[a])
        if 2 * sizes[kept].sum() <= n:  # else most rows might be nearer: run over all it keeps
            points = np.column_stack([queries[part], queries[part] @ np.ones(d)])[:, None]
            gap = np.maximum(lo[kept] - points, points - hi[kept])  # each query's, as above
            bounds = np.fmax(np.maximum(gap[..., :d], 0.0).sum(axis=2), gap[..., d] - margin)
            kept = kept[(bounds <= dist[part, None] * (1 + 1e-9)).any(axis=0)]
        if kept.size:
            runs.setdefault(tuple(kept), []).append(part)
    for kept, group in runs.items():  # the nearer row wins, the lower index on equal distances
        group, rows = np.concatenate(group), np.sort(np.concatenate([leaves[k] for k in kept]))
        alt, alt_dist = _nearest_among(queries[group], reference, rows)
        won = (alt_dist < dist[group]) | (alt_dist == dist[group]) & (alt < nearest[group])
        nearest[group[won]] = alt[won]
    return True


def _nearest_rows(queries: np.ndarray, reference: np.ndarray,
                  leave_one_out: bool = False) -> np.ndarray:
    """Index of the L1-nearest reference row for every query row; the earliest
    reference row wins ties.  With leave_one_out the queries are the reference
    rows and none matches itself (a lone row, with nothing else to match, gets 0).
    Each distance is bit-equal to np.abs(q - r).sum() (_block_sums), so equal
    distances tie only if they round alike, and every tie breaks as it did.

    Above _NN_PRUNE_ROWS reference rows, with a query, a column and only finite
    cells, the search is pruned, a leaf of queries against a leaf of rows
    (dual-tree search: Gray & Moore, "N-Body Problems in Statistical Learning",
    2001).  Queries and rows are cut into leaves of _NN_BLOCK_ROWS rows at the
    median of the widest column.  Two leaves bound the L1 distance between
    their rows from below by their boxes (Friedman, Bentley & Finkel) and by
    their rows' least and greatest sums: |sum q - sum r| <= d(q, r) (Hoelder; a
    projection bound as in Nene & Nayar), less more than rounding can add; a
    query and a leaf, likewise.  Each query leaf runs over the leaf it bounds
    lowest, then over the ascending rows of the other leaves that neither its
    own bound nor, where they hold under half the rows, each query's bound
    rules out, given the distances found plus a relative 1e-9; the nearer row
    wins, the lower index on equal distances, so every distance and tie is as
    in the full search.  If every query leaf would keep more than half the
    rows (by the far corner of the leaf it bounds lowest), the search runs in
    full, as leave_one_out does."""
    nearest = np.empty(len(queries), dtype=np.intp)
    if (not leave_one_out and len(reference) > _NN_PRUNE_ROWS and queries.size
            and np.isfinite(queries).all() and np.isfinite(reference).all()
            and _pruned_search(queries, reference, nearest)):
        return nearest
    return _nearest_among(queries, reference, np.arange(len(reference)), leave_one_out)[0]


def _encoded_columns(dataset: Dataset, indices: Sequence[int]) -> np.ndarray:
    """The listed columns with each discrete symbol's alphabet index scaled
    into [0, 1]: code / (k - 1) for an alphabet of k > 1 symbols, else 0."""
    return dataset.values.take(indices, axis=1) / dataset.schema.code_scales.take(indices)


def encode_numeric(dataset: Dataset) -> Dataset:
    """Turn discrete primary features into continuous [0, 1] codes.

    Binary features become 0/1.  Contextual and class features are left
    symbolic; MISSING cells pass through.
    """
    schema, targets = dataset.schema.encoded
    if not targets:
        return dataset
    return dataset.replace_columns(targets, _encoded_columns(dataset, targets), schema)


# ---------------------------------------------------------------------------
# Context-free normalizers

@dataclass(frozen=True)
class MinMaxModel:
    indices: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]


def fit_minmax(train: Dataset) -> MinMaxModel:
    idx, m = _fit_matrix(train, "cannot fit min-max on an empty set")
    return MinMaxModel(idx, tuple(m.min(axis=0)), tuple(m.max(axis=0)))


def _minmax_scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The columns of x rescaled by their lo/hi into [0, 1]; a constant column
    carries no information either way and maps to 0.5.  NaN stays NaN."""
    constant = hi == lo
    scaled = (x - lo) / np.where(constant, 1.0, hi - lo)
    return np.where(constant & ~np.isnan(x), 0.5, scaled)


def apply_minmax(model: MinMaxModel, dataset: Dataset) -> Dataset:
    x = _require_numeric(dataset, model.indices)
    scaled = _minmax_scale(x, np.asarray(model.lo), np.asarray(model.hi))
    return dataset.replace_columns(model.indices, scaled)


@dataclass(frozen=True)
class ZScoreModel:
    indices: tuple[int, ...]
    mu: tuple[float, ...]
    sigma: tuple[float, ...]


def fit_zscore(fit_set: Dataset) -> ZScoreModel:
    """Mean / population deviation per primary feature; the fit set may be
    the training data or a designated baseline set."""
    idx, m = _fit_matrix(fit_set, "cannot fit z-score on an empty set")
    return ZScoreModel(idx, *_mean_std(m))


def apply_zscore(model: ZScoreModel, dataset: Dataset) -> Dataset:
    x = _require_numeric(dataset, model.indices)
    z = (x - np.asarray(model.mu)) / np.maximum(model.sigma, SIGMA_FLOOR)
    return dataset.replace_columns(model.indices, z)


@dataclass(frozen=True)
class PercentileModel:
    indices: tuple[int, ...]
    sorted_values: tuple[np.ndarray, ...]  # each primary column's fitted values, sorted


def fit_percentile(train: Dataset) -> PercentileModel:
    idx, m = _fit_matrix(train, "cannot fit percentiles on an empty set")
    return PercentileModel(idx, tuple(np.sort(m.T, axis=1)))


def apply_percentile(model: PercentileModel, dataset: Dataset) -> Dataset:
    """Mid-rank of each value among the fitted values: (below + equal/2) / n."""
    x = _require_numeric(dataset, model.indices)
    ranks = np.empty_like(x)
    for j, vals in enumerate(model.sorted_values):
        below = np.searchsorted(vals, x[:, j], side="left")
        equal = np.searchsorted(vals, x[:, j], side="right") - below
        ranks[:, j] = (below + 0.5 * equal) / len(vals)
    return dataset.replace_columns(model.indices, ranks)


# ---------------------------------------------------------------------------
# Equal-frequency binning (for continuous context features)

def equal_freq_bins(values: Sequence[float], k: int) -> tuple[float, ...]:
    """k-1 strictly increasing boundaries splitting values into equal-count bins.

    Boundaries sit halfway between adjacent distinct values.  The j-th takes,
    of the gaps past the (j-1)-th, the one nearest the j*N/k order statistic,
    the lower on a tie.  Fewer distinct values than bins is an error, and so
    are ties that leave no gap for a boundary.
    """
    if not values:
        raise ValueError("no values to bin")
    if k < 2:
        raise ValueError("need at least 2 bins")
    s = sorted(map(float, values))
    v = np.array(s)
    gaps = np.flatnonzero(v[:-1] < v[1:]) + 1  # where a boundary can fall: between distinct values
    if len(gaps) + 1 < k:
        raise ValueError(f"only {len(gaps) + 1} distinct values, cannot make {k} bins")
    targets = [j * len(s) / k for j in range(1, k)]
    past, gaps = np.searchsorted(gaps, targets).tolist(), gaps.tolist()
    boundaries, start = [], 0  # start: the first gap past the last boundary
    for target, i in zip(targets, past):
        if start == len(gaps):
            raise ValueError(f"ties prevent {k} equal-frequency bins")
        i = max(i, start)  # the first gap from start at or past target
        if i == len(gaps) or i > start and target - gaps[i - 1] <= gaps[i] - target:
            i -= 1
        boundaries.append((s[gaps[i] - 1] + s[gaps[i]]) / 2.0)
        start = i + 1
    return tuple(boundaries)


def _bin_column(boundaries: Sequence[float], col: np.ndarray) -> np.ndarray:
    """The bin of every cell of a column under half-open intervals (a boundary
    opens the next bin, out-of-range values go to an edge bin); NaN stays NaN."""
    return np.where(np.isnan(col), np.nan, np.searchsorted(boundaries, col, side="right"))


def column_bins(dataset: Dataset, index: int, k: int) -> tuple[float, ...]:
    """equal_freq_bins over the non-MISSING values of one continuous column."""
    col = dataset.values[:, index]
    return equal_freq_bins(col[~np.isnan(col)].tolist(), k)


# ---------------------------------------------------------------------------
# Contextual normalization

@dataclass(frozen=True)
class ContextKey:
    """How to read the context group of an observation: a contextual feature,
    with bin boundaries when that feature is continuous."""

    feature: str
    boundaries: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.boundaries is not None:
            b = tuple(self.boundaries)
            if np.isnan(b).any():  # NaN fails every comparison, so the order check passes it
                raise ValueError("bin boundaries must not be NaN")
            if len(b) < 1 or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
                raise ValueError("bin boundaries must be strictly increasing")
            object.__setattr__(self, "boundaries", b)

    def groups(self, dataset: Dataset) -> tuple[np.ndarray, list]:
        """The context group of every row of dataset, numbered in order of
        first occurrence (-1 for MISSING), and the groups in that order: bin
        indices of a binned feature, else symbols or values."""
        i = dataset.schema.index_of(self.feature)
        alphabet = dataset.schema.features[i].alphabet
        if self.boundaries is not None:
            if alphabet:
                raise ValueError(f"bin boundaries need a continuous feature, not {self.feature!r}")
            number, bins = _first_occurrence(_bin_column(self.boundaries, dataset.values[:, i]))
            return number, [int(b) for b in bins]
        number, codes = _first_occurrence(dataset.values[:, i])
        return number, [alphabet[int(c)] for c in codes] if alphabet else codes.tolist()


def _first_occurrence(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct non-NaN codes in order of first occurrence: each
    row's number (-1 for NaN) and the distinct codes in that order."""
    present = ~np.isnan(codes)
    distinct, first, inverse = np.unique(codes[present], return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.full(len(codes), -1)
    number[present] = np.argsort(order)[inverse]
    return number, distinct[order]


@dataclass(frozen=True)
class GroupContextModel:
    """Per-context-group mean/deviation of each primary feature, with a
    global fallback for groups unseen at fit time."""

    indices: tuple[int, ...]
    key: ContextKey
    groups: Mapping[object, tuple[tuple[float, ...], tuple[float, ...]]] = field(hash=False)
    fallback: tuple[tuple[float, ...], tuple[float, ...]]

    def row_stats(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Per-row mean and deviation matrices (n_rows x features) of the
        context group of each row of dataset."""
        return self._row_stats(self.key.groups(dataset))

    def _row_stats(self, groups: tuple) -> tuple[np.ndarray, np.ndarray]:
        """row_stats of the rows whose groups are groups, as ContextKey.groups gives them."""
        number, labels = groups
        table = [self.groups.get(label, self.fallback) for label in labels] + [self.fallback]
        # number -1 (a MISSING group) picks the fallback appended last
        stats = np.array(table, dtype=float).reshape(-1, 2, len(self.indices))[number]
        return stats[:, 0], stats[:, 1]


def _grouping(key: ContextKey, train: Dataset, test: Dataset) -> tuple:
    """ContextKey.groups of a pair's training and test rows and the training
    rows' _cells: all the group fits and applies read.  Normalizing and
    weighting rewrite only primary columns, so the pairs they make keep it;
    a key on any other feature is refused."""
    if train.schema.features[train.schema.index_of(key.feature)].role is not FeatureRole.CONTEXTUAL:
        raise ValueError(f"{key.feature!r} is not a contextual feature")
    groups = key.groups(train)
    return groups, key.groups(test), _cells(train, groups[0])


def _cells(train: Dataset, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (group, class) cell of every training row, numbered by _first_occurrence."""
    n_classes = len(train.schema.class_feature.alphabet)
    return _first_occurrence(np.where(group >= 0, group * n_classes + train.class_codes(), np.nan))


def _moments(train: Dataset, groups: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The _group_moments of train's primary columns over its groups."""
    return _group_moments(_require_numeric(train, train.schema.primary_indices),
                          groups[0], len(groups[1]))


def fit_contextual(train: Dataset, key: ContextKey) -> GroupContextModel:
    """Group statistics estimator: mean and population deviation of each
    primary feature within each context group."""
    groups = key.groups(train)
    return _fit_grouped(train, key, groups, _moments(train, groups))


def _fit_grouped(train: Dataset, key: ContextKey, groups: tuple, moments: tuple
                 ) -> GroupContextModel:
    """fit_contextual over train's groups and their _moments."""
    idx, m = _fit_matrix(train, "cannot fit a context model on an empty set")
    labels = groups[1]
    if not labels:
        raise ValueError(f"context feature {key.feature!r} has no resolvable values")
    stats = {label: (tuple(mu), tuple(sigma)) for label, mu, sigma in zip(labels, *moments)}
    return GroupContextModel(idx, key, stats, _mean_std(m))


@dataclass(frozen=True)
class LinearContextModel:
    """Each primary feature's expected value is a least-squares line in the
    key's feature, fitted to a baseline set; its deviation, the residual spread."""

    indices: tuple[int, ...]
    feature: str
    intercept: tuple[float, ...]
    slope: tuple[float, ...]
    resid_sigma: tuple[float, ...]

    def row_stats(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Per-row mean and deviation matrices at the context of each row."""
        ctx = _require_numeric(dataset, [dataset.schema.index_of(self.feature)])
        mu = np.asarray(self.intercept) + np.asarray(self.slope) * ctx
        return mu, np.broadcast_to(self.resid_sigma, mu.shape)


@dataclass(frozen=True)
class NearestContextModel:
    """Each primary feature's expected value is its value in the baseline row
    nearest in the key's feature (L1, the earliest row on ties); its deviation,
    the leave-one-out residual spread."""

    indices: tuple[int, ...]
    feature: str
    baseline_context: np.ndarray  # n_baseline x 1
    baseline_values: np.ndarray  # n_baseline x features
    resid_sigma: tuple[float, ...]

    def row_stats(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Per-row mean and deviation matrices at the context of each row."""
        ctx = _require_numeric(dataset, [dataset.schema.index_of(self.feature)])
        mu = self.baseline_values[_nearest_rows(ctx, self.baseline_context)]
        return mu, np.broadcast_to(self.resid_sigma, mu.shape)


def _baseline_columns(baseline: Dataset, key: ContextKey):
    """A non-empty set's primary indices, their matrix and the key's column."""
    idx, feats = _fit_matrix(baseline, "empty baseline set")
    return idx, feats, _require_numeric(baseline, [baseline.schema.index_of(key.feature)])


def fit_context_linear(baseline: Dataset, key: ContextKey) -> LinearContextModel:
    """Least-squares fit of each primary feature on the key's feature.  A
    degenerate design (a constant context) warns and falls back to the
    global statistics: the means as intercepts, zero slopes, the deviations."""
    idx, feats, ctx = _baseline_columns(baseline, key)
    design = np.hstack([np.ones((len(ctx), 1)), ctx])
    if np.linalg.matrix_rank(design) < 2:
        warnings.warn("degenerate context design; falling back to global statistics")
        mu, sigma = _mean_std(feats)
        return LinearContextModel(idx, key.feature, mu, (0.0,) * len(idx), sigma)
    coefs, *_ = np.linalg.lstsq(design, feats, rcond=None)
    sigma = (feats - design @ coefs).std(axis=0)
    return LinearContextModel(idx, key.feature, tuple(coefs[0]), tuple(coefs[1]), tuple(sigma))


def fit_context_nn(baseline: Dataset, key: ContextKey) -> NearestContextModel:
    """The baseline rows as a nearest-neighbour regression on the key's
    feature, with residuals taken leave-one-out so the deviation is meaningful."""
    idx, feats, ctx = _baseline_columns(baseline, key)
    sigma = (feats - feats[_nearest_rows(ctx, ctx, leave_one_out=True)]).std(axis=0)
    return NearestContextModel(idx, key.feature, ctx, feats, tuple(sigma))


def apply_contextual(model, dataset: Dataset) -> Dataset:
    """Standardize every primary feature by its context statistics:
    (x - mu(context)) / max(sigma(context), floor)."""
    return _standardized(model, dataset, model.row_stats(dataset))


def _standardized(model, dataset: Dataset, stats: tuple) -> Dataset:
    """apply_contextual by the per-row mean and deviation matrices stats."""
    x, (mu, sigma) = _require_numeric(dataset, model.indices), stats
    return dataset.replace_columns(model.indices, (x - mu) / np.maximum(sigma, SIGMA_FLOOR))


# ---------------------------------------------------------------------------
# Contextual weighting

@dataclass(frozen=True)
class WeightVector:
    indices: tuple[int, ...]
    weights: tuple[float, ...]
    inter: tuple[float, ...]
    intra: tuple[float, ...]


def compute_weights(train: Dataset, key: ContextKey) -> WeightVector:
    """Weight each primary feature by inter-class over intra-class deviation.

    The inter-class deviation averages, over context groups, the feature's
    deviation across the whole group; the intra-class deviation averages,
    over (group, class) cells, the in-cell deviation.  Empty cells are
    skipped and the average renormalized by the non-empty count.
    """
    groups = key.groups(train)
    return _weights(train, key, groups, _cells(train, groups[0]), _moments(train, groups))


def _weights(train: Dataset, key: ContextKey, groups: tuple, cells: tuple, moments: tuple
             ) -> WeightVector:
    """compute_weights over train's groups, their _cells and their _moments."""
    idx, m = _fit_matrix(train, "no labeled rows")
    if not groups[1]:
        raise ValueError(f"context feature {key.feature!r} has no resolvable values")
    inter = moments[1].mean(axis=0)
    intra = _group_moments(m, cells[0], len(cells[1]))[1].mean(axis=0)
    weights = inter / np.maximum(intra, SIGMA_FLOOR)
    return WeightVector(idx, tuple(weights), tuple(inter), tuple(intra))


def apply_weights(weights: WeightVector, dataset: Dataset) -> Dataset:
    x = _require_numeric(dataset, weights.indices)
    return dataset.replace_columns(weights.indices, np.asarray(weights.weights) * x)


# ---------------------------------------------------------------------------
# Contextual expansion

@dataclass(frozen=True)
class ExpansionModel:
    """Scaling parameters for contextual features promoted to classifier
    inputs: min/max for continuous ones (fitted on train), alphabet codes
    for discrete ones."""

    selected: tuple[str, ...]
    ranges: Mapping[str, tuple[float, float]] = field(hash=False)


def fit_expansion(train: Dataset, selected: Sequence[str]) -> ExpansionModel:
    schema = train.schema
    ranges = {}
    for name in selected:
        feat = schema.features[schema.index_of(name)]
        if feat.role is FeatureRole.CLASS:
            raise ValueError("cannot expand the class feature")
        if feat.role is not FeatureRole.CONTEXTUAL:
            raise ValueError(f"{name!r} is not a contextual feature")
        if feat.kind == "continuous":
            col = train.values[:, schema.index_of(name)]
            if np.isnan(col).all():
                raise ValueError(f"contextual feature {name!r} is entirely MISSING")
            ranges[name] = (float(np.nanmin(col)), float(np.nanmax(col)))
    return ExpansionModel(tuple(selected), ranges)


def apply_expansion(model: ExpansionModel, dataset: Dataset) -> Dataset:
    """Re-label the selected contextual features as primary inputs, scaled
    into [0, 1]; unselected contextual features remain metadata."""
    if not model.selected:
        return dataset
    schema = dataset.schema
    targets = [schema.index_of(n) for n in model.selected]
    new_schema = FeatureSchema(tuple(
        Feature(f.name, FeatureRole.PRIMARY, "continuous") if i in targets else f
        for i, f in enumerate(schema)
    ))
    # discrete codes are already in [0, 1]: the range (0, 1) leaves them as they are
    lo, hi = np.array([
        (0.0, 1.0) if schema.features[i].kind == "discrete" else model.ranges[n]
        for i, n in zip(targets, model.selected)
    ]).T
    scaled = _minmax_scale(_encoded_columns(dataset, targets), lo, hi)
    return dataset.replace_columns(targets, scaled, new_schema)


# ---------------------------------------------------------------------------
# Missing-value imputation

def impute_missing(train: Dataset, target: Dataset) -> Dataset:
    """Fill MISSING cells from the nearest training row.

    Similarity is the sum of 1 - |difference| over the non-class features
    that are present in both rows, after rescaling each feature into [0, 1]
    by the training min/max (a constant training feature rescales to 0.5).
    The donor for a cell must itself have that cell present; otherwise the
    next-nearest donor supplies it.  Target rows with a MISSING cell are
    ranked against the training rows in blocks by the L1 kernel, _block_sums.
    A feature whose training range, or whose present cell in such a row,
    scales past the float range is a ValueError naming it: rescaling to
    dodge the overflow would change the bits of every ordinary fill.
    """
    if train.n_rows == 0:
        raise ValueError("the training set is empty")
    schema = train.schema
    indices = [i for i, f in enumerate(schema) if f.role is not FeatureRole.CLASS]
    train_raw = _encoded_columns(train, indices)
    empty = np.isnan(train_raw).all(axis=0)
    if empty.any():
        name = schema.features[indices[int(empty.argmax())]].name
        raise ValueError(f"feature {name!r} is entirely MISSING in the training set")

    if target.missing_count() == 0:
        return target

    lo, hi = np.fmin.reduce(train_raw, axis=0), np.fmax.reduce(train_raw, axis=0)
    cols = np.asarray(indices)
    values = target.values.copy()
    incomplete = np.flatnonzero(np.isnan(values).any(axis=1))
    # scaling is cell by cell, so only the incomplete target rows are scaled
    target_raw = _encoded_columns(target, indices)[incomplete]
    query_absent = np.isnan(target_raw)  # the target's own MISSING cells, not a NaN of scaling
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        wide, queries = ~np.isfinite(hi - lo), _minmax_scale(target_raw, lo, hi)
    # a present cell scaled past max / (d + 2) could overflow a similarity sum
    far = (~(np.abs(queries) <= np.finfo(float).max / (len(indices) + 2))
           & ~query_absent).any(axis=0)
    for bad, problem in ((wide, "spans a training range too wide to scale"),
                         (far, "has a cell too far outside its training range to scale")):
        if bad.any():
            name = schema.features[indices[int(bad.argmax())]].name
            raise ValueError(f"feature {name!r} {problem}")
    train_columns, query_columns = _minmax_scale(train_raw, lo, hi).T.copy(), queries.T
    train_absent = np.isnan(train_columns)

    def similarity(rows, out):  # 1 - |difference| where both cells are present, else 0
        np.copyto(out, train_columns[:, None])
        np.subtract(out, query_columns[:, rows, None], out=out)
        np.subtract(1.0, np.abs(out, out=out), out=out)
        # a training cell is in [0, 1] or NaN, so a term is NaN just where a cell is
        np.copyto(out, 0.0, where=np.isnan(out))

    for start, sims in _block_sums(len(queries), train.n_rows, len(indices), similarity):
        rows = incomplete[start:start + len(sims)]
        # each MISSING cell's donor is the most similar row with that cell
        # present, the earliest on ties (argmax takes the first maximum);
        # every column has one, as none is entirely MISSING
        r, j = np.nonzero(query_absent[start:start + len(sims)])
        donors = np.where(train_absent[j], -np.inf, sims[r]).argmax(axis=1)
        values[rows[r], cols[j]] = train.values[donors, cols[j]]
    return Dataset(target.schema, values)


# ---------------------------------------------------------------------------
# Pipeline

NORMALIZERS = ("none", "minmax", "zscore", "percentile", "baseline", "contextual",
               "contextual-transductive", "contextual-nn", "contextual-linear")
_BASELINE_FITTED = ("baseline", "contextual-nn", "contextual-linear")
_GROUP_FITTED = ("contextual", "contextual-transductive")


@dataclass(frozen=True)
class PipelineConfig:
    """Which transforms to run, in the fixed order
    impute -> encode -> normalize -> weight -> expand.

    ``normalize`` names one of NORMALIZERS, a fit and an apply, with
    ``context`` as the key of a context fit.  It is fitted on one of three
    sets: the training split, ``baseline`` (encoded, and imputed from itself
    under ``impute``), or, for "contextual-transductive", each split itself;
    then applied to both splits.  Expanded features are appended after
    weighting and are never weighted themselves.
    """

    normalize: str = "none"
    expand: tuple[str, ...] = ()
    weight: bool = False
    context: ContextKey | None = None
    baseline: Dataset | None = field(default=None, hash=False)
    impute: bool = False

    def __post_init__(self):
        if self.normalize not in NORMALIZERS:
            raise ValueError(f"unknown normalizer {self.normalize!r}")
        needs_context = self.weight or self.normalize.startswith("contextual")
        if needs_context and self.context is None:
            raise ValueError("contextual normalization / weighting require a context key")
        if self.normalize in _BASELINE_FITTED and self.baseline is None:
            raise ValueError(f"{self.normalize} normalization requires a baseline set")
        object.__setattr__(self, "expand", tuple(self.expand))


def _normalizer(config: PipelineConfig, train: Dataset, test: Dataset, grouping, moments):
    """config.normalize as its apply and its models: one fitted on its fit set
    for both splits, or, for "contextual-transductive", one fitted on each
    split itself.  The group fits and applies run through private cores on the
    pair's _grouping and the training rows' group moments; each other fit is
    named here, not in a table built at import, so a patched module attribute
    (a test double, the benchmark's tracer) sees its call."""
    name, key, fit_set = config.normalize, config.context, train
    if name in _GROUP_FITTED:
        groups, test_groups, _ = grouping
        models = (_fit_grouped(train, key, groups, moments),)
        if name == "contextual-transductive":
            models += (_fit_grouped(test, key, test_groups, _moments(test, test_groups)),)

        def apply(model, ds):  # each split by its own groups
            return _standardized(model, ds, model._row_stats(test_groups if ds is test else groups))
        return apply, models
    if name in _BASELINE_FITTED:
        fit_set = encode_numeric(config.baseline)
        if config.impute:
            fit_set = impute_missing(fit_set, fit_set)
    if name == "minmax":
        return apply_minmax, (fit_minmax(fit_set),)
    if name == "percentile":
        return apply_percentile, (fit_percentile(fit_set),)
    if name in ("zscore", "baseline"):
        return apply_zscore, (fit_zscore(fit_set),)
    if name == "contextual-nn":
        return apply_contextual, (fit_context_nn(fit_set, key),)
    return apply_contextual, (fit_context_linear(fit_set, key),)


def _applied(stage: str, apply, models: tuple, train: Dataset, test: Dataset
             ) -> tuple[Dataset, Dataset]:
    """apply(models[0], train), apply(models[-1], test).  A cell that apply
    turns from finite into infinite or NaN, then a statistic fitted in a model
    that is not finite (a deviation that overflows to inf makes every z-score
    0), is a ValueError naming the stage and the first such feature."""
    pair = apply(models[0], train), apply(models[-1], test)
    for before, after in zip((train, test), pair):
        if after is before or -np.inf < after.values.sum() < np.inf:  # every cell is finite
            continue
        turned = (np.isfinite(before.values) > np.isfinite(after.values)).any(axis=0)
        if turned.any():
            name = after.schema.features[int(turned.argmax())].name
            raise ValueError(f"{stage} turned finite cells of feature {name!r} non-finite")
    for model in models:  # statistics: tuples of one float a feature; arrays hold cells
        if isinstance(model, GroupContextModel):
            stats = [*model.groups.values(), model.fallback]
        else:
            stats = [v for v in vars(model).values()
                     if isinstance(v, tuple) and v and isinstance(v[0], float)]
        bad = ~np.isfinite(np.array(stats, dtype=float))
        if bad.any():
            name = train.schema.features[model.indices[np.nonzero(bad)[-1].min()]].name
            raise ValueError(f"{stage} fitted a non-finite statistic of feature {name!r}")
    return pair


@np.errstate(all="ignore")  # an overflow is refused by _applied, not warned
def run_pipeline(
    config: PipelineConfig, train: Dataset, test: Dataset
) -> tuple[Dataset, Dataset]:
    """Apply the configured transforms to a train/test pair.

    Imputation, weighting and expansion are fitted on the training split;
    the normalizer on its fit set (see PipelineConfig), then applied to both.
    A normalizer, weighting or expansion that turns a finite cell non-finite,
    then a normalizer or weighting fitted to a statistic that is not finite,
    is refused by name; imputation and encoding only copy finite cells and
    codes, and an expansion's ranges are cells of the training split.
    Imputation ranks the rows of both splits in one pass: a row's donors
    depend on its own similarities alone.
    """
    if config.impute:
        n, both = train.n_rows, Dataset(train.schema, np.vstack([train.values, test.values]))
        filled = impute_missing(train, both).values
        train, test = Dataset(train.schema, filled[:n]), Dataset(test.schema, filled[n:])
    train, test = encode_numeric(train), encode_numeric(test)

    grouped = config.weight or config.normalize in _GROUP_FITTED
    grouping = _grouping(config.context, train, test) if grouped else None  # both stages read it
    if config.normalize != "none":
        moments = _moments(train, grouping[0]) if config.normalize in _GROUP_FITTED else None
        train, test = _normalized(config, train, test, grouping, moments)

    if config.weight:
        train, test = _weighted(config.context, train, test, grouping, _moments(train, grouping[0]))

    if config.expand:
        model = fit_expansion(train, config.expand)
        train, test = _applied("expansion", apply_expansion, (model,), train, test)

    return train, test


def _normalized(config: PipelineConfig, train: Dataset, test: Dataset, grouping, moments
                ) -> tuple[Dataset, Dataset]:
    """run_pipeline's normalization; a group fit reads grouping and moments."""
    apply, models = _normalizer(config, train, test, grouping, moments)
    return _applied(f"{config.normalize} normalization", apply, models, train, test)


def _weighted(key: ContextKey, train: Dataset, test: Dataset, grouping: tuple, moments: tuple
              ) -> tuple[Dataset, Dataset]:
    """run_pipeline's weighting by a pair's _grouping and train's _moments."""
    w = _weights(train, key, grouping[0], grouping[2], moments)
    return _applied("weighting", apply_weights, (w,), train, test)


@np.errstate(all="ignore")  # an overflow is refused by _applied, not warned
def _context_grid(config: PipelineConfig, train: Dataset, test: Dataset) -> dict:
    """run_pipeline's normalization and weighting of an encoded pair, each off
    and on: the four pairs keyed by their (normalize, weight) flags.  Both
    stages rewrite only primary columns, so every fit reads the pair's one
    _grouping, and the normalization fit and the weighting of the pair itself
    share its training rows' group _moments."""
    grouping = _grouping(config.context, train, test)
    moments = _moments(train, grouping[0])
    normalized = _normalized(config, train, test, grouping, moments)
    return {(False, False): (train, test), (True, False): normalized,
            (False, True): _weighted(config.context, train, test, grouping, moments),
            (True, True): _weighted(config.context, *normalized, grouping,
                                    _moments(normalized[0], grouping[0]))}
