"""Data transforms: imputation, normalization menu, contextual models, weighting.

All deviations are population deviations (divide by N), and every division
by a deviation floors it at SIGMA_FLOOR: boolean features inside a pure
context group legitimately have zero spread.

Fit/apply are strictly separated: fit_* functions read only their fit set
and return an immutable model.  apply_* functions read the primary columns as
one matrix, transform it elementwise (context models give per-row mean and
deviation matrices via ``row_stats``) and write it back; rows stay independent.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .data import (
    MISSING,
    Dataset,
    Feature,
    FeatureRole,
    FeatureSchema,
)

SIGMA_FLOOR = 1e-12

_NN_BLOCK_ROWS = 64  # queries per block of the L1 nearest-neighbour distance tensor


def _require_numeric(dataset: Dataset, indices: Sequence[int]) -> np.ndarray:
    """The listed columns as an n_rows x len(indices) float matrix; a MISSING
    or symbolic cell is an error that names its feature."""
    m = np.empty((dataset.n_rows, len(indices)))
    for j, i in enumerate(indices):
        col = dataset.column(i)
        kinds = set(map(type, col))
        problem = ("has MISSING cells; impute first" if type(MISSING) in kinds
                   else "is symbolic; encode_numeric first" if str in kinds else None)
        if problem:
            raise ValueError(f"feature {dataset.schema.features[i].name!r} {problem}")
        m[:, j] = col
    return m


def _write_columns(dataset: Dataset, indices: Sequence[int], values: np.ndarray,
                   schema: FeatureSchema | None = None) -> Dataset:
    """The dataset with the listed columns replaced by the columns of values,
    as Python floats with NaN as MISSING, under schema (default: the
    dataset's own).  Each value fits its column, so Dataset.build is skipped."""
    schema = schema or dataset.schema
    if not dataset.rows:
        return Dataset(schema, dataset.rows)
    cols = list(zip(*dataset.rows))
    missing = np.isnan(values)
    for j, (i, col) in enumerate(zip(indices, values.T.tolist())):
        if missing[:, j].any():
            col = [MISSING if m else v for v, m in zip(col, missing[:, j])]
        cols[i] = col
    return Dataset(schema, tuple(zip(*cols)))


def _nearest_rows(queries: np.ndarray, reference: np.ndarray,
                  leave_one_out: bool = False) -> np.ndarray:
    """Index of the L1-nearest reference row for every query row, walking
    the queries in blocks; the earliest reference row wins ties.  With
    leave_one_out the queries are the reference rows and none matches itself
    (a lone row, with nothing else to match, gets 0)."""
    nearest = np.empty(len(queries), dtype=np.intp)
    for start in range(0, len(queries), _NN_BLOCK_ROWS):
        block = queries[start:start + _NN_BLOCK_ROWS]
        dists = np.abs(block[:, None, :] - reference).sum(axis=2)
        if leave_one_out:
            rows = np.arange(len(block))
            dists[rows, start + rows] = np.inf
        nearest[start:start + len(block)] = dists.argmin(axis=1)  # first minimum
    return nearest


def encode_value(feature: Feature, cell) -> float:
    """Numeric encoding of a discrete symbol: alphabet index scaled into [0, 1]."""
    k = len(feature.alphabet)
    idx = feature.alphabet.index(cell)
    return idx / (k - 1) if k > 1 else 0.0


def _code_matrix(dataset: Dataset, indices: Sequence[int]) -> np.ndarray:
    """The listed columns as floats: NaN for MISSING, discrete symbols by
    their encode_value codes."""
    m = np.empty((dataset.n_rows, len(indices)))
    for j, i in enumerate(indices):
        feat = dataset.schema.features[i]
        codes = {MISSING: np.nan}
        if feat.kind == "discrete":
            codes.update((symbol, encode_value(feat, symbol)) for symbol in feat.alphabet)
        m[:, j] = [codes.get(cell, cell) for cell in dataset.column(i)]
    return m


def encode_numeric(dataset: Dataset) -> Dataset:
    """Turn discrete primary features into continuous [0, 1] codes.

    Binary features become 0/1.  Contextual and class features are left
    symbolic; MISSING cells pass through.
    """
    targets = [
        i for i, f in enumerate(dataset.schema)
        if f.role is FeatureRole.PRIMARY and f.kind == "discrete"
    ]
    if not targets:
        return dataset
    schema = FeatureSchema(tuple(
        replace(f, kind="continuous", alphabet=None) if i in targets else f
        for i, f in enumerate(dataset.schema)
    ))
    return _write_columns(dataset, targets, _code_matrix(dataset, targets), schema)


# ---------------------------------------------------------------------------
# Context-free normalizers

@dataclass(frozen=True)
class MinMaxModel:
    indices: tuple[int, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]


def fit_minmax(train: Dataset) -> MinMaxModel:
    if train.n_rows == 0:
        raise ValueError("cannot fit min-max on an empty set")
    idx = train.schema.primary_indices
    m = _require_numeric(train, idx)
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
    return _write_columns(dataset, model.indices, scaled)


@dataclass(frozen=True)
class ZScoreModel:
    indices: tuple[int, ...]
    mu: tuple[float, ...]
    sigma: tuple[float, ...]


def fit_zscore(fit_set: Dataset) -> ZScoreModel:
    """Mean / population deviation per primary feature; the fit set may be
    the training data or a designated baseline set."""
    if fit_set.n_rows == 0:
        raise ValueError("cannot fit z-score on an empty set")
    idx = fit_set.schema.primary_indices
    m = _require_numeric(fit_set, idx)
    return ZScoreModel(idx, tuple(m.mean(axis=0)), tuple(m.std(axis=0)))


def apply_zscore(model: ZScoreModel, dataset: Dataset) -> Dataset:
    x = _require_numeric(dataset, model.indices)
    z = (x - np.asarray(model.mu)) / np.maximum(model.sigma, SIGMA_FLOOR)
    return _write_columns(dataset, model.indices, z)


@dataclass(frozen=True)
class PercentileModel:
    indices: tuple[int, ...]
    sorted_values: tuple[tuple[float, ...], ...]


def fit_percentile(train: Dataset) -> PercentileModel:
    if train.n_rows == 0:
        raise ValueError("cannot fit percentiles on an empty set")
    idx = train.schema.primary_indices
    m = _require_numeric(train, idx)
    return PercentileModel(idx, tuple(tuple(sorted(m[:, j])) for j in range(m.shape[1])))


def apply_percentile(model: PercentileModel, dataset: Dataset) -> Dataset:
    """Mid-rank of each value among the fitted values: (below + equal/2) / n."""
    x = _require_numeric(dataset, model.indices)
    ranks = np.empty_like(x)
    for j, vals in enumerate(model.sorted_values):
        below = np.searchsorted(vals, x[:, j], side="left")
        equal = np.searchsorted(vals, x[:, j], side="right") - below
        ranks[:, j] = (below + 0.5 * equal) / len(vals)
    return _write_columns(dataset, model.indices, ranks)


# ---------------------------------------------------------------------------
# Equal-frequency binning (for continuous context features)

def equal_freq_bins(values: Sequence[float], k: int) -> tuple[float, ...]:
    """k-1 strictly increasing boundaries splitting values into equal-count bins.

    Boundaries sit halfway between adjacent distinct values, as close to the
    j*N/k order statistics as ties allow.  Fewer distinct values than bins
    is an error.
    """
    if not values:
        raise ValueError("no values to bin")
    if k < 2:
        raise ValueError("need at least 2 bins")
    s = sorted(float(v) for v in values)
    n = len(s)
    if len(set(s)) < k:
        raise ValueError(f"only {len(set(s))} distinct values, cannot make {k} bins")
    # positions where a boundary can legally fall (between distinct values)
    gaps = [i for i in range(1, n) if s[i - 1] < s[i]]
    boundaries: list[float] = []
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


def bin_index(boundaries: Sequence[float], x: float) -> int:
    """Bin of x under half-open intervals; out-of-range values go to the
    first or last bin."""
    return bisect.bisect_right(boundaries, float(x))


def column_bins(dataset: Dataset, index: int, k: int) -> tuple[float, ...]:
    """equal_freq_bins over the non-MISSING values of one continuous column."""
    return equal_freq_bins([float(c) for c in dataset.column(index) if c is not MISSING], k)


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
            if len(b) < 1 or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
                raise ValueError("bin boundaries must be strictly increasing")
            object.__setattr__(self, "boundaries", b)

    def group_of(self, schema: FeatureSchema, row: Sequence):
        cell = row[schema.index_of(self.feature)]
        if self.boundaries is None:
            return cell
        if cell is MISSING:
            return MISSING
        return bin_index(self.boundaries, cell)


@dataclass(frozen=True)
class GroupContextModel:
    """Per-context-group mean/deviation of each primary feature, with a
    global fallback for groups unseen at fit time."""

    indices: tuple[int, ...]
    key: ContextKey
    groups: Mapping[object, tuple[tuple[float, ...], tuple[float, ...]]] = field(hash=False)
    fallback: tuple[tuple[float, ...], tuple[float, ...]] = None

    def row_stats(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Per-row mean and deviation matrices (n_rows x features) of the
        context group of each row of dataset."""
        stats = np.array(
            [self.groups.get(self.key.group_of(dataset.schema, row), self.fallback)
             for row in dataset.rows],
            dtype=float,
        ).reshape(dataset.n_rows, 2, len(self.indices))
        return stats[:, 0], stats[:, 1]


def fit_contextual(train: Dataset, key: ContextKey) -> GroupContextModel:
    """Group statistics estimator: mean and population deviation of each
    primary feature within each context group."""
    idx = train.schema.primary_indices
    m = _require_numeric(train, idx)
    if train.n_rows == 0:
        raise ValueError("cannot fit a context model on an empty set")
    group_rows: dict[object, list[int]] = {}
    for r, row in enumerate(train.rows):
        g = key.group_of(train.schema, row)
        if g is MISSING:
            continue
        group_rows.setdefault(g, []).append(r)
    if not group_rows:
        raise ValueError(f"context feature {key.feature!r} has no resolvable values")
    groups = {}
    for g, rows in group_rows.items():
        sub = m[rows]
        groups[g] = (tuple(sub.mean(axis=0)), tuple(sub.std(axis=0)))
    fallback = (tuple(m.mean(axis=0)), tuple(m.std(axis=0)))
    return GroupContextModel(idx, key, groups, fallback)


@dataclass(frozen=True)
class RegressionContextModel:
    """Model-based context statistics: the expected feature value is a
    regression on continuous context features, fitted to a baseline set;
    the deviation is the (constant) spread of the baseline residuals."""

    indices: tuple[int, ...]
    context_features: tuple[str, ...]
    kind: str  # "nn" or "linear"
    coefs: tuple[tuple[float, ...], ...] | None  # linear: per feature, intercept first
    baseline_context: tuple[tuple[float, ...], ...] | None  # nn: baseline context rows
    baseline_values: tuple[tuple[float, ...], ...] | None  # nn: matching feature rows
    resid_sigma: tuple[float, ...] = ()

    def row_stats(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Per-row mean and deviation matrices (n_rows x features) at the
        context of each row of dataset."""
        schema = dataset.schema
        ctx = _require_numeric(dataset, [schema.index_of(n) for n in self.context_features])
        if self.kind == "linear":
            coefs = np.asarray(self.coefs)  # features x (intercept + contexts)
            # intercept + left-to-right sum of the context terms, not a dot
            # product, so every value rounds as the one-row formula does
            mu = coefs[:, 0] + sum(coefs[:, k + 1] * ctx[:, [k]] for k in range(ctx.shape[1]))
        else:
            mu = np.asarray(self.baseline_values)[
                _nearest_rows(ctx, np.asarray(self.baseline_context))
            ]
        return mu, np.broadcast_to(self.resid_sigma, mu.shape)


def fit_contextual_model(
    baseline: Dataset, context_features: Sequence[str], regressor: str
) -> "RegressionContextModel | GroupContextModel":
    """Fit context statistics from a baseline set spanning a context range.

    regressor "linear": least-squares fit of each primary feature on the
    context; regressor "nn": nearest baseline row in context space (L1),
    with residuals taken leave-one-out so the deviation is meaningful.
    A degenerate linear design falls back to the group estimator (single
    global group) with a warning.
    """
    if regressor not in ("nn", "linear"):
        raise ValueError(f"unknown regressor {regressor!r}")
    if baseline.n_rows == 0:
        raise ValueError("empty baseline set")
    idx = baseline.schema.primary_indices
    feats = _require_numeric(baseline, idx)
    ctx = _require_numeric(baseline, [baseline.schema.index_of(n) for n in context_features])
    n = baseline.n_rows

    if regressor == "linear":
        design = np.hstack([np.ones((n, 1)), ctx])
        rank = np.linalg.matrix_rank(design)
        if rank < design.shape[1]:
            warnings.warn(
                "degenerate context design; falling back to global statistics"
            )
            global_stats = (tuple(feats.mean(axis=0)), tuple(feats.std(axis=0)))
            key = ContextKey(context_features[0], boundaries=None)
            return GroupContextModel(idx, key, {}, global_stats)
        coefs, *_ = np.linalg.lstsq(design, feats, rcond=None)
        resid = feats - design @ coefs
        sigma = resid.std(axis=0)
        return RegressionContextModel(
            indices=idx,
            context_features=tuple(context_features),
            kind="linear",
            coefs=tuple(tuple(c) for c in coefs.T),
            baseline_context=None,
            baseline_values=None,
            resid_sigma=tuple(sigma),
        )

    # nearest-neighbor regressor; leave-one-out residuals
    resid = feats - feats[_nearest_rows(ctx, ctx, leave_one_out=True)]
    sigma = resid.std(axis=0)
    return RegressionContextModel(
        indices=idx,
        context_features=tuple(context_features),
        kind="nn",
        coefs=None,
        baseline_context=tuple(tuple(r) for r in ctx),
        baseline_values=tuple(tuple(r) for r in feats),
        resid_sigma=tuple(sigma),
    )


def apply_contextual(model, dataset: Dataset) -> Dataset:
    """Standardize every primary feature by its context statistics:
    (x - mu(context)) / max(sigma(context), floor)."""
    x = _require_numeric(dataset, model.indices)
    mu, sigma = model.row_stats(dataset)
    return _write_columns(dataset, model.indices, (x - mu) / np.maximum(sigma, SIGMA_FLOOR))


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
    idx = train.schema.primary_indices
    m = _require_numeric(train, idx)
    labels = train.class_labels()
    if train.n_rows == 0:
        raise ValueError("no labeled rows")
    group_rows: dict[object, list[int]] = {}
    cell_rows: dict[tuple, list[int]] = {}
    for r, row in enumerate(train.rows):
        g = key.group_of(train.schema, row)
        if g is MISSING:
            continue
        group_rows.setdefault(g, []).append(r)
        cell_rows.setdefault((g, labels[r]), []).append(r)
    if not group_rows:
        raise ValueError(f"context feature {key.feature!r} has no resolvable values")
    inter = np.mean([m[rows].std(axis=0) for rows in group_rows.values()], axis=0)
    intra = np.mean([m[rows].std(axis=0) for rows in cell_rows.values()], axis=0)
    weights = inter / np.maximum(intra, SIGMA_FLOOR)
    return WeightVector(idx, tuple(weights), tuple(inter), tuple(intra))


def apply_weights(weights: WeightVector, dataset: Dataset) -> Dataset:
    x = _require_numeric(dataset, weights.indices)
    return _write_columns(dataset, weights.indices, np.asarray(weights.weights) * x)


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
            col = _code_matrix(train, [schema.index_of(name)])
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
    scaled = _minmax_scale(_code_matrix(dataset, targets), lo, hi)
    return _write_columns(dataset, targets, scaled, new_schema)


# ---------------------------------------------------------------------------
# Missing-value imputation

def impute_missing(train: Dataset, target: Dataset) -> Dataset:
    """Fill MISSING cells from the nearest training row.

    Similarity is the sum of 1 - |difference| over the non-class features
    that are present in both rows, after rescaling each feature into [0, 1]
    by the training min/max (a constant training feature rescales to 0.5).
    The donor for a cell must itself have that cell present; otherwise the
    next-nearest donor supplies it.
    """
    schema = train.schema
    indices = [
        i for i, f in enumerate(schema) if f.role is not FeatureRole.CLASS
    ]
    train_raw = _code_matrix(train, indices)
    empty = np.isnan(train_raw).all(axis=0)
    if empty.any():
        name = schema.features[indices[int(empty.argmax())]].name
        raise ValueError(f"feature {name!r} is entirely MISSING in the training set")

    if target.missing_count() == 0:
        return target

    lo, hi = np.nanmin(train_raw, axis=0), np.nanmax(train_raw, axis=0)
    train_m = _minmax_scale(train_raw, lo, hi)
    if target is train:
        target_m = train_m
    else:
        target_m = _minmax_scale(_code_matrix(target, indices), lo, hi)
    train_present = ~np.isnan(train_m)

    rows = []
    for r, row in enumerate(target.rows):
        if all(c is not MISSING for c in row):
            rows.append(row)
            continue
        q = target_m[r]
        q_present = ~np.isnan(q)
        shared = train_present & q_present
        diffs = np.where(shared, np.abs(train_m - q), 0.0)
        sims = np.where(shared, 1.0 - diffs, 0.0).sum(axis=1)
        # stable ranking: best similarity first, earliest row wins ties
        order = np.lexsort((np.arange(len(sims)), -sims))
        out = list(row)
        for j, i in enumerate(indices):
            if out[i] is not MISSING:
                continue
            for donor in order:
                cell = train.rows[donor][i]
                if cell is not MISSING:
                    out[i] = cell
                    break
            else:
                raise ValueError(
                    f"no donor with a value for {schema.features[i].name!r}"
                )
        rows.append(tuple(out))
    return Dataset.build(target.schema, rows)


# ---------------------------------------------------------------------------
# Pipeline

NORMALIZE_MODES = ("off", "minmax", "zscore", "percentile", "baseline", "contextual")


@dataclass(frozen=True)
class PipelineConfig:
    """Which transforms to run, in the fixed order
    impute -> encode -> normalize -> weight -> expand.

    Expanded features are appended after weighting and are never weighted
    themselves.  ``contextual_fit`` selects the protocol for contextual
    normalization: "train" fits group statistics on the training split and
    reuses them; "transductive" fits each dataset's groups on its own rows
    (the buffered-samples protocol for contexts absent from training).
    """

    normalize: str = "off"
    expand: tuple[str, ...] = ()
    weight: bool = False
    context: ContextKey | None = None
    baseline: Dataset | None = None
    contextual_fit: str = "train"  # or "transductive"
    contextual_model: str = "groups"  # or "nn" / "linear" (regression on context)
    impute: bool = False

    def __post_init__(self):
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(f"unknown normalize mode {self.normalize!r}")
        if self.contextual_fit not in ("train", "transductive"):
            raise ValueError(f"unknown contextual_fit {self.contextual_fit!r}")
        if self.contextual_model not in ("groups", "nn", "linear"):
            raise ValueError(f"unknown contextual_model {self.contextual_model!r}")
        needs_context = self.weight or self.normalize == "contextual"
        if needs_context and self.context is None:
            raise ValueError("contextual normalization / weighting require a context key")
        if self.normalize == "baseline" and self.baseline is None:
            raise ValueError("baseline normalization requires a baseline set")
        object.__setattr__(self, "expand", tuple(self.expand))


def run_pipeline(
    config: PipelineConfig, train: Dataset, test: Dataset
) -> tuple[Dataset, Dataset]:
    """Apply the configured transforms to a train/test pair.

    All parameters are fitted on the training split (or the baseline set),
    except transductive contextual normalization, which fits each split's
    context groups on that split's own rows.
    """
    if config.impute:
        train, test = impute_missing(train, train), impute_missing(train, test)
    train, test = encode_numeric(train), encode_numeric(test)

    if config.normalize == "minmax":
        model = fit_minmax(train)
        train, test = apply_minmax(model, train), apply_minmax(model, test)
    elif config.normalize == "zscore":
        model = fit_zscore(train)
        train, test = apply_zscore(model, train), apply_zscore(model, test)
    elif config.normalize == "percentile":
        model = fit_percentile(train)
        train, test = apply_percentile(model, train), apply_percentile(model, test)
    elif config.normalize == "baseline":
        base = encode_numeric(config.baseline)
        if config.impute:
            base = impute_missing(base, base)
        model = fit_zscore(base)
        train, test = apply_zscore(model, train), apply_zscore(model, test)
    elif config.normalize == "contextual":
        if config.contextual_model in ("nn", "linear"):
            base = config.baseline if config.baseline is not None else train
            base = encode_numeric(base)
            model = fit_contextual_model(
                base, [config.context.feature], config.contextual_model
            )
            train = apply_contextual(model, train)
            test = apply_contextual(model, test)
        elif config.contextual_fit == "transductive":
            train = apply_contextual(fit_contextual(train, config.context), train)
            test = apply_contextual(fit_contextual(test, config.context), test)
        else:
            model = fit_contextual(train, config.context)
            train = apply_contextual(model, train)
            test = apply_contextual(model, test)

    if config.weight:
        w = compute_weights(train, config.context)
        train, test = apply_weights(w, train), apply_weights(w, test)

    if config.expand:
        model = fit_expansion(train, config.expand)
        train, test = apply_expansion(model, train), apply_expansion(model, test)

    return train, test
