"""The two classifiers: single-nearest-neighbor and one-vs-rest linear discriminant.

Both consume the primary features of an encoded dataset as plain real
vectors and are deterministic: ties break toward the lowest training-row
index (nearest neighbor) or the lowest class index (discriminant).  The
discriminant picks its features by forward selection or, without it, by
column-pivoted Gram-Schmidt, and ties there go to the lowest column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import MISSING, Dataset, FeatureSchema
from .preprocess import _check_numeric, _nearest_rows, _require_numeric

PIVOT_TOL = 1e-10


def similarity(x: Sequence[float], y: Sequence[float]) -> float:
    """Sum over features of 1 - |x_i - y_i|.

    Equals d - L1(x, y) for d features, so the most similar vector is the
    L1-nearest one.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    # computed as d - L1 so the identity holds bit-exactly, not just in math
    return float(len(x) - sum(abs(a - b) for a, b in zip(x, y)))


def _query_matrix(schema: FeatureSchema, query) -> np.ndarray:
    """A single query as a one-row feature matrix: either a full row of the
    schema or a bare vector of primary-feature values."""
    if isinstance(query, (tuple, list)) and len(query) == len(schema):
        cells = [np.nan if query[i] is MISSING else query[i] for i in schema.primary_indices]
        return _check_numeric(schema, schema.primary_indices, np.array([cells], dtype=float))
    return np.asarray(query, dtype=float).reshape(1, -1)


# ---------------------------------------------------------------------------
# Single-nearest neighbor

@dataclass(frozen=True)
class NearestNeighborModel:
    schema: FeatureSchema
    features: np.ndarray
    labels: tuple[str, ...]

    def describe(self) -> str:
        lines = [f"nearest-neighbor model: {len(self.labels)} stored rows"]
        for i, lab in enumerate(self.labels):
            lines.append(f"row {i}: class={lab}")
        return "\n".join(lines)


def nn_fit(train: Dataset) -> NearestNeighborModel:
    if train.n_rows == 0:
        raise ValueError("empty training set")
    x = _require_numeric(train, train.schema.primary_indices)
    return NearestNeighborModel(train.schema, x, train.class_labels())


def _nn_labels(model: NearestNeighborModel, queries: np.ndarray) -> tuple[str, ...]:
    return tuple(model.labels[i] for i in _nearest_rows(queries, model.features))


def nn_predict(model: NearestNeighborModel, query) -> str:
    """Class of the L1-nearest stored row; earliest row wins ties."""
    return _nn_labels(model, _query_matrix(model.schema, query))[0]


def nn_predict_dataset(model: NearestNeighborModel, dataset: Dataset) -> tuple[str, ...]:
    """Vectorized prediction for every row of a dataset."""
    return _nn_labels(model, _require_numeric(dataset, dataset.schema.primary_indices))


# ---------------------------------------------------------------------------
# One-vs-rest linear discriminant with forward selection

@dataclass(frozen=True)
class SelectionParams:
    enabled: bool = True
    f_enter: float = 4.0  # standard entry threshold for forward selection
    max_features: int | None = None


@dataclass(frozen=True)
class ClassEquation:
    label: str
    selected: tuple[int, ...]  # positions within the primary-feature vector
    intercept: float
    coefs: tuple[float, ...]
    dropped: tuple[int, ...] = ()


@dataclass(frozen=True)
class LinearDiscriminantModel:
    schema: FeatureSchema
    equations: tuple[ClassEquation, ...]  # in class alphabet order

    def describe(self) -> str:
        lines = []
        for eq in self.equations:
            terms = " ".join(
                f"{c:+.6g}*x{i}" for c, i in zip(eq.coefs, eq.selected)
            )
            lines.append(f"class {eq.label}: y = {eq.intercept:.6g} {terms}".rstrip())
            if eq.dropped:
                lines.append(f"  dropped (singular): {list(eq.dropped)}")
        return "\n".join(lines)


def _fit_selected(x: np.ndarray, y: np.ndarray,
                  selected: tuple) -> tuple[float, tuple, tuple, tuple]:
    """Final least-squares fit of y on an intercept plus the selected columns;
    every other column is reported as dropped."""
    design = np.hstack([np.ones((len(x), 1)), x[:, selected]])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept = float(coef[0])
    coefs = tuple(float(c) for c in coef[1:])
    dropped = tuple(sorted(set(range(x.shape[1])) - set(selected)))
    return intercept, selected, coefs, dropped


def _sweep(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Project the unit vector b out of every column of z, in place, and return
    the squared column norms left; summed column by column, not as a matrix
    product, so that equal columns stay bit-equal and tie."""
    z -= b[:, None] * (b[:, None] * z).sum(axis=0)
    return (z * z).sum(axis=0)


def _fit_full(x: np.ndarray, y: np.ndarray) -> tuple[float, tuple, tuple, tuple]:
    """Least squares on the columns that column-pivoted Gram-Schmidt keeps: the largest
    residual norm first (Businger-Golub; the lowest index among norms equal within
    rounding), while that norm is above PIVOT_TOL of the first.  As in _fit_forward,
    a column whose residual norm is at most PIVOT_TOL of its own uncentered norm is
    dependent: a constant column centers to rounding noise alone."""
    z, selected = x - x.mean(axis=0), []  # centered: the intercept is in every fit
    zz = (z * z).sum(axis=0)
    floor = PIVOT_TOL ** 2 * np.maximum(zz.max(initial=0.0), (x * x).sum(axis=0))
    while (live := zz > floor).any():
        selected.append(j := int(np.argmax(np.where(live, zz, 0.0))))
        zz = _sweep(z[:, j] / np.sqrt(zz[j]), z)
        zz[selected] = 0.0
    return _fit_selected(x, y, tuple(sorted(selected)))


def _fit_forward(
    x: np.ndarray, y: np.ndarray, params: SelectionParams
) -> tuple[float, tuple, tuple, tuple]:
    """Greedy forward selection: admit the feature with the largest residual
    sum-of-squares reduction while its partial F statistic exceeds f_enter.

    The stepwise-regression update: q is an orthonormal basis of the
    intercept and the selected columns, r = y - q q'y the residual and
    z = x - q q'x the candidates, so one step scores every candidate j as
    the residual sum ||r - t_j z_j||^2 with t_j = z_j.r / z_j.z_j.  A
    candidate with ||z_j|| at most PIVOT_TOL of ||x_j|| is collinear with
    the basis and scores no drop.  The first minimum wins: ties go to the
    lowest column.  An admitted z_j is normalized, orthogonalized against q
    once more and projected out of r and z.  The coefficients come from one
    least-squares fit of the selected columns.
    """
    n, d = x.shape
    limit = d if params.max_features is None else min(d, params.max_features)
    selected: list[int] = []
    collinear_below = PIVOT_TOL ** 2 * (x * x).sum(axis=0)
    q = np.empty((n, limit + 1))
    r, z = y.copy(), x.copy()
    b = np.full(n, 1.0 / np.sqrt(n))  # the intercept
    while True:
        q[:, len(selected)] = b
        r -= b * (b @ r)
        zz = _sweep(b, z)
        rss = float(r @ r)
        if len(selected) == limit:
            break
        collinear = zz <= collinear_below
        t = (z * r[:, None]).sum(axis=0) / np.where(collinear, 1.0, zz)
        cand = ((r[:, None] - z * t) ** 2).sum(axis=0)
        cand[collinear] = rss
        cand[selected] = np.inf
        j = int(np.argmin(cand))
        new_rss = float(cand[j])
        p = len(selected) + 2  # intercept + selected + candidate
        if n - p <= 0:
            break
        # an RSS drop at float-noise scale is no evidence; without this guard
        # the partial F becomes a ratio of rounding errors once the fit is
        # already (numerically) perfect
        if rss - new_rss <= 1e-10 * max(1.0, float(y @ y)):
            break
        if new_rss <= 0.0:
            f_stat = np.inf if rss > 0.0 else 0.0
        else:
            f_stat = (rss - new_rss) / (new_rss / (n - p))
        if f_stat <= params.f_enter:
            break
        selected.append(j)
        basis = q[:, :len(selected)]
        b = z[:, j] / np.sqrt(zz[j])
        b -= basis @ (basis.T @ b)
        b /= np.linalg.norm(b)
    return _fit_selected(x, y, tuple(selected))


def mlr_fit(train: Dataset, selection: SelectionParams | None = None) -> LinearDiscriminantModel:
    """One 0/1-target least-squares equation per class, intercept included."""
    if train.n_rows == 0:
        raise ValueError("empty training set")
    selection = selection or SelectionParams()
    x = _require_numeric(train, train.schema.primary_indices)
    labels = train.class_labels()
    classes = train.schema.class_feature.alphabet
    equations = []
    for cls in classes:
        y = np.asarray([1.0 if lab == cls else 0.0 for lab in labels])
        if selection.enabled:
            intercept, sel, coefs, dropped = _fit_forward(x, y, selection)
        else:
            intercept, sel, coefs, dropped = _fit_full(x, y)
        equations.append(ClassEquation(cls, sel, intercept, coefs, dropped))
    return LinearDiscriminantModel(train.schema, tuple(equations))


def _mlr_labels(model: LinearDiscriminantModel, queries: np.ndarray) -> tuple[str, ...]:
    scores = np.empty((queries.shape[0], len(model.equations)))
    for k, eq in enumerate(model.equations):
        scores[:, k] = eq.intercept
        for c, i in zip(eq.coefs, eq.selected):
            scores[:, k] += c * queries[:, i]
    winners = scores.argmax(axis=1)  # first maximum = lowest class index
    return tuple(model.equations[int(w)].label for w in winners)


def mlr_predict(model: LinearDiscriminantModel, query) -> str:
    """Class whose equation yields the largest value; lowest class index wins ties."""
    return _mlr_labels(model, _query_matrix(model.schema, query))[0]


def mlr_predict_dataset(model: LinearDiscriminantModel, dataset: Dataset) -> tuple[str, ...]:
    return _mlr_labels(model, _require_numeric(dataset, dataset.schema.primary_indices))
