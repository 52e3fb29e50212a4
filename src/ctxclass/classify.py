"""The two classifiers: single-nearest-neighbor and one-vs-rest linear discriminant.

Both consume the primary features of an encoded dataset as plain real
vectors and are deterministic: ties break toward the lowest training-row
index (nearest neighbor) or the lowest class index (discriminant).  The
discriminant picks its features by forward selection or, without it, by
column-pivoted Gram-Schmidt, and ties there go to the lowest column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .preprocess import _fit_matrix, _nearest_rows, _require_numeric

PIVOT_TOL = 1e-10
F_ENTER = 4.0  # the standard partial-F entry threshold of forward selection
#: cells of one stack's basis (128 KB, glibc's mmap threshold: a larger array is
#: faulted in anew each time, and such stacks were slower than separate walks)
_STACK_CELLS = 2 ** 14


def similarity(x: Sequence[float], y: Sequence[float]) -> float:
    """Sum over features of 1 - |x_i - y_i|.

    Equals d - L1(x, y) for d features, so the most similar vector is the
    L1-nearest one.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    # computed as d - L1 so the identity holds bit-exactly, not just in math
    return float(len(x) - sum(abs(a - b) for a, b in zip(x, y)))


# ---------------------------------------------------------------------------
# Single-nearest neighbor

@dataclass(frozen=True)
class NearestNeighborModel:
    features: np.ndarray
    classes: np.ndarray  # class code of each stored row
    alphabet: tuple[str, ...]  # the class symbols the codes index

    def describe(self) -> str:
        rows = [f"row {i}: class={self.alphabet[c]}" for i, c in enumerate(self.classes.tolist())]
        return "\n".join([f"nearest-neighbor model: {len(self.classes)} stored rows", *rows])


def nn_fit(train: Dataset) -> NearestNeighborModel:
    _, x = _fit_matrix(train, "empty training set")
    return NearestNeighborModel(x, train.class_codes(), train.schema.class_feature.alphabet)


def nn_predict_dataset(model: NearestNeighborModel, dataset: Dataset) -> np.ndarray:
    """Class code of the L1-nearest stored row for every row of a dataset;
    the earliest stored row wins ties."""
    queries = _require_numeric(dataset, dataset.schema.primary_indices)
    return model.classes[_nearest_rows(queries, model.features)]


# ---------------------------------------------------------------------------
# One-vs-rest linear discriminant with forward selection

@dataclass(frozen=True)
class ClassEquation:
    label: str
    selected: tuple[int, ...]  # positions within the primary-feature vector
    intercept: float
    coefs: tuple[float, ...]
    dropped: tuple[int, ...] = ()


@dataclass(frozen=True)
class LinearDiscriminantModel:
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
    design = np.ones((len(x), len(selected) + 1))
    design[:, 1:] = x[:, selected]
    intercept, *coefs = np.linalg.lstsq(design, y, rcond=None)[0].tolist()
    dropped = tuple(sorted(set(range(x.shape[1])) - set(selected)))
    return intercept, selected, tuple(coefs), dropped


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b).sum(axis=-2) of (n, d) designs or (K, n, d) stacks, an operand of one
    column standing for every column, bit for bit but without the product; see
    _sweep for the summation order."""
    if max(a.shape[-1], b.shape[-1]) == 1:
        return (a * b).sum(axis=-2)
    return np.einsum("...ij,...ij->...j", a, b)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for each row pair of two (K, n) stacks, by the BLAS dot of a_k @ b_k."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _aligned(stack) -> np.ndarray:
    """A (K, ...) stack copied so that each member starts 16-byte aligned, as a fresh
    array does: OpenBLAS's generic kernel sums a dot in an order that depends on its
    operands' addresses, so a member must sit where it would alone.  The members lie
    an even count of float64 apart in one buffer, each a view of its true length."""
    shape = np.shape(stack)
    size = math.prod(shape[1:])
    out = np.empty((shape[0], size + size % 2))[:, :size].reshape(shape)
    out[...] = stack
    return out


def _sweep(b: np.ndarray, z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Project the unit vector b out of every column of z, in place (z a design, or a
    stack of them with a b each), and return the squared column norms left; b (b'z)
    goes to work.  Each sum adds a column's rows in sequence, not as a matrix product, so
    equal columns stay bit-equal and tie: an einsum does so on a C-ordered (n, d >= 2)
    matrix, as .sum(axis=0) does, which adds an (n, 1) column pairwise instead (so
    _column_dots keeps it there).  The product is an einsum, as numpy buffers a
    ufunc operand broadcast across a stack's middle axis."""
    z -= np.einsum("...i,...j->...ij", b, _column_dots(b[..., None], z), out=work)
    return _column_dots(z, z)


def _fit_full(x: np.ndarray, y: np.ndarray) -> tuple[float, tuple, tuple, tuple]:
    """Least squares on the columns that column-pivoted Gram-Schmidt keeps: the largest
    residual norm first (Businger-Golub; the lowest index among norms equal within
    rounding), while that norm is above PIVOT_TOL of the first.  As in _fit_forward,
    a column whose residual norm is at most PIVOT_TOL of its own uncentered norm is
    dependent: a constant column centers to rounding noise alone."""
    z, selected = x - x.mean(axis=0), []  # centered: the intercept is in every fit
    work, zz = np.empty_like(z), _column_dots(z, z)
    floor = PIVOT_TOL ** 2 * np.maximum(zz.max(initial=0.0), _column_dots(x, x))
    while (live := zz > floor).any():
        selected.append(j := int(np.argmax(np.where(live, zz, 0.0))))
        zz = _sweep(z[:, j] / np.sqrt(zz[j]), z, work)
        zz[selected] = 0.0
    return _fit_selected(x, y, tuple(sorted(selected)))


def _enters(rss: float, new_rss: float, no_drop: float, dof: int) -> bool:
    """Whether the best candidate's RSS drop beats float noise and its partial F F_ENTER."""
    if rss - new_rss <= no_drop:
        return False
    f_stat = (np.inf if rss > 0.0 else 0.0) if new_rss <= 0.0 else (rss - new_rss) / (new_rss / dof)
    return not f_stat <= F_ENTER


def _fit_forward(x, y) -> list[tuple[float, tuple, tuple, tuple]]:
    """Greedy forward selection on each of K (n, d) designs x (a C-ordered stack or
    a sequence) and targets y: admit the feature with the largest residual
    sum-of-squares reduction while its partial F statistic exceeds F_ENTER.

    The stepwise-regression update (Efroymson 1960): q is an orthonormal basis
    of the intercept and the selected columns, r = y - q q'y the residual and
    z = x - q q'x the candidates, so one step scores every candidate j as
    the residual sum ||r - t_j z_j||^2 with t_j = z_j.r / z_j.z_j.  A
    candidate with ||z_j|| at most PIVOT_TOL of ||x_j|| is collinear with
    the basis and scores no drop.  The first minimum wins: ties go to the
    lowest column.  An admitted z_j is normalized, orthogonalized against q
    once more (Gram-Schmidt) and projected out of r and z.  The coefficients
    come from one least-squares fit of each design's selected columns.  A step
    admits one column per live member or stops it, and stopped members leave
    the stack, so each member's sums, dots and matrix products (a stacked @ runs
    one BLAS dot or gemv a member) are the ones it gets alone, bit for bit: the
    BLAS operands r, q and b are kept _aligned.  The products b (b'z) and r - z t
    share one work buffer.
    """
    z, r = np.array(x, dtype=float, order="C"), _aligned(y)
    k, n, d = z.shape
    collinear_below = PIVOT_TOL ** 2 * _column_dots(z, z)  # z is x until the first sweep
    # an RSS drop at float-noise scale is no evidence: the partial F would be a
    # ratio of rounding errors once the fit is already (numerically) perfect
    no_drop = 1e-10 * np.maximum(1.0, _dots(r, r))
    q, work = _aligned(np.empty((k, n, d + 1))), np.empty_like(z)
    b = _aligned(np.full((k, n), 1.0 / np.sqrt(n)))  # the intercept
    members, chosen, fits = np.arange(k), np.empty((k, d), dtype=np.intp), [None] * k
    for s in range(d + 1):  # s: the columns each live member has admitted
        live, w = np.arange(len(members)), work[:len(members)]
        q[:, :, s] = b
        r -= b * _dots(b, r)[:, None]
        zz = _sweep(b, z, w)
        rss = _dots(r, r)
        p = s + 2  # intercept + selected + candidate
        if s == d or n - p <= 0:
            go = [False] * len(live)
        else:
            collinear = zz <= collinear_below
            zz[collinear] = 1.0  # t_j = z_j.r then; its score is rss anyway
            t = _column_dots(z, r[..., None]) / zz
            np.subtract(r[..., None], np.multiply(z, t[:, None, :], out=w), out=w)
            cand = _column_dots(w, w)
            np.copyto(cand, rss[:, None], where=collinear)
            cand[live[:, None], chosen[:, :s]] = np.inf
            j = cand.argmin(axis=1)
            go = [_enters(*v, n - p) for v in zip(
                rss.tolist(), cand[live, j].tolist(), no_drop.tolist())]
        for m, i in enumerate(members):
            if not go[m]:
                fits[i] = _fit_selected(x[i], y[i], tuple(chosen[m, :s].tolist()))
        if not any(go):
            break
        if not all(go):  # the stopped members leave the stack
            keep = np.flatnonzero(go)
            z, r, q, zz, j, chosen, collinear_below, no_drop, members = (v[keep] for v in (
                z, r, q, zz, j, chosen, collinear_below, no_drop, members))
            r, q, live = _aligned(r), _aligned(q), live[:len(keep)]
        chosen[:, s] = j
        basis = q[:, :, :s + 1]
        b = _aligned(z[live, :, j] / np.sqrt(zz[live, j])[:, None])
        b -= (basis @ (basis.transpose(0, 2, 1) @ b[:, :, None]))[:, :, 0]
        b /= np.sqrt(_dots(b, b))[:, None]
    return fits


def mlr_fit_many(trains: Sequence[Dataset], select: bool = True) -> list[LinearDiscriminantModel]:
    """mlr_fit of each train; with select, the (train, class) designs of one shape are
    fitted as stacks whose basis holds at most _STACK_CELLS cells.  A design whose
    column sums of squares overflow is refused before any walk."""
    models = [[] for _ in trains]
    groups = {}  # design shape -> [(train index, class symbol, x, 0/1 target)]
    for i, train in enumerate(trains):
        idx, x = _fit_matrix(train, "empty training set")
        with np.errstate(over="ignore"):  # bit for bit _column_dots(x, x), a walk's first sums
            finite = (x * x).sum(axis=0) < np.inf
        if not finite.all():
            name = train.schema.features[idx[int(finite.argmin())]].name
            raise ValueError(f"mlr fit would overflow the column sums of feature {name!r}")
        codes, feature = train.class_codes(), train.schema.class_feature
        groups.setdefault(x.shape, []).extend(
            (i, cls, x, (codes == feature.codes[cls]).astype(float)) for cls in feature.alphabet)
    for (n, d), group in groups.items():
        size = max(1, _STACK_CELLS // (n * (d + 1)))
        for part in (group[at:at + size] for at in range(0, len(group), size)):
            xs, ys = [design[2] for design in part], [design[3] for design in part]
            fits = _fit_forward(xs, ys) if select else map(_fit_full, xs, ys)
            for (i, cls, _, _), (intercept, sel, coefs, dropped) in zip(part, fits):
                models[i].append(ClassEquation(cls, sel, intercept, coefs, dropped))
    return [LinearDiscriminantModel(tuple(equations)) for equations in models]


def mlr_fit(train: Dataset, select: bool = True) -> LinearDiscriminantModel:
    """One 0/1-target least-squares equation per class, intercept included: on the
    columns forward selection admits, or with select off on those that pivoted
    Gram-Schmidt keeps."""
    return mlr_fit_many([train], select)[0]


def mlr_predict_dataset(model: LinearDiscriminantModel, dataset: Dataset) -> np.ndarray:
    """For every row of a dataset, the code of the class whose equation yields
    the largest value; the lowest class index wins ties, so a repeated symbol's
    equation, equal to its first one, never wins over it."""
    queries = _require_numeric(dataset, dataset.schema.primary_indices)
    return _scores(model, queries).argmax(axis=0)  # first maximum = lowest class index


def _scores(model: LinearDiscriminantModel, queries: np.ndarray) -> np.ndarray:
    """Each equation's value at each query row, a row per equation.  Its terms, the
    intercept and then coef * column in selection order, are added in that order
    (add.accumulate), so each score is bit for bit the term-by-term sum."""
    scores = np.empty((len(model.equations), len(queries)))
    for k, eq in enumerate(model.equations):
        terms = np.empty((len(eq.selected) + 1, len(queries)))
        terms[0] = eq.intercept
        np.multiply(np.array(eq.coefs)[:, None], queries.T[list(eq.selected)], out=terms[1:])
        scores[k] = np.add.accumulate(terms, axis=0)[-1]
    return scores

