"""The primary/contextual/irrelevant feature tests on a discrete joint distribution.

A feature is *primary* if its value alone shifts the class distribution,
*contextual* if it is not primary but knowing it sharpens the prediction
given all the other features, and *irrelevant* otherwise.  A primary
feature is *context-sensitive* to a contextual one when the class
distribution given the primary value moves with the contextual value.

All tests compare conditional probabilities with a tolerance ``eps``;
conditioning events of probability zero are skipped (they provide no
witness, and the conditional is undefined there).

The distribution is ``data.JointDistribution``, read from a JSON spec or
estimated here from a dataset.  The tests run on its support, not on the
product of the alphabets: every probability a test compares is a cell of a
marginal table summed with ``np.bincount`` from the codes of
``JointDistribution.support``.  ``bincount`` adds the weights one after
another in ``probs`` order, as :meth:`JointDistribution.marginal` does, so
each cell is bit for bit the float ``marginal`` returns, and a feature costs
O(support · d) instead of the product of every alphabet size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .data import Dataset, JointDistribution

#: suggested tolerance for distributions estimated from ~10^4 samples
EMPIRICAL_EPS = 0.03
#: tolerance for exact, analytically specified distributions
EXACT_EPS = 1e-9


@dataclass(frozen=True)
class FeatureVerdict:
    """Per-feature labels plus, for primary features, their sensitivity sets."""

    labels: Mapping[str, str]  # feature name -> "primary" | "contextual" | "irrelevant"
    sensitive_to: Mapping[str, tuple[str, ...]]  # primary name -> contextual names
    witnesses: Mapping[str, tuple] = None


def estimate_distribution(dataset: Dataset) -> JointDistribution:
    """Empirical joint distribution of a fully discrete dataset without MISSING cells."""
    if dataset.n_rows == 0:
        raise ValueError("cannot estimate a distribution from an empty dataset")
    continuous = [f.name for f in dataset.schema if f.kind != "discrete"]
    if continuous:
        raise ValueError(
            f"continuous features {continuous} must be binned first "
            "(see preprocess.equal_freq_bins)"
        )
    missing = np.isnan(dataset.values)
    if missing.any():
        first = dataset.schema.features[int(missing.any(axis=0).argmax())].name
        raise ValueError(
            f"{int(missing.sum())} MISSING cells (first in feature {first!r}); "
            "the taxonomy tests need complete rows"
        )
    n = dataset.n_rows
    alphabets = [f.alphabet for f in dataset.schema]
    counts = Counter(map(tuple, dataset.values.astype(np.intp).tolist()))
    probs = {tuple(a[k] for a, k in zip(alphabets, codes)): c / n for codes, c in counts.items()}
    return JointDistribution(
        variables=dataset.schema.names,
        alphabets=tuple(f.alphabet for f in dataset.schema),
        probs=probs,
        class_var=dataset.schema.class_feature.name,
    )


def cond_prob(
    dist: JointDistribution,
    event: tuple[str, str],
    given: Mapping[str, str] | None = None,
) -> float | None:
    """p(event | given); None when the conditioning event has probability 0."""
    var, val = event
    dist._check(var, val)
    given = dict(given or {})
    denom = dist.marginal(given)
    if denom == 0.0:
        return None
    joint = dict(given)
    joint[var] = val
    return dist.marginal(joint) / denom


def _non_class_vars(dist: JointDistribution) -> tuple[str, ...]:
    return tuple(v for v in dist.variables if v != dist.class_var)


def _check_feature(dist: JointDistribution, feature: str) -> None:
    dist.index_of(feature)
    if feature == dist.class_var:
        raise ValueError("the class variable is not a feature under test")


def _conditional(joint: np.ndarray, given: np.ndarray) -> np.ndarray:
    """p(class | given) from p(given, class), class on the last axis, and p(given).

    It reads 0 where p(given) is 0 and the conditional is undefined.
    """
    return joint / np.where(given > 0, given, 1.0)[..., None]


def _first_hit(joint: np.ndarray, given: np.ndarray, other: np.ndarray, eps: float):
    """First index, in C order, where p(class | given) and ``other`` differ by more than eps.

    Conditioning events of probability 0 are skipped; None when nothing hits.
    """
    hit = (np.abs(_conditional(joint, given) - other) > eps) & (given > 0)[..., None]
    if not hit.any():
        return None
    return tuple(int(k) for k in np.unravel_index(np.argmax(hit), hit.shape))


class _Support:
    """A distribution's tuples as integer codes, the source of every marginal table.

    ``codes[k, j]`` is the code of tuple k's value of variable j, read from
    ``dist.support`` (``Feature.codes``), and ``p[k]`` is tuple k's
    probability, both in ``probs`` order.
    """

    def __init__(self, dist: JointDistribution):
        self.dist = dist
        self.codes = dist.support.values.astype(np.intp)
        self.p = np.fromiter(dist.probs.values(), dtype=float, count=len(dist.probs))
        self.sizes = tuple(len(a) for a in dist.alphabets)
        self.c = dist.index_of(dist.class_var)

    def table(self, *variables: int) -> np.ndarray:
        """p(variables): one axis per variable (a column index), in alphabet order."""
        shape = tuple(self.sizes[v] for v in variables)
        flat = np.ravel_multi_index(self.codes[:, list(variables)].T, shape)
        return np.bincount(flat, weights=self.p, minlength=int(np.prod(shape))).reshape(shape)

    def _grouped(self, group: np.ndarray, n_groups: int, cls: np.ndarray, p: np.ndarray):
        """p(group, class) and p(group) for tuples with the given group numbers."""
        n_cls = self.sizes[self.c]
        joint = np.bincount(group * n_cls + cls, weights=p, minlength=n_groups * n_cls)
        return joint.reshape(n_groups, n_cls), np.bincount(group, weights=p, minlength=n_groups)

    @cached_property
    def _full(self):
        """Full assignments of positive probability, and the tuples behind them.

        The assignments are the unique non-class code rows of the positive
        tuples, in lexicographic order, which is the order ``itertools.product``
        visits them in.  Also returned: each positive tuple's assignment
        number, class code and probability.
        """
        pos = self.p > 0
        rest = [j for j in range(len(self.sizes)) if j != self.c]
        rows, full_of = np.unique(self.codes[pos][:, rest], axis=0, return_inverse=True)
        return rows, full_of.reshape(-1), self.codes[pos, self.c], self.p[pos]

    def primary_witness(self, feature: str, eps: float):
        """Witness (a0, ai) with |p(x0=a0 | xi=ai) - p(x0=a0)| > eps, or None."""
        _check_feature(self.dist, feature)
        i, c = self.dist.index_of(feature), self.c
        hit = _first_hit(self.table(i, c), self.table(i), self.table(c), eps)
        if hit is None:
            return None
        ai, a0 = hit
        return (self.dist.alphabets[c][a0], self.dist.alphabets[i][ai])

    def contextual_witness(self, feature: str, eps: float):
        """Witness full assignment where dropping the feature moves the prediction.

        Only full assignments of positive probability are visited, and their
        reduced assignments have positive probability too, so both
        conditionals are defined.  The same class value appears on both
        sides of the comparison because the witness is a single shared
        assignment; the first hit in (assignment, class value) order wins.
        """
        _check_feature(self.dist, feature)
        rows, full_of, cls, p = self._full
        names = _non_class_vars(self.dist)
        col = names.index(feature)
        _, reduced = np.unique(np.delete(rows, col, axis=1), axis=0, return_inverse=True)
        reduced = reduced.reshape(-1)
        n_reduced = int(reduced.max()) + 1
        without = _conditional(*self._grouped(reduced[full_of], n_reduced, cls, p))
        hit = _first_hit(*self._grouped(full_of, len(rows), cls, p), without[reduced], eps)
        if hit is None:
            return None
        g, a0 = hit
        full = {n: self.dist.alphabet_of(n)[k] for n, k in zip(names, rows[g])}
        return (self.dist.alphabets[self.c][a0], full)

    def sensitivity_witness(self, primary: str, contextual: str, eps: float):
        """Witness (a0, ai, aj) with |p(x0=a0 | xi=ai, xj=aj) - p(x0=a0 | xi=ai)| > eps."""
        _check_feature(self.dist, primary)
        _check_feature(self.dist, contextual)
        if primary == contextual:
            raise ValueError("primary and contextual feature must differ")
        i, j, c = self.dist.index_of(primary), self.dist.index_of(contextual), self.c
        alone = _conditional(self.table(i, c), self.table(i))
        hit = _first_hit(self.table(i, j, c), self.table(i, j), alone[:, None, :], eps)
        if hit is None:
            return None
        ai, aj, a0 = hit
        alphabets = self.dist.alphabets
        return (alphabets[c][a0], alphabets[i][ai], alphabets[j][aj])


def is_primary(dist: JointDistribution, feature: str, eps: float = EXACT_EPS) -> bool:
    return _Support(dist).primary_witness(feature, eps) is not None


def _contextual_witness(dist: JointDistribution, feature: str, eps: float):
    """Contextual witness (a0, full assignment) of a feature, whether primary or not."""
    return _Support(dist).contextual_witness(feature, eps)


def is_contextual(dist: JointDistribution, feature: str, eps: float = EXACT_EPS) -> bool:
    return not is_primary(dist, feature, eps) and _contextual_witness(dist, feature, eps) is not None


def is_context_sensitive(
    dist: JointDistribution, primary: str, contextual: str, eps: float = EXACT_EPS
) -> bool:
    return _Support(dist).sensitivity_witness(primary, contextual, eps) is not None


def classify_features(dist: JointDistribution, eps: float = EXACT_EPS) -> FeatureVerdict:
    """Label every non-class feature and fill sensitivity sets.

    Definition order matters: the contextual test only applies to features
    that failed the primary test, and irrelevant is the residual label.
    The distribution is encoded once for all the tests.  ``eps`` must be
    finite and nonnegative.
    """
    if not 0 <= eps < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {eps}")
    support = _Support(dist)
    labels: dict[str, str] = {}
    witnesses: dict[str, tuple] = {}
    for name in _non_class_vars(dist):
        w = support.primary_witness(name, eps)
        if w is not None:
            labels[name] = "primary"
            witnesses[name] = w
            continue
        w = support.contextual_witness(name, eps)
        if w is not None:
            labels[name] = "contextual"
            witnesses[name] = w
        else:
            labels[name] = "irrelevant"
    sensitive: dict[str, tuple[str, ...]] = {}
    for p, lab in labels.items():
        if lab != "primary":
            continue
        hits = tuple(
            ctx
            for ctx, lab2 in labels.items()
            if lab2 == "contextual" and support.sensitivity_witness(p, ctx, eps) is not None
        )
        sensitive[p] = hits
    return FeatureVerdict(labels=labels, sensitive_to=sensitive, witnesses=witnesses)


def verdict_table(verdict: FeatureVerdict) -> str:
    """Plain-text rendering of a verdict."""
    lines = [f"{'feature':<16} {'label':<12} sensitive to"]
    for name, label in verdict.labels.items():
        sens = ", ".join(verdict.sensitive_to.get(name, ())) or "-"
        lines.append(f"{name:<16} {label:<12} {sens}")
    return "\n".join(lines)


def verdict_json(verdict: FeatureVerdict) -> dict:
    return {
        "labels": dict(verdict.labels),
        "sensitive_to": {k: list(v) for k, v in verdict.sensitive_to.items()},
        "witnesses": {k: list(v) if v else None for k, v in (verdict.witnesses or {}).items()},
    }
