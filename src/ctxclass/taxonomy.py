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
estimated here from a dataset.  The three tests ask one question of its
support, not of the product of the alphabets: does adding one feature to a
conditioning set (nothing for primary, every other feature for contextual,
the primary feature for context-sensitive) move p(class | ·) by more than
eps?  The tuples of positive probability are grouped by their codes in the
conditioning set, and each probability is a ``np.bincount`` over those
groups, so a test costs O(support · d) and no array is larger than the
support times the class alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import SUM_TOLERANCE, Dataset, JointDistribution

#: suggested tolerance for distributions estimated from ~10^4 samples
EMPIRICAL_EPS = 0.03
#: tolerance for exact, analytically specified distributions
EXACT_EPS = 1e-9


@dataclass(frozen=True)
class FeatureVerdict:
    """Per-feature labels plus, for primary features, their sensitivity sets."""

    labels: Mapping[str, str]  # feature name -> "primary" | "contextual" | "irrelevant"
    sensitive_to: Mapping[str, tuple[str, ...]]  # primary name -> contextual names
    witnesses: Mapping[str, tuple]


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
    missing = np.isnan(dataset.values.sum(axis=0))  # codes are small: only a NaN cell sums to NaN
    if missing.any():
        first = dataset.schema.features[int(missing.argmax())].name
        raise ValueError(
            f"{dataset.missing_count()} MISSING cells (first in feature {first!r}); "
            "the taxonomy tests need complete rows"
        )
    _, first, counts = np.unique(_row_keys(dataset.values), return_index=True, return_counts=True)
    order = np.argsort(first)  # the tuples in order of first occurrence
    columns = [np.fromiter(f.alphabet, object, len(f.alphabet))[k].tolist()
               for f, k in zip(dataset.schema, dataset.values[first[order]].astype(np.intp).T)]
    probs = dict(zip(zip(*columns), (counts[order] / dataset.n_rows).tolist()))
    return JointDistribution(dataset.schema.names, tuple(f.alphabet for f in dataset.schema),
                             probs, dataset.schema.class_feature.name)


def _row_keys(codes: np.ndarray) -> np.ndarray:
    """One int64 key per row of a matrix of codes (integers >= 0, or floats
    that hold them), ordered as the rows are in lexicographic order: the
    columns folded left to right into one key vector, in place, each with its
    largest code + 1 as the radix, and the partial keys re-ranked, which keeps
    their order, before a product of radixes would pass the int64 range."""
    keys, radix = np.zeros(len(codes), dtype=np.int64), 1
    for column, size in zip(codes.T, (codes.max(axis=0, initial=0) + 1).astype(np.int64).tolist()):
        if radix * size > np.iinfo(np.int64).max:
            ranked, keys = np.unique(keys, return_inverse=True)
            radix = len(ranked)
        keys *= size
        np.add(keys, column, out=keys, dtype=np.int64, casting="unsafe")  # exact: int64 adds
        radix *= size
    return keys


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


def _feature_column(dist: JointDistribution, feature: str) -> int:
    if feature == dist.class_var:
        raise ValueError("the class variable is not a feature under test")
    return dist.index_of(feature)


class _Support:
    """A distribution's tuples of positive probability as integer codes.

    ``codes[k, j]`` is the code of tuple k's value of variable j, read from
    ``dist.support`` (``Feature.codes``), and ``p[k]`` is tuple k's
    probability, from ``dist.p``, both in ``probs`` order.  Tuples of
    probability 0 are left out: they add nothing to a sum, and no test visits
    them.  ``eps``, the tests' tolerance, must be finite and at least
    ``data.SUM_TOLERANCE``.
    """

    def __init__(self, dist: JointDistribution, eps: float = EXACT_EPS):
        if not SUM_TOLERANCE <= eps < np.inf:
            raise ValueError(f"need a finite tolerance >= {SUM_TOLERANCE:g}, got {eps}")
        self.dist, self.eps = dist, eps
        self.codes = dist.support.values.astype(np.intp)[dist.p > 0]
        self.p = dist.p[dist.p > 0]
        self.c = dist.index_of(dist.class_var)
        self.n_cls = len(dist.alphabets[self.c])
        self._groups: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def _grouping(self, columns: tuple[int, ...]):
        """Each tuple's group by its codes in ``columns``, the groups numbered
        in lexicographic code order, and one tuple of each group.  Keys no
        larger than the support are ranked through a table of the keys
        present, others by ``np.unique``.  The last two groupings asked for
        are kept: each contextual test asks for the full assignments' and for
        one without its feature, so the full one is built once.
        """
        grouping = self._groups.pop(columns, None)
        if grouping is None:
            keys = _row_keys(self.codes[:, list(columns)])
            size = int(keys.max()) + 1
            if size <= len(keys):
                present = np.zeros(size, dtype=bool)
                present[keys] = True
                group = (np.cumsum(present) - 1)[keys]
                rows = np.empty(int(present.sum()), dtype=np.intp)
                rows[group] = np.arange(len(keys))
            else:
                _, rows, group = np.unique(keys, return_index=True, return_inverse=True)
            grouping = group, rows
        self._groups[columns] = grouping
        if len(self._groups) > 2:
            del self._groups[next(iter(self._groups))]
        return grouping

    def _conditional(self, columns: tuple[int, ...]) -> np.ndarray:
        """p(class | group) for the groups of ``columns``, class on the last axis.

        Each p(group, class) and p(group) is a ``bincount`` that adds the
        probabilities in ``probs`` order, as :meth:`JointDistribution.marginal`
        does, so it is bit for bit the float ``marginal`` returns.
        """
        group, rows = self._grouping(columns)
        n, cls = len(rows), self.codes[:, self.c]
        joint = np.bincount(group * self.n_cls + cls, weights=self.p, minlength=n * self.n_cls)
        return joint.reshape(n, self.n_cls) / np.bincount(group, weights=self.p)[:, None]

    def _shift(self, columns: tuple[int, ...], k: int, prior=None):
        """First (class, assignment to ``columns``), in lexicographic code order,
        where p(class | assignment) and p(class | assignment without
        ``columns[k]``) differ by more than ``eps``: a tuple of symbols, the class
        first; or None.

        ``prior``, if given, is the one class distribution every assignment
        is compared with instead.  Only assignments of positive probability
        are visited, and without a column they keep a positive probability,
        so both conditionals are defined.
        """
        _, rows = self._grouping(columns)
        if prior is None:
            rest = columns[:k] + columns[k + 1:]
            prior = self._conditional(rest)[self._grouping(rest)[0][rows]]
        hit = np.abs(self._conditional(columns) - prior) > self.eps
        if not hit.any():
            return None
        g, a0 = divmod(int(np.argmax(hit)), self.n_cls)
        alphabets, codes = self.dist.alphabets, self.codes[rows[g]]
        return (alphabets[self.c][a0], *(alphabets[j][codes[j]] for j in columns))

    def primary_witness(self, feature: str):
        """Witness (a0, ai) with |p(x0=a0 | xi=ai) - p(x0=a0)| > eps, or None."""
        i = _feature_column(self.dist, feature)
        prior = np.bincount(self.codes[:, self.c], weights=self.p, minlength=self.n_cls)
        return self._shift((i,), 0, prior)

    def contextual_witness(self, feature: str):
        """Witness full assignment where dropping the feature moves the prediction.

        The same class value appears on both sides of the comparison because
        the witness is a single shared assignment; the first hit in
        (assignment, class value) order wins.
        """
        _feature_column(self.dist, feature)
        names = _non_class_vars(self.dist)
        columns = tuple(self.dist.index_of(n) for n in names)
        hit = self._shift(columns, names.index(feature))
        return None if hit is None else (hit[0], dict(zip(names, hit[1:])))

    def sensitivity_witness(self, primary: str, contextual: str):
        """Witness (a0, ai, aj) with |p(x0=a0 | xi=ai, xj=aj) - p(x0=a0 | xi=ai)| > eps."""
        i, j = _feature_column(self.dist, primary), _feature_column(self.dist, contextual)
        if i == j:
            raise ValueError("primary and contextual feature must differ")
        return self._shift((i, j), 1)


def is_primary(dist: JointDistribution, feature: str, eps: float = EXACT_EPS) -> bool:
    return _Support(dist, eps).primary_witness(feature) is not None


def is_contextual(dist: JointDistribution, feature: str, eps: float = EXACT_EPS) -> bool:
    support = _Support(dist, eps)
    return support.primary_witness(feature) is None and support.contextual_witness(feature) is not None


def is_context_sensitive(
    dist: JointDistribution, primary: str, contextual: str, eps: float = EXACT_EPS
) -> bool:
    return _Support(dist, eps).sensitivity_witness(primary, contextual) is not None


def classify_features(dist: JointDistribution, eps: float = EXACT_EPS) -> FeatureVerdict:
    """Label every non-class feature and fill sensitivity sets.

    Definition order matters: the contextual test only applies to features
    that failed the primary test, and irrelevant is the residual label.
    The distribution is encoded once for all the tests.  ``eps`` must be
    finite and at least ``data.SUM_TOLERANCE``.
    """
    support = _Support(dist, eps)
    labels: dict[str, str] = {}
    witnesses: dict[str, tuple] = {}
    for name in _non_class_vars(dist):
        w = support.primary_witness(name)
        if w is not None:
            labels[name] = "primary"
            witnesses[name] = w
            continue
        w = support.contextual_witness(name)
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
            if lab2 == "contextual" and support.sensitivity_witness(p, ctx) is not None
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
        "witnesses": {k: list(v) for k, v in verdict.witnesses.items()},
    }
