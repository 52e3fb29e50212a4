import itertools
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxclass import data, taxonomy
from ctxclass.taxonomy import (
    EXACT_EPS,
    FeatureVerdict,
    classify_features,
    cond_prob,
    estimate_distribution,
    is_context_sensitive,
    is_contextual,
    is_primary,
    verdict_json,
)

from conftest import WORKED_PROBS, worked_spec


class TestCondProb:
    def test_class_marginal(self, worked_dist):
        assert cond_prob(worked_dist, ("x0", "1")) == pytest.approx(0.5)

    def test_single_condition(self, worked_dist):
        assert cond_prob(worked_dist, ("x0", "1"), {"x1": "1"}) == pytest.approx(0.44)

    def test_double_condition(self, worked_dist):
        got = cond_prob(worked_dist, ("x0", "1"), {"x1": "1", "x2": "1"})
        assert got == pytest.approx(0.5333, abs=1e-4)
        # independent check by summing the table rows directly
        num = sum(p for t, p in WORKED_PROBS.items() if t[0] == "1" and t[1] == "1" and t[2] == "1")
        den = sum(p for t, p in WORKED_PROBS.items() if t[1] == "1" and t[2] == "1")
        assert got == pytest.approx(num / den)

    def test_zero_probability_condition_is_undefined(self):
        dist = taxonomy.JointDistribution(
            ("c", "x"), (("0", "1"), ("0", "1")), {("0", "0"): 0.5, ("1", "0"): 0.5}
        )
        assert cond_prob(dist, ("c", "0"), {"x": "1"}) is None

    def test_unknown_variable_or_value(self, worked_dist):
        with pytest.raises(KeyError):
            cond_prob(worked_dist, ("nope", "1"))
        with pytest.raises(KeyError):
            cond_prob(worked_dist, ("x0", "9"))

    def test_conditionals_sum_to_one(self, worked_dist):
        for assign in itertools.product("01", repeat=3):
            given = dict(zip(("x1", "x2", "x3"), assign))
            if worked_dist.marginal(given) == 0:
                continue
            total = sum(cond_prob(worked_dist, ("x0", a0), given) for a0 in "01")
            assert total == pytest.approx(1.0)


class TestFeatureTests:
    def test_x1_is_primary(self, worked_dist):
        assert is_primary(worked_dist, "x1")

    def test_x2_not_primary_but_contextual(self, worked_dist):
        assert not is_primary(worked_dist, "x2")
        assert is_contextual(worked_dist, "x2")

    def test_x3_irrelevant(self, worked_dist):
        assert not is_primary(worked_dist, "x3")
        assert not is_contextual(worked_dist, "x3")

    def test_primary_excluded_from_contextual(self, worked_dist):
        assert not is_contextual(worked_dist, "x1")

    def test_independent_feature_not_primary(self):
        # x independent of the class by construction
        probs = {
            ("0", "0"): 0.3, ("0", "1"): 0.3, ("1", "0"): 0.2, ("1", "1"): 0.2,
        }
        dist = taxonomy.JointDistribution(("c", "x"), (("0", "1"), ("0", "1")), probs)
        assert not is_primary(dist, "x")

    def test_sensitivity_pair(self, worked_dist):
        assert is_context_sensitive(worked_dist, "x1", "x2")

    def test_sensitivity_tolerance_cutoff(self, worked_dist):
        # largest gap over all (a0, a1, a2) triples is |0.5333 - 0.44| < 0.2;
        # verified here by direct enumeration as the oracle
        largest = 0.0
        for a1 in "01":
            for a2 in "01":
                for a0 in "01":
                    joint = cond_prob(worked_dist, ("x0", a0), {"x1": a1, "x2": a2})
                    alone = cond_prob(worked_dist, ("x0", a0), {"x1": a1})
                    if joint is not None and alone is not None:
                        largest = max(largest, abs(joint - alone))
        assert largest < 0.2
        assert not is_context_sensitive(worked_dist, "x1", "x2", eps=0.2)

    def test_independent_context_not_sensitive(self):
        # x2 independent of (class, x1): p factorizes
        probs = {}
        for c in "01":
            for x1 in "01":
                for x2 in "01":
                    base = 0.4 if c == x1 else 0.1
                    probs[(c, x1, x2)] = base * (0.5 if x2 == "0" else 0.5)
        dist = taxonomy.JointDistribution(("c", "x1", "x2"), (("0", "1"),) * 3, probs)
        assert not is_context_sensitive(dist, "x1", "x2")


class TestEstimateDistribution:
    def test_matches_worked_table(self):
        spec = worked_spec()
        rows = []
        for tup, p in spec.probs.items():
            rows.extend([tup] * round(1000 * p))
        ds = data.Dataset.build(spec.schema(), rows)
        dist = estimate_distribution(ds)
        for tup, p in spec.probs.items():
            assert dist.probs[tup] == pytest.approx(p, abs=1e-3)

    def test_point_mass(self):
        spec = worked_spec()
        ds = data.Dataset.build(spec.schema(), [("0", "1", "0", "1")])
        dist = estimate_distribution(ds)
        assert dist.probs == {("0", "1", "0", "1"): 1.0}

    def test_empty_dataset_is_error(self):
        ds = data.Dataset.build(worked_spec().schema(), [])
        with pytest.raises(ValueError):
            estimate_distribution(ds)

    def test_missing_cells_are_an_error(self):
        spec = worked_spec()
        m = data.MISSING
        rows = [("0", "1", "0", "1")] * 3 + [("1", "0", m, "1")] * 2 + [("0", m, "1", m)]
        ds = data.Dataset.build(spec.schema(), rows)
        with pytest.raises(ValueError, match=r"4 MISSING cells \(first in feature 'x1'\)"):
            estimate_distribution(ds)

    def test_continuous_feature_directs_to_binning(self):
        schema = data.FeatureSchema(
            (
                data.Feature("c", data.FeatureRole.CLASS, "discrete", ("0", "1")),
                data.Feature("x", data.FeatureRole.PRIMARY, "continuous"),
            )
        )
        ds = data.Dataset.build(schema, [("0", 1.0)])
        with pytest.raises(ValueError, match="binned"):
            estimate_distribution(ds)


class TestJointDistributionValidation:
    def test_out_of_alphabet_symbol_is_error(self):
        with pytest.raises(ValueError, match="not in alphabet of 'x'"):
            taxonomy.JointDistribution(
                ("c", "x"), (("0", "1"), ("0", "1")), {("0", "0"): 0.5, ("1", "2"): 0.5}
            )

    def test_nan_probability_is_error(self):
        with pytest.raises(ValueError):
            taxonomy.JointDistribution(("c",), (("0", "1"),), {("0",): float("nan"), ("1",): 1.0})


class TestClassifyFeatures:
    def test_worked_verdict(self, worked_dist):
        v = classify_features(worked_dist)
        assert v.labels == {"x1": "primary", "x2": "contextual", "x3": "irrelevant"}
        assert v.sensitive_to == {"x1": ("x2",)}

    def test_all_independent_all_irrelevant(self):
        probs = {}
        for c in "01":
            for x1 in "01":
                for x2 in "01":
                    probs[(c, x1, x2)] = 0.125
        dist = taxonomy.JointDistribution(("c", "x1", "x2"), (("0", "1"),) * 3, probs)
        v = classify_features(dist)
        assert set(v.labels.values()) == {"irrelevant"}

    def test_sampled_verdict_matches_exact(self, table_spec, worked_dist):
        ds = data.sample_from(table_spec, 10000, seed=17)
        v = classify_features(estimate_distribution(ds), eps=0.03)
        assert v.labels == classify_features(worked_dist).labels

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.5])
    def test_tolerance_must_be_finite_and_nonnegative(self, worked_dist, eps):
        with pytest.raises(ValueError, match="tolerance"):
            classify_features(worked_dist, eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-13])
    def test_tolerance_below_the_sum_tolerance_is_refused(self, worked_dist, eps):
        # probabilities sum to 1 only within 1e-12; below it rounding decides
        with pytest.raises(ValueError, match="finite tolerance >= 1e-12"):
            classify_features(worked_dist, eps)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("test", [
        lambda d, eps: is_primary(d, "x1", eps),
        lambda d, eps: is_contextual(d, "x2", eps),
        lambda d, eps: is_context_sensitive(d, "x1", "x2", eps),
        classify_features,
    ], ids=["is_primary", "is_contextual", "is_context_sensitive", "classify_features"])
    def test_every_test_refuses_a_tolerance_below_the_sum_tolerance(self, test, eps):
        # ten tuples of probability 0.1 sum to 0.9999999999999999, x1 has one
        # symbol: at eps 0 the single tests answered True by rounding alone
        tuples = [(c, "a", v) for c in "01" for v in "abcde"]
        dist = taxonomy.JointDistribution(("c", "x1", "x2"),
                                          (("0", "1"), ("a",), tuple("abcde")),
                                          {t: 0.1 for t in tuples})
        with pytest.raises(ValueError, match="need a finite tolerance >= 1e-12, got"):
            test(dist, eps)
        at_floor = test(dist, 1e-12)
        assert at_floor is False or set(at_floor.labels.values()) == {"irrelevant"}

    def test_class_only_distribution_refuses_a_bad_tolerance_too(self):
        dist = taxonomy.JointDistribution(("c",), (("0", "1"),), {("0",): 0.5, ("1",): 0.5})
        assert classify_features(dist, 1e-12).labels == {}
        with pytest.raises(ValueError, match="need a finite tolerance >= 1e-12, got nan"):
            classify_features(dist, float("nan"))

    def test_two_symbols_of_thousand_symbol_alphabets(self):
        # the class agrees with x1 with probability 0.9 when x2 = 0 and 0.6
        # when x2 = 1; no table over the alphabets may be built
        alphabet = tuple(f"s{k}" for k in range(1000))
        occur = ("s17", "s940")
        probs = {}
        for x2, agree in zip(occur, (0.9, 0.6)):
            for x1, c in itertools.product(occur, repeat=2):
                probs[("01"[occur.index(c)], x1, x2)] = (agree if c == x1 else 1 - agree) / 4
        dist = taxonomy.JointDistribution(("c", "x1", "x2"), (("0", "1"), alphabet, alphabet),
                                          probs)
        tracemalloc.start()
        try:
            v = classify_features(dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.labels == {"x1": "primary", "x2": "contextual"}
        assert v.sensitive_to == {"x1": ("x2",)}
        assert peak < 2 * 2**20

    def test_trichotomy(self, worked_dist):
        v = classify_features(worked_dist)
        assert set(v.labels) == {"x1", "x2", "x3"}
        assert all(l in ("primary", "contextual", "irrelevant") for l in v.labels.values())

    def test_eps_monotonicity(self, worked_dist):
        grid = [1e-9, 0.01, 0.05, 0.1, 0.3, 0.9]
        for name in ("x1", "x2", "x3"):
            prim = [is_primary(worked_dist, name, e) for e in grid]
            # once false at a small eps, never true at a larger one
            assert prim == sorted(prim, reverse=True)
        # the contextual test applies only to non-primary features; x1 is
        # primary at small eps, so only x2 and x3 are monotone here
        for name in ("x2", "x3"):
            ctx = [
                taxonomy._Support(worked_dist, e).contextual_witness(name) is not None for e in grid
            ]
            assert ctx == sorted(ctx, reverse=True)

    def test_feature_order_permutation(self, table_spec):
        # permuting variable order permutes the verdict, nothing else
        spec = table_spec
        perm = (0, 3, 1, 2)  # keep the class first
        probs = {tuple(t[i] for i in perm): p for t, p in spec.probs.items()}
        dist = taxonomy.JointDistribution(
            tuple(spec.variables[i] for i in perm),
            tuple(spec.alphabets[i] for i in perm),
            probs,
        )
        v = classify_features(dist)
        assert v.labels == {"x1": "primary", "x2": "contextual", "x3": "irrelevant"}

    def test_verdict_rendering(self, worked_dist):
        text = taxonomy.verdict_table(classify_features(worked_dist))
        assert "x1" in text and "primary" in text and "x2" in text


# ---------------------------------------------------------------------------
# The definitions enumerated literally, as a test-only oracle: every full
# assignment in the product of the non-class alphabets, and every
# probability from ``marginal`` / ``cond_prob``.

def _oracle_primary(dist, feature, eps):
    c = dist.class_var
    for ai in dist.alphabet_of(feature):
        for a0 in dist.alphabet_of(c):
            lhs = cond_prob(dist, (c, a0), {feature: ai})
            if lhs is not None and abs(lhs - dist.marginal({c: a0})) > eps:
                return (a0, ai)
    return None


def _oracle_contextual(dist, feature, eps):
    c = dist.class_var
    names = [v for v in dist.variables if v != c]
    for values in itertools.product(*(dist.alphabet_of(n) for n in names)):
        full = dict(zip(names, values))
        reduced = {k: v for k, v in full.items() if k != feature}
        if dist.marginal(full) == 0.0 or dist.marginal(reduced) == 0.0:
            continue
        for a0 in dist.alphabet_of(c):
            if abs(cond_prob(dist, (c, a0), full) - cond_prob(dist, (c, a0), reduced)) > eps:
                return (a0, full)
    return None


def _oracle_sensitive(dist, primary, contextual, eps):
    c = dist.class_var
    for ai in dist.alphabet_of(primary):
        if dist.marginal({primary: ai}) == 0.0:
            continue
        for aj in dist.alphabet_of(contextual):
            if dist.marginal({primary: ai, contextual: aj}) == 0.0:
                continue
            for a0 in dist.alphabet_of(c):
                joint = cond_prob(dist, (c, a0), {primary: ai, contextual: aj})
                alone = cond_prob(dist, (c, a0), {primary: ai})
                if abs(joint - alone) > eps:
                    return True
    return False


def _oracle_verdict(dist, eps):
    labels, witnesses = {}, {}
    for name in (v for v in dist.variables if v != dist.class_var):
        w = _oracle_primary(dist, name, eps)
        if w is not None:
            labels[name], witnesses[name] = "primary", w
            continue
        w = _oracle_contextual(dist, name, eps)
        if w is not None:
            labels[name], witnesses[name] = "contextual", w
        else:
            labels[name] = "irrelevant"
    sensitive = {
        p: tuple(x for x, lx in labels.items()
                 if lx == "contextual" and _oracle_sensitive(dist, p, x, eps))
        for p, lp in labels.items() if lp == "primary"
    }
    return FeatureVerdict(labels=labels, sensitive_to=sensitive, witnesses=witnesses)


@st.composite
def small_distributions(draw):
    """d = 2-5 variables with alphabets of 1-3 symbols in a drawn order, a
    support of up to 20 tuples in a drawn insertion order, some of them with
    probability zero, and a class variable that is not always the first."""
    d = draw(st.integers(2, 5))
    names = tuple(f"x{j}" for j in range(d))
    alphabets = tuple(
        tuple(draw(st.permutations("abc"))[: draw(st.integers(1, 3))]) for _ in range(d)
    )
    support = draw(st.lists(st.tuples(*(st.sampled_from(a) for a in alphabets)),
                            min_size=1, max_size=20, unique=True))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(support),
                            max_size=len(support)).filter(any))
    total = sum(weights)
    probs = {t: w / total for t, w in zip(support, weights)}
    return taxonomy.JointDistribution(names, alphabets, probs, draw(st.sampled_from(names)))


class TestSupport:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dist=small_distributions())
    def test_support_is_probs_under_schema(self, dist):
        assert dist.support.rows == tuple(dist.probs)
        assert dist.support.schema == dist.schema()
        assert dist.schema().class_feature.name == dist.class_var

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dist=small_distributions())
    def test_json_round_trip(self, dist):
        back = taxonomy.JointDistribution.from_json(dist.to_json())
        assert back == dist
        # the "class" key is written only for a class other than the first variable
        assert ("class" in json.loads(dist.to_json())) == (dist.class_var != dist.variables[0])

    def test_one_type(self):
        assert taxonomy.JointDistribution is data.JointDistribution


class TestMatchesEnumerationOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dist=small_distributions(), eps=st.sampled_from([EXACT_EPS, 0.03, 0.2]))
    def test_verdicts_witnesses_and_order(self, dist, eps):
        got, want = classify_features(dist, eps), _oracle_verdict(dist, eps)
        # the JSON text fixes label order and the key order inside witnesses
        assert json.dumps(verdict_json(got)) == json.dumps(verdict_json(want))
        assert got.sensitive_to == want.sensitive_to

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dist=small_distributions(), eps=st.sampled_from([EXACT_EPS, 0.03, 0.2]))
    def test_single_feature_tests(self, dist, eps):
        feats = [v for v in dist.variables if v != dist.class_var]
        for f in feats:
            assert is_primary(dist, f, eps) == (_oracle_primary(dist, f, eps) is not None)
            assert taxonomy._Support(dist, eps).contextual_witness(f) == _oracle_contextual(dist, f, eps)
            for x in feats:
                if x != f:
                    assert is_context_sensitive(dist, f, x, eps) == _oracle_sensitive(
                        dist, f, x, eps
                    )

    def test_uniform_d8_never_enumerates(self, monkeypatch):
        names = ("c",) + tuple(f"x{i}" for i in range(1, 9))
        tuples = list(itertools.product("01", repeat=len(names)))
        dist = taxonomy.JointDistribution(
            names, (("0", "1"),) * len(names), {t: 1 / len(tuples) for t in tuples}
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("classify_features must not query marginal or cond_prob")

        monkeypatch.setattr(taxonomy.JointDistribution, "marginal", forbidden)
        monkeypatch.setattr(taxonomy, "cond_prob", forbidden)
        v = classify_features(dist)
        assert v.labels == {n: "irrelevant" for n in names[1:]}
        assert v.sensitive_to == {} and v.witnesses == {}


@st.composite
def code_matrices(draw):
    """A code matrix of 0-40 rows, many of them repeated: 1-80 columns of
    codes below 3, or a few of codes below 2^40, so that a product of the
    radixes often passes 2^63."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=80))
    else:
        sizes = draw(st.lists(st.integers(1, 2**40), min_size=1, max_size=6))
    distinct = draw(st.lists(st.tuples(*(st.integers(0, s - 1) for s in sizes)),
                             min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=40))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(sizes))


class TestRowKeys:
    """Integer row keys group code rows as ``np.unique(axis=0)`` does, the
    oracle kept here, and in the same (lexicographic) order."""

    @staticmethod
    def assert_groups_match_the_oracle(codes):
        keys = taxonomy._row_keys(codes)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rows, want = np.unique(codes, axis=0, return_inverse=True)
        assert codes[first].tolist() == rows.tolist()
        assert inverse.tolist() == want.reshape(-1).tolist()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(matrix=code_matrices())
    def test_groups_and_order(self, matrix):
        self.assert_groups_match_the_oracle(matrix)

    def test_seventy_binary_columns(self):
        # 2^70 assignments: the keys are re-ranked before they pass int64
        rng = np.random.default_rng(70)
        codes = rng.integers(0, 2, size=(500, 70))
        codes[250:] = codes[rng.integers(0, 250, size=250)]  # repeated rows
        codes[:, 65:] = 1 - codes[:, 65:]  # the columns after the fold decide some orders
        self.assert_groups_match_the_oracle(codes)

    def test_full_assignments_past_int64(self):
        # 71 binary variables, class first: the support's full assignments
        # and their numbering match the oracle's
        rng = random.Random(71)
        names = tuple(f"x{j}" for j in range(71))
        support = {tuple(rng.choice("01") for _ in names) for _ in range(60)}
        probs = {t: 1 / len(support) for t in sorted(support)}
        dist = taxonomy.JointDistribution(names, (("0", "1"),) * 71, probs)
        tuples = taxonomy._Support(dist)
        full_of, first = tuples._grouping(tuple(range(1, 71)))
        rows = tuples.codes[first, 1:]
        codes = np.array([[int(s) for s in t[1:]] for t in probs])
        want_rows, want_of = np.unique(codes, axis=0, return_inverse=True)
        assert rows.tolist() == want_rows.tolist()
        assert full_of.tolist() == want_of.reshape(-1).tolist()


class TestEstimateOrder:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dist=small_distributions(), n=st.integers(1, 60), seed=st.integers(0, 9))
    def test_probs_in_order_of_first_occurrence(self, dist, n, seed):
        # the estimate is the Counter of the rows, in the same order
        ds = data.sample_from(dist, n, seed)
        rows = ds.rows
        want = {t: c / n for t, c in Counter(rows).items()}
        got = estimate_distribution(ds).probs
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda d: is_primary(d, "x0"), "the class variable is not a feature under test",
                 id="class-under-test"),
    pytest.param(lambda d: is_context_sensitive(d, "x1", "x1"),
                 "primary and contextual feature must differ", id="same-feature-twice"),
])
def test_refusals_name_their_cause(worked_dist, call, message):
    with pytest.raises(ValueError) as raised:
        call(worked_dist)
    assert str(raised.value) == message
