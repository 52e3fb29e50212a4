import math
import sys

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxclass._dist import betainc, student_t_two_sided

# |t| from 0 up to 1e6, with its logarithm spread evenly down to 1e-8
t_values = st.one_of(
    st.just(0.0),
    st.floats(-8.0, 6.0).map(lambda e: 10.0 ** e),
    st.floats(0.0, 1e6, allow_nan=False),
).flatmap(lambda t: st.sampled_from([t, -t]))


def _close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


class TestStudentTwoSided:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(t=t_values)
    def test_one_degree_of_freedom_is_the_cauchy_tail(self, t):
        want = 1.0 if t == 0 else 2.0 / math.pi * math.atan(1.0 / abs(t))
        assert _close(student_t_two_sided(t, 1), want, 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(t=t_values)
    def test_two_degrees_of_freedom_closed_form(self, t):
        # 1 - |t|/s with s = sqrt(2 + t²), written as 2/(s(s + |t|)) so that
        # large |t| loses nothing to cancellation
        s = math.sqrt(2.0 + t * t)
        assert _close(student_t_two_sided(t, 2), 2.0 / (s * (s + abs(t))), 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(t=t_values, df=st.integers(2, 200))
    def test_matches_scipy(self, t, df):
        # from 2 degrees of freedom: at 1, scipy's own Cauchy tail is off by up
        # to 4.5e-9 near p = 1 (|t| about 1e-8, against 40-digit mpmath); the
        # closed form above covers that case
        want = 2.0 * float(scipy.stats.t.sf(abs(t), df))
        if want >= sys.float_info.min:
            assert _close(student_t_two_sided(t, df), want, 1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t=t_values, df=st.integers(1, 200))
    def test_matches_40_digit_incomplete_beta(self, t, df):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            t2 = mpmath.mpf(t) ** 2
            want = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, df / (df + t2),
                                  regularized=True)
            if want >= sys.float_info.min:
                assert _close(student_t_two_sided(t, df), float(want), 1e-11)

    def test_zero_is_certain(self):
        for df in (1, 2, 9, 200):
            assert student_t_two_sided(0.0, df) == 1.0

    def test_huge_t_is_small_and_positive(self):
        for df in (1, 2, 9, 50):
            p = student_t_two_sided(1e6, df)
            assert 0.0 < p < 1e-6
            assert student_t_two_sided(-1e6, df) == p
        assert student_t_two_sided(math.inf, 3) == 0.0

    def test_textbook_value(self):
        # the 97.5% quantile of t with 9 degrees of freedom
        assert student_t_two_sided(2.262157162798205, 9) == pytest.approx(0.05, rel=1e-12)


class TestIncompleteBeta:
    def test_end_points(self):
        assert betainc(2.0, 3.0, 0.0, 1.0) == 0.0
        assert betainc(2.0, 3.0, 1.0, 0.0) == 1.0

    def test_symmetry(self):
        for a, b, x in ((0.5, 0.5, 0.3), (2.0, 7.5, 0.8), (40.0, 0.5, 0.99)):
            assert betainc(a, b, x, 1 - x) + betainc(b, a, 1 - x, x) == pytest.approx(1.0, abs=1e-14)

    def test_integer_parameters(self):
        # I_x(1, b) = 1 - (1-x)^b and I_x(a, 1) = x^a
        assert betainc(1.0, 4.0, 0.25, 0.75) == pytest.approx(1 - 0.75 ** 4, rel=1e-14)
        assert betainc(3.0, 1.0, 0.6, 0.4) == pytest.approx(0.6 ** 3, rel=1e-14)
