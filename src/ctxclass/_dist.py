"""Distribution tails in plain floating point.

The regularized incomplete beta function by Lentz's continued fraction
(Numerical Recipes, 2nd ed., §6.4) and the two-sided Student t p-value
built on it.  ``betainc`` takes x and 1 - x as two arguments, both
computed directly by the caller, so that neither loses digits to a
subtraction from 1.
"""

from __future__ import annotations

import math

_MAX_TERMS = 1000
_EPS = 1e-15
_TINY = 1e-300  # stands in for a zero denominator in Lentz's method


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method;
    converges fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS + 1):
        # an even then an odd term of the fraction
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) >= _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, with y = 1 - x."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log(y)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    # the symmetry I_x(a, b) = 1 - I_y(b, a) where the fraction for x is slow
    return 1.0 - front * _beta_fraction(b, a, y) / b


def student_t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's T with df degrees of freedom, which is
    I_{df/(df+t²)}(df/2, 1/2)."""
    t2 = t * t
    return betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))
