import math
from fractions import Fraction

import mpmath
import pytest

from agrip.constructions import construction_a_simple_poles
from agrip.exact import (
    SurdSum,
    exact_leq,
    exact_ratio_sqrt,
    floor_reciprocal,
    leq_reciprocal_log,
    squarefree_decompose,
)
from agrip.fields import make_field
from agrip.matrix import coherence_report


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)
    for n in range(1, 400):
        a, b = squarefree_decompose(n)
        assert a * a * b == n
        assert all(b % (d * d) for d in range(2, int(math.isqrt(b)) + 1))


def test_ratio_sqrt_rational_cases():
    assert exact_ratio_sqrt(3, 9) == Fraction(1, 1)
    assert exact_ratio_sqrt(2, 4) == Fraction(1, 1)
    assert exact_ratio_sqrt(5, 25) == Fraction(1, 1)
    assert exact_ratio_sqrt(1, 16) == Fraction(1, 4)


def test_ratio_sqrt_irrational_value():
    v = exact_ratio_sqrt(1, 2)  # 1/sqrt(2)
    assert isinstance(v, SurdSum)
    assert abs(float(v) - 1 / math.sqrt(2)) < 1e-12
    assert v.squared() == Fraction(1, 2)


def test_comparisons_are_exact():
    a = SurdSum.ratio_sqrt(10, 37 * 37)  # 10/37
    assert a.as_fraction() == Fraction(10, 37)
    assert a > Fraction(1, 4)
    b = SurdSum.ratio_sqrt(4, 37 * 28)  # 4/sqrt(1036)
    assert b < a
    assert b < Fraction(1, 4)
    # sqrt(2) + sqrt(3) vs sqrt(5 + 2*sqrt(6)): equal numbers, equal dicts
    lhs = SurdSum({2: 1}) + SurdSum({3: 1})
    assert lhs.squared() == SurdSum({1: 5, 6: 2})
    # a notoriously close pair: sqrt(51) = 7.1414284285.. vs 7 + 1/7 = 7.1428..
    assert SurdSum({51: 1}) < Fraction(50, 7)
    assert SurdSum({51: 1}) > Fraction(7141428, 1000000)
    assert SurdSum({51: 1}) < Fraction(7141429, 1000000)


def test_sum_ordering_with_mixed_radicands():
    v1 = SurdSum({2: Fraction(1, 3), 3: Fraction(1, 5)})
    v2 = SurdSum({2: Fraction(1, 3), 3: Fraction(1, 5), 1: Fraction(1, 10 ** 12)})
    assert v1 < v2
    assert v2 > v1
    assert not v1 == v2
    assert v1 == SurdSum({3: Fraction(1, 5), 2: Fraction(1, 3)})


def test_times_sqrt_and_scalars():
    v = SurdSum.from_fraction(Fraction(1, 3)).times_sqrt(9)
    assert v == Fraction(1)
    w = SurdSum.ratio_sqrt(1, 3).times_sqrt(3)
    assert w == Fraction(1)
    assert (SurdSum({2: 1}) * Fraction(1, 2)) * 2 == SurdSum({2: 1})
    assert SurdSum({2: 1}) / 2 == SurdSum({2: Fraction(1, 2)})


def test_floor_reciprocal():
    assert floor_reciprocal(Fraction(1, 3)) == 3
    assert floor_reciprocal(Fraction(2, 5)) == 2
    assert floor_reciprocal(Fraction(2, 7)) == 3
    assert floor_reciprocal(SurdSum.ratio_sqrt(1, 2)) == 1  # 1/(1/sqrt 2) = 1.414
    assert floor_reciprocal(SurdSum.ratio_sqrt(1, 9)) == 3
    assert floor_reciprocal(SurdSum.ratio_sqrt(3, 5)) == 0  # 1/(3/sqrt5) = 0.745
    with pytest.raises(ValueError):
        floor_reciprocal(Fraction(0))


def test_leq_reciprocal_log():
    # 2/5 vs 1/(160 ln 125) = 0.00129...
    assert not leq_reciprocal_log(Fraction(2, 5), 125)
    assert leq_reciprocal_log(Fraction(1, 10 ** 6), 125)
    assert leq_reciprocal_log(Fraction(0), 125)
    # base sensitivity: 1/(160 log10 125) = 0.00298, 1/(160 log2 125) = 0.000898
    assert leq_reciprocal_log(Fraction(2, 1000), 125, base="base10")
    assert not leq_reciprocal_log(Fraction(2, 1000), 125, base="base2")
    with pytest.raises(ValueError, match="unknown log base"):
        leq_reciprocal_log(Fraction(0), 125, base="base3")


def test_exact_leq_mixed():
    assert exact_leq(Fraction(1, 3), SurdSum.ratio_sqrt(1, 8))
    assert not exact_leq(SurdSum.ratio_sqrt(1, 8), Fraction(1, 3))


def test_abs_and_neg():
    v = SurdSum({2: -1})
    assert abs(v) == SurdSum({2: 1})
    assert -v == abs(v)
    assert abs(SurdSum.from_fraction(-3)) == Fraction(3)


def test_reports_never_set_the_global_mpmath_precision(monkeypatch):
    """Exact comparisons, thresholds and decimals run in private contexts of
    fixed precision, so a report writes no precision of mpmath.mp or
    mpmath.iv, which worker threads would share."""
    writes = []
    for cls in (type(mpmath.mp), type(mpmath.iv)):
        for name in ("prec", "dps"):
            prop = getattr(cls, name)

            def recording(ctx, value, prop=prop, name=name):
                if ctx is mpmath.mp or ctx is mpmath.iv:
                    writes.append((type(ctx).__name__, name, value))
                prop.fset(ctx, value)

            monkeypatch.setattr(cls, name, property(prop.fget, recording))
    # mixed squared norms: the omegas are surd sums compared by intervals
    M = construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4])
    report = coherence_report(M)
    assert isinstance(report.omega_signed, SurdSum)
    assert report.to_dict()["omega_signed"]["decimal"]
    assert writes == []
