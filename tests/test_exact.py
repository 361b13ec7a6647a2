import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import agrip
from agrip.exact import (
    SurdSum,
    as_exact,
    exact_decimal,
    exact_leq,
    floor_reciprocal,
    leq_reciprocal_log,
    squarefree_decompose,
)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)
    for n in range(1, 400):
        a, b = squarefree_decompose(n)
        assert a * a * b == n
        assert all(b % (d * d) for d in range(2, int(math.isqrt(b)) + 1))
    # primes near 2^24: p^2 and pq are told apart after ~256 divisions
    p, q = 16_777_337, 16_834_673
    assert squarefree_decompose(p * p) == (p, 1)
    assert squarefree_decompose(p * q) == (1, p * q)
    assert squarefree_decompose(p * p * 12) == (2 * p, 3)
    with pytest.raises(ValueError, match="positive"):
        squarefree_decompose(0)


def _decompose_to_the_square_root(n):
    """(a, b), n = a^2 b, b squarefree, by trial division up to sqrt(n)."""
    a, b, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            a, n = a * d, n // (d * d)
        if n % d == 0:
            b, n = b * d, n // d
        d += 1
    return a, b * n


_PRIMES = [p for p in range(2, 3000)
           if all(p % d for d in range(2, math.isqrt(p) + 1))]
_near_primes = st.integers(0, len(_PRIMES) - 3).flatmap(  # 3 close primes
    lambda k: st.lists(st.sampled_from(_PRIMES[k:k + 3]), min_size=1,
                       max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(lambda a, b: a * a * b, st.integers(1, 10 ** 4),
              st.integers(1, 10 ** 6)),
    st.sampled_from(_PRIMES).map(lambda p: p * p),
    _near_primes.map(math.prod)))  # p, pq, p^2, pqr, p^2 q, p^3
def test_squarefree_decompose_matches_a_square_root_bound(n):
    assert squarefree_decompose(n) == _decompose_to_the_square_root(n)


def test_ratio_sqrt_rational_cases():
    assert as_exact(SurdSum.ratio_sqrt(3, 9)) == Fraction(1, 1)
    assert as_exact(SurdSum.ratio_sqrt(2, 4)) == Fraction(1, 1)
    assert as_exact(SurdSum.ratio_sqrt(5, 25)) == Fraction(1, 1)
    assert as_exact(SurdSum.ratio_sqrt(1, 16)) == Fraction(1, 4)


def test_ratio_sqrt_irrational_value():
    v = as_exact(SurdSum.ratio_sqrt(1, 2))  # 1/sqrt(2)
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
    v = SurdSum({1: Fraction(1, 3)}) * SurdSum({9: 1})
    assert v == Fraction(1)
    w = SurdSum.ratio_sqrt(1, 3) * SurdSum({3: 1})
    assert w == Fraction(1)
    assert (SurdSum({2: 1}) * Fraction(1, 2)) * 2 == SurdSum({2: 1})
    for m in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            SurdSum({2: 1}) * SurdSum({m: 1})
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
    assert abs(SurdSum({1: -3})) == Fraction(3)


# mpmath is a test-only oracle: a private context at 150 digits, far more
# than any value below needs to be told from its neighbours
_MP = mpmath.MPContext()
_MP.dps = 150
_RADICANDS = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 30, 105, 1001]


def _oracle(value):
    return sum((_MP.mpf(c.numerator) / c.denominator * _MP.sqrt(r)
                for r, c in value.terms()), _MP.mpf(0))


def _sqrt2_convergent(i):
    """(p, q) with p/q the i-th convergent of sqrt(2): 1/1, 3/2, 7/5, ..."""
    p, q = 1, 1
    for _ in range(i):
        p, q = p + 2 * q, p + q
    return p, q


def _near_cancellation(i, scale):
    """scale (p - q sqrt(2)) for the i-th convergent p/q, about
    scale/(2 sqrt(2) q) from zero."""
    p, q = _sqrt2_convergent(i)
    return SurdSum({1: scale * p, 2: -scale * q})


coefficients = st.fractions(min_value=-10 ** 9, max_value=10 ** 9,
                            max_denominator=10 ** 9).filter(bool)
surd_sums = st.one_of(
    st.dictionaries(st.sampled_from(_RADICANDS), coefficients, min_size=1,
                    max_size=5).map(SurdSum),
    st.builds(_near_cancellation, st.integers(0, 60), coefficients))


wide_sums = st.dictionaries(
    st.integers(1, 10 ** 4),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 999)),
    max_size=4).map(SurdSum)


def _naive(*terms):
    """SurdSum of (radicand, coefficient) pairs, canonicalized in full."""
    out = {}
    for r, c in terms:
        out[r] = out.get(r, 0) + c
    return SurdSum(out)


@settings(max_examples=40, deadline=None)
@given(wide_sums, wide_sums, st.integers(1, 10 ** 6))
def test_arithmetic_is_the_canonical_form_of_the_naive_terms(x, y, m):
    cases = [
        (x * y, _naive(*((r1 * r2, c1 * c2) for r1, c1 in x.terms()
                         for r2, c2 in y.terms()))),
        (x + y, _naive(*x.terms(), *y.terms())),
        (x - y, _naive(*x.terms(), *((r, -c) for r, c in y.terms()))),
        (x * SurdSum({m: 1}), _naive(*((r * m, c) for r, c in x.terms()))),
    ]
    for got, want in cases:
        assert got.terms() == want.terms()


@settings(max_examples=50, deadline=None)
@given(surd_sums)
def test_signs_and_floats_match_a_150_digit_oracle(value):
    exact = _oracle(value)
    assert (value > 0, value < 0) == (exact > 0, exact < 0)
    assert float(value) == float(exact)


@settings(max_examples=50, deadline=None)
@given(st.one_of(surd_sums, coefficients.map(lambda x: SurdSum({1: x}))))
def test_exact_decimal_matches_a_150_digit_oracle(value):
    if value.is_rational:  # an exact 13th-digit tie is not the oracle's case
        x = abs(value.as_fraction())
        e = math.floor(math.log10(x))  # the leading digit's place, or next to it
        assume(all(x * Fraction(10) ** (11 - e + d) % 1 != Fraction(1, 2)
                   for d in (-1, 0, 1)))
    assert exact_decimal(value) == _MP.nstr(_oracle(value), 12)


_THRESHOLD_N = [2, 3, 10, 125, 4096, 65536]
_BASES = {"natural": None, "base2": 2, "base10": 10}


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_THRESHOLD_N), st.sampled_from(sorted(_BASES)),
       st.integers(15, 60), st.integers(-1000, 1000).filter(bool),
       st.one_of(st.none(), surd_sums))
def test_threshold_verdicts_match_a_150_digit_oracle(n, base, digits, step,
                                                     surd):
    log_n = _MP.log(n) if _BASES[base] is None else _MP.log(n, _BASES[base])
    threshold = 1 / (160 * log_n)
    if surd is None:  # a rational within 10^-15 of the threshold
        near = Fraction(int(_MP.floor(threshold * 10 ** 40)), 10 ** 40)
        value = SurdSum({1: near + Fraction(step, 10 ** digits)})
    else:
        value = surd
    assert leq_reciprocal_log(value, n, base) == (_oracle(value) <= threshold)


def test_sign_of_a_383_digit_near_cancellation():
    p, q = _sqrt2_convergent(1000)
    assert len(str(p)) == 383
    assert SurdSum({1: p, 2: -q}) < 0
    assert SurdSum({1: -p, 2: q}) > 0


def test_thresholds_at_exact_powers_of_the_base():
    # log2 4096 = 12 and log10 1000 = 3: the right sides are 1/1920, 1/480
    assert leq_reciprocal_log(Fraction(1, 1920), 4096, "base2")
    assert not leq_reciprocal_log(Fraction(1, 1920) + Fraction(1, 10 ** 30),
                                  4096, "base2")
    assert leq_reciprocal_log(Fraction(1, 480), 1000, "base10")
    assert not leq_reciprocal_log(SurdSum({2: Fraction(1, 678)}), 1000,
                                  "base10")  # sqrt(2)/678 > 1/480


def test_float_is_correctly_rounded_under_cancellation():
    assert float(SurdSum({1: 2140758220993, 2: -1513744654945})) == \
        -2.335621066857671e-13


def test_exact_decimal_rounds_ties_away_from_zero():
    assert exact_decimal(Fraction(-30689956301, 80)) == "-383624453.763"
    assert exact_decimal(Fraction(1, 2 ** 18)) == "3.81469726563e-6"
    assert exact_decimal(Fraction(10 ** 12)) == "1.0e+12"
    assert exact_decimal(3) == "3.0"
    assert exact_decimal(Fraction(0)) == "0.0"
    assert exact_decimal(Fraction(99999999999995, 10 ** 13)) == "10.0"


_MIXED_NORM_REPORT = """
import json, sys
import agrip.cli
from agrip.constructions import construction_a_simple_poles
from agrip.fields import make_field
from agrip.matrix import coherence_report

# mixed squared norms: the omegas are surd sums, compared and rendered
M = construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4])
report = coherence_report(M).to_dict()
print(json.dumps([report["omega_signed"]["surd_terms"] != [],
                  sorted(m for m in sys.modules if m.split(".")[0] == "mpmath")]))
"""


def test_reports_never_import_mpmath():
    """mpmath is a test-only oracle: in a fresh process, importing the CLI
    and rendering a mixed-norm report leave it unloaded."""
    src = os.path.dirname(os.path.dirname(agrip.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _MIXED_NORM_REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[true, []]"
