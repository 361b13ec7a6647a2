"""Exact values for coherence metrics.

Column norms of the constructed matrices are square roots of integers, so a
normalized inner product is in general a Z-linear combination of square roots
of squarefree integers divided by an integer.  ``SurdSum`` represents such
numbers exactly: a map from squarefree radicands to rational coefficients.
Sums with distinct squarefree radicands are equal iff their coefficients
agree, so equality is a dictionary comparison.
Values that happen to be rational are returned as ``fractions.Fraction`` so
callers can compare them bit-exactly against closed forms, and are floored,
rounded and converted by Fraction arithmetic.

Everything else reads one integer bracket, lo <= 2^k * sum_r c_r sqrt(r) <= hi
(``_bracket``, one ``math.isqrt`` per term), at k = 64, 128, ... until it
decides.  That always happens.  Square roots of distinct squarefree integers
are linearly independent over Q, so a canonical sum with a term is nonzero,
and an irrational sum is never an integer, a float rounding boundary or a
decimal tie.  And 1/(160 log_b n), n > 1, is transcendental unless log_b n
is rational (Lindemann for ln n, Gelfond-Schneider for an irrational
log_b n), which happens only for n a power of b and is compared exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

_FIRST_BITS = 64  # k of the first bracket; each undecided one doubles it
_DECIMAL_DIGITS = 12
_LOG_BASES = {"natural": None, "base2": 2, "base10": 10}


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (a, b) with n = a**2 * b and b squarefree, for n >= 1.

    Trial division stops once d^3 exceeds the cofactor m: every prime of m
    is then at least d, so m is 1, p, pq or p^2, and an isqrt tells p^2
    from the squarefree rest."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    a, b = 1, 1
    m = n
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            a *= d ** (e // 2)
            if e % 2:
                b *= d
        d += 1 if d == 2 else 2
    r = math.isqrt(m)
    return (a * r, b) if r * r == m else (a, b * m)


def _as_terms(value):
    """Coerce int | Fraction | SurdSum to a radicand->coefficient dict."""
    if isinstance(value, SurdSum):
        return value._terms
    fr = Fraction(value)
    return {1: fr} if fr else {}


def _bracket(terms, k: int) -> tuple[int, int]:
    """Integers lo <= 2^k * sum(coeff * sqrt(rad)) <= hi, hi - lo = len(terms).

    A term contributes floor(2^k |coeff| sqrt(rad)), the isqrt of its floored
    square, or minus one more than that when coeff < 0."""
    lo = 0
    for rad, coeff in terms.items():
        num, den = coeff.numerator, coeff.denominator
        m = math.isqrt((num * num * rad << 2 * k) // (den * den))
        lo += m if num > 0 else -m - 1
    return lo, lo + len(terms)


def _decide(terms, f):
    """f(sum(coeff * sqrt(rad))), for an f of a Fraction that is monotone
    and constant near the sum: f of the sum itself when it is rational, else
    f of the ends of the first bracket at k = _FIRST_BITS, 2k, ... that f
    maps alike."""
    if set(terms) <= {1}:
        return f(terms.get(1, Fraction(0)))
    k = _FIRST_BITS
    while True:
        lo, hi = _bracket(terms, k)
        if (out := f(Fraction(lo, 1 << k))) == f(Fraction(hi, 1 << k)):
            return out
        k *= 2


def _terms_sign(terms) -> int:
    """Sign of sum(coeff * sqrt(rad)), exact."""
    return _decide(terms, lambda x: (x > 0) - (x < 0))


def _spell(x: Fraction) -> str:
    """x rounded half away from zero to _DECIMAL_DIGITS significant digits:
    fixed point when the leading digit is at 10^e, -5 < e < 12, else
    "1.5e+12" or "1.5e-6"; trailing zeros stripped ("3.0", "0.0")."""
    if not x:
        return "0.0"
    e = len(str(abs(x.numerator))) - len(str(x.denominator))
    e -= abs(x) < Fraction(10) ** e  # now 10^e <= |x| < 10^(e + 1)
    digits = math.floor(abs(x) * Fraction(10) ** (_DECIMAL_DIGITS - 1 - e)
                        + Fraction(1, 2))
    if digits == 10 ** _DECIMAL_DIGITS:  # 9.99...95 rounds up to 10
        digits, e = digits // 10, e + 1
    text, point, suffix = str(digits), 1, f"e{e:+d}"
    if -5 < e < _DECIMAL_DIGITS:
        text, point, suffix = "0" * -e + text, max(e, 0) + 1, ""
    fraction = text[point:].rstrip("0") or "0"
    return ("-" if x < 0 else "") + text[:point] + "." + fraction + suffix


class SurdSum:
    """Exact number sum_r c_r * sqrt(r), r squarefree positive: the
    constructor factors its radicands once, and arithmetic keeps that form."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {}
        for rad, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if not coeff:
                continue
            sq, sf = squarefree_decompose(rad)
            canon[sf] = canon.get(sf, Fraction(0)) + coeff * sq
        self._terms = {r: c for r, c in canon.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def _canonical(cls, terms) -> "SurdSum":
        """The sum of terms that need no factoring: squarefree radicands,
        Fraction coefficients.  Zero terms are dropped."""
        out = cls.__new__(cls)
        out._terms = {r: c for r, c in terms.items() if c}
        return out

    @classmethod
    def ratio_sqrt(cls, num, den_radicand: int) -> "SurdSum":
        """The value num / sqrt(den_radicand), den_radicand a positive int."""
        sq, sf = squarefree_decompose(den_radicand)
        # num / (sq * sqrt(sf)) = num * sqrt(sf) / (sq * sf)
        return cls._canonical({sf: Fraction(num) / (sq * sf)})

    # -- queries ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return set(self._terms) <= {1}

    def terms(self) -> tuple:
        """Canonical (radicand, coefficient) pairs, radicands ascending."""
        return tuple(sorted(self._terms.items()))

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return self._terms.get(1, Fraction(0))

    def squared(self) -> Fraction | "SurdSum":
        """Exact square; a Fraction when the square is rational."""
        return as_exact(self * self)

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, sign):
        terms = dict(self._terms)
        for rad, coeff in _as_terms(other).items():
            terms[rad] = terms.get(rad, Fraction(0)) + sign * coeff
        return SurdSum._canonical(terms)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return SurdSum._canonical({r: -c for r, c in self._terms.items()})

    def __abs__(self):
        return -self if _terms_sign(self._terms) < 0 else self

    def __mul__(self, scalar):
        if isinstance(scalar, SurdSum):
            # sqrt(r1) sqrt(r2) = g sqrt((r1/g)(r2/g)), g = gcd(r1, r2); the
            # two cofactors are coprime and squarefree, so is their product
            out = {}
            for r1, c1 in self._terms.items():
                for r2, c2 in scalar._terms.items():
                    g = math.gcd(r1, r2)
                    r = r1 // g * (r2 // g)
                    out[r] = out.get(r, Fraction(0)) + c1 * c2 * g
            return SurdSum._canonical(out)
        fr = Fraction(scalar)
        return SurdSum._canonical({r: c * fr for r, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        fr = Fraction(scalar)
        return SurdSum._canonical({r: c / fr for r, c in self._terms.items()})

    # -- comparisons -------------------------------------------------------

    def _diff_sign(self, other) -> int:
        return _terms_sign(self._combine(other, -1)._terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, SurdSum)):
            return self._terms == _as_terms(other)  # both canonical
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash(tuple(sorted(self._terms.items())))

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    def __bool__(self):
        return bool(self._terms)

    # -- rendering -----------------------------------------------------------

    def __float__(self):
        return _decide(self._terms, float)  # float(Fraction) rounds correctly

    def __repr__(self):
        if not self._terms:
            return "SurdSum(0)"
        parts = [f"{c}*sqrt({r})" if r != 1 else f"{c}"
                 for r, c in sorted(self._terms.items())]
        return "SurdSum(" + " + ".join(parts) + ")"


def as_exact(value) -> Fraction | SurdSum:
    if isinstance(value, SurdSum):
        return value.as_fraction() if value.is_rational else value
    return Fraction(value)


def exact_decimal(value) -> str:
    """value rounded and spelt as _spell does, from its exact value."""
    return _decide(_as_terms(value), _spell)


def floor_reciprocal(value) -> int:
    """floor(1/value) for a positive exact value, computed exactly."""
    terms = _as_terms(value)
    if _terms_sign(terms) <= 0:
        raise ValueError("value must be positive")
    # a bracket end x <= 0 maps to None, the upper end never does
    return _decide(terms, lambda x: math.floor(1 / x) if x > 0 else None)


def _log_bracket(n: int, k: int) -> tuple[int, int]:
    """Integers lo <= 2^k ln(n) <= hi for an integer n >= 1.

    ln n = 2a atanh(1/3) + 2 atanh(z) for n = 2^a m, 1 <= m < 2 and
    z = (m - 1)/(m + 1) < 1/3.  Each series sum_j z^(2j+1)/(2j+1) is summed
    with its terms floored, up to the first term below 2^-k; the terms shrink
    by z^2 <= 1/9 or more, so the tail from there is below 9/8 * 2^-k
    (Brent and Zimmermann, Modern Computer Arithmetic, 2010, ch. 4)."""
    a = n.bit_length() - 1
    lo = hi = 0
    for weight, num, den in ((2 * a, 1, 3), (2, n - (1 << a), n + (1 << a))):
        part = j = 0
        top, bottom = num << k, den  # 2^k num^(2j+1), den^(2j+1)
        while term := top // (bottom * (2 * j + 1)):
            part, j = part + term, j + 1
            top, bottom = top * num * num, bottom * den * den
        lo, hi = lo + weight * part, hi + weight * (part + j + 2)
    return lo, hi


def leq_reciprocal_log(value, n: int, base: str = "natural") -> bool:
    """Exact truth of value <= 1 / (160 * log_base(n)).

    The factor 160 is fixed: it is the constant of the strong-coherence
    condition mu <= 1/(160 log N) and of the balanced certificate's
    T <= |B|/(160 log q).  When n = b^m the right side is 1/(160 m);
    otherwise each (rational) end x of value's brackets is compared as
    160 x ln n <= ln b (ln b = 1 for the natural base) on brackets of both
    logs.
    """
    if n <= 1:
        raise ValueError("n must be > 1")
    if base not in _LOG_BASES:
        raise ValueError(f"unknown log base {base!r}")
    b = _LOG_BASES[base]
    if b and b ** (m := round(math.log(n, b))) == n:
        return _decide(_as_terms(value), lambda x: x <= Fraction(1, 160 * m))

    def below(x):  # for a rational x, so 160 x ln n != ln b
        k = _FIRST_BITS
        while x > 0:
            log_lo, log_hi = _log_bracket(n, k)
            b_lo, b_hi = _log_bracket(b, k) if b else (1 << k, 1 << k)
            if 160 * x * log_hi < b_lo:
                return True
            if 160 * x * log_lo > b_hi:
                return False
            k *= 2
        return True

    return _decide(_as_terms(value), below)


def exact_leq(a, b) -> bool:
    """a <= b for mixed Fraction / SurdSum operands, exact."""
    return as_exact(a) <= as_exact(b)
