"""Exact values for coherence metrics.

Column norms of the constructed matrices are square roots of integers, so a
normalized inner product is in general a Z-linear combination of square roots
of squarefree integers divided by an integer.  ``SurdSum`` represents such
numbers exactly: a map from squarefree radicands to rational coefficients.
Sums with distinct squarefree radicands are equal iff their coefficients
agree, so equality is a dictionary comparison; strict order is decided by
interval arithmetic at escalating precision, which terminates because a
nonzero difference is a nonzero algebraic number.

Values that happen to be rational are returned as ``fractions.Fraction`` so
callers can compare them bit-exactly against closed forms.

Every mpmath evaluation runs in a private context of fixed precision, one
per (context type, dps), created once and never changed, so worker threads
may share them; the precision of the global ``mpmath.mp`` and ``mpmath.iv``
is never set.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext
from mpmath.ctx_mp import MPContext

_SIGN_DPS_LADDER = (40, 80, 160, 320, 640)
_DECIMAL_DIGITS = 12  # digits of a rendered decimal, computed at 10 more
_LOG_BASES = {"natural": None, "base2": 2, "base10": 10}


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (a, b) with n = a**2 * b and b squarefree, for n >= 1."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    a, b = 1, 1
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            a *= d ** (e // 2)
            if e % 2:
                b *= d
        d += 1 if d == 2 else 2
    b *= m
    return a, b


def _as_terms(value):
    """Coerce int | Fraction | SurdSum to a radicand->coefficient dict."""
    if isinstance(value, SurdSum):
        return dict(value._terms)
    fr = Fraction(value)
    return {1: fr} if fr else {}


def _evaluate(terms, ctx):
    """sum(coeff * sqrt(rad)) in ctx: an mpf, or an interval enclosing it."""
    total = ctx.mpf(0)
    for rad, coeff in terms.items():
        t = ctx.mpf(coeff.numerator) / coeff.denominator
        if rad != 1:
            t *= ctx.sqrt(rad)
        total += t
    return total


@functools.cache
def _context(kind, dps: int):
    """The private kind() context at dps digits; it is never changed."""
    ctx = kind()
    ctx.dps = dps
    return ctx


def _refined_sign(interval, what: str) -> int:
    """Sign of the number that interval(ctx) encloses, refined up the ladder.

    interval is evaluated in the private interval context of each rung until
    its enclosure excludes 0; the number must be nonzero.
    """
    for dps in _SIGN_DPS_LADDER:
        iv = interval(_context(MPIntervalContext, dps))
        if iv.a > 0:
            return 1
        if iv.b < 0:
            return -1
    raise ArithmeticError(f"could not separate {what}")


def _terms_sign(terms) -> int:
    """Sign of sum(coeff * sqrt(rad)), exact."""
    if not terms:
        return 0
    signs = {c > 0 for c in terms.values()}
    if signs == {True}:
        return 1
    if signs == {False}:
        return -1
    return _refined_sign(lambda ctx: _evaluate(terms, ctx),
                         f"surd sum from zero: {terms}")


class SurdSum:
    """Exact number of the form sum_r c_r * sqrt(r), r squarefree positive."""

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
    def from_fraction(cls, value) -> "SurdSum":
        return cls({1: Fraction(value)})

    @classmethod
    def ratio_sqrt(cls, num, den_radicand: int) -> "SurdSum":
        """The value num / sqrt(den_radicand), den_radicand a positive int."""
        if den_radicand <= 0:
            raise ValueError("radicand must be positive")
        sq, sf = squarefree_decompose(den_radicand)
        # num / (sq * sqrt(sf)) = num * sqrt(sf) / (sq * sf)
        return cls({sf: Fraction(num) / (sq * sf)})

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
        return SurdSum(terms)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return SurdSum({r: -c for r, c in self._terms.items()})

    def __abs__(self):
        return -self if _terms_sign(self._terms) < 0 else self

    def __mul__(self, scalar):
        if isinstance(scalar, SurdSum):
            out = {}
            for r1, c1 in self._terms.items():
                for r2, c2 in scalar._terms.items():
                    s = SurdSum({r1 * r2: c1 * c2})
                    for r, c in s._terms.items():
                        out[r] = out.get(r, Fraction(0)) + c
            return SurdSum(out)
        fr = Fraction(scalar)
        return SurdSum({r: c * fr for r, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        fr = Fraction(scalar)
        return SurdSum({r: c / fr for r, c in self._terms.items()})

    def times_sqrt(self, m: int) -> "SurdSum":
        """Exact product with sqrt(m), m a positive integer."""
        if m <= 0:
            raise ValueError("radicand must be positive")
        return SurdSum({r * m: c for r, c in self._terms.items()})

    # -- comparisons -------------------------------------------------------

    def _diff_sign(self, other) -> int:
        terms = dict(self._terms)
        for rad, coeff in _as_terms(other).items():
            terms[rad] = terms.get(rad, Fraction(0)) - coeff
        terms = {r: c for r, c in terms.items() if c}
        return _terms_sign(terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, SurdSum)):
            return self._diff_sign(other) == 0
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
        return float(_evaluate(self._terms, _context(MPContext, 40)))

    def __repr__(self):
        if not self._terms:
            return "SurdSum(0)"
        parts = [f"{c}*sqrt({r})" if r != 1 else f"{c}"
                 for r, c in sorted(self._terms.items())]
        return "SurdSum(" + " + ".join(parts) + ")"


def exact_ratio_sqrt(num: int, den_radicand: int) -> Fraction | SurdSum:
    """num / sqrt(den_radicand) as a Fraction when exact, else a SurdSum."""
    s = SurdSum.ratio_sqrt(num, den_radicand)
    return s.as_fraction() if s.is_rational else s


def as_exact(value) -> Fraction | SurdSum:
    if isinstance(value, SurdSum):
        return value.as_fraction() if value.is_rational else value
    return Fraction(value)


def exact_decimal(value) -> str:
    """value to _DECIMAL_DIGITS significant digits."""
    ctx = _context(MPContext, _DECIMAL_DIGITS + 10)
    return ctx.nstr(_evaluate(_as_terms(value), ctx), _DECIMAL_DIGITS)


def floor_reciprocal(value) -> int:
    """floor(1/value) for a positive exact value, computed exactly."""
    if isinstance(value, Fraction) or not isinstance(value, SurdSum):
        fr = Fraction(value)
        if fr <= 0:
            raise ValueError("value must be positive")
        return fr.denominator // fr.numerator
    if _terms_sign(value._terms) <= 0:
        raise ValueError("value must be positive")
    guess = int(1.0 / float(value))
    # verify floor(1/v) = k, i.e. v <= 1/k and v > 1/(k+1), with exact compares
    k = max(guess - 1, 0)
    while True:
        if k == 0 or value <= Fraction(1, k):
            if value > Fraction(1, k + 1):
                return k
            k += 1
        else:
            k -= 1


def leq_reciprocal_log(value, n: int, base: str = "natural") -> bool:
    """Exact truth of value <= 1 / (160 * log_base(n)).

    The factor 160 is fixed: it is the constant of the strong-coherence
    condition mu <= 1/(160 log N) and of the balanced certificate's
    T <= |B|/(160 log q).  The right side is transcendental for integer n > 1 while
    the left side is algebraic, so the comparison is decidable by interval
    refinement.
    """
    if n <= 1:
        raise ValueError("n must be > 1")
    if base not in _LOG_BASES:
        raise ValueError(f"unknown log base {base!r}")
    terms = _as_terms(value)
    if not terms:
        return True
    divisor = _LOG_BASES[base]

    def difference(ctx):
        log_n = ctx.log(ctx.mpf(n))
        if divisor is not None:
            log_n = log_n / ctx.log(ctx.mpf(divisor))
        return _evaluate(terms, ctx) - ctx.mpf(1) / (ctx.mpf(160) * log_n)

    return _refined_sign(difference, "value from 1/(160*log n)") < 0


def exact_leq(a, b) -> bool:
    """a <= b for mixed Fraction / SurdSum operands, exact."""
    return as_exact(a) <= as_exact(b)
