"""Exact arithmetic in prime fields F_p and extension fields F_{p^s}.

Elements are stored fully reduced in polynomial representation: a length-s
vector of residues mod p (coefficients of 1, x, ..., x^{s-1}), encoded as the
integer code sum(c_i * p**i).  The enumeration order of a field is ascending
code, so F_p is enumerated 0, 1, ..., p-1 and extension fields run through
coefficient vectors lexicographically from the constant coefficient up.

Reproducibility conventions:

* default modulus: the first monic irreducible of degree s in ascending code
  order of its lower coefficients;
* theta: the first element of multiplicative order p**s - 1 in enumeration
  order;
* two fields are equal when p, s and the modulus agree.

An extension field multiplies through one (exp, log) pair of numpy arrays,
built on first use by repeated doubling of the known powers of theta; the
scalar and the array operations read the same pair.

Field orders are capped at 2**20 by policy.  make_field compares p and s
with the cap before any other work, so an oversized descriptor is refused
at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldTooLarge,
    PreconditionError,
    ReducibleModulus,
)

FIELD_ORDER_CAP = 1 << 20
_NP_TABLE_CAP = 1 << 10  # q x q addition tables for p odd up to this q


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _distinct_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- polynomial arithmetic over F_p (ascending coefficient tuples) -------

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, modulus, p):
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    s = len(modulus) - 1
    for i in range(len(prod) - 1, s - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(s):
                prod[i - s + j] = (prod[i - s + j] - c * modulus[j]) % p
    return _poly_trim(tuple(prod[:s]))


def _poly_powmod(base, e, modulus, p):
    result = (1,)
    acc = _poly_trim(tuple(base))
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, modulus, p)
        acc = _poly_mulmod(acc, acc, modulus, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(tuple(a)), _poly_trim(tuple(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        monic = tuple((c * inv) % p for c in b)
        rem = list(a)
        while len(rem) >= len(monic) and _poly_trim(tuple(rem)):
            rem = list(_poly_trim(tuple(rem)))
            if len(rem) < len(monic):
                break
            c = rem[-1]
            shift = len(rem) - len(monic)
            for j, mj in enumerate(monic):
                rem[shift + j] = (rem[shift + j] - c * mj) % p
            rem = list(_poly_trim(tuple(rem)))
        a, b = monic, _poly_trim(tuple(rem))
    return a


def _is_irreducible(modulus, p) -> bool:
    """Monic modulus (ascending coefficients, length s+1) irreducible over F_p."""
    s = len(modulus) - 1
    if s == 1:
        return True
    x = (0, 1)
    if _poly_powmod(x, p ** s, modulus, p) != x:
        return False
    for ell in _distinct_prime_factors(s):
        xp = _poly_powmod(x, p ** (s // ell), modulus, p)
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(tuple(diff), modulus, p)
        if len(g) > 1:
            return False
    return True


class FieldSpec:
    """Immutable description of F_{p^s} with its arithmetic tables.

    Build through make_field(); instances are safe to share across threads.
    """

    __slots__ = ("p", "s", "q", "modulus", "theta", "_exp_log",
                 "_np_digits", "_np_sum", "_np_negation")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = modulus
        self._exp_log = self._np_digits = self._np_sum = self._np_negation = None
        self.theta = self._find_theta()

    # -- construction helpers ------------------------------------------

    def _find_theta(self) -> int:
        factors = _distinct_prime_factors(self.q - 1) if self.q > 2 else []
        for code in range(1, self.q):
            if all(self._pow_raw(code, (self.q - 1) // ell) != 1
                   for ell in factors):
                return code
        raise AssertionError("no primitive element found")

    def _log_tables(self):
        """(exp, log, exp view, log view) of an extension field (s > 1).

        exp[log a + log b] = a b for all codes: log[0] = S = 2(q - 1), exp
        holds the powers of theta twice, then zeros up to index 2S.  The
        arrays serve the numpy ops; memoryviews of the same memory serve the
        scalar ops, which index them about 3x faster than the arrays.  Built
        on first use and stored in one attribute, so a thread sees all of it
        or nothing.
        """
        if self._exp_log is None:
            exp, log = self._build_log_tables()
            self._exp_log = exp, log, memoryview(exp), memoryview(log)
        return self._exp_log

    def _build_log_tables(self):
        p, n = self.p, self.q - 1
        weights = p ** np.arange(self.s, dtype=np.int64)
        # row j holds the digits of x^j theta, so digits(a theta^k) =
        # digits(a) @ step^k mod p
        step = np.array([self.decode(self._mul_raw(p ** j, self.theta))
                         for j in range(self.s)], dtype=np.int64)
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        exp[0] = 1
        known = 1  # exp[:known] holds theta^0 ... theta^(known - 1)
        block = 1 << 16  # rows of digits at a time, so memory stays bounded
        while known < n:
            count = min(known, n - known)
            for lo in range(0, count, block):
                hi = min(lo + block, count)
                digits = exp[lo:hi, None] // weights % p
                exp[known + lo:known + hi] = digits @ step % p @ weights
            known += count
            step = step @ step % p
        counts = np.bincount(exp[:n], minlength=n + 1)
        if counts[0] or (counts[1:] != 1).any():
            raise AssertionError("powers of theta miss a nonzero code")
        exp[n:2 * n] = exp[:n]
        log = np.empty(n + 1, dtype=np.int64)
        log[exp[:n]] = np.arange(n)
        log[0] = 2 * n
        return exp, log

    # -- codes ------------------------------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.s):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def encode(self, coeffs) -> int:
        if len(coeffs) > self.s:
            raise PreconditionError("coefficient vector too long")
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    # -- raw arithmetic on codes ---------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b  # base-2 digit vectors, added digit-wise mod 2
        out, mult = 0, 1
        for _ in range(self.s):
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.s == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        out, mult = 0, 1
        for _ in range(self.s):
            out += ((-a) % self.p) * mult
            a //= self.p
            mult *= self.p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        prod = _poly_mulmod(self.decode(a), self.decode(b), self.modulus, self.p)
        return self.encode(prod)

    def mul(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a * b) % self.p
        _, _, exp, log = self._exp_log or self._log_tables()
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        _, _, exp, log = self._exp_log or self._log_tables()
        return exp[self.q - 1 - log[a]]

    def _pow_raw(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.s == 1:
            return pow(a, e, self.p)
        poly = _poly_powmod(self.decode(a), e, self.modulus, self.p)
        return self.encode(poly)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.s == 1:
            return pow(a, e, self.p)
        _, _, exp, log = self._exp_log or self._log_tables()
        return exp[log[a] * e % (self.q - 1)]

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^p + ... + a^{p^{s-1}}, as an integer in [0, p)."""
        if self.s == 1:
            return a % self.p
        acc = 0
        frob = a
        for _ in range(self.s):
            acc = self.add(acc, frob)
            frob = self.pow(frob, self.p)
        if acc >= self.p:
            raise AssertionError("trace left the prime subfield")
        return acc

    # -- vectorized helpers (numpy code arrays) -----------------------------

    def np_digits(self) -> np.ndarray:
        """(q, s) array of base-p digits of every code."""
        if self._np_digits is None:
            codes = np.arange(self.q, dtype=np.int64)
            digs = np.empty((self.q, self.s), dtype=np.int64)
            for i in range(self.s):
                digs[:, i] = codes % self.p
                codes //= self.p
            self._np_digits = digs
        return self._np_digits

    def _np_from_digits(self, digits) -> np.ndarray:
        """Codes of base-p digit arrays (last axis), each digit taken mod p."""
        return (digits % self.p) @ self.p ** np.arange(self.s, dtype=np.int64)

    def _np_add_tables(self):
        """The q x q sum and q-entry negation tables (p odd, s > 1)."""
        if self._np_sum is None:
            digs = self.np_digits()
            self._np_negation = self._np_from_digits(-digs)
            self._np_sum = self._np_from_digits(digs[:, None] + digs)
        return self._np_sum, self._np_negation

    def np_add(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if self.p == 2:
            # codes are base-2 digit vectors, added digit-wise mod 2
            return xs ^ ys
        if self.s == 1:
            return (xs + ys) % self.p
        if self.q <= _NP_TABLE_CAP:
            return self._np_add_tables()[0][xs, ys]
        digs = self.np_digits()
        return self._np_from_digits(digs[xs] + digs[ys])

    def np_neg(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        if self.p == 2:
            return xs.copy()
        if self.s == 1:
            return (-xs) % self.p
        if self.q <= _NP_TABLE_CAP:
            return self._np_add_tables()[1][xs]
        return self._np_from_digits(-self.np_digits()[xs])

    def np_sub(self, xs, ys) -> np.ndarray:
        if self.s == 1 and self.p != 2:
            return (np.asarray(xs, dtype=np.int64) - ys) % self.p
        return self.np_add(xs, ys if self.p == 2 else self.np_neg(ys))

    def np_trace(self, codes) -> np.ndarray:
        """Tr of every code, as integers in [0, p).

        Tr is F_p-linear, so Tr(sum_i d_i x^i) = sum_i d_i Tr(x^i) mod p
        over the base-p digits d_i of the code.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if self.s == 1:
            return codes % self.p
        out = np.zeros_like(codes)
        for i in range(self.s):
            digit = (codes // self.p ** i) % self.p
            out += digit * self.trace(self.p ** i)
        return out % self.p

    def np_mul(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if self.s == 1:
            return (xs * ys) % self.p
        exp, log, _, _ = self._log_tables()
        return exp[log[xs] + log[ys]]

    def np_pow(self, xs, e: int) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        if e == 0:
            return np.ones_like(xs)
        if self.s == 1:
            return self._np_pow_prime(xs, e)
        exp, log, _, _ = self._log_tables()
        out = np.zeros_like(xs)
        nz = xs != 0
        out[nz] = exp[log[xs[nz]] * (e % (self.q - 1)) % (self.q - 1)]
        return out

    def _np_pow_prime(self, xs, e):
        out = np.ones_like(xs)
        acc = xs % self.p
        while e:
            if e & 1:
                out = (out * acc) % self.p
            acc = (acc * acc) % self.p
            e >>= 1
        return out

    # -- identity -----------------------------------------------------------

    @property
    def descriptor(self) -> str:
        return f"{self.p}^{self.s}/{','.join(map(str, self.modulus))}"

    def __eq__(self, other):
        if isinstance(other, FieldSpec):
            return (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        return f"FieldSpec(F_{self.q}, modulus={list(self.modulus)}, theta={self.theta})"


def _default_modulus(p: int, s: int) -> tuple[int, ...]:
    if s == 1:
        return (0, 1)
    for code in range(p ** s):
        lower = []
        c = code
        for _ in range(s):
            lower.append(c % p)
            c //= p
        modulus = tuple(lower) + (1,)
        if _is_irreducible(modulus, p):
            return modulus
    raise AssertionError("no irreducible modulus found")


@lru_cache(maxsize=None)
def _make_field_cached(p: int, s: int, modulus: tuple[int, ...] | None) -> FieldSpec:
    if modulus is None:
        modulus = _default_modulus(p, s)
    return FieldSpec(p, s, modulus)


def make_field(p: int, s: int = 1, modulus=None) -> FieldSpec:
    """Build F_{p^s}; a deterministic modulus and theta are found if omitted."""
    if isinstance(p, int) and p > FIELD_ORDER_CAP:
        raise FieldTooLarge(f"p = {p} exceeds the {FIELD_ORDER_CAP} policy cap")
    if isinstance(s, int) and s > FIELD_ORDER_CAP.bit_length():
        raise FieldTooLarge(f"p^s with s = {s} exceeds the {FIELD_ORDER_CAP} policy cap")
    if not isinstance(p, int) or not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    if not isinstance(s, int) or s < 1:
        raise PreconditionError(f"extension degree must be >= 1, got {s}")
    if p ** s > FIELD_ORDER_CAP:
        raise FieldTooLarge(f"p^s = {p ** s} exceeds the {FIELD_ORDER_CAP} policy cap")
    if modulus is not None:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != s + 1:
            raise PreconditionError(f"modulus must have degree {s}")
        if modulus[-1] != 1:
            raise PreconditionError("modulus must be monic")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
    return _make_field_cached(p, s, modulus)


def parse_descriptor(text: str) -> FieldSpec:
    """Parse "p", "p^s", or "p^s/c0,c1,...,cs" into a field."""
    spec = text.strip()
    modulus = None
    try:
        if "/" in spec:
            spec, mod_text = spec.split("/", 1)
            modulus = [int(c) for c in mod_text.split(",")]
        if "^" in spec:
            p_text, s_text = spec.split("^", 1)
            p, s = int(p_text), int(s_text)
        else:
            p, s = int(spec), 1
    except ValueError:
        raise PreconditionError(f"malformed field descriptor {text!r}") from None
    return make_field(p, s, modulus)


@lru_cache(maxsize=None)
def _extension_cached(p, s, modulus, k):
    field = make_field(p, s, modulus if s > 1 else None)
    ext = make_field(p, s * k)
    if s == 1:
        emb = np.arange(field.q, dtype=np.int64)
        return ext, emb
    # embed via the first root of the base modulus in the extension
    root = None
    for cand in range(ext.q):
        acc = 0
        for c in reversed(field.modulus):
            acc = ext.add(ext.mul(acc, cand), c % p)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise AssertionError("base modulus has no root in the extension")
    emb = np.empty(field.q, dtype=np.int64)
    for code in range(field.q):
        acc = 0
        for c in reversed(field.decode(code)):
            acc = ext.add(ext.mul(acc, root), c)
        emb[code] = acc
    return ext, emb


def extension_with_embedding(field: FieldSpec, k: int):
    """Return (F_{q^k}, emb) with emb an array mapping base codes in.

    The embedding is deterministic: the image of x is the first root of the
    base modulus in the extension's enumeration order.
    """
    if k == 1:
        return field, np.arange(field.q, dtype=np.int64)
    return _extension_cached(field.p, field.s,
                             field.modulus if field.s > 1 else None, k)
