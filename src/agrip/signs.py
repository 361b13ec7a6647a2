"""Sign assignments for the binary graph-indicator matrices.

Three schemes:

* all_ones: the unsigned construction.
* random_pm1(seed): every 1 flipped to -1 independently with probability 1/2,
  drawn from a per-column substream keyed by (seed, column index) so that the
  result does not depend on construction order.  The stream of column j is
  numpy's default_rng([seed, j]).integers(0, 2): SeedSequence([seed, j])
  seeds a PCG64 (O'Neill 2014: 128-bit LCG, XSL-RR output), and the bits are
  the top bit of each 32-bit half of its outputs, low half first (Lemire's
  bounded draw for a range of 2, which never rejects).  The package computes
  this stream itself, for all columns at once, so a numpy stream change
  (NEP 19) cannot alter the signed matrices.
* balanced: the derandomized scheme, balanced_matrix(design).  The first
  floor(|B|/2) points, in enumeration order, are red and the rest blue, and
  the entry of column (a_1 ... a_T) at point b is (-1)^(lambda(b) + parity)
  where lambda is 1 on red points and 0 on blue points, and parity is the
  parity of the integer Tr(a_1 + ... + a_T) in {0, ..., p-1} for odd p.  For
  p = 2 the parity is the Hamming-weight parity of (Tr(a_i)) over all i
  except a per-point pivot index, the first basis function not vanishing at
  b.  The signs depend only on the coefficient digits and the pivots, never
  on the values, so they are laid over the arrays of evaluation_matrix.

For odd p the parity is constant along each column, so G_fg =
+-#zeros(f - g) and the coherence equals the unsigned agreement maximum.  For
p = 2 it is F_2-linear in the coefficients at each point, so G_fg depends on
f + g only, and signs can cancel within an agreement set.  Either way every
Gram row is, in absolute value, a permutation of the zero function's row,
which is how matrix._function_space_scan reports a balanced matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NoNonvanishingBasisFunction,
    NonBinaryInput,
    PreconditionError,
)
from .exact import leq_reciprocal_log
from .constructions import (
    EvaluationDesign,
    coefficient_digits,
    evaluation_matrix,
)
from .matrix import (
    CoherenceReport,
    MeasurementMatrix,
    StrongCoherenceVerdict,
    _exact_json,
    _verdict,
)
# Re-exported, not called here: the perfbench tracer patches these aliases,
# and perfbench/tests/test_harness.py checks that it does.
from .matrix import average_coherence, coherence  # noqa: F401


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_OUTPUT_BLOCK = 1 << 12  # PCG64 outputs evaluated per array pass


@functools.cache
def _seed_constants(words: int):
    """SeedSequence's data-independent hash constants for an entropy array
    of this many uint32 words, as (xor, multiplier) pairs: the pool fill,
    each cross-mixing round (its source row unused), each word past the
    pool, and the 8-word state generation."""
    def chain(start, mult, count):
        h = [start]
        for _ in range(count):
            h.append(h[-1] * mult & _M32)
        return np.array(h, dtype=np.uint32)[:, None]

    ha = chain(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, words - 4))
    rounds = []
    for src in range(4):
        pair = np.zeros((2, 4, 1), dtype=np.uint32)
        dst, k = [d for d in range(4) if d != src], 4 + 3 * src
        pair[0, dst], pair[1, dst] = ha[k:k + 3], ha[k + 1:k + 4]
        rounds.append((src, pair))
    extra = [(ha[k:k + 4], ha[k + 1:k + 5]) for k in range(16, len(ha) - 1, 4)]
    hb = chain(0x8B51F9DD, 0x58F38DED, 8)
    return ((ha[:4], ha[1:5]), rounds, extra,
            (hb[:8].reshape(2, 4, 1), hb[1:].reshape(2, 4, 1)))


def _hashmix(v, pair):
    v = (v ^ pair[0]) * pair[1]
    return v ^ (v >> 16)


def _mix(x, y):
    r = x * 0xCA01F9DD - y * 0x4973F715
    return r ^ (r >> 16)


def _mul128(ah, al, bh, bl):
    """(hi, lo) of a * b mod 2^128 on uint64 halves, via 32-bit limbs."""
    a0, a1, b0, b1 = al & _M32, al >> 32, bl & _M32, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return hi + al * bh + ah * bl, al * bl


@functools.cache
def _jump_table(log_size: int) -> np.ndarray:
    """(4, 2^log_size) uint64 rows hi(a^k), hi(S_k), lo(a^k), lo(S_k), where
    a is the PCG64 multiplier and S_k = sum_{i<k} a^i mod 2^128, built by
    doubling."""
    if log_size == 0:
        return np.array([[0], [0], [1], [0]], dtype=np.uint64)
    tab = _jump_table(log_size - 1)
    # a^(m+k) = a^m a^k and S_(m+k) = S_m + a^m S_k, from column m - 1
    ph, sh, pl, sl = (int(x) for x in tab[:, -1])
    am = ((ph << 64) | pl) * _PCG_MULT & _M128
    sm = ((sh << 64) | sl) + ((ph << 64) | pl) & _M128
    hi, lo = _mul128(np.uint64(am >> 64), np.uint64(am & _M64),
                     tab[:2], tab[2:])
    lo[1] += np.uint64(sm & _M64)
    hi[1] += np.uint64(sm >> 64) + (lo[1] < np.uint64(sm & _M64))
    tab = np.hstack([tab, np.vstack([hi, lo])])
    tab.setflags(write=False)
    return tab


def _random_bits(seed: int, columns, lengths) -> np.ndarray:
    """default_rng([seed, j]).integers(0, 2, L) for each column index
    j < 2^32 and length L, concatenated as int8, for all columns at once."""
    lengths = np.asarray(lengths, dtype=np.int64)
    n_words = max(1, -(-seed.bit_length() // 32))
    fill, rounds, extra, generate = _seed_constants(n_words + 1)
    # SeedSequence: the entropy words (seed, low word first, then j) are
    # hashed into a 4-word pool, which is hashed out into 8 state words
    entropy = np.zeros((max(n_words + 1, 4), lengths.size), dtype=np.uint32)
    entropy[:n_words] = np.array([seed >> 32 * i & _M32
                                  for i in range(n_words)], np.uint32)[:, None]
    entropy[n_words] = columns
    pool = _hashmix(entropy[:4], fill)
    for src, pair in rounds:
        keep = pool[src]
        pool = _mix(pool, _hashmix(keep, pair))
        pool[src] = keep
    for i, pair in enumerate(extra):
        pool = _mix(pool, _hashmix(entropy[4 + i], pair))
    w = _hashmix(pool, generate).reshape(8, -1).astype(np.uint64)
    v = w[0::2] | (w[1::2] << 32)  # PCG64 seed hi, lo and stream hi, lo
    # PCG64 seeding sets state a x + inc, with inc = 2 stream + 1 and
    # x = seed + inc, and output k steps first: it reads the state
    # a^(k+2) x + S_(k+2) inc.  Rows of xi: hi(x), hi(inc), lo(x), lo(inc).
    xi = np.empty_like(v)
    xi[1] = (v[2] << 1) | (v[3] >> 63)
    xi[3] = (v[3] << 1) | 1
    xi[2] = v[1] + xi[3]
    xi[0] = v[0] + xi[1] + (xi[2] < xi[3])
    outputs = (lengths + 1) >> 1  # each 64-bit output gives two draws
    ends = np.cumsum(outputs)
    K = int(ends[-1]) if ends.size else 0
    tab = _jump_table((int(outputs.max()) + 1 if K else 0).bit_length())
    starts = ends - outputs - 2  # output o of column j is step o - starts[j]
    halves = np.empty((K, 2), dtype=np.int8)
    for o in range(0, K, _OUTPUT_BLOCK):
        out = np.arange(o, min(o + _OUTPUT_BLOCK, K))
        col = np.searchsorted(ends, out, side="right")
        t = np.take(tab, out - starts[col], axis=1)
        g = np.take(xi, col, axis=1)
        hi, lo = _mul128(t[:2], t[2:], g[:2], g[2:])
        lo, carry = lo[0] + lo[1], lo[1]
        hi = hi[0] + hi[1] + (lo < carry)
        # XSL-RR rotates hi ^ lo right by the top 6 bits of the state; the
        # draws are bits 31 and 63 of the result
        x, rot = hi ^ lo, hi >> 58
        halves[o:o + _OUTPUT_BLOCK, 0] = (x >> ((rot + 31) & 63)) & 1
        halves[o:o + _OUTPUT_BLOCK, 1] = (x >> ((rot + 63) & 63)) & 1
    keep = np.ones(2 * K, dtype=bool)
    keep[2 * ends[lengths % 2 == 1] - 1] = False  # odd length: unused half
    return halves.ravel()[keep]


def randomize_signs(M: MeasurementMatrix, seed: int) -> MeasurementMatrix:
    """Flip each 1 to -1 independently, reproducibly from (seed, column).

    Column j keeps its entry i positive exactly when bit i of the stream
    default_rng([seed, j]).integers(0, 2) is 1; _random_bits computes that
    stream (SeedSequence([seed, j]) -> PCG64 -> the top bit of each 32-bit
    half of every output, low half first) for all columns at once.
    """
    if not isinstance(seed, int) or seed < 0:
        raise PreconditionError("seed must be a nonnegative integer")
    if not M.is_binary():
        raise NonBinaryInput("randomize_signs needs a 0/1 matrix")
    bits = _random_bits(int(seed), np.arange(M.N), np.diff(M.indptr))
    meta = dict(M.meta)
    meta["sign_scheme"] = {"kind": "random_pm1", "seed": int(seed)}
    return MeasurementMatrix._unchecked(M.n, M.N, M.indptr, M.indices,
                                        bits * 2 - 1, meta=meta)


def _column_parities(design: EvaluationDesign,
                     digits: np.ndarray) -> np.ndarray:
    """Parity term per (column, point): (N, |B|) array of 0/1.

    Odd p: parity of Tr(sum of coefficients), constant along each row.
    p = 2: Hamming-weight parity of the traces excluding the pivot coordinate.
    """
    field = design.field
    if field.p != 2:
        coeff_sum = np.zeros(digits.shape[0], dtype=np.int64)
        for t in range(design.T):
            coeff_sum = field.np_add(coeff_sum, digits[:, t])
        tr = field.np_trace(coeff_sum)
        return np.broadcast_to((tr % 2)[:, None], (digits.shape[0], design.size))
    nonzero = design.table != 0
    vanishing = np.flatnonzero(~nonzero.any(axis=0))
    if vanishing.size:
        raise NoNonvanishingBasisFunction(
            f"every basis function vanishes at point index {vanishing[0]}")
    # p = 2: trace bits of every coefficient, pivot coordinate excluded
    tr_bits = field.np_trace(digits)
    total = tr_bits.sum(axis=1) % 2
    return total[:, None] ^ tr_bits[:, np.argmax(nonzero, axis=0)]


def balanced_matrix(design: EvaluationDesign) -> MeasurementMatrix:
    """The balanced-sign version of evaluation_matrix(design): its arrays,
    with the signs of the module docstring."""
    M = evaluation_matrix(design)
    B = design.size
    red = np.arange(B) < B // 2  # lambda: 1 on red
    digits = coefficient_digits(design.field.q, np.arange(M.N), design.T)
    signs = 1 - 2 * (red ^ _column_parities(design, digits))
    meta = {**M.meta, "sign_scheme": {"kind": "balanced", "red_count": B // 2,
                                      "point_count": B}}
    return MeasurementMatrix._unchecked(M.n, M.N, M.indptr, M.indices,
                                        signs.ravel(), meta=meta)


@dataclass
class BalancedCertificate:
    """Sufficient-condition check and ground-truth check, kept separate.

    The sufficient conditions evaluate the design parameters only:
    a) N(D) > sqrt(|B|) / (p sqrt(q)), b) T <= |B| / (160 log q).
    The ground truth evaluates the two strong-coherence inequalities on the
    actual matrix with exact arithmetic.
    """

    condition_a: bool
    condition_b: bool
    ground_truth: StrongCoherenceVerdict
    mu: object
    omega_signed: object
    log_base: str

    @property
    def sufficient_ok(self) -> bool:
        return self.condition_a and self.condition_b

    def to_dict(self) -> dict:
        return {
            "condition_a": self.condition_a,
            "condition_b": self.condition_b,
            "sufficient_ok": self.sufficient_ok,
            "ground_truth": self.ground_truth.to_dict(),
            "mu": _exact_json(self.mu),
            "omega_signed": _exact_json(self.omega_signed),
            "log_base": self.log_base,
        }


def certify_strong_coherence(design: EvaluationDesign,
                             report: CoherenceReport) -> BalancedCertificate:
    """The balanced-scheme sufficient conditions on design, and the ground
    truth read off report, the coherence_report of the design's matrix."""
    field = design.field
    B = design.size
    log_base = report.strong_coherence.log_base
    # a) N(D) > sqrt(|B|)/(p sqrt(q)), exactly: N(D)^2 p^2 q > |B|
    cond_a = design.bound_on_zeros ** 2 * field.p ** 2 * field.q > B
    # b) T <= |B| / (160 log q)
    cond_b = leq_reciprocal_log(Fraction(design.T, B), field.q, log_base)
    verdict = _verdict(report.mu, report.omega_signed, report.n, report.N,
                       log_base, "signed")
    return BalancedCertificate(condition_a=bool(cond_a), condition_b=bool(cond_b),
                               ground_truth=verdict, mu=report.mu,
                               omega_signed=report.omega_signed, log_base=log_base)
