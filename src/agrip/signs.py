"""Sign assignments for the binary graph-indicator matrices.

Three schemes:

* all_ones: the unsigned construction.
* random_pm1(seed): every 1 flipped to -1 independently with probability 1/2,
  drawn from a per-column substream keyed by (seed, column index) so that the
  result does not depend on construction order.
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

import math
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


def randomize_signs(M: MeasurementMatrix, seed: int) -> MeasurementMatrix:
    """Flip each 1 to -1 independently, reproducibly from (seed, column)."""
    if not isinstance(seed, int) or seed < 0:
        raise PreconditionError("seed must be a nonnegative integer")
    if not M.is_binary():
        raise NonBinaryInput("randomize_signs needs a 0/1 matrix")
    bounds = M.indptr.tolist()
    bits = np.empty_like(M.data)
    for j in range(M.N):
        rng = np.random.default_rng([seed, j])
        lo, hi = bounds[j], bounds[j + 1]
        bits[lo:hi] = rng.integers(0, 2, size=hi - lo, dtype=np.int64)
    meta = dict(M.meta)
    meta["sign_scheme"] = {"kind": "random_pm1", "seed": int(seed)}
    return MeasurementMatrix.from_csc(M.n, M.N, M.indptr, M.indices,
                                      bits * 2 - 1, meta=meta, validate=False)


def expected_abs_inner_product(L: int) -> Fraction:
    """E|sum of L independent +-1 products| = sum_w |L-2w| C(L,w) 2^-L, exact."""
    if L < 0:
        raise PreconditionError("overlap count must be >= 0")
    total = sum(abs(L - 2 * w) * math.comb(L, w) for w in range(L + 1))
    return Fraction(total, 2 ** L)


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
    return MeasurementMatrix.from_csc(M.n, M.N, M.indptr, M.indices,
                                      signs.ravel(), meta=meta, validate=False)


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
