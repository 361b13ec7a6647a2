"""Sign assignments for the binary graph-indicator matrices.

Three schemes:

* all_ones: the unsigned construction.
* random_pm1(seed): every 1 flipped to -1 independently with probability 1/2,
  drawn from a per-column substream keyed by (seed, column index) so that the
  result does not depend on construction order.
* balanced: the derandomized scheme.  Points are colored red/blue (first
  floor(|B|/2) points red in enumeration order), and the entry of column
  (a_1 ... a_T) at point b is (-1)^(lambda(b) + parity) where lambda is 1 on
  red points and 0 on blue points, and parity is the parity of the integer
  Tr(a_1 + ... + a_T) in {0, ..., p-1} for odd p.  For p = 2 the parity is
  the Hamming-weight parity of (Tr(a_i)) over all i except a per-point pivot
  index, the first basis function not vanishing at b.

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
from .constructions import EvaluationDesign, evaluation_blocks
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


@dataclass
class SignScheme:
    """Entry-sign specification: all_ones, seeded random, or balanced."""

    kind: str
    seed: int | None = None
    red: np.ndarray | None = None          # balanced: True where the point is red

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.red is not None:
            out["red_count"] = int(self.red.sum())
            out["point_count"] = int(self.red.size)
        return out


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


def balanced_coloring(points) -> SignScheme:
    """First floor(|B|/2) points red, the rest blue, in enumeration order."""
    count = len(points)
    if count < 1:
        raise PreconditionError("need at least one point")
    red = np.zeros(count, dtype=bool)
    red[: count // 2] = True
    return SignScheme(kind="balanced", red=red)


def _column_parities(design: EvaluationDesign, digits: np.ndarray,
                     pivot: np.ndarray | None) -> np.ndarray:
    """Parity term per (column, point): (k, |B|) array of 0/1.

    Odd p: parity of Tr(sum of coefficients), constant along each row.
    p = 2: Hamming-weight parity of the traces excluding the pivot coordinate.
    """
    field = design.field
    k = digits.shape[0]
    B = design.size
    if field.p != 2:
        coeff_sum = np.zeros(k, dtype=np.int64)
        for t in range(design.T):
            coeff_sum = field.np_add(coeff_sum, digits[:, t])
        tr = field.np_trace(coeff_sum)
        return np.broadcast_to(((tr % 2))[:, None], (k, B)).copy()
    # p = 2: trace bits of every coefficient, pivot coordinate excluded
    tr_bits = field.np_trace(digits)
    total = tr_bits.sum(axis=1) % 2
    return (total[:, None] ^ tr_bits[:, pivot]) % 2


def _basis_pivots(design: EvaluationDesign) -> np.ndarray:
    pivots = np.empty(design.size, dtype=np.int64)
    for b in range(design.size):
        nz = np.nonzero(design.table[:, b])[0]
        if nz.size == 0:
            raise NoNonvanishingBasisFunction(
                f"every basis function vanishes at point index {b}")
        pivots[b] = nz[0]
    return pivots


def balanced_matrix(design: EvaluationDesign,
                    scheme: SignScheme | None = None) -> MeasurementMatrix:
    """The balanced-sign version of evaluation_matrix(design)."""
    field = design.field
    q = field.q
    if scheme is None:
        scheme = balanced_coloring(design.points)
    if scheme.kind != "balanced" or scheme.red is None:
        raise PreconditionError("balanced_matrix needs a balanced SignScheme")
    red = np.asarray(scheme.red, dtype=bool)
    if red.size != design.size:
        raise PreconditionError("coloring size disagrees with the point count")
    N = design.num_columns
    B = design.size
    pivot = _basis_pivots(design) if field.p == 2 else None
    lam = red.astype(np.int64)  # 1 on red, 0 on blue
    point_base = np.arange(B, dtype=np.int64) * q
    rows, signs = [], []
    for digits, vals in evaluation_blocks(field, design.table, range(N)):
        parities = _column_parities(design, digits, pivot)
        rows.append((point_base + vals).ravel())
        signs.append((1 - 2 * ((lam[None, :] + parities) % 2)).ravel())
    meta = {"family": design.family, "params": design.params,
            "field": field.descriptor,
            "sign_scheme": scheme.describe(),
            "column_support": B, "bound_on_zeros": design.bound_on_zeros}
    return MeasurementMatrix.from_csc(q * B, N, np.arange(N + 1) * B,
                                      np.concatenate(rows), np.concatenate(signs),
                                      meta=meta, validate=False)


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
    cond_b = leq_reciprocal_log(Fraction(design.T, B), field.q, 160, log_base)
    verdict = _verdict(report.mu, report.omega_signed, report.n, report.N,
                       log_base, "signed")
    return BalancedCertificate(condition_a=bool(cond_a), condition_b=bool(cond_b),
                               ground_truth=verdict, mu=report.mu,
                               omega_signed=report.omega_signed, log_base=log_base)
