"""Independent brute-force oracles.

Every headline number produced by the fast paths can be re-derived here by a
second, dumber route: pairwise coherence by explicit sparse merges, coherence
of evaluation matrices by the difference trick (inner products of columns
count zeros of differences, which range over the function space itself, so
the scan is over (q^T - 1)/(q - 1) scalar classes instead of N^2 pairs),
restricted-isometry constants by exhausting k-column submatrices, and the
surface section counts by scanning every hypersurface.  The exhaustive
plane-curve census is constructions.plane_curve_census.  The difference trick
and the section scan evaluate one function per scalar class
(scalar_class_codes) block by block, on the engine the families are built on.

Oracle caps are hard limits with explicit errors, never silent truncation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import (
    BLOCK_ENTRIES,
    EvaluationDesign,
    evaluate_coefficient_block,
    evaluation_blocks,
    fermat_surface_points,
    monomial_table,
    monomials,
    scalar_class_codes,
)
from .errors import (
    DuplicateColumns,
    EnumerationCapExceeded,
    GcdConditionViolated,
    OracleCapExceeded,
    PreconditionError,
    SingleColumn,
)
from .exact import SurdSum, as_exact
from .fields import FieldSpec
from .matrix import MeasurementMatrix

BRUTE_FORCE_COLUMN_CAP = 5000
DIFFERENCE_CLASS_CAP = 10 ** 7
RIP_SUBSET_CAP = 200_000
SECTION_CAP = 20_000  # scalar classes of sections scanned exhaustively
SECTION_SAMPLES = 2000  # sections drawn, from seed 0, above SECTION_CAP
SECTION_POINT_CAP = 1 << 20  # points of P^3(F_Q) the section scan enumerates


@dataclass
class OracleResult:
    """One oracle evaluation next to the fast-path value it checks."""

    quantity: str
    instance: str
    oracle_value: object
    fast_value: object = None

    @property
    def agree(self) -> bool | None:
        if self.fast_value is None:
            return None
        return self.oracle_value == self.fast_value

    def to_dict(self) -> dict:
        def render(v):
            if v is None:
                return None
            if isinstance(v, Fraction):
                return {"num": v.numerator, "den": v.denominator}
            if isinstance(v, (int, float, bool, str)):
                return v
            return {"decimal": float(v)}
        return {"quantity": self.quantity, "instance": self.instance,
                "oracle_value": render(self.oracle_value),
                "fast_value": render(self.fast_value),
                "agree": self.agree}


def brute_force_coherence(M: MeasurementMatrix):
    """Exact pairwise maximum by explicit sparse merges (no Gram matrices)."""
    if M.N < 2:
        raise SingleColumn("coherence needs at least two columns")
    if M.N > BRUTE_FORCE_COLUMN_CAP:
        raise OracleCapExceeded(
            f"{M.N} columns exceed the oracle cap {BRUTE_FORCE_COLUMN_CAP}")
    bounds, rows, vals = M.indptr.tolist(), M.indices.tolist(), M.data.tolist()
    cols = [dict(zip(rows[lo:hi], vals[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:])]
    sqnorms = [sum(v * v for v in col.values()) for col in cols]
    best = (0, 1, 1)  # (|ip|, ci, cj) with |ip|^2/(ci cj) maximal
    for i in range(M.N):
        ci = cols[i]
        for j in range(i + 1, M.N):
            cj = cols[j]
            small, large = (ci, cj) if len(ci) <= len(cj) else (cj, ci)
            ip = 0
            for row, val in small.items():
                other = large.get(row)
                if other is not None:
                    ip += val * other
            ip = abs(ip)
            if (ip * ip * best[1] * best[2]
                    > best[0] * best[0] * sqnorms[i] * sqnorms[j]):
                best = (ip, sqnorms[i], sqnorms[j])
    ip, ci, cj = best  # a root per norm: c_i c_j can be slow to factor
    return as_exact(ip * SurdSum.ratio_sqrt(1, ci) * SurdSum.ratio_sqrt(1, cj))


def coherence_via_differences(design: EvaluationDesign):
    """Exact coherence of evaluation_matrix(design) via the difference trick.

    Inner products of two graph-indicator columns count the points where the
    two functions agree, i.e. the zeros of their difference, and differences
    of distinct functions range over all nonzero members of the space.  Zero
    sets are invariant under scaling, so one representative per scalar class
    (scalar_class_codes) suffices: mu = max_h #zeros(h) / |B|.
    """
    q = design.field.q
    classes = (q ** design.T - 1) // (q - 1)
    if classes > DIFFERENCE_CLASS_CAP:
        raise OracleCapExceeded(
            f"{classes} scalar classes exceed the cap {DIFFERENCE_CLASS_CAP}")
    B = design.size
    best = 0
    for codes in scalar_class_codes(q, design.T):
        for _, vals in evaluation_blocks(design.field, design.table, codes):
            best = max(best, int((vals == 0).sum(axis=1).max()))
            if best >= B:
                raise DuplicateColumns(
                    "a nonzero function vanishes on every point; mu = 1")
    return Fraction(best, B)


def brute_force_rip_delta(M: MeasurementMatrix, k: int) -> float:
    """delta_k over all k-column submatrices of the unit-normalized matrix."""
    if not (1 <= k <= 4):
        raise PreconditionError("the RIP oracle supports k <= 4")
    if k > M.N:
        raise PreconditionError("k exceeds the column count")
    n_subsets = math.comb(M.N, k)
    if n_subsets > RIP_SUBSET_CAP:
        raise OracleCapExceeded(
            f"C({M.N},{k}) = {n_subsets} subsets exceed the cap {RIP_SUBSET_CAP}")
    A = M.to_dense().astype(np.float64)
    A /= np.sqrt((A * A).sum(axis=0))[None, :]
    subsets = np.array(list(itertools.combinations(range(M.N), k)),
                       dtype=np.int64)
    delta = 0.0
    chunk = 8192
    for s0 in range(0, subsets.shape[0], chunk):
        batch = subsets[s0:s0 + chunk]
        sub = A[:, batch]                     # (n, b, k)
        gram = np.einsum("nbk,nbl->bkl", sub, sub)
        asym = np.abs(gram - gram.transpose(0, 2, 1)).max()
        if asym > 1e-12:
            raise AssertionError("Gram matrices lost symmetry")
        eig = np.linalg.eigvalsh(gram)
        delta = max(delta, float(np.abs(eig - 1.0).max()))
    return delta


@dataclass
class FermatSectionReport:
    """Min/max rational-point counts of degree-t sections of the surface."""

    q: int
    t: int
    min_count: int
    max_count: int
    sections_checked: int
    exhaustive: bool
    lower_bound: int

    @property
    def satisfied(self) -> bool:
        return self.min_count >= self.lower_bound


def fermat_section_counts(field: FieldSpec, t: int = 1) -> FermatSectionReport:
    """Scan degree-t hypersurface sections of the Fermat surface.

    Exhaustive over scalar classes (scalar_class_codes) when at most
    SECTION_CAP of them; otherwise SECTION_SAMPLES sections drawn from seed
    0, reported as such (a sampled minimum is only a witness bound, never
    claimed exhaustive).  Both are evaluated in blocks of about
    BLOCK_ENTRIES values.  Fields whose P^3 has more than SECTION_POINT_CAP
    points are refused before anything is enumerated.
    """
    if field.s % 2:
        raise PreconditionError("the Fermat surface needs a square field order")
    q = field.p ** (field.s // 2)
    Q = field.q
    if not (1 <= t < q + 1):
        raise GcdConditionViolated(f"need 1 <= t < q + 1, got t={t}")
    if math.gcd(Q - 1, t) != 1:
        raise GcdConditionViolated(f"gcd(q^2 - 1, t) = {math.gcd(Q - 1, t)} != 1")
    points = Q ** 3 + Q ** 2 + Q + 1
    if points > SECTION_POINT_CAP:
        raise EnumerationCapExceeded(f"P^3(F_{Q}) has {points} points, above "
                                     f"the section-scan cap {SECTION_POINT_CAP}")
    X = np.array(fermat_surface_points(field), dtype=np.int64)
    table = monomial_table(field, X, monomials(4, t))
    m = table.shape[0]
    exhaustive = (Q ** m - 1) // (Q - 1) <= SECTION_CAP
    if exhaustive:
        values = (vals for codes in scalar_class_codes(Q, m)
                  for _, vals in evaluation_blocks(field, table, codes))
    else:
        rng = np.random.default_rng(0)
        samples = []
        while len(samples) < SECTION_SAMPLES:
            c = rng.integers(0, Q, size=m)
            if c.any():
                samples.append(c.astype(np.int64))
        coeffs = np.array(samples)
        step = max(1, BLOCK_ENTRIES // len(X))
        values = (evaluate_coefficient_block(field, table, coeffs[i:i + step])
                  for i in range(0, len(coeffs), step))
    counts = np.concatenate([(vals == 0).sum(axis=1) for vals in values])
    return FermatSectionReport(q=q, t=t, min_count=int(counts.min()),
                               max_count=int(counts.max()),
                               sections_checked=counts.size,
                               exhaustive=exhaustive,
                               lower_bound=(q - 1) ** 2 * (q + 1))
