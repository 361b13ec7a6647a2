"""Independent brute-force oracles.

Every headline number produced by the fast paths can be re-derived here by a
second, dumber route: pairwise coherence by explicit sparse merges, coherence
of evaluation matrices by the difference trick (inner products of columns
count zeros of differences, which range over the function space itself, so
the scan is over (q^T - 1)/(q - 1) scalar classes instead of N^2 pairs),
restricted-isometry constants by exhausting k-column submatrices, and the
surface section counts by scanning every hypersurface.  The exhaustive
plane-curve census is constructions.plane_curve_census.

Oracle caps are hard limits with explicit errors, never silent truncation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import (
    EvaluationDesign,
    coefficient_digits,
    evaluate_coefficient_block,
    fermat_surface_points,
    _p3_points,
)
from .errors import (
    DuplicateColumns,
    GcdConditionViolated,
    OracleCapExceeded,
    PreconditionError,
    SingleColumn,
)
from .exact import exact_float, exact_ratio_sqrt
from .fields import FieldSpec
from .matrix import MeasurementMatrix

BRUTE_FORCE_COLUMN_CAP = 5000
DIFFERENCE_CLASS_CAP = 10 ** 7
RIP_SUBSET_CAP = 200_000
SECTION_CAP = 20_000  # scalar classes of sections scanned exhaustively
SECTION_SAMPLES = 2000  # sections drawn, from seed 0, above SECTION_CAP
_CHUNK = 65536  # scalar classes per difference-trick block


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
            return {"decimal": exact_float(v)}
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
    best = (0, 1)  # (|ip|, ci*cj) with |ip|^2/den maximal
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
            den = sqnorms[i] * sqnorms[j]
            if ip * ip * best[1] > best[0] * best[0] * den:
                best = (ip, den)
    if best[0] == 0:
        return Fraction(0)
    return exact_ratio_sqrt(best[0], best[1])


def coherence_via_differences(design: EvaluationDesign):
    """Exact coherence of evaluation_matrix(design) via the difference trick.

    Inner products of two graph-indicator columns count the points where the
    two functions agree, i.e. the zeros of their difference, and differences
    of distinct functions range over all nonzero members of the space.  Zero
    sets are invariant under scaling, so one representative per scalar class
    suffices: mu = max_h #zeros(h) / |B|.
    """
    q = design.field.q
    T = design.T
    classes = (q ** T - 1) // (q - 1)
    if classes > DIFFERENCE_CLASS_CAP:
        raise OracleCapExceeded(
            f"{classes} scalar classes exceed the cap {DIFFERENCE_CLASS_CAP}")
    B = design.size
    best = 0
    # representatives: first nonzero coefficient equal to 1, enumerated by
    # leading index; the remaining T-1-lead coefficients run over all codes
    for lead in range(T):
        free = T - 1 - lead
        total = q ** free
        for f0 in range(0, total, _CHUNK):
            count = min(_CHUNK, total - f0)
            coeffs = np.zeros((count, T), dtype=np.int64)
            coeffs[:, lead] = 1
            if free:
                coeffs[:, lead + 1:] = coefficient_digits(
                    q, np.arange(f0, f0 + count, dtype=np.int64), free)
            vals = evaluate_coefficient_block(design.field, design.table,
                                              coeffs)
            zeros = (vals == 0).sum(axis=1)
            m = int(zeros.max())
            if m > best:
                best = m
            if m >= B:
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

    Exhaustive over scalar classes when at most SECTION_CAP of them;
    otherwise SECTION_SAMPLES sections drawn from seed 0, reported as such
    (a sampled minimum is only a witness bound, never claimed exhaustive).
    """
    if field.s % 2:
        raise PreconditionError("the Fermat surface needs a square field order")
    q = field.p ** (field.s // 2)
    Q = field.q
    if not (1 <= t < q + 1):
        raise GcdConditionViolated(f"need t < q + 1, got t={t}")
    if math.gcd(Q - 1, t) != 1:
        raise GcdConditionViolated(f"gcd(q^2 - 1, t) = {math.gcd(Q - 1, t)} != 1")
    surface = fermat_surface_points(field)
    X = np.array(surface, dtype=np.int64)
    monos = [e for e in itertools.product(range(t + 1), repeat=4)
             if sum(e) == t]
    monos.sort(reverse=True)
    V = np.empty((X.shape[0], len(monos)), dtype=np.int64)
    for idx, e in enumerate(monos):
        acc = np.ones(X.shape[0], dtype=np.int64)
        for i, ei in enumerate(e):
            if ei:
                acc = field.np_mul(acc, field.np_pow(X[:, i], ei))
        V[:, idx] = acc
    m = len(monos)
    classes = (Q ** m - 1) // (Q - 1)
    exhaustive = classes <= SECTION_CAP
    if exhaustive:
        if t == 1:
            coeff_sets = [np.array(h, dtype=np.int64) for h in _p3_points(field)]
        else:
            coeff_sets = []
            for lead in range(m):
                for rest in itertools.product(range(Q), repeat=m - 1 - lead):
                    coeff_sets.append(np.array(
                        (0,) * lead + (1,) + rest, dtype=np.int64))
    else:
        rng = np.random.default_rng(0)
        coeff_sets = []
        while len(coeff_sets) < SECTION_SAMPLES:
            c = rng.integers(0, Q, size=m)
            if c.any():
                coeff_sets.append(c.astype(np.int64))
    min_count, max_count = None, 0
    for coeffs in coeff_sets:
        acc = np.zeros(X.shape[0], dtype=np.int64)
        for idx in range(m):
            if coeffs[idx]:
                acc = field.np_add(acc, field.np_mul(np.int64(coeffs[idx]),
                                                     V[:, idx]))
        cnt = int((acc == 0).sum())
        min_count = cnt if min_count is None else min(min_count, cnt)
        max_count = max(max_count, cnt)
    return FermatSectionReport(q=q, t=t, min_count=min_count,
                               max_count=max_count,
                               sections_checked=len(coeff_sets),
                               exhaustive=exhaustive,
                               lower_bound=(q - 1) ** 2 * (q + 1))
