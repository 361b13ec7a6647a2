"""Measurement-matrix data model and exact coherence metrics.

A MeasurementMatrix stores its sparse signed-integer columns as one int64
CSC triple (indptr, indices, data).  All metrics are computed in exact
integer/rational arithmetic; floating point appears only in the Welch bound,
in decimal renderings and in Gram tiles it holds exactly (see _gram_scan).

Coherence of a pair is |<phi_i, phi_j>| / sqrt(c_i * c_j) with integer inner
products and integer squared norms, so every value is either a Fraction or a
single-radicand SurdSum; average coherence over columns with mixed norms is a
general SurdSum.

All three come from one exact symmetric pass over tiles of |G| (_gram_scan),
float32 or float64 as B = n max|a|^2 allows and summed in that type while
the tile edge times B fits its mantissa: per squared-norm group, the
absolute row sums and the largest |G_ij|; the signed row sums are int64
passes over the entries (_signed_sums).  scipy is imported only in
_gram_scan's sparse-tile branch, which very sparse matrices take.  The
pairwise scan is capped (default 20000 columns); above the cap it refuses
to run rather than blow up at O(N^2).

A function-space matrix (evaluation_matrix of an F_q-linear design, or its
balanced signing) needs no pairwise scan.  Column f's entry at point P is
(-1)^(lambda(P) + pi_P(f)), both terms 0 when unsigned.  For odd p, pi_P(f)
does not depend on P, so G_fg = +-#zeros(f - g); for p = 2, pi_P is
F_2-linear in f's coefficients, so G_fg = sum over the zeros P of h = f + g
of (-1)^pi_P(h).  Either way |row f| of G is a permutation of |row 0|, the
zero function's, that fixes the diagonal.  _function_space_scan builds the
same tuple from row 0 and one row-sum product, all O(nnz), and no pair cap
applies.  coherence_report(M, design=d) takes it when M is, array for
array, the matrix of d that M's sign scheme names (_is_function_space).

On-disk format AGRIP-SPARSE, bit-exact:
    line 1: "AGRIP-SPARSE 1 <n> <N> <nnz>"
    then one line per nonzero: "<col> <row> <value>", sorted by (col, row),
    0-based indices, decimal integers, "\\n" line endings.
write_sparse gathers the lines from NUL-padded byte tables of every column,
row and distinct value, so no entry becomes a Python int.  read_sparse reads
line by line and raises FormatError at the first bad line, a byte that is
not UTF-8 included; it also accepts any spelling that Python's int() and
line splitting accept, such as "+1", "01", "1_0" or "\\r\\n" endings.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateShape,
    FormatError,
    PairScanCapExceeded,
    PreconditionError,
    SingleColumn,
    ZeroCoherence,
)
from .exact import (
    _LOG_BASES,
    SurdSum,
    as_exact,
    exact_decimal,
    exact_leq,
    floor_reciprocal,
    leq_reciprocal_log,
)

DEFAULT_PAIR_CAP = 20_000
_GRAM_TILE = 512  # Gram tile edge; faster than 256 and 1024
_GRAM_BLOCK_ENTRIES = 1 << 23  # dense column slab entries: 32 MB float32, 64 MB float64
_DENSE_WORK_RATIO = 1200  # dense below, sparse above (see _gram_scan)
_IO_BLOCK = 1 << 16  # lines per rendered block
FORMAT_NAME = "AGRIP-SPARSE"
FORMAT_VERSION = 1
_MIN_ENTRY_BYTES = len("0 0 1\n")


def worker_count() -> int:
    """Worker cap from AGRIP_THREADS, defaulting to the CPU count."""
    env = os.environ.get("AGRIP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise PreconditionError(f"AGRIP_THREADS={env!r} is not an integer")
    return os.cpu_count() or 1


class MeasurementMatrix:
    """Sparse signed-integer column matrix with provenance metadata.

    Column j has the strictly increasing rows indices[indptr[j]:indptr[j+1]]
    and the nonzero values data[indptr[j]:indptr[j+1]]; no column is empty.
    The arrays are read-only, so matrices may share them.  The constructor
    concatenates a list of (rows, values) columns; from_csc takes the three
    arrays without a copy and marks them read-only.  Both check the arrays.
    """

    __slots__ = ("n", "N", "indptr", "indices", "data", "meta", "_sqnorms")

    def __init__(self, n: int, N: int, columns, meta=None):
        cols = [(np.asarray(r, dtype=np.int64), np.asarray(v, dtype=np.int64))
                for r, v in columns]
        if any(r.shape != v.shape or r.ndim != 1 for r, v in cols):
            raise PreconditionError("malformed column arrays")
        none = [np.zeros(0, dtype=np.int64)]
        self._store(n, N, np.cumsum([0] + [r.size for r, _ in cols]),
                    np.concatenate([r for r, _ in cols] + none),
                    np.concatenate([v for _, v in cols] + none), meta)
        self._validate()

    @classmethod
    def from_csc(cls, n: int, N: int, indptr, indices, data,
                 meta=None) -> "MeasurementMatrix":
        return cls._unchecked(n, N, indptr, indices, data, meta)._validate()

    @classmethod
    def _unchecked(cls, n, N, indptr, indices, data, meta=None):
        """from_csc unchecked, for arrays the package built or checked."""
        M = cls.__new__(cls)
        M._store(n, N, indptr, indices, data, meta)
        return M

    def _store(self, n, N, indptr, indices, data, meta):
        self.n, self.N = int(n), int(N)
        self.indptr, self.indices, self.data = (
            np.asarray(a, dtype=np.int64) for a in (indptr, indices, data))
        for a in (self.indptr, self.indices, self.data):
            a.setflags(write=False)  # shared with other matrices
        self.meta = dict(meta or {})
        self._sqnorms = None

    def _validate(self):
        if self.N < 1 or self.n < 1:
            raise PreconditionError("matrix must have at least one row and column")
        indptr, rows, vals = self.indptr, self.indices, self.data
        if indptr.shape != (self.N + 1,):
            raise PreconditionError(
                f"expected {self.N} columns, got {indptr.size - 1}")
        sizes = np.diff(indptr)
        if (rows.ndim != 1 or rows.shape != vals.shape or indptr[0] != 0
                or indptr[-1] != rows.size or np.any(sizes < 0)):
            raise PreconditionError("malformed CSC arrays")
        col = np.repeat(np.arange(self.N), sizes)
        rising = (rows[1:] > rows[:-1]) | (col[1:] != col[:-1])
        for message, bad in (
                ("column {} is zero", np.flatnonzero(sizes == 0)),
                ("column {} stores a zero entry", col[vals == 0]),
                ("column {}: row indices not strictly increasing",
                 col[1:][~rising]),
                ("column {}: row index out of range",
                 col[(rows < 0) | (rows >= self.n)])):
            if bad.size:
                raise PreconditionError(message.format(bad[0]))
        return self

    # -- views ------------------------------------------------------------

    def column(self, j: int):
        """(rows, values) slices of column j."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def peak_square(self) -> int:  # max |a|^2, as a Python int
        return max(-int(self.data.min()), int(self.data.max())) ** 2

    def sqnorms(self) -> np.ndarray:
        if self._sqnorms is None:
            bound = self.peak_square() * int(np.diff(self.indptr).max())
            if bound >= 1 << 63:
                raise PreconditionError(
                    f"max|a|^2 times the longest column, {bound}, overflows "
                    "the int64 squared norms")
            self._sqnorms = np.add.reduceat(self.data * self.data,
                                            self.indptr[:-1])
        return self._sqnorms

    def is_binary(self) -> bool:
        return bool(np.all(self.data == 1))

    def constant_support(self):
        """Common nonzero count per column, or None if it varies."""
        sizes = np.diff(self.indptr)
        return int(sizes[0]) if np.all(sizes == sizes[0]) else None

    def to_dense(self) -> np.ndarray:
        return _densify(self.n, self.indptr, self.indices, self.data)

    def __eq__(self, other):
        if not isinstance(other, MeasurementMatrix):
            return NotImplemented
        return ((self.n, self.N) == (other.n, other.N)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    def __repr__(self):
        fam = self.meta.get("family", "?")
        return f"MeasurementMatrix({self.n}x{self.N}, nnz={self.nnz}, family={fam})"


# -- exact Gram machinery ---------------------------------------------------


def _densify(n, indptr, indices, data, dtype=np.int64) -> np.ndarray:
    """Dense array of the CSC columns indptr (a slice of one) delimits."""
    lo, hi = indptr[0], indptr[-1]
    out = np.zeros((n, indptr.size - 1), dtype)
    cols = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    out[indices[lo:hi], cols] = data[lo:hi]
    return out


def _gather_columns(M: MeasurementMatrix, cols: np.ndarray):
    """CSC arrays (indptr, indices, data) of M's columns cols, in that order."""
    sizes = M.indptr[cols + 1] - M.indptr[cols]
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    # entry k of output column c is entry k - indptr[c] of M's column cols[c]
    entry = np.arange(indptr[-1]) + np.repeat(M.indptr[cols] - indptr[:-1], sizes)
    return indptr, M.indices[entry], M.data[entry]


def _transpose_products(M: MeasurementMatrix, X: np.ndarray) -> np.ndarray:
    """(k, N) A^T x for each row x of the (k, n) int64 X, one row at a time
    (a gather, a product and a reduceat over the columns' entries), so the
    scratch is O(nnz) whatever k is.  Exact while every column's sum of
    |a x| stays below 2^63."""
    out = np.empty((len(X), M.N), dtype=np.int64)
    for x, row in zip(X, out):  # 1-D gathers beat one 2-D take
        np.add.reduceat(x[M.indices] * M.data, M.indptr[:-1], out=row)
    return out


def _check_gram_input(M: MeasurementMatrix) -> int:
    """B = n max|a|^2, checked: N >= 2, B < 2^53 and N B < 2^63 (see _gram_scan)."""
    if M.N < 2:
        raise SingleColumn("coherence metrics need at least two columns")
    bound = M.n * M.peak_square()
    if bound >= 1 << 53 or M.N * bound >= 1 << 63:
        raise PreconditionError(f"n max|a|^2 = {bound} with N = {M.N} "
                                "overflows the exact int64 Gram scan")
    return bound


def _signed_sums(M: MeasurementMatrix, group: np.ndarray, g: int) -> np.ndarray:
    """(N, g) sums of G_ij, j != i, over each norm group v, in M's column
    order: A^T (A E) less c_i at (i, group[i]), E the (N, g) indicator of
    group; O(nnz g).  (A E)^T is taken in one np.add.at pass over the
    entries for as many groups as fit _GRAM_BLOCK_ENTRIES (all of them
    unless g n is large), so beyond O(nnz) the scratch is at most
    max(n, _GRAM_BLOCK_ENTRIES) entries.
    Every partial sum, of A E or of A^T (A E), is at most N max|a|^2 <= N B
    < 2^63 in magnitude, so the int64 sums are exact.
    """
    S = np.empty((g, M.N), dtype=np.int64)
    # a_ij adds to entry i of row group[j] of (A E)^T, flattened
    slot = np.repeat(group * M.n, np.diff(M.indptr)) + M.indices
    step = max(1, _GRAM_BLOCK_ENTRIES // M.n)
    for v0 in range(0, g, step):
        v1 = min(v0 + step, g)
        sums = np.zeros((v1 - v0) * M.n, dtype=np.int64)  # rows v0..v1
        if v1 - v0 == g:
            np.add.at(sums, slot, M.data)
        else:
            mine = (slot >= v0 * M.n) & (slot < v1 * M.n)
            np.add.at(sums, slot[mine] - v0 * M.n, M.data[mine])
        S[v0:v1] = _transpose_products(M, sums.reshape(v1 - v0, M.n))
    S.reshape(-1)[group * M.N + np.arange(M.N)] -= M.sqnorms()
    return S.T


class _GramScan(NamedTuple):
    """One Gram pass over the columns sorted by squared norm (g groups)."""

    values: np.ndarray    # (g,) the distinct squared norms, ascending
    sqnorms: np.ndarray   # (N,) squared norm of each sorted column
    signed: np.ndarray    # (N, g) sum of G_ij over j != i in each group
    absolute: np.ndarray  # (N, g) the same sum of |G_ij|
    pair_max: np.ndarray  # (g, g) max |G_ij|, i != j, over the two groups


def _gram_tile(n: int) -> int:
    """Tile edge: <= _GRAM_TILE, and n rows of it <= _GRAM_BLOCK_ENTRIES."""
    return min(_GRAM_TILE, max(1, _GRAM_BLOCK_ENTRIES // n))


def _gram_scan(M: MeasurementMatrix, pair_cap: int) -> _GramScan:
    """One exact pass over each column pair of G = A^T A, once.

    The tiles carry |G| only; the signed sums are _signed_sums, taken in
    M's column order and then permuted.  A task takes a slab I of
    norm-sorted columns, one tile edge wide, and walks the tiles |G_IJ|,
    J >= I.  As the norm groups are contiguous, an off-diagonal tile adds
    I's per-group sums along axis 1, J's sums, grouped by I's norm groups,
    along axis 0, and its maxima to pair_max, symmetrised at the end; the
    diagonal tile, its diagonal zeroed, adds along axis 1 only.  Tiles are
    GEMMs of dense slabs of the norm-sorted columns, gathered once, when
    n N^2 < _DENSE_WORK_RATIO * sum_k r_k^2, the sparse product's work (r_k
    nonzeros in row k), else scipy int64 products of M's columns, permuted.
    By Cauchy-Schwarz every partial sum of a tile's products is an integer
    of size at most B = n max|a|^2 < 2^53, so float64 slabs are exact, and
    float32 ones, used when B < 2^24.  Each task writes G and |G| into one
    tile buffer; a tile's sums add at most edge values <= B, so they stay in
    its float type while edge B fits the mantissa, else go to int64; sums
    stay under N B < 2^63.
    """
    bound = _check_gram_input(M)
    if M.N > pair_cap:
        raise PairScanCapExceeded(
            f"{M.N} columns exceed the pairwise cap {pair_cap}; raise the "
            "cap, or skip the scan by passing the design of an unsigned or "
            "balanced evaluation matrix: coherence_report(M, design=d)")
    order = np.argsort(M.sqnorms(), kind="stable")
    c = M.sqnorms()[order]
    values, column_group = np.unique(M.sqnorms(), return_inverse=True)
    group = column_group[order]
    N, g, edge = M.N, values.size, _gram_tile(M.n)
    dense = M.n * N * N < _DENSE_WORK_RATIO * int(np.sum(np.bincount(M.indices) ** 2))
    dtype = np.float32 if bound < 1 << 24 else np.float64
    exact_sums = edge * bound < 2 ** (np.finfo(dtype).nmant + 1)
    if dense:
        indptr, indices, data = _gather_columns(M, order)

        def slab(j0, j1):
            return _densify(M.n, indptr[j0:j1 + 1], indices, data, dtype)
    else:
        import scipy.sparse as sp

        # scipy's (data, indices, indptr) constructor would copy the
        # indices down to int32, so M's arrays are attached afterwards
        A = sp.csc_matrix((M.n, N), dtype=np.int64)
        A.data, A.indices, A.indptr = M.data, M.indices, M.indptr
        A = A[:, order]

        def slab(j0, j1):
            return A[:, j0:j1]

    def segments(j0, j1):  # offsets of the norm groups in j0..j1, their range
        heads = np.flatnonzero(np.diff(group[j0:j1], prepend=-1))
        return heads, slice(group[j0], group[j1 - 1] + 1)

    def scan(bounds):
        i0, i1 = bounds
        heads = segments(i0, i1)[0]
        spans = list(zip(heads, [*heads[1:], i1 - i0]))  # slab rows per group
        left = slab(i0, i1)
        tile = np.empty((i1 - i0, edge), dtype) if dense else None
        rows = np.zeros((2, i1 - i0, g), dtype=np.int64)  # sum and max of |G|
        cols = np.zeros((len(spans), N - i0), dtype=np.int64)
        for k0, k1 in [(i0, i1)] + [(k, min(k + edge, N)) for k in range(i1, N, edge)]:
            right = left if k0 == i0 else slab(k0, k1)
            G = (np.matmul(left.T, right, out=tile[:, :k1 - k0]) if dense
                 else (left.T @ right).toarray())
            np.abs(G, out=G)
            if not exact_sums:
                G = G.astype(np.int64, copy=False)
            if k0 == i0:
                np.fill_diagonal(G, 0)
            at, groups = segments(k0, k1)
            total, peak = (u.reduceat(G, at, axis=1).astype(np.int64, copy=False)
                           for u in (np.add, np.maximum))
            rows[0, :, groups] += total
            np.maximum(rows[1, :, groups], peak, out=rows[1, :, groups])
            # row slices sum faster than np.add.reduceat along axis 0
            cols[:, k0 - i0:k1 - i0] = [G[a:b].sum(0) for a, b in spans]
        return rows, cols

    slabs = [(i, min(i + edge, N)) for i in range(0, N, edge)]
    absolute = np.zeros((N, g), dtype=np.int64)
    pair_max = np.zeros((g, g), dtype=np.int64)
    with ThreadPoolExecutor(min(worker_count(), len(slabs))) as ex:
        for (i0, i1), (rows, cols) in zip(slabs, ex.map(scan, slabs)):
            absolute[i0:i1] += rows[0]
            absolute[i1:, segments(i0, i1)[1]] += cols[:, i1 - i0:].T
            np.maximum.at(pair_max, group[i0:i1], rows[1])
    return _GramScan(values, c, _signed_sums(M, column_group, g)[order],
                     absolute, np.maximum(pair_max, pair_max.T))


def _function_space_scan(M: MeasurementMatrix) -> _GramScan:
    """The _gram_scan tuple of a function-space matrix, from Gram row 0.

    M must be evaluation_matrix(design) or its balanced signing, as
    coherence_report checks.  Column 0 is the zero function, and every
    |row f| of G is a permutation of |row 0| that fixes the diagonal (see
    the module docstring), so pair_max is max_g |G_0g| and every absolute
    row sum is sum_g |G_0g|, g != 0.  The signed row sums are _signed_sums
    with one group, as for any matrix; Gram row 0 is A^T of column 0, one
    _transpose_products row.
    """
    _check_gram_input(M)
    c = M.sqnorms()
    column0 = _densify(M.n, M.indptr[:2], M.indices, M.data).T
    row0 = np.abs(_transpose_products(M, column0)[0])
    row0[0] = 0
    return _GramScan(c[:1], c, _signed_sums(M, np.zeros(M.N, np.int64), 1),
                     np.full((M.N, 1), row0.sum()),
                     row0.max(keepdims=True)[:, None])


def _is_function_space(M: MeasurementMatrix, design) -> bool:
    """Whether M is, array for array, evaluation_matrix(design) with sign
    scheme all_ones or balanced_matrix(design) with balanced."""
    # imported here, as both modules import this one
    from .constructions import MATERIALIZE_CAP, evaluation_matrix
    from .signs import balanced_matrix
    if design is None or not M.N == design.num_columns <= MATERIALIZE_CAP:
        return False
    kind = (M.meta.get("sign_scheme") or {}).get("kind")
    build = {"all_ones": evaluation_matrix, "balanced": balanced_matrix}
    return kind in build and M == build[kind](design)


def _coherence_from(scan: _GramScan):
    values = scan.values.tolist()
    weights = [SurdSum.ratio_sqrt(1, c) for c in values]  # 1 / sqrt(c)
    best = (0, 1, 0, 0)  # (|G_ij|, c_u c_v, u, v), |G_ij|^2 / (c_u c_v) maximal
    for u, cu in enumerate(values):
        for v, cv in enumerate(values):
            ip = int(scan.pair_max[u, v])
            if ip * ip * best[1] > best[0] * best[0] * cu * cv:
                best = (ip, cu * cv, u, v)
    return as_exact(best[0] * weights[best[2]] * weights[best[3]])


def _average_coherence_from(scan: _GramScan, mode: str):
    S = scan.signed if mode == "signed" else scan.absolute
    N = scan.sqnorms.size
    values = scan.values.tolist()
    if len(values) == 1:
        return Fraction(int(np.abs(S[:, 0]).max()), values[0] * (N - 1))
    weights = [SurdSum.ratio_sqrt(1, c) for c in values]  # 1 / sqrt(c)
    pair = [[w * wi for w in weights] for wi in weights]  # 1 / sqrt(v c_i)
    # score_i = sum_v S[i,v] / sqrt(v c_i) depends on the row only through
    # (S[i,:], c_i), so each distinct row (in lexsort order) is summed once
    rows = np.column_stack([S, np.searchsorted(scan.values, scan.sqnorms)])
    rows = rows[np.lexsort(rows.T)]
    best = None
    for *sums, i in rows[np.r_[True, (rows[1:] != rows[:-1]).any(1)]].tolist():
        total = sum((w * s for s, w in zip(sums, pair[i])), SurdSum())
        if mode == "signed":
            total = abs(total)
        if best is None or total > best:
            best = total
    return as_exact(best / (N - 1))


def coherence(M: MeasurementMatrix, pair_cap: int = DEFAULT_PAIR_CAP):
    """Exact coherence max_{i<j} |<phi_i,phi_j>| / (||phi_i|| ||phi_j||).

    Returns a Fraction when the value is rational (always the case when all
    columns share a squared norm), else a single-radicand SurdSum.
    """
    return _coherence_from(_gram_scan(M, pair_cap))


def average_coherence(M: MeasurementMatrix, mode: str = "absolute",
                      pair_cap: int = DEFAULT_PAIR_CAP):
    """Exact average coherence.

    absolute: (1/(N-1)) max_i sum_{j != i} |<phi_i,phi_j>| / (||phi_i|| ||phi_j||)
    signed:   (1/(N-1)) max_i |sum_{j != i} <phi_i,phi_j>  / (||phi_i|| ||phi_j||)|

    The display definition puts the absolute value inside the sum; cancellation
    arguments need it outside.  Both are provided and tagged in reports.
    """
    if mode not in ("absolute", "signed"):
        raise PreconditionError(f"unknown average-coherence mode {mode!r}")
    return _average_coherence_from(_gram_scan(M, pair_cap), mode)


def welch_bound(n: int, N: int) -> float:
    """sqrt(N / (n (N - n))), the universal coherence lower bound."""
    return math.sqrt(welch_bound_squared(n, N))


def welch_bound_squared(n: int, N: int) -> Fraction:
    """Exact square of the Welch bound, for bit-exact comparisons."""
    if N <= n:
        raise DegenerateShape(f"Welch bound needs N > n, got n={n}, N={N}")
    if n < 1:
        raise DegenerateShape("n must be >= 1")
    return Fraction(N, n * (N - n))


def sparsity_order_bound(mu, n: int | None = None) -> int:
    """floor(1/mu) + 1 with exact rational/surd floor.

    mu == 0 means orthonormal columns and a vacuous bound; the convention is
    k = n, so n must be supplied in that case (else ZeroCoherence is raised).
    """
    exact = as_exact(mu)
    if not exact:
        if n is None:
            raise ZeroCoherence("orthonormal columns: bound vacuous, pass n")
        return n
    return floor_reciprocal(exact) + 1


@dataclass
class StrongCoherenceVerdict:
    """Outcome of the two strong-coherence inequalities."""

    cond1: bool          # mu <= 1 / (160 log N)
    cond2: bool          # omega <= mu / sqrt(n)
    log_base: str
    omega_mode: str

    @property
    def satisfied(self) -> bool:
        return self.cond1 and self.cond2

    def to_dict(self):
        return asdict(self)


def _verdict(mu, omega, n: int, N: int, log_base: str,
             omega_mode: str) -> StrongCoherenceVerdict:
    """mu <= 1/(160 log N) and omega <= mu/sqrt(n), both exact."""
    rhs = (SurdSum() + mu).times_sqrt(n) / n  # mu / sqrt(n)
    return StrongCoherenceVerdict(leq_reciprocal_log(mu, N, log_base),
                                  exact_leq(omega, rhs), log_base, omega_mode)


# -- reports ------------------------------------------------------------------


def _exact_json(value) -> dict:
    exact = as_exact(value)
    out = {"num": None, "den": None, "decimal": exact_decimal(exact)}
    if isinstance(exact, Fraction):
        out["num"] = exact.numerator
        out["den"] = exact.denominator
        return out
    sq = exact.squared()
    if isinstance(sq, Fraction):
        # single-radicand value: the square is an exact fraction
        out["squared"] = {"num": sq.numerator, "den": sq.denominator}
    out["surd_terms"] = [
        {"radicand": int(r), "num": c.numerator, "den": c.denominator}
        for r, c in exact.terms()]
    return out


@dataclass
class CoherenceReport:
    """Exact mu, both omegas, Welch bound, sparsity bound, strong-coherence verdict."""

    family: str
    params: dict
    n: int
    N: int
    mu: object
    omega_signed: object
    omega_absolute: object
    welch: float | None
    sparsity_bound: int
    orthonormal: bool
    strong_coherence: StrongCoherenceVerdict

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "n": self.n,
            "N": self.N,
            "mu": _exact_json(self.mu),
            "omega_signed": _exact_json(self.omega_signed),
            "omega_absolute": _exact_json(self.omega_absolute),
            "welch": self.welch,
            "sparsity_bound": self.sparsity_bound,
            "orthonormal": self.orthonormal,
            "strong_coherence": self.strong_coherence.to_dict(),
        }


def coherence_report(M: MeasurementMatrix, log_base: str = "natural",
                     omega_mode: str = "signed",
                     pair_cap: int = DEFAULT_PAIR_CAP, *,
                     design=None) -> CoherenceReport:
    """The exact report from one scan: the uncapped O(nnz)
    _function_space_scan if M is the unsigned or balanced matrix of design
    (_is_function_space), else _gram_scan under pair_cap."""
    if log_base not in _LOG_BASES:
        raise PreconditionError(f"unknown log base {log_base!r}")
    if omega_mode not in ("signed", "absolute"):
        raise PreconditionError(f"unknown omega mode {omega_mode!r}")
    scan = (_function_space_scan(M) if _is_function_space(M, design)
            else _gram_scan(M, pair_cap))
    mu = _coherence_from(scan)
    omega_signed = _average_coherence_from(scan, "signed")
    omega_absolute = _average_coherence_from(scan, "absolute")
    welch = welch_bound(M.n, M.N) if M.N > M.n else None
    orthonormal = not as_exact(mu)
    k = sparsity_order_bound(mu, n=M.n)
    verdict = _verdict(mu, omega_signed if omega_mode == "signed"
                       else omega_absolute, M.n, M.N, log_base, omega_mode)
    return CoherenceReport(
        family=M.meta.get("family", "unknown"),
        params=M.meta.get("params", {}),
        n=M.n, N=M.N,
        mu=mu, omega_signed=omega_signed, omega_absolute=omega_absolute,
        welch=welch, sparsity_bound=k, orthonormal=orthonormal,
        strong_coherence=verdict)


# -- AGRIP-SPARSE io -----------------------------------------------------------


def _decimal_table(values: np.ndarray, end: bytes) -> np.ndarray:
    """Item k is b"<values[k]><end>", right-aligned in NUL-padded bytes."""
    negative = values < 0
    magnitude = np.abs(values).astype(np.uint64)  # abs wraps -2^63; uint64 2^63
    digits = len(str(int(magnitude.max())))
    last = digits + int(negative.any()) - 1  # column of the units digit
    table = np.zeros((values.size, last + 1 + len(end)), dtype=np.uint8)
    table[:, last + 1:] = np.frombuffer(end, dtype=np.uint8)
    for k in range(digits):  # a zero magnitude leaves NULs, but the units "0"
        table[:, last - k] = np.where(magnitude, magnitude % 10 + 48, 0 if k else 48)
        magnitude //= 10
    table[negative, np.argmax(table[negative] != 0, axis=1) - 1] = ord("-")
    return table.view(np.dtype((np.void, table.shape[1])))[:, 0]


def write_sparse(M: MeasurementMatrix, path) -> None:
    lo, hi = int(M.data.min()), int(M.data.max())  # Python ints: no overflow
    values, value = ((lo + np.arange(hi - lo + 1), M.data - lo)  # no sort
                     if hi - lo < _IO_BLOCK else np.unique(M.data, return_inverse=True))
    column = np.repeat(np.arange(M.N), np.diff(M.indptr))
    tables = [(_decimal_table(np.arange(M.N), b" "), column),
              (_decimal_table(np.arange(M.n), b" "), M.indices),
              (_decimal_table(values, b"\n"), value)]
    with open(path, "wb") as fh:
        fh.write(f"{FORMAT_NAME} {FORMAT_VERSION} {M.n} {M.N} {M.nnz}\n".encode())
        for lo in range(0, M.nnz, _IO_BLOCK):
            lines = np.concatenate(
                [t.take(i[lo:lo + _IO_BLOCK])[:, None].view(np.uint8)
                 for t, i in tables], axis=1)
            fh.write(lines[lines != 0])  # drop the padding


def read_sparse(path, meta=None) -> MeasurementMatrix:
    # a byte that is not UTF-8 decodes to a surrogate, which fails its line
    with open(path, "r", newline="", errors="surrogateescape") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 5 or parts[0] != FORMAT_NAME:
            raise FormatError(f"bad header {header!r}", line=1)
        try:
            version, n, N, nnz = (int(x) for x in parts[1:])
        except ValueError:
            raise FormatError(f"non-integer header fields in {header!r}", line=1)
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}", line=1)
        # every column holds an entry and the shortest entry line is
        # "0 0 1\n", so the header is checked before anything is allocated
        data_bytes = os.fstat(fh.fileno()).st_size - len(header.encode())
        if n < 1 or N < 1 or N > nnz or nnz * _MIN_ENTRY_BYTES > data_bytes:
            raise FormatError(
                f"header {header.strip()!r} does not fit a {data_bytes}-byte "
                "body of nonempty columns", line=1)
        cols, rows, vals = [], [], []
        last = (-1, -1)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                raise FormatError("blank line inside data", line=lineno)
            try:
                col_s, row_s, val_s = line.split()
                col, row, val = int(col_s), int(row_s), int(val_s)
            except ValueError:
                raise FormatError(f"malformed entry {line.rstrip()!r}", line=lineno)
            if not (0 <= col < N):
                raise FormatError(f"column index {col} out of range", line=lineno)
            if not (0 <= row < n):
                raise FormatError(f"row index {row} out of range", line=lineno)
            if val == 0:
                raise FormatError("explicit zero entry", line=lineno)
            if not (-1 << 63 <= val < 1 << 63):
                raise FormatError(f"entry {val} is outside int64", line=lineno)
            if (col, row) <= last:
                raise FormatError("entries not sorted by (col, row)", line=lineno)
            last = (col, row)
            cols.append(col)
            rows.append(row)
            vals.append(val)
        count = len(cols)
        if count != nnz:
            raise FormatError(f"header promises {nnz} entries, found {count}",
                              line=count + 1)
        sizes = np.bincount(cols, minlength=N)
        if not sizes.all():
            raise FormatError(f"column {int(np.argmin(sizes))} has no entries",
                              line=count + 1)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    return MeasurementMatrix.from_csc(n, N, indptr, rows, vals, meta=meta)
