"""Measurement-matrix families built from finite geometry.

Every family is a space of functions evaluated at rational points: a basis
table (table[t][b] = code of basis function t at point b) and one column per
coefficient vector.  All of them compute their values through one engine,
evaluate_coefficient_block, driven block by block by evaluation_blocks (as
do the difference-trick and Fermat-section oracles of verification); all
linear algebra over F_q (design ranks, nullspaces, the subfield inverse) goes
through one batched RREF kernel, _rref.

Families:

* devore(field, r): rows (a, b) in F_q x F_q, columns the graph indicators of
  all q^r polynomials of degree <= r-1; the projective-line design of
  projective_space_design evaluated by evaluation_matrix.
* construction_a_simple_poles / construction_a_single_point: function spaces
  on the projective line with pole bookkeeping rows, giving signed integer
  entries (-1 per simple pole, -deg(f) at a single point of order-t poles).
* plane_curve_matrix(field, r): incidence of P^2(F_q) points with smooth
  degree-r plane curves, one column per scalar class of smooth forms.  One
  marker, _mark_singular, finds the singular forms on every base field: the
  conditions at the points of P^2(F_{q^k}), k <= 3, are written in
  F_q-coordinates by a table lookup and their nullspaces marked.  Only one
  point per Frobenius orbit is scanned (conjugate points have the same
  nullspace over F_q), a block of points at a time; the rank-deficient
  points of a block are grouped by nullity, and each group's nullspace
  combinations are evaluated as one blocked F_q product.
* fermat_hyperplane_matrix(field): incidence of the degree-(q+1) Fermat
  surface's rational points in P^3(F_{q^2}) with all hyperplanes (the
  coefficient rows are the hyperplanes' linear forms).
* evaluation_matrix(design): rows (a, b) in F_q x B, columns the graph
  indicators of every function in a T-dimensional evaluation design;
  projective_space_design / ruled_surface_design / toric_design produce the
  designs.

Index conventions (fixed for reproducibility, used by every family):

* field elements are enumerated by ascending code;
* evaluation rows are point-major: row = point_index * q + value_code;
* column j encodes the coefficient vector by base-q digits of j, digit t
  being the coefficient of basis function t (the first basis function varies
  fastest);
* projective points (_projective_points) are the canonical
  first-nonzero-coordinate-1 representatives, ordered by the position of
  that 1 and then lexicographically;
* monomials(n, d) lists the degree-d exponent tuples in descending order;
  monomial_table evaluates a list of them at points;
* scalar_class_codes(q, T) holds one column code per scalar class: the codes
  whose lowest nonzero digit is 1, i.e. first nonzero coefficient 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisCapExceeded,
    ColumnCapExceeded,
    DegreeTooLarge,
    EnumerationCapExceeded,
    PointCountMismatch,
    PoleEvalOverlap,
    PolytopeTooLarge,
    PreconditionError,
    RankDeficient,
)
from .fields import FieldSpec, extension_with_embedding, make_field
from .matrix import MeasurementMatrix

BASIS_CAP = 24
MATERIALIZE_CAP = 1 << 16
BLOCK_ENTRIES = 1 << 16  # values per evaluation block
PLANE_ENUM_CAP = 2_000_000
FERMAT_ORDER_CAP = 25  # cap on Q = q^2

INFINITY = "inf"


def _point_code(field, x):
    """A point given as an integer code, its decimal string or INFINITY."""
    if isinstance(x, str) and x == INFINITY:
        return INFINITY
    refused = PreconditionError(
        f"point {x!r} is neither a field code nor {INFINITY!r}")
    if isinstance(x, bool) or not isinstance(x, (str, int, np.integer)):
        raise refused
    try:
        code = int(x)
    except ValueError:
        raise refused from None
    if not (0 <= code < field.q):
        raise PreconditionError(f"point code {code} outside F_{field.q}")
    return code


def coefficient_digits(q: int, codes, T: int) -> np.ndarray:
    """Base-q digits of column indices: (len, T), digit t = coefficient t."""
    codes = np.atleast_1d(np.asarray(codes, dtype=np.int64))
    out = np.empty((codes.size, T), dtype=np.int64)
    rem = codes.copy()
    for t in range(T):
        out[:, t] = rem % q
        rem //= q
    return out


def scalar_class_codes(q: int, T: int):
    """One code per scalar class of nonzero vectors in F_q^T, in T ranges.

    Range t holds the codes whose lowest nonzero digit is digit t and equals
    1: the vectors whose first nonzero coefficient is coefficient t, scaled
    to 1.  The ranges are never materialised.
    """
    return [range(q ** t, q ** T, q ** (t + 1)) for t in range(T)]


def monomials(n: int, d: int):
    """Exponent tuples of the degree-d monomials in n variables, descending."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1)
            for rest in monomials(n - 1, d - e)]


def monomial_table(field: FieldSpec, X: np.ndarray, exps) -> np.ndarray:
    """(len(exps), len(X)) codes of each monomial x^e at the points X."""
    table = np.ones((len(exps), X.shape[0]), dtype=np.int64)
    for t, e in enumerate(exps):
        for i, ei in enumerate(e):
            if ei:
                table[t] = field.np_mul(table[t], field.np_pow(X[:, i], ei))
    return table


def _projective_points(q: int, dim: int) -> np.ndarray:
    """(count, dim + 1) codes of the canonical points of P^dim(F_q): first
    nonzero coordinate 1, ordered by its position, then lexicographically."""
    blocks = []
    for i in range(dim + 1):
        free = dim - i
        block = np.zeros((q ** free, dim + 1), dtype=np.int64)
        block[:, i] = 1
        block[:, i + 1:] = coefficient_digits(q, np.arange(q ** free), free)[:, ::-1]
        blocks.append(block)
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# evaluation designs
# ---------------------------------------------------------------------------


class EvaluationDesign:
    """A basis-evaluation table: T basis functions evaluated on points B.

    table[t][b] is the code of f_t(point b).  Invariants checked here: points
    are distinct, rows are linearly independent over F_q (so distinct
    coefficient vectors give distinct columns), and the family's bound on the
    zero count of a nonzero function is < |B|.
    """

    __slots__ = ("field", "points", "basis_names", "table",
                 "bound_on_zeros", "family", "params")

    def __init__(self, field: FieldSpec, points, basis_names, table,
                 bound_on_zeros: int, family: str = "custom", params=None):
        self.field = field
        self.points = tuple(tuple(p) for p in points)
        self.basis_names = tuple(basis_names)
        self.table = np.asarray(table, dtype=np.int64)
        self.bound_on_zeros = int(bound_on_zeros)
        self.family = family
        self.params = dict(params or {})
        self._validate()

    @property
    def T(self) -> int:
        return self.table.shape[0]

    @property
    def size(self) -> int:
        return self.table.shape[1]

    @property
    def num_columns(self) -> int:
        return self.field.q ** self.T

    def _validate(self):
        if self.table.ndim != 2:
            raise PreconditionError("table must be T x |B|")
        if self.table.shape != (len(self.basis_names), len(self.points)):
            raise PreconditionError("table shape disagrees with labels/points")
        if len(set(self.points)) != len(self.points):
            raise PreconditionError("evaluation points repeat")
        if self.T > BASIS_CAP:
            raise BasisCapExceeded(f"T = {self.T} exceeds the basis cap {BASIS_CAP}")
        if not (0 <= self.bound_on_zeros < self.size):
            raise PreconditionError(
                f"bound_on_zeros = {self.bound_on_zeros} must lie in [0, |B|)")
        if _rref(self.field, self.table)[1].sum() != self.T:
            raise RankDeficient("basis functions are linearly dependent on B")

    def __repr__(self):
        return (f"EvaluationDesign({self.family}, T={self.T}, "
                f"|B|={self.size}, N={self.num_columns})")


def _rref(field: FieldSpec, mats):
    """Reduced row echelon form over field of a small matrix or a stack of them.

    mats holds codes, shape (..., R, C).  Returns (reduced, pivots): reduced
    has the same shape, pivots is a boolean (..., C) mask of the pivot
    columns, and the i-th row of each reduced matrix carries its i-th pivot
    (rows at and below the rank are zero).  The rank is pivots.sum(-1).
    """
    work = np.array(mats, dtype=np.int64)
    shape = work.shape
    R, C = shape[-2:]
    work = work.reshape(math.prod(shape[:-2]), R, C)
    rank = np.zeros(work.shape[0], dtype=np.int64)
    pivots = np.zeros((work.shape[0], C), dtype=bool)
    row_ids = np.arange(R)
    for c in range(C):
        avail = (work[:, :, c] != 0) & (row_ids[None, :] >= rank[:, None])
        sel = np.flatnonzero(avail.any(axis=1))
        if sel.size == 0:
            continue
        src = np.argmax(avail[sel], axis=1)
        dst = rank[sel]
        row = work[sel, src]
        work[sel, src] = work[sel, dst]
        # x^(q-2) inverts the nonzero pivot
        row = field.np_mul(field.np_pow(row[:, c], field.q - 2)[:, None], row)
        factors = work[sel, :, c]
        factors[np.arange(sel.size), dst] = 0
        work[sel] = field.np_sub(work[sel], field.np_mul(factors[:, :, None],
                                                         row[:, None, :]))
        work[sel, dst] = row
        pivots[sel, c] = True
        rank[sel] += 1
        if rank.min() == R:
            break
    return work.reshape(shape), pivots.reshape(shape[:-2] + (C,))


def evaluate_coefficient_block(field: FieldSpec, table: np.ndarray,
                               coeffs: np.ndarray) -> np.ndarray:
    """Value codes of f = sum_t coeffs[:, t] f_t at every point: (k, |B|).

    table[t][b] is the code of basis function f_t at point b.  On a prime
    field the sum is one product: a float64 (BLAS) one while every partial
    sum, at most T (p - 1)^2, is an integer below 2^53, else an int64 one;
    either way it is reduced mod p in int64, which is faster than in float.
    """
    if field.s == 1:
        if table.shape[0] * (field.p - 1) ** 2 < 1 << 53:
            product = coeffs.astype(np.float64) @ table.astype(np.float64)
            return product.astype(np.int64) % field.p
        return (coeffs.astype(np.int64) @ table) % field.p
    vals = np.zeros((coeffs.shape[0], table.shape[1]), dtype=np.int64)
    for t in range(table.shape[0]):
        prod = field.np_mul(coeffs[:, t][:, None], table[t][None, :])
        vals = field.np_add(vals, prod)
    return vals


def evaluation_blocks(field: FieldSpec, table: np.ndarray, codes):
    """Yield (coeffs, values) for successive blocks of column codes.

    The coefficient vector of a column is the base-q digits of its code
    (see coefficient_digits); values is evaluate_coefficient_block of the
    block.  A block holds about BLOCK_ENTRIES values.
    """
    T, B = table.shape
    step = max(1, BLOCK_ENTRIES // B)
    for j0 in range(0, len(codes), step):
        coeffs = coefficient_digits(field.q, codes[j0:j0 + step], T)
        yield coeffs, evaluate_coefficient_block(field, table, coeffs)


def evaluation_matrix(design: EvaluationDesign) -> MeasurementMatrix:
    """Binary matrix with rows (value, point) and one column per function."""
    N = design.num_columns
    if N > MATERIALIZE_CAP:
        raise ColumnCapExceeded(
            f"q^T = {N} exceeds the materialization cap {MATERIALIZE_CAP}")
    q, B = design.field.q, design.size
    point_base = np.arange(B, dtype=np.int64) * q
    rows = [(point_base + vals).ravel() for _, vals in
            evaluation_blocks(design.field, design.table, range(N))]
    meta = {"family": design.family, "params": design.params,
            "field": design.field.descriptor, "sign_scheme": {"kind": "all_ones"},
            "column_support": B, "bound_on_zeros": design.bound_on_zeros}
    return MeasurementMatrix._unchecked(
        q * B, N, np.arange(N + 1) * B, np.concatenate(rows),
        np.ones(N * B, dtype=np.int64), meta=meta)


def _matrix_from_blocks(n: int, sizes, rows, values, meta) -> MeasurementMatrix:
    """One matrix from per-block lists of column sizes, rows and values."""
    sizes, rows, values = (np.concatenate(parts + [np.zeros(0, dtype=np.int64)])
                           for parts in (sizes, rows, values))
    return MeasurementMatrix(n, sizes.size,
                             np.concatenate([[0], np.cumsum(sizes)]),
                             rows, values, meta=meta)


# ---------------------------------------------------------------------------
# DeVore
# ---------------------------------------------------------------------------


def devore(field: FieldSpec, r: int) -> MeasurementMatrix:
    """q^2 x q^r graph-indicator matrix of polynomials of degree <= r-1.

    Entry 1 at row (a, b) iff f(a) = b; row index = code(a) * q + code(b).
    Each column has exactly q ones: the evaluation matrix of the devore
    design of build_design.
    """
    return evaluation_matrix(build_design("devore", field, {"r": r}))


# ---------------------------------------------------------------------------
# Construction A on the projective line
# ---------------------------------------------------------------------------


def _pole_slot_matrix(field: FieldSpec, table: np.ndarray, num_poles: int,
                      pole_entries, meta: dict) -> MeasurementMatrix:
    """Construction-A matrix: pole @-slot rows, then value rows per point.

    Every point owns a block of q + 1 rows: q value rows and the @ slot.
    The first num_poles blocks are the pole points; pole_entries(coeffs)
    gives their @-slot entries, (k, num_poles) with 0 for no entry.  The
    remaining blocks are the evaluation points of table, entry +1 at the
    function's value.
    """
    q = field.q
    T, E = table.shape
    N = q ** T
    pole_rows = np.arange(num_poles, dtype=np.int64) * (q + 1) + q
    value_base = (num_poles + np.arange(E, dtype=np.int64)) * (q + 1)
    sizes, rows, values = [], [], []
    for coeffs, vals in evaluation_blocks(field, table, range(N)):
        k = coeffs.shape[0]
        block_rows = np.hstack([np.broadcast_to(pole_rows, (k, num_poles)),
                                value_base + vals])
        entries = np.hstack([pole_entries(coeffs),
                             np.ones((k, E), dtype=np.int64)])
        keep = entries != 0
        sizes.append(keep.sum(axis=1))
        rows.append(block_rows[keep])
        values.append(entries[keep])
    return _matrix_from_blocks((q + 1) * (num_poles + E), sizes, rows, values,
                               meta)


def construction_a_simple_poles(field: FieldSpec, poles,
                                eval_points) -> MeasurementMatrix:
    """Simple poles at t distinct points of P^1; entries +1 at values, -1 at poles.

    Function space basis: 1, then 1/(x - g) per finite pole g, plus x if the
    point at infinity is a pole.  Column norm^2 = |P| + (number of actual
    poles of the function).
    """
    q = field.q
    poles = [_point_code(field, g) for g in poles]
    evals = [_point_code(field, b) for b in eval_points]
    if len(set(poles)) != len(poles) or len(set(evals)) != len(evals):
        raise PoleEvalOverlap("repeated points")
    overlap = set(poles) & set(evals)
    if overlap:
        raise PoleEvalOverlap(f"points {sorted(map(str, overlap))} are "
                              "both poles and evaluation points")
    t = len(poles)
    if t < 1:
        raise PreconditionError("need at least one pole point")
    if not evals:
        raise PreconditionError("need at least one evaluation point")
    if t + 1 > q:
        raise PreconditionError(f"need t + 1 <= q, got t={t}, q={q}")
    N = q ** (t + 1)
    if N > MATERIALIZE_CAP:
        raise ColumnCapExceeded(f"q^(t+1) = {N} exceeds the cap {MATERIALIZE_CAP}")

    # basis value table on evaluation points; basis[0] is the constant 1;
    # the disjointness check above guarantees no basis function is evaluated
    # at its own pole
    table = [[1] * len(evals)]
    for g in poles:
        if g == INFINITY:
            table.append(list(evals))  # the function x
        else:
            table.append([0 if b == INFINITY
                          else field.inv(field.sub(b, g)) for b in evals])
    meta = {"family": "consta-poles",
            "params": {"poles": [str(g) for g in poles],
                       "points": [str(b) for b in evals]},
            "field": field.descriptor, "sign_scheme": {"kind": "all_ones"},
            "column_support": None,
            "coherence_bound": [2 * t, t + len(evals)]}
    # -1 in the @ slot of every pole the function actually has
    return _pole_slot_matrix(field, np.array(table, dtype=np.int64), t,
                             lambda coeffs: -(coeffs[:, 1:] != 0).astype(np.int64),
                             meta)


def construction_a_single_point(field: FieldSpec, t: int,
                                eval_points) -> MeasurementMatrix:
    """Order-<=t poles at infinity only: L(G) = polynomials of degree <= t.

    Entry -deg(f) in the (@, infinity) slot for nonconstant f; +1 at values.
    Column norm^2 = |P| + deg(f)^2.
    """
    q = field.q
    if not (1 <= t < q):
        raise PreconditionError(f"need 1 <= t < q, got t={t}, q={q}")
    evals = [_point_code(field, b) for b in eval_points]
    if len(set(evals)) != len(evals):
        raise PoleEvalOverlap("repeated evaluation points")
    if INFINITY in evals:
        raise PoleEvalOverlap("infinity is the pole point")
    if not evals:
        raise PreconditionError("need at least one evaluation point")
    N = q ** (t + 1)
    if N > MATERIALIZE_CAP:
        raise ColumnCapExceeded(f"q^(t+1) = {N} exceeds the cap {MATERIALIZE_CAP}")
    points = np.array(evals, dtype=np.int64)
    table = np.stack([field.np_pow(points, i) for i in range(t + 1)])
    meta = {"family": "consta-point",
            "params": {"t": t, "points": [str(b) for b in evals]},
            "field": field.descriptor, "sign_scheme": {"kind": "all_ones"},
            "column_support": None,
            "coherence_bound": [t + t * t, len(evals) + t * t]}
    # -deg(f) in the @ slot; the degree is the highest nonzero coefficient
    degree = np.arange(t + 1, dtype=np.int64)
    return _pole_slot_matrix(
        field, table, 1,
        lambda coeffs: -((coeffs != 0) * degree).max(axis=1, keepdims=True),
        meta)


# ---------------------------------------------------------------------------
# plane curves (Construction B at r = 2, 3)
# ---------------------------------------------------------------------------


def _p2_index(points: np.ndarray, q: int) -> np.ndarray:
    """Index of canonical P^2(F_q) points (rows of codes) in
    _projective_points(q, 2)."""
    x, y, z = points.T
    return np.where(x == 1, y * q + z, np.where(y == 1, q * q + z, q * q + q))


def _monomial_name(exps, names=("x", "y", "z")):
    parts = []
    for e, nm in zip(exps, names):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


def _mark_singular_points(mask: np.ndarray, field: FieldSpec, rows):
    """Mark every form singular at one of a block of points.

    rows[i] holds point i's linear conditions over F_q on the m coefficients
    of a form (its value and three partials there); the forms singular at
    the point are their nullspace.  One _rref reduces the whole block, and
    the points of full rank (nullspace {0}) are dropped by one
    pivots.all(-1) test.  The others are grouped by nullity d.  Within a
    group each point's nullspace basis, one vector per free column, fills d
    rows of a table whose columns are the (point, coefficient) pairs, so
    evaluation_blocks evaluates the q^d combinations at every point of the
    group as one F_q product, about BLOCK_ENTRIES values per block.  A
    combination's code is its base-q number.
    """
    q = field.q
    m = rows.shape[-1]
    weights = q ** np.arange(m, dtype=np.int64)
    reduced, pivots = _rref(field, rows)
    deficient = ~pivots.all(-1)
    reduced, pivots = reduced[deficient], pivots[deficient]
    nullity = m - pivots.sum(-1)
    for d in np.unique(nullity).tolist():
        red, piv = reduced[nullity == d], pivots[nullity == d]
        G = red.shape[0]
        free = np.nonzero(~piv)[1].reshape(G, d)
        bound = np.nonzero(piv)[1].reshape(G, m - d)
        g, j = np.arange(G)[:, None], np.arange(d)
        basis = np.zeros((G, d, m), dtype=np.int64)
        basis[g, j, free] = 1
        # row i of a reduced matrix carries the i-th pivot, bound[:, i]
        coeffs = np.take_along_axis(red[:, :m - d], free[:, None, :], axis=2)
        basis[g[:, :, None], j[:, None], bound[:, None, :]] = field.np_neg(
            coeffs.transpose(0, 2, 1))
        step = max(1, BLOCK_ENTRIES // (m * q ** d))
        for g0 in range(0, G, step):
            table = basis[g0:g0 + step].transpose(1, 0, 2).reshape(d, -1)
            for _, vecs in evaluation_blocks(field, table, range(q ** d)):
                mask[vecs.reshape(len(vecs), -1, m) @ weights] = True


def _subfield_coordinate_map(field, ext, emb, k):
    """(ext.q, k) table: row c holds the F_q-coordinates of extension code c.

    The coordinates are in the F_q-basis 1, w, ..., w^{k-1} of the extension,
    where w is the class of x in the extension's own polynomial
    representation (so w^j has code p^j), each coordinate written as its
    F_q code.  On a prime field the table is ext.np_digits(); at k = 1 it is
    the column of codes itself.
    """
    p, s = field.p, field.s
    n = s * k
    # image of x^a times w^j, ordered (j, a); its digits are a column of A
    basis = ext.np_mul(emb[p ** np.arange(s)][None, :],
                       (p ** np.arange(k, dtype=np.int64))[:, None])
    A = ext.np_digits()[basis.ravel()].T
    # invert A over F_p: the RREF of [A | I] is [I | A^-1]
    reduced, pivots = _rref(make_field(p),
                            np.hstack([A, np.eye(n, dtype=np.int64)]))
    if not pivots[:n].all():
        raise AssertionError("subfield basis is degenerate")
    coords = (ext.np_digits() @ reduced[:, n:].T) % p  # digit j * s + a
    return coords.reshape(ext.q, k, s) @ (p ** np.arange(s, dtype=np.int64))


def _frobenius_representatives(field, ext, k):
    """Codes of the points of P^2(ext) that _mark_singular scans, ext = F_{q^k}.

    At k = 1 these are all the points.  At k in {2, 3} the Frobenius map
    x -> x^q, applied to each coordinate, fixes the points of P^2(F_q) and
    moves every other point through an orbit of exactly k points, since k
    is prime; it keeps a point canonical (0^q = 0, 1^q = 1).  A point is
    kept iff its index is below those of its k - 1 conjugates: P^2(F_q) is
    dropped and the first point of each orbit is kept, in index order.
    """
    points = _projective_points(ext.q, 2)
    if k == 1:
        return points
    frob = ext.np_pow(np.arange(ext.q, dtype=np.int64), field.q)
    index = np.arange(len(points))
    keep = np.ones(len(points), dtype=bool)
    conjugate = points
    for _ in range(k - 1):
        conjugate = frob[conjugate]
        keep &= index < _p2_index(conjugate, ext.q)
    return points[keep]


def _singular_conditions(ext, emb, monos, X):
    """(len(X), 4, m) codes of each monomial's value and its three partials
    at the points X of P^2(ext); emb embeds the base field in ext."""
    p = ext.p
    r = sum(monos[0])
    pows = [[ext.np_pow(X[:, a], e) for e in range(r + 1)] for a in range(3)]

    def monomial(exps):
        return ext.np_mul(ext.np_mul(pows[0][exps[0]], pows[1][exps[1]]),
                          pows[2][exps[2]])

    cond = np.zeros((X.shape[0], 4, len(monos)), dtype=np.int64)
    for t, exps in enumerate(monos):
        cond[:, 0, t] = monomial(exps)
        for axis, e in enumerate(exps):
            scale = emb[e % p]
            if scale:
                lowered = tuple(d - (a == axis) for a, d in enumerate(exps))
                cond[:, 1 + axis, t] = ext.np_mul(scale, monomial(lowered))
    return cond


def _mark_singular(field, r, k, mask):
    """Mark every degree-r form singular at a point of P^2(F_{q^k}).

    At each point the form's value and its three partials are F_{q^k}-linear
    in the m coefficients; their condition codes, written in F_q-coordinates
    through _subfield_coordinate_map, give 4k linear conditions over F_q
    whose nullspaces _mark_singular_points marks.

    One point per Frobenius orbit is enough (_frobenius_representatives).
    A form f with coefficients in F_q satisfies f(P^q) = f(P)^q, and so do
    its partials, whose scales e mod p lie in F_p; so f is singular at P
    iff it is singular at P^q, and every point of an orbit has the same
    nullspace.  At k = 2, 3 the points of P^2(F_q) are left to the k = 1
    pass, whose conditions they repeat.  The points are handled in blocks
    of about BLOCK_ENTRIES condition codes, so the (points, 4k, m) rows
    never exist for the whole plane at once.
    """
    E, emb = extension_with_embedding(field, k)
    coordinates = _subfield_coordinate_map(field, E, emb, k)
    monos = monomials(3, r)
    m = len(monos)
    points = _frobenius_representatives(field, E, k)
    step = max(1, BLOCK_ENTRIES // (4 * k * m))
    for i0 in range(0, len(points), step):
        cond = _singular_conditions(E, emb, monos, points[i0:i0 + step])
        rows = coordinates[cond].transpose(0, 1, 3, 2)  # (block, 4, k, m)
        _mark_singular_points(mask, field, rows.reshape(-1, 4 * k, m))


def plane_singular_mask(field: FieldSpec, r: int) -> np.ndarray:
    """Boolean mask over all q^m coefficient tuples: True = singular form.

    A form is singular iff it and its three partials share a projective zero
    over some extension F_{q^k}.  For r in {2, 3} the singular points of a
    singular form include a Galois orbit of at most 3 points, so k <= 3
    suffices and the scan over k = 1, 2, 3 is fixed.  The Galois group also
    shrinks each scan: the coefficients lie in F_q, so Frobenius x -> x^q
    maps the singular points of a form to singular points, and one point
    per orbit of the points outside P^2(F_q) decides the same forms as the
    whole orbit (see _mark_singular).
    """
    if r not in (2, 3):
        raise PreconditionError(f"degree r must be 2 or 3, got {r}")
    m = len(monomials(3, r))
    total = field.q ** m
    if total > PLANE_ENUM_CAP:
        raise EnumerationCapExceeded(
            f"q^{m} = {total} coefficient tuples exceed the cap {PLANE_ENUM_CAP}")
    mask = np.zeros(total, dtype=bool)
    for k in (1, 2, 3):
        _mark_singular(field, r, k, mask)
    mask[0] = True  # the zero form is not a curve
    return mask


def _scalar_class_rep_mask(q: int, m: int) -> np.ndarray:
    """True at the scalar_class_codes: the lowest nonzero base-q digit is 1."""
    mask = np.zeros(q ** m, dtype=bool)
    for codes in scalar_class_codes(q, m):
        mask[codes.start::codes.step] = True
    return mask


@dataclass
class PlaneCurveCensus:
    """Exhaustive smooth-curve counts with the classical lower bound."""

    q: int
    r: int
    tuple_count: int
    class_count: int
    lower_bound: int
    bound_vacuous: bool

    @property
    def meets_bound(self) -> bool:
        return self.bound_vacuous or self.tuple_count >= self.lower_bound


def plane_curve_census(field: FieldSpec, r: int) -> PlaneCurveCensus:
    q = field.q
    mask = plane_singular_mask(field, r)
    tuple_count = int((~mask).sum())
    reps = _scalar_class_rep_mask(q, len(monomials(3, r))) & ~mask
    class_count = int(reps.sum())
    if tuple_count != class_count * (q - 1):
        raise AssertionError("scalar classes do not partition smooth tuples")
    if r == 2:
        lower = q ** 5 - q ** 4 - 2 * q ** 3
    elif r == 3:
        lower = q ** 9 - 6 * q ** 8
    else:
        raise PreconditionError("census supports r in {2, 3}")
    return PlaneCurveCensus(q=q, r=r, tuple_count=tuple_count,
                            class_count=class_count, lower_bound=lower,
                            bound_vacuous=lower <= 0)


def _zero_set_matrix(field: FieldSpec, table: np.ndarray, codes,
                     meta: dict) -> MeasurementMatrix:
    """Incidence columns: the points of table where each function vanishes."""
    sizes, rows, ones = [], [], []
    for _, vals in evaluation_blocks(field, table, codes):
        zero = vals == 0
        sizes.append(zero.sum(axis=1))
        rows.append(np.nonzero(zero)[1])
        ones.append(np.ones(rows[-1].size, dtype=np.int64))
    return _matrix_from_blocks(table.shape[1], sizes, rows, ones, meta)


def plane_curve_matrix(field: FieldSpec, r: int) -> MeasurementMatrix:
    """Incidence of P^2(F_q) points with smooth degree-r curves.

    One column per scalar class of smooth forms (first nonzero coefficient
    normalized to 1, in the documented monomial order); entry 1 iff the
    point lies on the curve.
    """
    q = field.q
    monos = monomials(3, r)
    mask = plane_singular_mask(field, r)
    reps = np.nonzero(_scalar_class_rep_mask(q, len(monos)) & ~mask)[0]
    table = monomial_table(field, _projective_points(q, 2), monos)
    meta = {"family": "planecurve", "params": {"r": r},
            "field": field.descriptor, "sign_scheme": {"kind": "all_ones"},
            "column_support": None,
            "tuple_count": int((~mask).sum()),
            "class_count": int(reps.size)}
    return _zero_set_matrix(field, table, reps, meta)


# ---------------------------------------------------------------------------
# Fermat surface hyperplane matrix
# ---------------------------------------------------------------------------


def fermat_surface_points(field: FieldSpec):
    """Rational points of sum x_i^(q+1) = 0 in P^3(F_{q^2}), canonical order."""
    if field.s % 2:
        raise PreconditionError("the Fermat surface needs a square field order")
    q = field.p ** (field.s // 2)
    X = _projective_points(field.q, 3)
    total = np.zeros(X.shape[0], dtype=np.int64)
    for i in range(4):
        total = field.np_add(total, field.np_pow(X[:, i], q + 1))
    on = X[total == 0]
    expected = (q ** 3 + 1) * (q ** 2 + 1)
    if len(on) != expected:
        raise PointCountMismatch(
            f"enumerated {len(on)} surface points, expected {expected}")
    return [tuple(pt) for pt in on.tolist()]


def fermat_hyperplane_matrix(field: FieldSpec) -> MeasurementMatrix:
    """Incidence of Fermat-surface points with all hyperplanes of P^3."""
    if field.s % 2:
        raise PreconditionError("the Fermat surface needs a square field order")
    if field.q > FERMAT_ORDER_CAP:
        raise EnumerationCapExceeded(
            f"field order {field.q} exceeds the Fermat cap {FERMAT_ORDER_CAP}")
    q = field.p ** (field.s // 2)
    surface = fermat_surface_points(field)
    hyperplanes = _projective_points(field.q, 3)
    # a hyperplane's coordinates are the coefficients of its linear form, so
    # its code is their base-Q number
    codes = hyperplanes @ (field.q ** np.arange(4, dtype=np.int64))
    table = np.array(surface, dtype=np.int64).T
    meta = {"family": "fermat", "params": {"q": q},
            "field": field.descriptor, "sign_scheme": {"kind": "all_ones"},
            "column_support": None,
            "surface_points": len(surface)}
    return _zero_set_matrix(field, table, codes, meta)


# ---------------------------------------------------------------------------
# Construction C designs
# ---------------------------------------------------------------------------


def projective_space_design(field: FieldSpec, n: int, r: int) -> EvaluationDesign:
    """Monomials of total degree <= r on the affine chart F_q^n.

    T = C(n+r, r); bound on zeros is the Segre-Serre-Sorensen count
    r q^{n-1} + q^{n-2} + ... + q + 1.
    """
    q = field.q
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    if not (1 <= r < q):
        raise PreconditionError(f"need 1 <= r < q, got r={r}, q={q}")
    T = math.comb(n + r, r)
    if T > BASIS_CAP:
        raise BasisCapExceeded(f"T = C({n + r},{r}) = {T} exceeds {BASIS_CAP}")
    points = list(itertools.product(range(q), repeat=n))
    exps = [e for d in range(r + 1) for e in monomials(n, d)]
    table = monomial_table(field, np.array(points, dtype=np.int64), exps)
    bound = r * q ** (n - 1) + sum(q ** i for i in range(n - 1))
    names = [_monomial_name(e, tuple(f"x{i}" for i in range(n))) for e in exps]
    return EvaluationDesign(field, points, names, table, bound,
                            family="projspace", params={"n": n, "r": r})


def ruled_surface_design(field: FieldSpec, d1: int, d2: int) -> EvaluationDesign:
    """Bidegree-(d1, d2) monomials on the affine chart F_q x F_q of P^1 x P^1."""
    q = field.q
    if d1 < 0 or d2 < 0:
        raise PreconditionError("degrees must be nonnegative")
    if d1 + d2 >= q + 1:
        raise DegreeTooLarge(f"need d1 + d2 < q + 1, got {d1}+{d2} vs q={q}")
    T = (d1 + 1) * (d2 + 1)
    if T > BASIS_CAP:
        raise BasisCapExceeded(f"T = {T} exceeds {BASIS_CAP}")
    points = list(itertools.product(range(q), repeat=2))
    exps = [(i, j) for i in range(d1 + 1) for j in range(d2 + 1)]
    table = monomial_table(field, np.array(points, dtype=np.int64), exps)
    bound = (d1 + d2) * (q + 1) - d1 * d2
    names = [_monomial_name(e, ("x", "y")) for e in exps]
    return EvaluationDesign(field, points, names, table, bound,
                            family="ruled", params={"d1": d1, "d2": d2})


def _toric_lattice_points(case: int, d: int, e: int | None, r: int | None):
    if case == 1:
        return [(m1, m2) for m1 in range(d + 1) for m2 in range(d - m1 + 1)]
    if case == 2:
        return [(m1, m2) for m1 in range(d + 1) for m2 in range(e + r * m1 + 1)]
    if case == 3:
        return [(m1, m2) for m1 in range(d + 1) for m2 in range(2 * d - 2 * m1 + 1)]
    raise PreconditionError(f"toric case must be 1, 2 or 3, got {case}")


def toric_design(field: FieldSpec, case: int, d: int, e: int | None = None,
                 r: int | None = None) -> EvaluationDesign:
    """Monomial characters on the torus (F_q^*)^2 for the three polytopes.

    Case 1: triangle (0,0),(d,0),(0,d), d < q-1.
    Case 2: quadrilateral (0,0),(d,0),(d,e+rd),(0,e); d, e, e+rd < q-1.
    Case 3: triangle (0,0),(d,0),(0,2d), 2d < q-1.
    Points are (theta^i, theta^j) ordered by (i, j); the basis function for
    lattice point (m1, m2) takes the value theta^(m1 i + m2 j) there.
    """
    q = field.q
    if d < 1:
        raise PreconditionError("d must be >= 1")
    if case == 1 and not d < q - 1:
        raise PreconditionError(f"case 1 needs d < q - 1, got d={d}, q={q}")
    if case == 2:
        if e is None or r is None:
            raise PreconditionError("case 2 needs d, e and r")
        if not (e >= 1 and r >= 1 and d < q - 1 and e < q - 1 and e + r * d < q - 1):
            raise PreconditionError("case 2 needs d, e, e + r*d all < q - 1")
    if case == 3 and not 2 * d < q - 1:
        raise PreconditionError(f"case 3 needs 2d < q - 1, got d={d}, q={q}")
    lattice = _toric_lattice_points(case, d, e, r)
    T = len(lattice)
    if T > BASIS_CAP:
        raise PolytopeTooLarge(f"{T} lattice points exceed the basis cap {BASIS_CAP}")
    # dimension formulas for the three polytopes
    if case == 1:
        expected_T = (d + 1) * (d + 2) // 2
        bound = d * (q - 1)
    elif case == 2:
        expected_T = (d + 1) * (e + 1) + r * d * (d + 1) // 2
        # both counts are attained, by x^d g(y) with deg g = e + rd and by
        # f(x) g(y) with deg f = d, deg g = e (roots in F_q^*), so the bound
        # is their maximum (Little-Schenck minimum distance of the trapezoid)
        bound = max((d + e) * (q - 1) - d * e, (e + r * d) * (q - 1))
    else:
        expected_T = d * d + 2 * d + 1
        bound = 2 * d * (q - 1)
    if T != expected_T:
        raise AssertionError("lattice point count disagrees with the closed form")
    theta_pows = np.empty(q - 1, dtype=np.int64)
    acc = 1
    for i in range(q - 1):
        theta_pows[i] = acc
        acc = field.mul(acc, field.theta)
    exps = list(itertools.product(range(q - 1), repeat=2))  # (i, j) lex
    points = [(int(theta_pows[i]), int(theta_pows[j])) for i, j in exps]
    E = np.array(exps, dtype=np.int64)
    table = np.empty((T, len(points)), dtype=np.int64)
    for t, (m1, m2) in enumerate(lattice):
        table[t] = theta_pows[(m1 * E[:, 0] + m2 * E[:, 1]) % (q - 1)]
    names = [f"e({m1},{m2})" for m1, m2 in lattice]
    params = {"case": case, "d": d}
    if case == 2:
        params.update({"e": e, "r": r})
    return EvaluationDesign(field, points, names, table, bound,
                            family="toric", params=params)


# dispatcher used by the CLI and by sign-scheme reconstruction
def build_design(family: str, field: FieldSpec, params: dict) -> EvaluationDesign:
    if family == "projspace":
        return projective_space_design(field, int(params["n"]), int(params["r"]))
    if family == "ruled":
        return ruled_surface_design(field, int(params["d1"]), int(params["d2"]))
    if family == "toric":
        e = params.get("e")
        r = params.get("r")
        return toric_design(field, int(params["case"]), int(params["d"]),
                            None if e is None else int(e),
                            None if r is None else int(r))
    if family == "devore":
        r = int(params["r"])
        if not (2 <= r <= field.q):
            raise PreconditionError(f"need 2 <= r <= q, got r={r}, q={field.q}")
        design = projective_space_design(field, 1, r - 1)
        design.family, design.params = "devore", {"r": r}
        return design
    raise PreconditionError(f"no evaluation design for family {family!r}")
