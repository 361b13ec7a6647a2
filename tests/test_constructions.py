import hashlib
from fractions import Fraction

import numpy as np
import pytest

from agrip.errors import (
    ColumnCapExceeded,
    DegreeTooLarge,
    EnumerationCapExceeded,
    PoleEvalOverlap,
    PreconditionError,
    RankDeficient,
)
import agrip.constructions
from agrip.fields import extension_with_embedding, make_field
from agrip.constructions import (
    INFINITY,
    EvaluationDesign,
    build_design,
    coefficient_digits,
    construction_a_simple_poles,
    construction_a_single_point,
    devore,
    evaluate_coefficient_block,
    evaluation_matrix,
    fermat_hyperplane_matrix,
    fermat_surface_points,
    monomials,
    plane_curve_census,
    plane_curve_matrix,
    plane_singular_mask,
    projective_space_design,
    ruled_surface_design,
    scalar_class_codes,
    toric_design,
    _frobenius_representatives,
    _projective_points,
    _rref,
)
from agrip.matrix import coherence, welch_bound_squared


def exact_leq_bound(mu, num, den):
    bound = Fraction(num, den)
    if isinstance(mu, Fraction):
        return mu <= bound
    return mu <= bound


# -- devore ----------------------------------------------------------------


def test_devore_f3_r2_shape_and_mu():
    M = devore(make_field(3), 2)
    assert (M.n, M.N) == (9, 9)
    assert (np.diff(M.indptr) == 3).all()
    assert coherence(M) == Fraction(1, 3)


def test_devore_f5_r3_attains_r_minus_1_over_p():
    M = devore(make_field(5), 3)
    assert (M.n, M.N) == (25, 125)
    assert coherence(M) == Fraction(2, 5)


def test_devore_rejects_r_above_q():
    with pytest.raises(PreconditionError):
        devore(make_field(3), 4)


def test_devore_equals_projective_line_evaluation():
    for p, r in [(3, 2), (5, 2), (5, 3)]:
        f = make_field(p)
        assert devore(f, r) == evaluation_matrix(
            projective_space_design(f, 1, r - 1))


def test_devore_extension_field():
    f4 = make_field(2, 2)
    M = devore(f4, 2)
    assert (M.n, M.N) == (16, 16)
    assert (np.diff(M.indptr) == 4).all()
    assert coherence(M) == Fraction(1, 4)


# -- construction A -----------------------------------------------------------


def test_simple_poles_instance():
    M = construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4])
    assert (M.n, M.N) == (30, 125)
    assert coherence(M) <= Fraction(4, 5)


def test_simple_poles_constant_columns():
    f5 = make_field(5)
    M = construction_a_simple_poles(f5, [0, 1], [2, 3, 4])
    # constant functions are the columns with zero pole coefficients:
    # column index = c0 (the constant coefficient digit)
    for c0 in range(5):
        rows, vals = M.column(c0)
        assert np.all(vals == 1)
        assert rows.size == 3  # one entry per evaluation point, no pole rows
        assert int(vals @ vals) == 3


def test_simple_poles_overlap_rejected():
    with pytest.raises(PoleEvalOverlap):
        construction_a_simple_poles(make_field(5), [0, 1], [1, 2])


def test_simple_poles_supports_infinity_pole():
    M = construction_a_simple_poles(make_field(5), [0, INFINITY], [1, 2, 3])
    assert M.N == 125
    # the x-coefficient produces a pole row at the infinity slot
    rows, vals = M.column(25)  # coefficients (0, 0, 1): f = x
    assert vals[0] == -1


def test_points_are_integer_codes_or_strings():
    f5 = make_field(5)
    ref = construction_a_simple_poles(f5, [0, INFINITY], [1, 2, 3])
    for poles in ([np.int64(0), "inf"], ["0", INFINITY]):
        assert construction_a_simple_poles(f5, poles, [1, np.int8(2), "3"]) == ref
    for bad in (2.7, 3.0, True, np.float64(2.0), None, "3.0"):
        with pytest.raises(PreconditionError, match="neither a field code"):
            construction_a_simple_poles(f5, [bad], [0, 1, 4])
        with pytest.raises(PreconditionError, match="neither a field code"):
            construction_a_single_point(f5, 2, [0, 1, bad])


def test_single_point_instance():
    M = construction_a_single_point(make_field(5), 2, [0, 1, 2, 3, 4])
    assert (M.n, M.N) == (36, 125)
    assert coherence(M) <= Fraction(2, 3)


def test_single_point_inner_product_of_x_and_x_plus_1():
    f5 = make_field(5)
    M = construction_a_single_point(f5, 2, [0, 1, 2, 3, 4])
    # f = x is column with digits (0,1,0) -> 5; g = x + 1 -> digits (1,1,0) -> 6
    rows_f, vals_f = M.column(5)
    rows_g, vals_g = M.column(6)
    assert int(vals_f @ vals_f) == 6 and int(vals_g @ vals_g) == 6
    common = dict(zip(rows_f.tolist(), vals_f.tolist()))
    ip = sum(v * common.get(r, 0) for r, v in zip(rows_g.tolist(),
                                                  vals_g.tolist()))
    assert ip == 1  # no agreements, pole term (-1)(-1)


def test_single_point_constant_column():
    M = construction_a_single_point(make_field(5), 2, [0, 1, 2])
    rows, vals = M.column(3)  # f = 3
    assert rows.size == 3 and np.all(vals == 1)


# -- plane curves -----------------------------------------------------------------


def test_p2_point_count():
    for q in (2, 3, 4):
        f = make_field(*(2, 2) if q == 4 else (q, 1))
        assert len(_projective_points(f.q, 2)) == q * q + q + 1


def conic_symmetric_singular_mask(field):
    """Classical cross-check for odd p: a conic is singular iff the
    determinant of its symmetric coefficient matrix vanishes."""
    if field.p == 2:
        raise PreconditionError("symmetric-matrix test fails in characteristic 2")
    q = field.q
    digits = coefficient_digits(q, np.arange(q ** 6, dtype=np.int64), 6)
    # monomial order: x^2, xy, xz, y^2, yz, z^2
    a, d, e, b, f, c = (digits[:, t] for t in range(6))
    mul, add, sub = field.np_mul, field.np_add, field.np_sub
    two = np.int64(2 % field.p)
    A2, B2, C2 = mul(two, a), mul(two, b), mul(two, c)
    # det of [[2a, d, e], [d, 2b, f], [e, f, 2c]] by cofactor expansion
    det = mul(A2, sub(mul(B2, C2), mul(f, f)))
    det = add(det, mul(d, sub(mul(f, e), mul(d, C2))))
    det = add(det, mul(e, sub(mul(d, f), mul(B2, e))))
    mask = det == 0
    mask[0] = True
    return mask


def test_conic_engine_matches_symmetric_rank_test_odd_p():
    for p in (3, 5):
        f = make_field(p)
        assert np.array_equal(plane_singular_mask(f, 2),
                              conic_symmetric_singular_mask(f))


def test_conic_census_f2_exhaustive_over_63_tuples():
    census = plane_curve_census(make_field(2), 2)
    # independent per-form check: a conic over F_2 is smooth iff it has no
    # common zero with its partials over F_2, F_4, F_8
    f2 = make_field(2)
    count = 0
    from agrip.fields import extension_with_embedding
    from itertools import product
    monos = monomials(3, 2)
    for coeffs in product(range(2), repeat=6):
        if not any(coeffs):
            continue
        singular = False
        for k in (1, 2, 3):
            E, emb = extension_with_embedding(f2, k)
            for (x, y, z) in _projective_points(E.q, 2).tolist():
                val = 0
                dx = dy = dz = 0
                for c, (i, j, l) in zip(coeffs, monos):
                    if not c:
                        continue
                    mono = E.mul(E.mul(E.pow(x, i), E.pow(y, j)), E.pow(z, l))
                    val = E.add(val, mono)
                    if i % 2:
                        dx = E.add(dx, E.mul(E.mul(E.pow(x, i - 1), E.pow(y, j)), E.pow(z, l)))
                    if j % 2:
                        dy = E.add(dy, E.mul(E.mul(E.pow(x, i), E.pow(y, j - 1)), E.pow(z, l)))
                    if l % 2:
                        dz = E.add(dz, E.mul(E.mul(E.pow(x, i), E.pow(y, j)), E.pow(z, l - 1)))
                if val == 0 and dx == 0 and dy == 0 and dz == 0:
                    singular = True
                    break
            if singular:
                break
        count += not singular
    assert census.tuple_count == count
    assert census.class_count == count  # q - 1 = 1


@pytest.mark.parametrize("p,s,r,digest", [
    (3, 1, 3, "0cce76ad2634923501326d1db9f55e8b"
              "22d0ae5182bd05ac4e507ee63597faee"),
    (2, 2, 2, "89649e21c7fa5e26403b4403002782c2"
              "a668ac72b40fd1f316b70d7ce3504890"),
    (2, 2, 3, "3b6d7372d45d6c6dc2af2216eb663273"
              "2efce9c9e6483cc1b097f98fc949948d"),
    (2, 1, 2, "a1035d39dfb28aaa61c119b5a4157f44"
              "81b2607b126f7be31605b2ce13e5a254"),
    (3, 1, 2, "3dea7297d5dd0d02b823124334569b7f"
              "ce81759b9566428e6d194a79d9f4af7d"),
    (5, 1, 2, "70fc2a689d14c96234bb34e93c4d1083"
              "3d4963ca51a965521e9c62bd458d43d6"),
    (2, 1, 3, "a96e36f7f90c216e29ab315b6cdedf5a"
              "956df6bba0b073f16369e82957eb3f77"),
], ids=["F3-r3", "F4-r2", "F4-r3", "F2-r2", "F3-r2", "F5-r2", "F2-r3"])
def test_singular_mask_matches_pinned_digest(p, s, r, digest):
    """The first three digests were recorded from the two-marker engine (a
    vectorized scan on prime fields, a per-point scan on extension fields)
    before the two were merged into one marker; they pin the mask on a prime
    field and on an extension field.  The last four were recorded from the
    merged marker, which scanned every point of P^2(F_{q^k}), before the scan
    kept one point per Frobenius orbit; F5-r2 is the benchmark's instance."""
    mask = plane_singular_mask(make_field(p, s), r)
    assert hashlib.sha256(np.packbits(mask)).hexdigest() == digest


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)],
                         ids=["F2", "F3", "F4", "F5"])
def test_frobenius_representatives_partition_the_new_points(p, s, k):
    """The scanned points' orbits under x -> x^q are exactly the points of
    P^2(F_{q^k}) outside P^2(F_q), k to an orbit, each entered at its
    first point in the canonical order."""
    field = make_field(p, s)
    q = field.q
    E, emb = extension_with_embedding(field, k)
    Q = E.q
    points = [(1, a, b) for a in range(Q) for b in range(Q)]
    points += [(0, 1, b) for b in range(Q)] + [(0, 0, 1)]
    assert _projective_points(E.q, 2).tolist() == [list(pt) for pt in points]
    index = {pt: i for i, pt in enumerate(points)}
    base = set(emb.tolist())
    new = {pt for pt in points if not set(pt) <= base}
    reps = [tuple(pt) for pt in _frobenius_representatives(field, E, k).tolist()]
    covered = set()
    for rep in reps:
        orbit = [rep]
        for _ in range(k):
            orbit.append(tuple(E.pow(c, q) for c in orbit[-1]))
        assert orbit.pop() == rep
        assert len(set(orbit)) == k
        assert index[rep] == min(index[pt] for pt in orbit)
        assert covered.isdisjoint(orbit)
        covered.update(orbit)
    assert covered == new
    assert len(reps) == (Q * Q + Q + 1 - q * q - q - 1) // k


def _expected_smooth_conic_classes(q):
    # all classes minus (double lines) + (rational line pairs) + (conjugate
    # line pairs), the classical stratification of singular conics
    total = (q ** 6 - 1) // (q - 1)
    lines = q * q + q + 1
    lines_ext = q ** 4 + q ** 2 + 1
    singular = lines + lines * (lines - 1) // 2 + (lines_ext - lines) // 2
    return total - singular


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_conic_class_counts_match_closed_form(p, s):
    field = make_field(p, s)
    census = plane_curve_census(field, 2)
    assert census.class_count == _expected_smooth_conic_classes(field.q)


def test_cubic_census_f2_independent_per_form():
    # fully independent scan: pure-python evaluation of every form and its
    # partials at every point of P^2 over F_2, F_4, F_8
    from itertools import product
    from agrip.fields import extension_with_embedding
    f2 = make_field(2)
    monos = monomials(3, 3)
    count = 0
    exts = [extension_with_embedding(f2, k)[0] for k in (1, 2, 3)]
    ext_pts = [(E, _projective_points(E.q, 2).tolist()) for E in exts]
    for coeffs in product(range(2), repeat=10):
        if not any(coeffs):
            continue
        singular = False
        for E, pts in ext_pts:
            for (x, y, z) in pts:
                vals = [0, 0, 0, 0]
                for c, (i, j, l) in zip(coeffs, monos):
                    if not c:
                        continue
                    vals[0] = E.add(vals[0], E.mul(E.mul(E.pow(x, i), E.pow(y, j)), E.pow(z, l)))
                    if i % 2:
                        vals[1] = E.add(vals[1], E.mul(E.mul(E.pow(x, i - 1), E.pow(y, j)), E.pow(z, l)))
                    if j % 2:
                        vals[2] = E.add(vals[2], E.mul(E.mul(E.pow(x, i), E.pow(y, j - 1)), E.pow(z, l)))
                    if l % 2:
                        vals[3] = E.add(vals[3], E.mul(E.mul(E.pow(x, i), E.pow(y, j)), E.pow(z, l - 1)))
                if not any(vals):
                    singular = True
                    break
            if singular:
                break
        count += not singular
    census = plane_curve_census(f2, 3)
    assert census.tuple_count == count


def test_cubic_census_f3_matches_independent_dense_scan():
    # different route to the same mask: dense evaluation of every form and
    # its partials over each extension via digit-expanded integer matmuls
    # (the engine solves each point's linear conditions over F_q and marks
    # their nullspaces instead); char 3 exercises the
    # degenerate-Euler case for cubics
    from agrip.fields import extension_with_embedding
    p, r = 3, 3
    field = make_field(p)
    monos = monomials(3, r)
    m = len(monos)
    total = p ** m
    C = coefficient_digits(p, np.arange(total, dtype=np.int64), m)
    singular = np.zeros(total, dtype=bool)
    for k in (1, 2, 3):
        E, _ = extension_with_embedding(field, k)
        # a form over F_p is singular at a point iff it is singular at the
        # point's Frobenius conjugates, so one point per orbit is evaluated
        # (x -> x^p keeps the first nonzero coordinate at 1)
        all_pts = [tuple(pt) for pt in _projective_points(E.q, 2).tolist()]
        index = {pt: i for i, pt in enumerate(all_pts)}
        pts = []
        for i, pt in enumerate(all_pts):
            orbit = [pt]
            for _ in range(k - 1):
                orbit.append(tuple(E.pow(c, p) for c in orbit[-1]))
            if i == min(index[o] for o in orbit):
                pts.append(pt)
        npts = len(pts)
        tables = np.zeros((4, m, npts, k), dtype=np.int64)
        for t, (i, j, l) in enumerate(monos):
            for pi, (x, y, z) in enumerate(pts):
                v = E.mul(E.mul(E.pow(x, i), E.pow(y, j)), E.pow(z, l))
                tables[0, t, pi] = E.decode(v)
                for axis, (e, scale) in enumerate([((i - 1, j, l), i % p),
                                                   ((i, j - 1, l), j % p),
                                                   ((i, j, l - 1), l % p)]):
                    if scale and min(e) >= 0:
                        w = E.mul(E.mul(E.pow(x, e[0]), E.pow(y, e[1])),
                                  E.pow(z, e[2]))
                        tables[1 + axis, t, pi] = E.decode(E.mul(scale, w))
        flat = tables.reshape(4, m, npts * k)
        chunk = 8192
        # the mask is an OR over k, so a form already singular over a
        # smaller extension is not evaluated again
        live = np.flatnonzero(~singular)
        for f0 in range(0, live.size, chunk):
            forms = live[f0:f0 + chunk]
            block = C[forms]
            allzero = np.ones((block.shape[0], npts), dtype=bool)
            for cnd in range(4):
                vals = (block @ flat[cnd]) % p
                allzero &= ~vals.reshape(block.shape[0], npts, k).any(axis=2)
            singular[forms] |= allzero.any(axis=1)
    singular[0] = True
    assert np.array_equal(singular, plane_singular_mask(field, r))


def test_conic_census_f3():
    census = plane_curve_census(make_field(3), 2)
    assert census.tuple_count == census.class_count * 2
    assert census.lower_bound == 108
    assert census.meets_bound


def test_cubic_census_f3_bound_vacuous():
    census = plane_curve_census(make_field(3), 3)
    assert census.lower_bound == 3 ** 9 - 6 * 3 ** 8  # negative
    assert census.bound_vacuous
    assert census.tuple_count == census.class_count * 2
    assert 0 < census.tuple_count < 3 ** 10


def test_plane_curve_matrix_f3():
    M = plane_curve_matrix(make_field(3), 2)
    assert M.n == 13
    assert M.N == M.meta["class_count"]
    # all smooth conics have exactly q + 1 = 4 points
    assert (np.diff(M.indptr) == 4).all()


def test_plane_curve_cap():
    with pytest.raises(EnumerationCapExceeded):
        plane_curve_matrix(make_field(5), 3)  # 5^10 tuples


def test_plane_curve_rejects_degree_4():
    with pytest.raises(PreconditionError):
        plane_curve_matrix(make_field(3), 4)


# -- fermat -------------------------------------------------------------------


def test_fermat_point_counts():
    assert len(fermat_surface_points(make_field(2, 2))) == 45
    assert len(fermat_surface_points(make_field(3, 2))) == 280


@pytest.mark.parametrize("q", [2, 3, 4])
def test_projective_points_p3_order(q):
    points = [(1, a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    points += [(0, 1, b, c) for b in range(q) for c in range(q)]
    points += [(0, 0, 1, c) for c in range(q)]
    points.append((0, 0, 0, 1))
    assert [tuple(pt) for pt in _projective_points(q, 3).tolist()] == points


@pytest.mark.parametrize("p,s,T", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2)],
                         ids=["F2^4", "F3^3", "F4^2", "F5^2"])
def test_scalar_class_codes_pick_one_vector_per_class(p, s, T):
    field = make_field(p, s)
    q = field.q
    weights = q ** np.arange(T)
    codes = np.concatenate([np.array(r) for r in scalar_class_codes(q, T)])
    vectors = coefficient_digits(q, codes, T)
    scaled = field.np_mul(np.arange(1, q)[:, None, None], vectors[None])
    hits = np.bincount((scaled @ weights).ravel(), minlength=q ** T)
    assert hits[0] == 0 and np.all(hits[1:] == 1)


def test_fermat_matrix_q2():
    M = fermat_hyperplane_matrix(make_field(2, 2))
    assert (M.n, M.N) == (45, 85)
    counts = np.array([M.column(j)[0].size for j in range(M.N)])
    assert counts.min() >= 3  # (q-1)^2 (q+1) at q = 2


def test_fermat_rejects_odd_extension():
    with pytest.raises(PreconditionError):
        fermat_hyperplane_matrix(make_field(5, 1))


def test_fermat_order_cap():
    with pytest.raises(EnumerationCapExceeded):
        fermat_hyperplane_matrix(make_field(7, 2))


# -- designs --------------------------------------------------------------------


def test_projective_space_design_examples():
    d = projective_space_design(make_field(3), 2, 1)
    assert d.T == 3 and d.size == 9 and d.bound_on_zeros == 4
    assert d.basis_names[0] == "1"
    d = projective_space_design(make_field(5), 2, 2)
    assert d.T == 6 and d.size == 25 and d.bound_on_zeros == 11


def test_projective_space_design_mu():
    M = evaluation_matrix(projective_space_design(make_field(3), 2, 1))
    assert (M.n, M.N) == (27, 27)
    mu = coherence(M)
    assert mu == Fraction(1, 3)
    assert mu <= Fraction(4, 9)


def test_ruled_surface_design():
    d = ruled_surface_design(make_field(2, 2), 1, 1)
    assert d.T == 4 and d.size == 16 and d.bound_on_zeros == 9
    M = evaluation_matrix(d)
    assert (M.n, M.N) == (64, 256)
    assert coherence(M) <= Fraction(9, 16)
    d = ruled_surface_design(make_field(5), 2, 2)
    assert d.bound_on_zeros == 20


def test_ruled_surface_degree_too_large():
    with pytest.raises(DegreeTooLarge):
        ruled_surface_design(make_field(3), 2, 2)


def test_toric_design_cases():
    d1 = toric_design(make_field(5), 1, 2)
    assert d1.T == 6 and d1.size == 16 and d1.bound_on_zeros == 8
    d2 = toric_design(make_field(5), 2, 1, 1, 1)
    # max{(d+e)(q-1)-de, (e+rd)(q-1)} = max{7, 8}; x(y^2-1) has 8 zeros
    assert d2.T == 5 and d2.bound_on_zeros == 8
    d3 = toric_design(make_field(7), 3, 2)
    assert d3.T == 9 and d3.bound_on_zeros == 24


def test_toric_preconditions():
    with pytest.raises(PreconditionError):
        toric_design(make_field(5), 1, 4)  # d >= q - 1
    with pytest.raises(PreconditionError):
        toric_design(make_field(5), 3, 2)  # 2d >= q - 1
    with pytest.raises(PreconditionError):
        toric_design(make_field(5), 2, 1, 3, 1)  # e + rd >= q - 1


def _reference_rref(field, rows):
    # scalar Gauss-Jordan with field methods, one matrix at a time
    work = [list(map(int, r)) for r in rows]
    pivots = []
    for c in range(len(work[0])):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = field.inv(work[rank][c])
        work[rank] = [field.mul(inv, x) for x in work[rank]]
        for r in range(len(work)):
            f = work[r][c]
            if r != rank and f:
                work[r] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(work[r], work[rank])]
        pivots.append(c)
    return work, pivots


@pytest.mark.parametrize("p,s", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_rref_stack_matches_scalar_reference(p, s):
    field = make_field(p, s)
    rng = np.random.default_rng(p * 10 + s)
    # low-rank and sparse stacks exercise skipped columns and zero rows
    mats = rng.integers(0, field.q, size=(40, 5, 6))
    mats[:20] *= rng.random((20, 5, 6)) < 0.3
    mats[20:30, 3:] = mats[20:30, :2]
    reduced, pivots = _rref(field, mats)
    for mat, red, piv in zip(mats, reduced, pivots):
        ref, ref_pivots = _reference_rref(field, mat)
        assert np.array_equal(red, np.array(ref))
        assert np.flatnonzero(piv).tolist() == ref_pivots
    single, single_pivots = _rref(field, mats[0])
    assert np.array_equal(single, reduced[0])
    assert np.array_equal(single_pivots, pivots[0])


def test_design_rank_check_rejects_dependent_basis():
    for field in (make_field(5), make_field(2, 2)):
        table = [[1, 1, 1], [0, 1, 2], [1, 2, 3]]  # row 2 = row 0 + row 1
        table[2] = field.np_add(table[0], table[1]).tolist()
        with pytest.raises(RankDeficient):
            EvaluationDesign(field, [(0,), (1,), (2,)], ["a", "b", "c"],
                             table, 1)


def test_evaluation_matrix_zero_column():
    d = projective_space_design(make_field(3), 2, 1)
    M = evaluation_matrix(d)
    rows, vals = M.column(0)
    # f = 0 hits value 0 at every point: rows are point_index * q
    assert np.array_equal(rows, np.arange(9) * 3)
    assert np.all(vals == 1)


@pytest.mark.parametrize("T", [8192, 8193])
def test_prime_field_blocks_are_exact_on_each_side_of_the_float_bound(T):
    """p = 2^20 - 3, so T (p - 1)^2 < 2^53 exactly when T <= 8192: T = 8192
    takes the float64 product at its largest partial sums, T = 8193 the
    int64 one, where an odd dot product above 2^53 has no float64 spelling."""
    field = make_field(1048573)
    p = field.p
    assert (T * (p - 1) ** 2 < 1 << 53) == (T == 8192)
    rng = np.random.default_rng(T)
    coeffs, table = rng.integers(0, p, (3, T)), rng.integers(0, p, (T, 4))
    coeffs[0], table[:, 0] = p - 1, p - 1  # the largest partial sums
    coeffs[1], table[:, 1] = p - 2, p - 2  # odd terms ...
    coeffs[1, 0] = T % 2 * (p - 2)  # ... an odd count of them: an odd sum
    dots = [[sum(int(c) * int(t) for c, t in zip(row, col)) for col in table.T]
            for row in coeffs]
    got = evaluate_coefficient_block(field, table, coeffs)
    assert got.tolist() == [[v % p for v in row] for row in dots]
    odd = dots[1][1]
    assert odd % 2 == 1 and (int(float(odd)) == odd) == (T == 8192)


def test_evaluation_matrix_caps(monkeypatch):
    d = projective_space_design(make_field(5), 2, 2)  # N = 5^6 = 15625
    monkeypatch.setattr(agrip.constructions, "MATERIALIZE_CAP", 1000)
    with pytest.raises(ColumnCapExceeded):
        evaluation_matrix(d)


@pytest.mark.parametrize("r", [1, 6])
def test_devore_design_needs_r_between_2_and_q(r):
    with pytest.raises(PreconditionError, match="need 2 <= r <= q"):
        build_design("devore", make_field(5), {"r": r})


def test_evaluation_rows_one_nonzero_per_point_block():
    # a function takes exactly one value per point, so each column has one
    # entry inside every block of q consecutive rows
    for design in [projective_space_design(make_field(3), 2, 1),
                   toric_design(make_field(5), 1, 1)]:
        M = evaluation_matrix(design)
        q = design.field.q
        for j in range(0, M.N, 7):
            rows, _ = M.column(j)
            assert np.array_equal(rows // q, np.arange(design.size))


def test_constants_only_design_has_zero_coherence():
    from agrip.verification import brute_force_coherence, coherence_via_differences
    design = ruled_surface_design(make_field(3), 0, 0)  # T = 1, basis {1}
    assert design.T == 1 and design.bound_on_zeros == 0
    assert coherence_via_differences(design) == Fraction(0)
    M = evaluation_matrix(design)
    assert brute_force_coherence(M) == Fraction(0)
    assert coherence(M) == Fraction(0)


def test_per_point_column_count_is_q_to_t_minus_1():
    # for each row (a, b), exactly q^(T-1) columns are nonzero there
    d = projective_space_design(make_field(3), 2, 1)
    M = evaluation_matrix(d)
    dense = M.to_dense()
    assert np.all(dense.sum(axis=1) == 3 ** (d.T - 1))


def test_toric_bounds_hold_for_cases_1_and_3():
    from agrip.verification import coherence_via_differences
    d1 = toric_design(make_field(5), 1, 1)
    assert coherence_via_differences(d1) <= Fraction(d1.bound_on_zeros, d1.size)
    d3 = toric_design(make_field(7), 3, 1)
    assert coherence_via_differences(d3) <= Fraction(d3.bound_on_zeros, d3.size)


def test_every_family_satisfies_welch():
    instances = [
        devore(make_field(3), 2),
        devore(make_field(5), 3),
        evaluation_matrix(projective_space_design(make_field(3), 2, 1)),
        evaluation_matrix(ruled_surface_design(make_field(2, 2), 1, 1)),
        evaluation_matrix(toric_design(make_field(5), 1, 1)),
        plane_curve_matrix(make_field(3), 2),
        fermat_hyperplane_matrix(make_field(2, 2)),
    ]
    from agrip.exact import exact_leq
    from agrip.matrix import average_coherence
    for M in instances:
        signed = average_coherence(M, "signed")
        absolute = average_coherence(M, "absolute")
        assert exact_leq(signed, absolute), M.meta.get("family")
        if M.N <= M.n:
            continue
        mu = coherence(M)
        musq = mu * mu if isinstance(mu, Fraction) else mu.squared()
        assert welch_bound_squared(M.n, M.N) <= musq, M.meta.get("family")
