"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they occur.
Every comparison against a closed form is exact (Fractions / integer cross
multiplication); floats appear only where the criterion itself is a float
statement (Monte Carlo means, recovery rates).

Three claims of the source constructions are refuted by the exhaustive
computation.  Their tests assert the corrected statement as an exact equality
with a closed form, confirm it by an independent route, and print the
witness that refutes the original claim:

* criterion 4(i): the per-point row-sum magnitude of the balanced scheme is
  p^{(T-1)s-1} at every point where the basis evaluations are not all equal,
  and q^{T-1} at the all-ones point, where every incident column shares a
  parity (3 instead of 1 for F_3, r = 2).
* criterion 7: the Fermat hyperplane matrix at q = 3 has exact coherence
  (q^2+1)/(q^3+q^2+1) = 10/37 > 1/4 = 1/(q-1)^2; the witness is a pair of
  tangent sections (37 points each) sharing the 10 points of a ruling line.
* criterion 8 (toric case 2 at F_5, d=e=r=1): the zero-count bound is
  max{(d+e)(q-1)-de, (e+rd)(q-1)} = 8, not the claimed min = 7; the witness
  h = x(y^2 - 1) vanishes at 8 of the 16 torus points, so the exact
  coherence is 8/16 = 1/2.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from agrip.fields import make_field
from agrip.constructions import (
    construction_a_simple_poles,
    construction_a_single_point,
    devore,
    evaluation_matrix,
    fermat_hyperplane_matrix,
    fermat_surface_points,
    plane_curve_census,
    plane_curve_matrix,
    projective_space_design,
    ruled_surface_design,
    toric_design,
)
from agrip.matrix import average_coherence, coherence, coherence_report
from agrip.signs import (
    balanced_matrix,
    certify_strong_coherence,
    expected_abs_inner_product,
    randomize_signs,
)
from agrip.recovery import run_experiment
from agrip.verification import (
    brute_force_coherence,
    brute_force_rip_delta,
    coherence_via_differences,
    fermat_section_counts,
)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)
    return ok


def test_criterion_01_devore_bound():
    """mu(devore(F_p, r)) <= (r-1)/p on the grid, equality at (5, 3)."""
    t0 = time.time()
    failures = []
    mus = {}
    for p, r in itertools.product((3, 5, 7, 11), (2, 3)):
        if r > p:
            continue
        mu = coherence(devore(make_field(p), r))
        mus[(p, r)] = mu
        if not mu <= Fraction(r - 1, p):
            failures.append((p, r, mu))
    equality = mus[(5, 3)] == Fraction(2, 5)
    elapsed = time.time() - t0
    ok = not failures and equality and elapsed < 10
    report(1, ok, f"grid of {len(mus)} instances, mu(5,3)={mus[(5, 3)]}, "
                  f"{elapsed:.1f}s")
    assert not failures
    assert equality
    assert elapsed < 10


def test_criterion_02_average_coherence_closed_forms():
    """Unsigned omega closed forms, bit-exact in both modes."""
    bad = []
    for p, r in itertools.product((3, 5, 7, 11), (2, 3)):
        if r > p:
            continue
        M = devore(make_field(p), r)
        expected = Fraction(p ** (r - 1) - 1, p ** r - 1)
        for mode in ("signed", "absolute"):
            got = average_coherence(M, mode)
            if got != expected:
                bad.append((p, r, mode, got, expected))
    Mc = evaluation_matrix(projective_space_design(make_field(3), 2, 1))
    expected_c = Fraction(3 ** 2 - 1, 3 ** 3 - 1)
    for mode in ("signed", "absolute"):
        got = average_coherence(Mc, mode)
        if got != expected_c:
            bad.append(("P2(F3)", 1, mode, got, expected_c))
    report(2, not bad, "devore grid + P2(F_3, r=1), both omega modes")
    assert not bad, bad


def test_criterion_03_strong_coherence_negatives():
    """Unsigned DeVore(5,3) and P2(F_3,1) fail under every log base."""
    failures = []
    instances = [devore(make_field(5), 3),
                 evaluation_matrix(projective_space_design(make_field(3), 2, 1))]
    for M in instances:
        for base in ("natural", "base2", "base10"):
            verdict = coherence_report(M, log_base=base).strong_coherence
            if verdict.satisfied:
                failures.append((M.meta["family"], base))
    report(3, not failures, "2 instances x 3 log bases, all rejected")
    assert not failures, failures


def test_criterion_04_balanced_scheme():
    """Balanced DeVore: per-point balance, column sums, omega, exact mu.

    Part (i) as stated (every row sum has magnitude p^{(T-1)s-1}) is
    refuted, and the exact dichotomy is asserted instead.  For odd p the
    sign of column (a_1 ... a_T) is the parity of Tr(a_1 + ... + a_T).  At a
    point b where the basis evaluations are not all equal, the coefficient
    sum is uniform over F_q on the q^{T-1} columns through (b, v), so the
    row sum has magnitude q^{T-1}/p = p^{(T-1)s-1}.  At a point where every
    basis function takes the same value, f(b) = v fixes the coefficient
    sum, all q^{T-1} columns share one parity, and the magnitude is q^{T-1}.
    The degenerate points are read off the design table and must be exactly
    the all-ones point (1, ..., 1).
    """
    t0 = time.time()
    witness = None
    dichotomy_bad = []
    for field in (make_field(3), make_field(5), make_field(7),
                  make_field(3, 2)):
        for n in (1, 2):
            design = projective_space_design(field, n, 1)
            p, s, q, T = field.p, field.s, field.q, design.T
            degenerate = np.nonzero(
                np.all(design.table == design.table[:1], axis=0))[0].tolist()
            all_ones = [design.points.index((1,) * n)]
            magnitude = np.full(design.size, p ** ((T - 1) * s - 1))
            magnitude[all_ones] = q ** (T - 1)
            row_sums = np.abs(balanced_matrix(design).to_dense().sum(axis=1))
            # row b*q + v holds the columns with f(b) = v
            if (degenerate != all_ones
                    or not np.array_equal(row_sums, np.repeat(magnitude, q))):
                dichotomy_bad.append((field.descriptor, n, degenerate))
            if witness is None:
                b = all_ones[0]
                witness = (f"F_{q} n={n}: |row sum| "
                           f"{int(row_sums[b * q])} = q^(T-1) at b="
                           f"{design.points[b]}, claimed "
                           f"p^((T-1)s-1) = {p ** ((T - 1) * s - 1)}")
    parts_ok = {"ii": True, "iii": True, "iv": True}
    for p in (3, 5):
        r = 2
        design = projective_space_design(make_field(p), 1, r - 1)
        Mb = balanced_matrix(design)
        col_sums = Mb.to_dense().sum(axis=0)
        if np.abs(col_sums).max() > 1:
            parts_ok["ii"] = False
        if not average_coherence(Mb, "signed") <= Fraction(1, p ** 2):
            parts_ok["iii"] = False
        if coherence(Mb) != Fraction(r - 1, p):
            parts_ok["iv"] = False
    elapsed = time.time() - t0
    ok = not dichotomy_bad and all(parts_ok.values()) and elapsed < 5
    report(4, ok,
           f"(ii)-(iv) {'pass' if all(parts_ok.values()) else 'FAIL'}; "
           f"(i) exact dichotomy on 8 instances "
           f"{'holds' if not dichotomy_bad else f'FAILS at {dichotomy_bad}'}, "
           f"witness {witness}, {elapsed:.1f}s")
    assert elapsed < 5
    assert all(parts_ok.values()), parts_ok
    assert not dichotomy_bad, (
        "row-sum magnitudes differ from p^((T-1)s-1) off the all-ones point "
        f"and q^(T-1) on it: {dichotomy_bad}")


def test_criterion_05_construction_a_bounds():
    """Exact mu of the two projective-line instances via the pairwise oracle."""
    t0 = time.time()
    A = construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4])
    mu_a = brute_force_coherence(A)
    B = construction_a_single_point(make_field(5), 2, [0, 1, 2, 3, 4])
    mu_b = brute_force_coherence(B)
    elapsed = time.time() - t0
    ok = mu_a <= Fraction(4, 5) and mu_b <= Fraction(2, 3) and elapsed < 30
    report(5, ok, f"mu_poles={mu_a}, mu_point={mu_b}, {elapsed:.1f}s")
    assert mu_a <= Fraction(4, 5)
    assert mu_b <= Fraction(2, 3)
    assert elapsed < 30


def test_criterion_06_plane_conics():
    """Smooth-conic counts at F_3/F_5 and the exact mu of the F_7 matrix."""
    t0 = time.time()
    c3 = plane_curve_census(make_field(3), 2)
    c5 = plane_curve_census(make_field(5), 2)
    # the closed form q^5 - q^4 - 2q^3 gives 108 and 2250; the criterion's
    # stated rendering of the q = 5 value (1950) is weaker and also checked
    counts_ok = (c3.tuple_count >= 108 and c3.tuple_count >= c3.lower_bound
                 and c5.tuple_count >= 1950 and c5.tuple_count >= c5.lower_bound)
    M7 = plane_curve_matrix(make_field(7), 2)
    mu7 = coherence(M7)
    elapsed = time.time() - t0
    ok = counts_ok and mu7 <= Fraction(1, 2) and elapsed < 120
    report(6, ok, f"counts {c3.tuple_count}/{c5.tuple_count} "
                  f"(bounds {c3.lower_bound}/{c5.lower_bound}), "
                  f"mu(F7)={mu7}, {elapsed:.1f}s")
    assert counts_ok
    assert mu7 <= Fraction(1, 2)
    assert elapsed < 120


def _p3_normalize(field, point):
    """Scale a nonzero vector of F_q^4 so its first nonzero entry is 1."""
    lead = next(x for x in point if x)
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in point)


def _ruling_line_witness(field, M, surface):
    """Two tangent columns whose common points are a whole line of P^3.

    Returns (i, j, common points) for the first pair of q^3+q^2+1-point
    columns sharing q^2+1 points that fill the line through two of them,
    or None.
    """
    q = field.p ** (field.s // 2)
    dense = M.to_dense() != 0
    tangent = np.nonzero(dense.sum(axis=0) == q ** 3 + q ** 2 + 1)[0]
    shared = dense[:, tangent].T.astype(np.int64) @ dense[:, tangent]
    for a, b in zip(*np.nonzero(np.triu(shared == q ** 2 + 1, k=1))):
        i, j = int(tangent[a]), int(tangent[b])
        common = [surface[k] for k in np.nonzero(dense[:, i] & dense[:, j])[0]]
        P, Q = common[0], common[1]
        line = {_p3_normalize(field, Q)} | {
            _p3_normalize(field, tuple(field.add(x, field.mul(t, y))
                                       for x, y in zip(P, Q)))
            for t in range(field.q)}
        if line == set(common):
            return i, j, common
    return None


def test_criterion_07_fermat():
    """Fermat point counts, Lemma-3.1 section bounds, and the exact mu.

    The claimed mu <= 1/(q-1)^2 is refuted at q = 3, and the exact value is
    asserted instead.  The surface is ruled: a tangent section is q+1 lines
    through the point of tangency, with q^3 + q^2 + 1 = 37 points, and every
    other plane section has q^3 + 1 = 28.  Tangent sections at two points of
    a common ruling line share exactly its q^2 + 1 = 10 points, so
    mu = (q^2+1)/(q^3+q^2+1) = 10/37 > 1/4.  The Gram scan and the pairwise
    oracle must both give that value, and the witness pair is exhibited.
    """
    t0 = time.time()
    counts_ok = (len(fermat_surface_points(make_field(2, 2))) == 45
                 and len(fermat_surface_points(make_field(3, 2))) == 280)
    s2 = fermat_section_counts(make_field(2, 2), 1)
    s3 = fermat_section_counts(make_field(3, 2), 1)
    sections_ok = (s2.exhaustive and s2.min_count >= 3
                   and s3.exhaustive and s3.min_count >= 16)
    field = make_field(3, 2)
    q = 3
    M = fermat_hyperplane_matrix(field)
    supports = {int(np.count_nonzero(M.column(j)[1])) for j in range(M.N)}
    supports_ok = supports == {q ** 3 + 1, q ** 3 + q ** 2 + 1}
    mu_closed = Fraction(q ** 2 + 1, q ** 3 + q ** 2 + 1)
    mu3 = coherence(M)
    mu_oracle = brute_force_coherence(M)
    witness = _ruling_line_witness(field, M, fermat_surface_points(field))
    elapsed = time.time() - t0
    mu_ok = mu3 == mu_closed and mu_oracle == mu_closed
    ok = (counts_ok and sections_ok and supports_ok and mu_ok
          and mu_closed > Fraction(1, (q - 1) ** 2) and witness is not None
          and elapsed < 60)
    witness_text = ("none found" if witness is None else
                    f"columns {witness[0]} and {witness[1]} share the "
                    f"{len(witness[2])} points of one line")
    report(7, ok, f"counts 45/280 ok={counts_ok}, min sections "
                  f"{s2.min_count}/{s3.min_count}, mu(q=3)={mu3} "
                  f"(oracle {mu_oracle}, closed form {mu_closed}, claimed "
                  f"bound 1/4 refuted); witness: {witness_text}, "
                  f"{elapsed:.1f}s")
    assert counts_ok
    assert sections_ok
    assert elapsed < 60
    assert supports_ok, supports
    assert mu3 == mu_closed, mu3
    assert mu_oracle == mu_closed, mu_oracle
    assert mu_closed > Fraction(1, (q - 1) ** 2)
    assert witness is not None, ("no two tangent sections share a whole "
                                 "ruling line")


def test_criterion_08_evaluation_families_via_difference_trick():
    """Exact mu of the Construction C specializations, plus dimension counts.

    The toric case-2 claim (zero bound min{(d+e)(q-1)-de, (e+rd)(q-1)}) is
    refuted, and the exact value is asserted instead: both expressions are
    attained, so the bound is their maximum.  With d = e = r = 1 over F_5
    the function x(y^2 - 1) lies in the span (monomials (1,2) and (1,0) are
    both lattice points of the quadrilateral) and vanishes at 8 of the 16
    torus points, so mu = max{7, 8}/16 = 1/2, above the claimed 7/16.
    """
    t0 = time.time()
    cases = [
        ("projspace", projective_space_design(make_field(3), 2, 1),
         Fraction(4, 9), 3),
        ("ruled", ruled_surface_design(make_field(2, 2), 1, 1),
         Fraction(9, 16), 4),
        ("toric case 1", toric_design(make_field(5), 1, 2), Fraction(1, 2), 6),
        ("toric case 3", toric_design(make_field(7), 3, 2), Fraction(4, 6), 9),
    ]
    failures = []
    for label, design, bound, expected_T in cases:
        if design.T != expected_T:
            failures.append((label, "dimension", design.T, expected_T))
        mu = coherence_via_differences(design)
        if not mu <= bound:
            failures.append((label, "mu", mu, bound))
    q, d, e, r = 5, 1, 1, 1
    field = make_field(q)
    case2 = toric_design(field, 2, d, e, r)
    case2_dim_ok = case2.T == 5
    counts = ((d + e) * (q - 1) - d * e, (e + r * d) * (q - 1))  # (7, 8)
    zeros_closed, claimed = max(counts), min(counts)
    mu_case2 = coherence_via_differences(case2)
    case2_ok = (case2.bound_on_zeros == zeros_closed
                and mu_case2 == Fraction(zeros_closed, case2.size))
    # witness h = x(y^2 - 1) = e(1,2) - e(1,0), read off the design table
    names = case2.basis_names
    witness_in_span = "e(1,2)" in names and "e(1,0)" in names
    witness_zeros = None
    if witness_in_span:
        h = field.np_sub(case2.table[names.index("e(1,2)")],
                         case2.table[names.index("e(1,0)")])
        witness_zeros = int(np.count_nonzero(h == 0))
    elapsed = time.time() - t0
    ok = (not failures and case2_dim_ok and case2_ok
          and witness_zeros == zeros_closed and elapsed < 120)
    report(8, ok, f"4 bounds hold; toric case 2 mu={mu_case2} = "
                  f"max{counts}/{case2.size}, claimed min = "
                  f"{claimed}/{case2.size} refuted by x(y^2-1) with "
                  f"{witness_zeros} zeros, {elapsed:.1f}s")
    assert not failures, failures
    assert case2_dim_ok
    assert elapsed < 120
    assert case2.bound_on_zeros == zeros_closed, case2.bound_on_zeros
    assert mu_case2 == Fraction(zeros_closed, case2.size) == Fraction(8, 16), \
        mu_case2
    assert witness_in_span, names
    assert witness_zeros == zeros_closed, witness_zeros


def test_criterion_09_oracle_equivalence():
    """diff-trick == pairwise brute force; delta_2 == mu."""
    designs = [
        projective_space_design(make_field(3), 2, 1),
        projective_space_design(make_field(3), 1, 1),
        ruled_surface_design(make_field(2, 2), 1, 1),
        toric_design(make_field(5), 1, 1),
        toric_design(make_field(2, 2), 3, 1),
    ]
    diff_bad = []
    for design in designs:
        M = evaluation_matrix(design)
        a = coherence_via_differences(design)
        b = brute_force_coherence(M)
        if a != b:
            diff_bad.append((design.family, a, b))
    delta_instances = [
        devore(make_field(3), 2),
        devore(make_field(5), 2),
        evaluation_matrix(projective_space_design(make_field(3), 2, 1)),
        randomize_signs(devore(make_field(3), 2), 17),
        construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4]),
    ]
    delta_bad = []
    for M in delta_instances:
        mu = float(coherence(M))
        delta = brute_force_rip_delta(M, 2)
        if abs(mu - delta) > 1e-12:
            delta_bad.append((M.meta.get("family"), mu, delta))
    ok = not diff_bad and not delta_bad
    report(9, ok, "5 diff-trick identities, 5 delta_2 = mu identities")
    assert not diff_bad, diff_bad
    assert not delta_bad, delta_bad


def test_criterion_10_randomization():
    """Randomized bound over 100 seeds; Monte Carlo vs exact expectations."""
    t0 = time.time()
    M = devore(make_field(5), 3)
    bound = Fraction(2, 5)
    bad_seeds = [seed for seed in range(100)
                 if not coherence(randomize_signs(M, seed)) <= bound]
    mc_bad = []
    draws = 10_000
    rng = np.random.default_rng(2024)
    for L in (1, 2, 3, 4):
        s1 = rng.integers(0, 2, size=(draws, L)) * 2 - 1
        s2 = rng.integers(0, 2, size=(draws, L)) * 2 - 1
        ips = np.abs((s1 * s2).sum(axis=1)).astype(np.float64)
        mean = ips.mean()
        se = ips.std(ddof=1) / np.sqrt(draws)
        expected = float(expected_abs_inner_product(L))
        if abs(mean - expected) > 3 * se:
            mc_bad.append((L, mean, expected, se))
    exact_l2 = expected_abs_inner_product(2) == 1  # not the misprinted 3/2
    elapsed = time.time() - t0
    ok = not bad_seeds and not mc_bad and exact_l2 and elapsed < 60
    report(10, ok, f"100 seeds within 2/5; MC at L=1..4 within 3 SE; "
                   f"E|ip|(2)=1, {elapsed:.1f}s")
    assert not bad_seeds, bad_seeds
    assert not mc_bad, mc_bad
    assert exact_l2
    assert elapsed < 60


def test_criterion_11_recovery():
    """Noiseless OMP on DeVore(F_7, 2); noisy thresholding on a certified
    balanced matrix (certified = the two sufficient conditions on the design
    parameters hold; the direct strong-coherence truth is reported false for
    every desk-scale instance and is not required here)."""
    t0 = time.time()
    M = devore(make_field(7), 2)
    omp_report = run_experiment(M, [1, 2, 3], trials=200, sigma=0.0, seed=11,
                                algorithm="omp")
    omp_ok = all(omp_report.support_recovery_rate[k] == 1.0 for k in (1, 2, 3))

    design = ruled_surface_design(make_field(37), 1, 0)
    Mb = balanced_matrix(design)
    cert = certify_strong_coherence(design, coherence_report(Mb))
    certified = cert.sufficient_ok
    ost_report = run_experiment(Mb, [2], trials=500, sigma=0.05, seed=12,
                                algorithm="ost")
    rate = ost_report.support_recovery_rate[2]
    ost_ok = rate >= 0.9
    elapsed = time.time() - t0
    ok = omp_ok and certified and ost_ok and elapsed < 120
    report(11, ok, f"OMP rates {omp_report.support_recovery_rate}; balanced "
                   f"ruled(F_37,1,0) certified={certified}, OST rate={rate}, "
                   f"{elapsed:.1f}s")
    assert omp_ok, omp_report.support_recovery_rate
    assert certified
    assert ost_ok, rate
    assert elapsed < 120


def test_criterion_12_out_of_scope_exclusions():
    """Asymptotic results and large-parameter comparisons stay excluded.

    The curve-tower asymptotics and the coherence-ratio comparisons against
    Hermitian-curve matrices have no desk-scale instances; they are covered
    only by the per-family bound assertions above.  Nothing to compute: this
    records the exclusion."""
    import agrip
    excluded = [name for name in ("hermitian", "deligne", "tower")
                if any(name in api.lower() for api in agrip.__all__)]
    report(12, not excluded, "no Hermitian/Deligne-Lusztig/tower APIs shipped")
    assert not excluded
