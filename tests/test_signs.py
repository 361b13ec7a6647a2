import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import agrip.constructions
from agrip.errors import ColumnCapExceeded, NonBinaryInput, PreconditionError
from agrip.fields import make_field
from agrip.constructions import (
    EvaluationDesign,
    build_design,
    devore,
    evaluation_matrix,
    projective_space_design,
    ruled_surface_design,
)
from agrip.matrix import average_coherence, coherence, coherence_report
from agrip.signs import (
    _random_bits,
    balanced_matrix,
    certify_strong_coherence,
    randomize_signs,
)
from agrip.verification import coherence_via_differences
from tests.test_matrix import from_columns


def balanced_devore(p, r):
    design = projective_space_design(make_field(p), 1, r - 1)
    return design, balanced_matrix(design)


# -- randomize_signs ---------------------------------------------------------


def test_randomize_same_seed_identical():
    M = devore(make_field(5), 3)
    assert randomize_signs(M, 7) == randomize_signs(M, 7)
    assert not (randomize_signs(M, 7) == randomize_signs(M, 8))


def test_randomize_preserves_support_and_bound():
    M = devore(make_field(5), 3)
    R = randomize_signs(M, 123)
    for j in (0, 17, 124):
        r0, v0 = M.column(j)
        r1, v1 = R.column(j)
        assert np.array_equal(r0, r1)
        assert np.all(np.abs(v1) == 1)
    assert coherence(R) <= Fraction(2, 5)


def test_randomize_rejects_signed_input():
    M = devore(make_field(3), 2)
    R = randomize_signs(M, 0)
    with pytest.raises(NonBinaryInput):
        randomize_signs(R, 1)


def test_randomize_is_column_keyed():
    # dropping columns does not change the signs of the remaining ones
    M = devore(make_field(3), 2)
    R = randomize_signs(M, 5)
    sub = from_columns(M.n, [M.column(j) for j in range(4)], meta=M.meta)
    Rsub = randomize_signs(sub, 5)
    for j in range(4):
        assert np.array_equal(R.column(j)[1], Rsub.column(j)[1])


def reference_bits(seed, columns, lengths):
    """The per-column numpy stream that _random_bits reproduces."""
    return np.concatenate(
        [np.random.default_rng([seed, int(j)]).integers(0, 2, int(L),
                                                        dtype=np.int64)
         for j, L in zip(columns, lengths)] + [np.zeros(0, dtype=np.int64)])


_EDGE_SEEDS = (2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 70)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 63) | st.sampled_from(_EDGE_SEEDS),
       st.lists(st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 64)),
                max_size=6))
@example(0, [])
@example(2 ** 64, [(0, 0), (1, 1), (2 ** 32 - 1, 64), (7, 0), (8, 3)])
def test_random_bits_equal_the_numpy_stream(seed, columns):
    cols = [j for j, _ in columns]
    lengths = [L for _, L in columns]
    assert np.array_equal(_random_bits(seed, cols, lengths),
                          reference_bits(seed, cols, lengths))


@pytest.mark.parametrize("seed", [0, 2 ** 70 + 1])
def test_randomize_signs_long_columns(seed):
    # two columns of 2^12 entries: outputs far along the jump-ahead table
    from agrip.matrix import MeasurementMatrix
    L = 1 << 12
    M = MeasurementMatrix(L, 2, [0, L, 2 * L],
                          np.tile(np.arange(L), 2), np.ones(2 * L))
    bits = reference_bits(seed, [0, 1], [L, L])
    assert np.array_equal(randomize_signs(M, seed).data, 2 * bits - 1)


def test_randomize_signs_reads_the_per_column_stream():
    M = devore(make_field(5), 3)
    for seed in (3, 2 ** 96 + 1):
        R = randomize_signs(M, seed)
        bits = reference_bits(seed, range(M.N), np.diff(M.indptr))
        assert np.array_equal(R.data, 2 * bits - 1)
        assert np.array_equal(R.indices, M.indices)


# -- expected |inner product| ---------------------------------------------------


def expected_abs_inner_product(L: int) -> Fraction:
    """E|sum of L independent +-1 products| = sum_w |L-2w| C(L,w) 2^-L, exact."""
    if L < 0:
        raise PreconditionError("overlap count must be >= 0")
    total = sum(abs(L - 2 * w) * math.comb(L, w) for w in range(L + 1))
    return Fraction(total, 2 ** L)


def test_expected_abs_inner_product_small_values():
    assert expected_abs_inner_product(0) == 0
    assert expected_abs_inner_product(1) == 1
    assert expected_abs_inner_product(2) == 1          # not the misprinted 3/2
    assert expected_abs_inner_product(3) == Fraction(3, 2)
    assert expected_abs_inner_product(4) == Fraction(3, 2)


def test_expected_abs_matches_exhaustive_enumeration():
    import itertools
    for L in range(1, 8):
        total = Fraction(0)
        for signs in itertools.product((-1, 1), repeat=L):
            total += abs(sum(signs))
        assert expected_abs_inner_product(L) == total / 2 ** L


# -- balanced coloring ------------------------------------------------------------


def test_balanced_coloring_floor_rule():
    # the zero function (column 0) has parity 0 everywhere, so its signs are
    # -1 exactly on the red points, the first floor(|B|/2) of them
    f2 = make_field(2)
    for design, reds in [
            (projective_space_design(make_field(3, 2), 1, 1), 4),   # |B| = 9
            (EvaluationDesign(f2, [(0,), (1,)], ["1"], [[1, 1]], 0), 1),
            (ruled_surface_design(make_field(2, 2), 1, 1), 8)]:     # |B| = 16
        Mb = balanced_matrix(design)
        assert Mb.meta["sign_scheme"] == {
            "kind": "balanced", "red_count": reds, "point_count": design.size}
        assert np.array_equal(Mb.column(0)[1] < 0, np.arange(design.size) < reds)


def test_balanced_matrix_has_the_materialization_cap(monkeypatch):
    design = build_design("devore", make_field(5), {"r": 3})  # N = 125
    monkeypatch.setattr(agrip.constructions, "MATERIALIZE_CAP", 100)
    with pytest.raises(ColumnCapExceeded):
        balanced_matrix(design)


# -- balanced matrices ---------------------------------------------------------------


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (7, 3)])
def test_balanced_devore_coherence_equals_unsigned_max(p, r):
    design, Mb = balanced_devore(p, r)
    assert coherence(Mb) == Fraction(r - 1, p)
    assert coherence_via_differences(design) == Fraction(r - 1, p)


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2)])
def test_balanced_devore_column_sums_at_most_one(p, r):
    _, Mb = balanced_devore(p, r)
    for j in range(Mb.N):
        assert abs(int(Mb.column(j)[1].sum())) <= 1


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2)])
def test_balanced_devore_omega_bound(p, r):
    _, Mb = balanced_devore(p, r)
    omega = average_coherence(Mb, "signed")
    assert omega <= Fraction(1, p ** 2)


def test_balanced_signed_omega_strictly_below_absolute():
    _, Mb = balanced_devore(3, 2)
    assert average_coherence(Mb, "signed") < average_coherence(Mb, "absolute")


def test_balanced_support_matches_unsigned():
    design, Mb = balanced_devore(5, 2)
    M = evaluation_matrix(design)
    assert (np.diff(Mb.indptr) == 5).all() and (np.diff(M.indptr) == 5).all()
    for j in (0, 3, 24):
        assert np.array_equal(Mb.column(j)[0], M.column(j)[0])
        assert np.array_equal(np.abs(Mb.column(j)[1]), M.column(j)[1])


def test_balanced_per_point_balance_at_generic_points():
    # |column sum at (a, b)| = p^{s(T-1)-1} except where all basis functions
    # take a common nonzero value (the all-ones evaluation point b = 1)
    design, Mb = balanced_devore(3, 2)
    dense = Mb.to_dense()
    sums = dense.sum(axis=1)
    q = 3
    for row, total in enumerate(sums):
        b_index = row // q
        if b_index == 1:  # the degenerate point b = 1 for the monomial basis
            assert abs(int(total)) == q  # excess q^{T-1}, see ledger
        else:
            assert abs(int(total)) == 1


def test_balanced_p2_pivot_rule():
    design = ruled_surface_design(make_field(2, 2), 1, 1)
    Mb = balanced_matrix(design)
    # support unchanged, signs in {-1, +1}
    assert (np.diff(Mb.indptr) == 16).all()
    for j in range(0, Mb.N, 37):
        assert set(np.abs(Mb.column(j)[1]).tolist()) == {1}
    # coherence cannot exceed the unsigned agreement maximum
    mu_unsigned = coherence_via_differences(design)
    assert coherence(Mb) <= mu_unsigned


def test_parity_pairing_flips_parity_for_odd_p():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        for x in range(1, p):
            assert (x % 2) != ((p - x) % 2)


def test_monte_carlo_pair_mean_matches_expectation():
    # fixed column pair with overlap L = 2 (x and x^2 agree at 0 and 1 over
    # F_5): over 1000 seeds the mean |<phi_i, phi_j>| converges to the exact
    # expectation within 3 standard errors
    M = devore(make_field(5), 3)
    i, j = 5, 25  # digits (0,1,0) -> x and (0,0,1) -> x^2
    overlap = len(set(M.column(i)[0].tolist()) & set(M.column(j)[0].tolist()))
    assert overlap == 2
    sub = from_columns(M.n, [M.column(i), M.column(j)], meta=M.meta)
    vals = []
    for seed in range(1000):
        R = randomize_signs(sub, seed)
        di = dict(zip(*[a.tolist() for a in R.column(0)]))
        dj = dict(zip(*[a.tolist() for a in R.column(1)]))
        ip = sum(v * dj.get(r, 0) for r, v in di.items())
        vals.append(abs(ip))
    vals = np.array(vals, dtype=float)
    expected = float(expected_abs_inner_product(overlap))
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - expected) <= 3 * se


# -- certification -----------------------------------------------------------------


def test_certify_ruled_f37_sufficient_conditions_hold():
    design = ruled_surface_design(make_field(37), 1, 0)
    Mb = balanced_matrix(design)
    cert = certify_strong_coherence(design, coherence_report(Mb))
    assert cert.condition_a and cert.condition_b and cert.sufficient_ok
    # the actual matrix still fails the direct mu inequality
    assert not cert.ground_truth.cond1
    assert cert.mu == Fraction(1, 37)


def test_certify_unsigned_devore_fails_ground_truth():
    design = projective_space_design(make_field(5), 1, 1)
    M = evaluation_matrix(design)
    cert = certify_strong_coherence(design, coherence_report(M))
    assert not cert.ground_truth.satisfied
    # omega of the unsigned construction: (q^{T-1} - 1)/(q^T - 1)
    assert cert.omega_signed == Fraction(5 - 1, 25 - 1)


def test_randomize_rejects_bad_seed():
    M = devore(make_field(3), 2)
    with pytest.raises(Exception):
        randomize_signs(M, -1)


def test_certify_characteristic_two_balanced():
    design = ruled_surface_design(make_field(2, 2), 1, 1)
    Mb = balanced_matrix(design)
    cert = certify_strong_coherence(design, coherence_report(Mb))
    # exact values computed on the actual matrix; the signed average
    # coherence can only improve on the unsigned construction's
    unsigned_omega = Fraction(4 ** (design.T - 1) - 1, 4 ** design.T - 1)
    assert cert.omega_signed <= unsigned_omega
    assert not cert.ground_truth.satisfied


def test_certify_unsigned_construction_c_omega():
    design = projective_space_design(make_field(3), 2, 1)
    M = evaluation_matrix(design)
    cert = certify_strong_coherence(design, coherence_report(M))
    q, T = 3, design.T
    assert cert.omega_signed == Fraction(q ** (T - 1) - 1, q ** T - 1)
    assert not cert.ground_truth.satisfied
