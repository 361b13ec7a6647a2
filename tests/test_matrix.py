from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agrip.errors import (
    DegenerateShape,
    FormatError,
    PairScanCapExceeded,
    SingleColumn,
    ZeroCoherence,
)
from agrip.exact import SurdSum
from agrip.fields import make_field
from agrip.constructions import (
    construction_a_simple_poles,
    devore,
    fermat_hyperplane_matrix,
)
import agrip.matrix
from agrip.matrix import (
    DEFAULT_PAIR_CAP,
    MeasurementMatrix,
    _gram_scan,
    average_coherence,
    coherence,
    coherence_report,
    read_sparse,
    sparsity_order_bound,
    strong_coherence_check,
    welch_bound,
    welch_bound_squared,
    write_sparse,
)
from agrip.signs import randomize_signs
from agrip.verification import brute_force_coherence


def dense_to_matrix(arr, meta=None):
    arr = np.asarray(arr, dtype=np.int64)
    cols = []
    for j in range(arr.shape[1]):
        rows = np.nonzero(arr[:, j])[0]
        cols.append((rows, arr[rows, j]))
    return MeasurementMatrix(arr.shape[0], arr.shape[1], cols, meta=meta)


def identity_matrix(n):
    return dense_to_matrix(np.eye(n, dtype=np.int64))


def test_coherence_identity_is_zero():
    assert coherence(identity_matrix(3)) == Fraction(0)


def test_coherence_devore_f3_r2():
    assert coherence(devore(make_field(3), 2)) == Fraction(1, 3)


def test_coherence_duplicated_column_is_one():
    arr = np.array([[1, 1], [1, 1], [0, 0]])
    assert coherence(dense_to_matrix(arr)) == Fraction(1)


def test_coherence_single_column_rejected():
    with pytest.raises(SingleColumn):
        coherence(dense_to_matrix(np.array([[1], [1]])))


def test_coherence_pair_cap():
    M = devore(make_field(3), 2)
    with pytest.raises(PairScanCapExceeded):
        coherence(M, pair_cap=5)


def test_average_coherence_identity():
    assert average_coherence(identity_matrix(3), "signed") == 0
    assert average_coherence(identity_matrix(3), "absolute") == 0


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (5, 3)])
def test_average_coherence_devore_closed_form(p, r):
    M = devore(make_field(p), r)
    expected = Fraction(p ** (r - 1) - 1, p ** r - 1)
    assert average_coherence(M, "absolute") == expected
    assert average_coherence(M, "signed") == expected


def test_omega_mixed_norms_is_exact_surd():
    # columns (1,1,0), (1,0,1), (1,1,1): norms sqrt2, sqrt2, sqrt3
    arr = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]])
    M = dense_to_matrix(arr)
    # scores: col0 = col1 = 1/2 + 2/sqrt6 ~ 1.317, col2 = 4/sqrt6 ~ 1.633
    omega = average_coherence(M, "absolute")
    assert omega == SurdSum.ratio_sqrt(4, 6) / 2
    assert omega > (SurdSum.from_fraction(Fraction(1, 2))
                    + SurdSum.ratio_sqrt(2, 6)) / 2


def test_welch_bound_values():
    assert abs(welch_bound(4, 8) - np.sqrt(8 / 16)) < 1e-15
    assert abs(welch_bound(25, 125) - np.sqrt(125 / 2500)) < 1e-15
    with pytest.raises(DegenerateShape):
        welch_bound(9, 9)


def test_welch_holds_for_devore():
    M = devore(make_field(5), 3)
    mu = coherence(M)
    assert welch_bound_squared(M.n, M.N) <= mu * mu


def test_sparsity_order_bound():
    assert sparsity_order_bound(Fraction(1, 3)) == 4
    assert sparsity_order_bound(Fraction(2, 5)) == 3
    assert sparsity_order_bound(Fraction(0), n=7) == 7
    with pytest.raises(ZeroCoherence):
        sparsity_order_bound(Fraction(0))


def test_strong_coherence_identity_passes():
    verdict = strong_coherence_check(identity_matrix(3))
    assert verdict.cond1 and verdict.cond2 and verdict.satisfied


def test_strong_coherence_devore_fails():
    for base in ("natural", "base2", "base10"):
        verdict = strong_coherence_check(devore(make_field(5), 3), log_base=base)
        assert not verdict.cond1
        assert not verdict.satisfied


def test_report_fields(tmp_path):
    M = devore(make_field(3), 2)
    report = coherence_report(M)
    d = report.to_dict()
    assert d["mu"] == {"num": 1, "den": 3, "decimal": "0.333333333333"}
    assert d["sparsity_bound"] == 4
    assert d["family"] == "devore"
    assert set(d["strong_coherence"]) == {"cond1", "cond2", "log_base",
                                          "omega_mode"}


def test_binary_matrices_have_equal_omegas():
    for M in [devore(make_field(3), 2), devore(make_field(5), 2)]:
        assert (average_coherence(M, "signed")
                == average_coherence(M, "absolute"))


def test_report_handles_irrational_mu():
    arr = np.array([[1, 1], [1, 1], [0, 1]])  # ip 2, norms sqrt2, sqrt3
    M = dense_to_matrix(arr)
    mu = coherence(M)
    assert isinstance(mu, SurdSum)
    assert mu.squared() == Fraction(4, 6)
    d = coherence_report(M).to_dict()
    assert d["mu"]["num"] is None
    assert d["mu"]["squared"] == {"num": 2, "den": 3}
    assert d["mu"]["surd_terms"] == [{"radicand": 6, "num": 1, "den": 3}]


def test_report_serializes_multi_term_surd_omega():
    from agrip.constructions import construction_a_simple_poles
    from agrip.fields import make_field
    M = construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4])
    d = coherence_report(M).to_dict()
    om = d["omega_signed"]
    assert om["num"] is None
    assert len(om["surd_terms"]) >= 2
    # the serialized terms reproduce the exact value
    rebuilt = SurdSum({t["radicand"]: Fraction(t["num"], t["den"])
                       for t in om["surd_terms"]})
    assert rebuilt == average_coherence(M, "signed")


# -- invariance properties ----------------------------------------------------

small_dense = st.integers(2, 5).flatmap(
    lambda n: st.integers(2, 5).flatmap(
        lambda N: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=N, max_size=N)))


def _valid_columns(cols_nested):
    arr = np.array(cols_nested, dtype=np.int64).T
    return arr if (np.abs(arr).sum(axis=0) > 0).all() else None


@settings(max_examples=60, deadline=None)
@given(small_dense, st.randoms(use_true_random=False))
def test_coherence_invariances(cols_nested, rnd):
    arr = _valid_columns(cols_nested)
    if arr is None:
        return
    M = dense_to_matrix(arr)
    base = coherence(M)
    n, N = arr.shape
    row_perm = list(range(n))
    col_perm = list(range(N))
    rnd.shuffle(row_perm)
    rnd.shuffle(col_perm)
    flipped = arr.copy()
    flipped[:, rnd.randrange(N)] *= -1
    transformed = flipped[np.ix_(row_perm, col_perm)]
    assert coherence(dense_to_matrix(transformed)) == base


@settings(max_examples=60, deadline=None)
@given(small_dense)
def test_omega_signed_below_absolute(cols_nested):
    arr = _valid_columns(cols_nested)
    if arr is None or arr.shape[1] < 2:
        return
    M = dense_to_matrix(arr)
    signed = average_coherence(M, "signed")
    absolute = average_coherence(M, "absolute")
    sv = signed if isinstance(signed, SurdSum) else SurdSum.from_fraction(signed)
    assert sv <= absolute


# -- format round-trip ------------------------------------------------------------


def test_sparse_format_round_trip(tmp_path):
    M = devore(make_field(3), 2)
    path = tmp_path / "m.agrip"
    write_sparse(M, path)
    M2 = read_sparse(path)
    assert M2 == M
    path2 = tmp_path / "m2.agrip"
    write_sparse(M2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_sparse_format_signed_round_trip(tmp_path):
    arr = np.array([[2, -1], [0, 3], [-5, 0]])
    M = dense_to_matrix(arr)
    path = tmp_path / "s.agrip"
    write_sparse(M, path)
    assert read_sparse(path) == M


def test_sparse_format_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.agrip"
    path.write_text("AGRIP-SPARSE 1 2 2 2\n0 0 1\n0 0 1\n")
    with pytest.raises(FormatError) as err:
        read_sparse(path)
    assert err.value.line == 3
    path.write_text("NOPE 1 2 2 1\n0 0 1\n")
    with pytest.raises(FormatError) as err:
        read_sparse(path)
    assert err.value.line == 1
    path.write_text("AGRIP-SPARSE 1 2 2 3\n0 0 1\n1 0 1\n")
    with pytest.raises(FormatError):
        read_sparse(path)


def test_thread_count_does_not_change_results(monkeypatch):
    M = fermat_hyperplane_matrix(make_field(2, 2))
    monkeypatch.setenv("AGRIP_THREADS", "1")
    mu1 = coherence(M, block=16)
    om1 = average_coherence(M, "signed", block=16)
    monkeypatch.setenv("AGRIP_THREADS", "4")
    mu4 = coherence(M, block=16)
    om4 = average_coherence(M, "signed", block=16)
    assert mu1 == mu4
    assert om1 == om4


# -- the fused Gram scan ---------------------------------------------------------


@st.composite
def norm_grouped_matrices(draw):
    """Signed columns, each a signed permutation of one of 1-4 base columns,
    so the squared norms take 1-4 values and ratios tie across groups."""
    n = draw(st.integers(2, 5))
    base = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    bases = draw(st.lists(base, min_size=1, max_size=4))
    cols = []
    for _ in range(draw(st.integers(2, 7))):
        col = draw(st.sampled_from(bases))
        order = draw(st.permutations(range(n)))
        flips = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        cols.append([col[k] * f for k, f in zip(order, flips)])
    return np.array(cols, dtype=np.int64).T


def _omega_by_definition(arr, mode):
    """(1/(N-1)) max_i of sum_{j != i} G_ij / sqrt(c_i c_j), term by term."""
    G = arr.T @ arr
    N = arr.shape[1]
    best = None
    for i in range(N):
        total = SurdSum()
        for j in range(N):
            if j != i:
                ip = int(G[i, j]) if mode == "signed" else abs(int(G[i, j]))
                total = total + SurdSum.ratio_sqrt(ip, int(G[i, i] * G[j, j]))
        score = abs(total) if mode == "signed" else total
        if best is None or score > best:
            best = score
    return best / (N - 1)


@settings(max_examples=80, deadline=None)
@given(norm_grouped_matrices())
@example(np.eye(2, dtype=np.int64))  # N = 2, orthonormal: mu = 0
# (1,0,0,0), (1,1,0,0), (1,1,1,1): mu = 1/sqrt2 from (ip, c_i, c_j) = (1, 1, 2)
# and from (2, 2, 4)
@example(np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1], [0, 0, 1]]))
def test_gram_scan_matches_the_definitions(arr):
    M = dense_to_matrix(arr)
    assert coherence(M) == brute_force_coherence(M)
    for mode in ("signed", "absolute"):
        assert average_coherence(M, mode) == _omega_by_definition(arr, mode)


@pytest.mark.parametrize("M", [
    construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4]),
    randomize_signs(fermat_hyperplane_matrix(make_field(2, 2)), 3),
], ids=["consta-poles-F5", "fermat-F4-random"])
def test_gram_scan_does_not_depend_on_the_block_size(M):
    ref = _gram_scan(M, DEFAULT_PAIR_CAP, 1024)
    for block in (1, 7):
        scan = _gram_scan(M, DEFAULT_PAIR_CAP, block)
        for got, want in zip(scan, ref):
            assert np.array_equal(got, want)
        assert coherence(M, block=block) == coherence(M)
        for mode in ("signed", "absolute"):
            assert (average_coherence(M, mode, block=block)
                    == average_coherence(M, mode))


def test_report_makes_one_gram_scan(monkeypatch):
    calls = []
    real = agrip.matrix._gram_scan

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(agrip.matrix, "_gram_scan", counting)
    M = construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4])
    report = coherence_report(M)
    assert len(calls) == 1
    assert report.mu == coherence(M)
    assert report.omega_absolute == average_coherence(M, "absolute")


_READ_HUGE_HEADER = """
import resource, sys
from agrip.errors import FormatError
from agrip.matrix import read_sparse
# a reader that trusted the header would build 10^9 columns; under a 2 GiB
# address-space cap that ends in MemoryError instead of exhausting the host
resource.setrlimit(resource.RLIMIT_AS,
                   (1 << 31, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    read_sparse(sys.argv[1])
except FormatError as err:
    print(err.line)
"""


def test_read_sparse_checks_the_header_before_allocating(tmp_path):
    import os
    import subprocess
    import sys

    path = tmp_path / "huge.agrip"
    path.write_text("AGRIP-SPARSE 1 4 1000000000 1000000000\n0 0 1\n")
    src = os.path.dirname(os.path.dirname(agrip.matrix.__file__))
    # one BLAS thread keeps the child's own address space small
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _READ_HUGE_HEADER, str(path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"
    for header in ("AGRIP-SPARSE 1 0 1 1",      # n < 1
                   "AGRIP-SPARSE 1 4 0 1",      # N < 1
                   "AGRIP-SPARSE 1 4 2 1",      # N > nnz: a column is empty
                   "AGRIP-SPARSE 1 4 1 2"):     # 2 entries cannot fit 6 bytes
        path.write_text(header + "\n0 0 1\n")
        with pytest.raises(FormatError) as err:
            read_sparse(path)
        assert err.value.line == 1
