import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from agrip.errors import (
    DegenerateShape,
    FormatError,
    PairScanCapExceeded,
    PreconditionError,
    SingleColumn,
    ZeroCoherence,
)
from agrip.exact import SurdSum, as_exact
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
    _IO_BLOCK,
    _average_coherence_from,
    _coherence_from,
    _function_space_scan,
    _gram_scan,
    _gram_tile,
    average_coherence,
    coherence,
    coherence_report,
    read_sparse,
    sparsity_order_bound,
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
    assert omega > (SurdSum({1: Fraction(1, 2)})
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
    verdict = coherence_report(identity_matrix(3)).strong_coherence
    assert verdict.cond1 and verdict.cond2 and verdict.satisfied


def test_strong_coherence_devore_fails():
    for base in ("natural", "base2", "base10"):
        verdict = coherence_report(devore(make_field(5), 3),
                                   log_base=base).strong_coherence
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


@pytest.mark.parametrize("modes", [{"omega_mode": "bogus"},
                                   {"log_base": "bogus"}])
def test_report_refuses_unknown_modes_before_the_scan(modes, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the Gram scan ran before the modes were checked")

    monkeypatch.setattr(agrip.matrix, "_gram_scan", no_scan)
    with pytest.raises(PreconditionError, match="bogus"):
        coherence_report(devore(make_field(3), 2), **modes)


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


def test_report_factors_only_single_squared_norms(monkeypatch):
    """The exact finalize takes 1/sqrt(c) once per distinct squared norm c
    and multiplies surds by gcd, so no product of two norms (or a square)
    is ever trial-divided; the verdict's mu/sqrt(n) factors n."""
    import agrip.exact
    seen = []
    real = agrip.exact.squarefree_decompose
    monkeypatch.setattr(agrip.exact, "squarefree_decompose",
                        lambda n: seen.append(n) or real(n))
    M = construction_a_simple_poles(make_field(7), ["0", "3", "inf"],
                                    ["1", "2", "4", "5", "6"])
    coherence_report(M).to_dict()
    norms = set(M.sqnorms().tolist())
    assert len(norms) > 1 and seen
    assert set(seen) <= norms | {M.n}


def _omega_row_by_row(scan, mode):
    """The ω finalize as defined: every row's sum of S[i,v] / sqrt(v c_i)."""
    S = scan.signed if mode == "signed" else scan.absolute
    values = scan.values.tolist()
    best = None
    for sums, ci in zip(S.tolist(), scan.sqnorms.tolist()):
        total = sum((SurdSum.ratio_sqrt(s, v * ci)
                     for s, v in zip(sums, values)), SurdSum())
        total = abs(total) if mode == "signed" else total
        best = total if best is None or total > best else best
    return as_exact(best / (scan.sqnorms.size - 1))


@pytest.mark.parametrize("mode", ["signed", "absolute"])
@pytest.mark.parametrize("seed", range(6))
def test_omega_finalize_matches_the_row_by_row_sum(seed, mode):
    """Seeded mixed-norm matrices whose repeated and negated columns tie
    rows; value, type and repr must be those of the definition."""
    rng = np.random.default_rng(seed)
    arr = rng.integers(-3, 4, (5, 8))
    arr[0, ~arr.any(axis=0)] = 2  # no zero column
    picks = rng.integers(0, 8, 4)
    arr = np.column_stack([arr, arr[:, picks[:2]], -arr[:, picks[2:]]])
    scan = _gram_scan(dense_to_matrix(arr), DEFAULT_PAIR_CAP)
    assert scan.values.size > 1
    got, want = _average_coherence_from(scan, mode), _omega_row_by_row(scan, mode)
    assert got == want
    assert type(got) is type(want) and repr(got) == repr(want)


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
    sv = signed if isinstance(signed, SurdSum) else SurdSum({1: signed})
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


_HEADER_2x2 = "AGRIP-SPARSE 1 2 2 2\n"


@pytest.mark.parametrize("text,line,message", [
    ("NOPE 1 2 2 2\n0 0 1\n1 0 1\n", 1, "bad header 'NOPE 1 2 2 2\\n'"),
    ("AGRIP-SPARSE 1 2 2\n0 0 1\n1 0 1\n", 1,
     "bad header 'AGRIP-SPARSE 1 2 2\\n'"),
    ("AGRIP-SPARSE 1 2 x 2\n0 0 1\n1 0 1\n", 1,
     "non-integer header fields in 'AGRIP-SPARSE 1 2 x 2\\n'"),
    ("AGRIP-SPARSE 2 2 2 2\n0 0 1\n1 0 1\n", 1,
     "unsupported format version 2"),
    ("AGRIP-SPARSE 1 2 2 3\n0 0 1\n1 0 1\n", 1,
     "header 'AGRIP-SPARSE 1 2 2 3' does not fit a 12-byte body of "
     "nonempty columns"),
], ids=["name", "field-count", "non-integer", "version", "does-not-fit"])
def test_read_sparse_header_errors(tmp_path, text, line, message):
    path = tmp_path / "bad.agrip"
    path.write_bytes(text.encode())
    with pytest.raises(FormatError) as err:
        read_sparse(path)
    assert type(err.value) is FormatError
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text,line,message", [
    (_HEADER_2x2 + "0 0 1\n\n1 0 1\n", 3, "blank line inside data"),
    (_HEADER_2x2 + "0 0 1\n   \n1 0 1\n", 3, "blank line inside data"),
    (_HEADER_2x2 + "0 0 1\n1 0 1 7\n", 3, "malformed entry '1 0 1 7'"),
    (_HEADER_2x2 + "0 0 1\n1 0 one\n", 3, "malformed entry '1 0 one'"),
    (_HEADER_2x2 + "0 0 1\n1 0 1.0\n", 3, "malformed entry '1 0 1.0'"),
    (_HEADER_2x2 + "0 0 1\n2 0 1\n", 3, "column index 2 out of range"),
    (_HEADER_2x2 + "-1 0 1\n1 0 1\n", 2, "column index -1 out of range"),
    (_HEADER_2x2 + "0 0 1\n1 2 1\n", 3, "row index 2 out of range"),
    (_HEADER_2x2 + "0 -1 1\n1 0 1\n", 2, "row index -1 out of range"),
    (_HEADER_2x2 + "0 0 1\n1 0 0\n", 3, "explicit zero entry"),
    (_HEADER_2x2 + "0 0 1\n1 0 -0\n", 3, "explicit zero entry"),
    (_HEADER_2x2 + "1 0 1\n0 0 1\n", 3, "entries not sorted by (col, row)"),
    (_HEADER_2x2 + "0 1 1\n0 0 1\n", 3, "entries not sorted by (col, row)"),
    # rows rising through the out-of-order column: a reader that bucketed
    # entries without checking the column order would build a valid matrix
    ("AGRIP-SPARSE 1 3 2 3\n1 0 1\n0 1 1\n1 2 1\n", 3,
     "entries not sorted by (col, row)"),
    ("AGRIP-SPARSE 1 2 2 3\n0 0 1000000\n1 0 1000000\n", 3,
     "header promises 3 entries, found 2"),
    (_HEADER_2x2 + "0 0 1\n0 1 1\n1 0 1\n", 4,
     "header promises 2 entries, found 3"),
    ("AGRIP-SPARSE 1 2 3 3\n0 0 1\n0 1 1\n2 0 1\n", 4,
     "column 1 has no entries"),
    ("AGRIP-SPARSE 1 2 3 3\n0 0 1\n1 1 1\n1 0 1\n", 4,
     "entries not sorted by (col, row)"),
], ids=["blank", "blank-spaces", "extra-field", "word", "decimal-point",
        "column-high", "column-negative", "row-high", "row-negative",
        "zero", "minus-zero", "column-order", "row-order",
        "column-order-rows-rising", "too-few",
        "too-many", "empty-column", "first-fault-wins"])
def test_read_sparse_body_errors(tmp_path, text, line, message):
    path = tmp_path / "bad.agrip"
    path.write_bytes(text.encode())
    with pytest.raises(FormatError) as err:
        read_sparse(path)
    assert type(err.value) is FormatError
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_read_sparse_accepts_non_canonical_spellings(tmp_path):
    """int() spellings and line endings the line parser has always taken."""
    arr = np.zeros((12, 3), dtype=np.int64)
    arr[[0, 10, 11], 0] = [1, 1, -3]
    arr[[2, 5], 1] = [1, 1]
    arr[[7], 2] = [12]
    M = dense_to_matrix(arr)
    canonical = tmp_path / "canonical.agrip"
    write_sparse(M, canonical)
    assert canonical.read_bytes() == (b"AGRIP-SPARSE 1 12 3 6\n0 0 1\n0 10 1\n"
                                      b"0 11 -3\n1 2 1\n1 5 1\n2 7 12\n")
    spellings = {
        "plus-sign": "AGRIP-SPARSE 1 12 3 6\n0 0 +1\n0 10 1\n0 11 -3\n"
                     "1 2 +1\n1 5 1\n2 7 +12\n",
        "leading-zeros": "AGRIP-SPARSE 1 012 3 6\n00 0 1\n0 010 01\n"
                         "0 11 -03\n1 002 1\n01 5 1\n2 7 0012\n",
        "underscores": "AGRIP-SPARSE 1 1_2 3 6\n0 0 1\n0 1_0 1\n0 1_1 -3\n"
                       "1 2 1\n1 5 1\n2 7 1_2\n",
        "crlf": "AGRIP-SPARSE 1 12 3 6\r\n0 0 1\r\n0 10 1\r\n0 11 -3\r\n"
                "1 2 1\r\n1 5 1\r\n2 7 12\r\n",
        "whitespace": "AGRIP-SPARSE  1 12 3 6 \n0\t0 1\n 0 10 1\n0 11  -3\n"
                      "1 2 1 \n1 5 1\n2 7 12",
    }
    for name, text in spellings.items():
        path = tmp_path / f"{name}.agrip"
        path.write_bytes(text.encode())
        assert read_sparse(path) == M, name
        again = tmp_path / f"{name}-again.agrip"
        write_sparse(read_sparse(path), again)
        assert again.read_bytes() == canonical.read_bytes(), name


_SMALL_FILE = b"AGRIP-SPARSE 1 3 3 4\n0 0 1\n0 2 -1\n1 1 1\n2 0 12\n"


@pytest.mark.parametrize("at,line", [
    (_SMALL_FILE.index(b"SPARSE"), 1),   # a header byte
    (_SMALL_FILE.index(b"2 -1"), 3),     # a row index
    (_SMALL_FILE.index(b"12\n"), 5),     # a value
], ids=["header", "row-index", "value"])
def test_read_sparse_survives_every_byte_at_one_position(tmp_path, at, line):
    """Every byte value, UTF-8 or not, gives a matrix or a FormatError; a
    byte that is not UTF-8 on its own fails at its own line."""
    path = tmp_path / "m.agrip"
    for byte in range(256):
        data = bytearray(_SMALL_FILE)
        data[at] = byte
        path.write_bytes(data)
        try:
            read_sparse(path)
        except FormatError as err:
            assert byte < 0x80 or err.line == line, (byte, str(err))
        else:
            assert byte < 0x80, byte


@st.composite
def signed_matrices(draw):
    """Columns of 1 to n entries with any nonzero int64 values."""
    n = draw(st.integers(1, 40))
    value = st.integers(-(2 ** 63), 2 ** 63 - 1).filter(bool)
    cols = []
    for _ in range(draw(st.integers(1, 12))):
        rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                             unique=True))
        vals = draw(st.lists(value, min_size=len(rows), max_size=len(rows)))
        cols.append((sorted(rows), vals))
    return MeasurementMatrix(n, len(cols), cols)


@settings(max_examples=80, deadline=None)
@given(signed_matrices())
@example(MeasurementMatrix(1, 1, [([0], [1])]))
@example(MeasurementMatrix(1, 3, [([0], [-(2 ** 63)]), ([0], [2 ** 63 - 1]),
                                  ([0], [-1])]))
@example(MeasurementMatrix(30, 2, [([29], [7]), (list(range(30)), [-2] * 30)]))
def test_sparse_format_round_trip_property(M):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = f"{tmp}/a.agrip", f"{tmp}/b.agrip"
        write_sparse(M, first)
        back = read_sparse(first)
        assert back == M
        write_sparse(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def _reference_bytes(M):
    """AGRIP-SPARSE rendered line by line with Python's int formatting."""
    cols = np.repeat(np.arange(M.N), np.diff(M.indptr)).tolist()
    body = "".join(f"{j} {i} {v}\n" for j, i, v in
                   zip(cols, M.indices.tolist(), M.data.tolist()))
    return f"AGRIP-SPARSE 1 {M.n} {M.N} {M.nnz}\n{body}".encode()


def _diagonal(size, value):
    return MeasurementMatrix(size, size, [([j], [value(j)]) for j in range(size)])


@settings(max_examples=40, deadline=None)
@given(signed_matrices())
@example(_diagonal(11, lambda j: j + 1))  # indices and values 9 and 10
@example(_diagonal(101, lambda j: -(j + 1)))
@example(_diagonal(1001, lambda j: 999 - j or 1000))
@example(MeasurementMatrix(1, 4, [([0], [-(2 ** 63)]), ([0], [2 ** 63 - 1]),
                                  ([0], [-1]), ([0], [10])]))
@example(MeasurementMatrix.from_csc(   # more columns than one rendered block
    2, _IO_BLOCK + 1, np.arange(_IO_BLOCK + 2), np.arange(_IO_BLOCK + 1) % 2,
    np.where(np.arange(_IO_BLOCK + 1) % 3, -7, 12345)))
def test_write_sparse_bytes_are_the_canonical_spelling(M):
    """Byte for byte, not only something read_sparse accepts ("+1", "01")."""
    with tempfile.TemporaryDirectory() as tmp:
        write_sparse(M, f"{tmp}/m.agrip")
        with open(f"{tmp}/m.agrip", "rb") as fh:
            assert fh.read() == _reference_bytes(M)


def test_shared_arrays_are_read_only():
    indptr = np.array([0, 1, 3])
    A = MeasurementMatrix.from_csc(2, 2, indptr, [0, 0, 1], [1, 1, 1])
    R = randomize_signs(A, 0)
    assert R.indices is A.indices
    for arr in (indptr, A.indptr, A.indices, A.data, R.data, A.column(1)[0]):
        with pytest.raises(ValueError):
            arr[0] = 7
    assert A.column(0)[0].tolist() == [0]
    assert coherence(R) == coherence(A) == brute_force_coherence(A)


@pytest.mark.parametrize("indptr,indices,data,message", [
    ([0, 1, 1], [0], [1], "column 1 is zero"),
    ([0, 1, 2], [0, 1], [1, 0], "column 1 stores a zero entry"),
    ([0, 1, 3], [0, 2, 1], [1, 1, 1],
     "column 1: row indices not strictly increasing"),
    ([0, 1, 3], [0, 1, 1], [1, 1, 1],
     "column 1: row indices not strictly increasing"),
    ([0, 1, 2], [0, 3], [1, 1], "column 1: row index out of range"),
    ([0, 1, 2], [-1, 0], [1, 1], "column 0: row index out of range"),
    ([0, 1], [0], [1], "expected 2 columns, got 1"),
    ([0, 2, 1], [0, 1], [1, 1], "malformed CSC arrays"),
    ([0, 1, 2], [0, 1], [1], "malformed CSC arrays"),
], ids=["empty", "zero", "unsorted", "repeated", "row-high", "row-negative",
        "column-count", "indptr", "lengths"])
def test_from_csc_validates_the_arrays(indptr, indices, data, message):
    with pytest.raises(PreconditionError) as err:
        MeasurementMatrix.from_csc(3, 2, indptr, indices, data)
    assert str(err.value) == message


def test_column_list_and_arrays_give_one_matrix():
    M = MeasurementMatrix(4, 3, [([1, 3], [2, -1]), ([0], [5]),
                                 ([0, 1, 2, 3], [1, 1, -1, 1])])
    A = MeasurementMatrix.from_csc(4, 3, [0, 2, 3, 7], [1, 3, 0, 0, 1, 2, 3],
                                   [2, -1, 5, 1, 1, -1, 1])
    assert M == A
    assert M.nnz == 7
    assert M.sqnorms().tolist() == [5, 25, 4]
    assert M.constant_support() is None and not M.is_binary()
    assert [r.tolist() for r in M.column(2)] == [[0, 1, 2, 3], [1, 1, -1, 1]]
    assert np.array_equal(M.to_dense(), [[0, 5, 1], [2, 0, 1], [0, 0, -1],
                                         [-1, 0, 1]])


def test_thread_count_does_not_change_results(monkeypatch):
    """N = 85 in 16-column slabs: six dense-tile tasks, each with its own
    tile buffer, share the pool however many workers it has."""
    M = fermat_hyperplane_matrix(make_field(2, 2))
    monkeypatch.setattr(agrip.matrix, "_GRAM_TILE", 16)
    scans = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("AGRIP_THREADS", threads)
        scans.append(_gram_scan(M, DEFAULT_PAIR_CAP))
    assert scans[0].values.size == 2  # two norm groups
    for scan in scans[1:]:
        for got, want in zip(scan, scans[0]):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_concurrent_tasks_do_not_share_tile_buffers(monkeypatch):
    """200 columns in 64-column slabs: four tasks whose GEMMs, abs and
    reductions release the GIL, so tasks writing one shared tile buffer
    would garble most 4-worker scans."""
    M = _random_mixed_matrix(300, 200, 0.3, 1)
    monkeypatch.setattr(agrip.matrix, "_GRAM_TILE", 64)
    monkeypatch.setenv("AGRIP_THREADS", "1")
    ref = _gram_scan(M, DEFAULT_PAIR_CAP)
    monkeypatch.setenv("AGRIP_THREADS", "4")
    for _ in range(6):
        for got, want in zip(_gram_scan(M, DEFAULT_PAIR_CAP), ref):
            assert np.array_equal(got, want)


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


def _random_mixed_matrix(n, N, density, seed):
    """Random entries in {-1, 1} at the given density plus one in each
    column, so the squared norms (support sizes) form several groups."""
    rng = np.random.default_rng(seed)
    arr = (rng.random((n, N)) < density) * rng.choice([-1, 1], (n, N))
    arr[rng.integers(0, n, N), np.arange(N)] = rng.choice([-1, 1], N)
    return dense_to_matrix(arr)


@pytest.mark.parametrize("M,dense", [
    (construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4]), True),
    (randomize_signs(fermat_hyperplane_matrix(make_field(2, 2)), 3), True),
    (_random_mixed_matrix(12, 60, 0.2, 1), True),
    (_random_mixed_matrix(200, 60, 0.01, 2), False),
], ids=["consta-poles-F5", "fermat-F4-random", "random-dense-tiles",
        "random-sparse-tiles"])
def test_gram_scan_does_not_depend_on_the_block_size(M, dense, monkeypatch):
    densified = []  # dense tiles densify their column slabs
    real = agrip.matrix._densify
    monkeypatch.setattr(agrip.matrix, "_densify",
                        lambda *args: densified.append(1) or real(*args))
    ref = _gram_scan(M, DEFAULT_PAIR_CAP)  # N <= 125: one 512-column slab
    assert bool(densified) == dense
    mu = coherence(M)
    omega = {mode: average_coherence(M, mode) for mode in ("signed", "absolute")}
    # slabs of 1, 7 and 16 columns: each slab walks several tiles, and the
    # norm groups straddle their edges
    for tile in (1, 7, 16):
        monkeypatch.setattr(agrip.matrix, "_GRAM_TILE", tile)
        scan = _gram_scan(M, DEFAULT_PAIR_CAP)
        for got, want in zip(scan, ref):
            assert np.array_equal(got, want)
        assert _coherence_from(scan) == mu
        for mode, value in omega.items():
            assert _average_coherence_from(scan, mode) == value


def test_a_very_sparse_family_takes_sparse_tiles_by_default(monkeypatch):
    """Random-signed devore F_37 r=2: n = N = 1369, and n N^2 is 1369 times
    the sparse product's work, above _DENSE_WORK_RATIO."""
    M = randomize_signs(devore(make_field(37), 2), 1)
    real = agrip.matrix._densify
    monkeypatch.setattr(agrip.matrix, "_densify",
                        lambda *args: pytest.fail("densified a slab"))
    sparse = _gram_scan(M, DEFAULT_PAIR_CAP)
    monkeypatch.setattr(agrip.matrix, "_densify", real)
    monkeypatch.setattr(agrip.matrix, "_DENSE_WORK_RATIO", 10 ** 30)
    for got, want in zip(sparse, _gram_scan(M, DEFAULT_PAIR_CAP)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _gram_scan_by_definition(arr):
    """The _gram_scan tuple from the dense int64 Gram matrix."""
    c = (arr * arr).sum(axis=0)
    order = np.argsort(c, kind="stable")
    G = arr[:, order].T @ arr[:, order]
    np.fill_diagonal(G, 0)
    values, group = np.unique(c[order], return_inverse=True)
    member = (group[:, None] == np.arange(values.size)).astype(np.int64)
    pair_max = [[np.abs(G[np.ix_(group == u, group == v)]).max()
                 for v in range(values.size)] for u in range(values.size)]
    return values, c[order], G @ member, np.abs(G) @ member, np.array(pair_max)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arr=st.tuples(st.integers(1, 10), st.integers(2, 40)).flatmap(
           lambda shape: arrays(np.int64, shape, elements=st.sampled_from(
               [0, 0, 0, 1, -1, 2, -3]))),
       tile=st.integers(1, 9))
@example(arr=np.array([[2, 2], [1, 1]]), tile=1)  # 5000^2 + 1: odd, > 2^24
@pytest.mark.parametrize("ratio,big", [(0, None), (10 ** 30, None),
                                       (10 ** 30, 5000)],  # B >= 2^24
                         ids=["sparse-tiles", "dense-tiles",
                              "dense-tiles-entry-5000"])
def test_gram_scan_matches_the_dense_gram_matrix(ratio, big, arr, tile,
                                                 monkeypatch):
    if big:
        arr = np.where(arr == 2, big, arr)
    arr[0, ~arr.any(axis=0)] = 1  # no zero column
    monkeypatch.setattr(agrip.matrix, "_DENSE_WORK_RATIO", ratio)
    monkeypatch.setattr(agrip.matrix, "_GRAM_TILE", tile)
    scan = _gram_scan(dense_to_matrix(arr), DEFAULT_PAIR_CAP)
    for got, want in zip(scan, _gram_scan_by_definition(arr)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dense_tiles_stay_exact_above_float32_integers(monkeypatch):
    """B = 2 * 4097^2 >= 2^24, and the odd inner product 4097^2 + 2 =
    16 785 411 has no float32 spelling (it would round to 16 785 410)."""
    arr = np.array([[4097, 4097], [1, 2]])
    monkeypatch.setattr(agrip.matrix, "_DENSE_WORK_RATIO", 10 ** 30)
    scan = _gram_scan(dense_to_matrix(arr), DEFAULT_PAIR_CAP)
    assert scan.pair_max.tolist() == [[0, 16_785_411], [16_785_411, 0]]
    for got, want in zip(scan, _gram_scan_by_definition(arr)):
        assert np.array_equal(got, want)


def test_dense_tile_sums_stay_exact_above_float32_integers(monkeypatch):
    """B = 4095^2 < 2^24 gives float32 tiles, but a tile sum may add up to
    512 values of B: row 0's absolute sum 3 * 4095^2 = 50 307 075 has no
    float32 spelling (it would round to 50 307 076)."""
    arr = np.array([[4095, 4095, -4095, 4095]])
    monkeypatch.setattr(agrip.matrix, "_DENSE_WORK_RATIO", 10 ** 30)
    scan = _gram_scan(dense_to_matrix(arr), DEFAULT_PAIR_CAP)
    assert scan.absolute[:, 0].tolist() == [50_307_075] * 4
    for got, want in zip(scan, _gram_scan_by_definition(arr)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("ratio", [0, 10 ** 30], ids=["sparse-tiles",
                                                      "dense-tiles"])
def test_signed_sums_stay_exact_above_float64_integers(ratio, monkeypatch):
    """B = 2 a^2 < 2^53 for a = 2^26 - 1.  Each norm group has three columns,
    so row 0 of A E is 3a and each of its products with a is 3 a^2, and a
    column's sum over the other group adds three G_ij = a^2 +- 8: all odd
    and near 3 * 2^52, with no float64 spelling."""
    a = (1 << 26) - 1
    arr = np.array([[a] * 6, [2, -2, 2, 4, -4, 4]])
    M = dense_to_matrix(arr)
    cols = [[int(x) for x in arr[:, j]] for j in range(6)]
    G = [[sum(x * y for x, y in zip(u, v)) for v in cols] for u in cols]
    groups = [range(3), range(3, 6)]  # squared norms a^2 + 4 < a^2 + 16
    want = [[sum(G[i][j] for j in group if j != i) for group in groups]
            for i in range(6)]
    assert all(row[1 - i // 3] % 2 and row[1 - i // 3] > 1 << 53
               for i, row in enumerate(want))
    monkeypatch.setattr(agrip.matrix, "_DENSE_WORK_RATIO", ratio)
    scan = _gram_scan(M, DEFAULT_PAIR_CAP)
    assert scan.signed.tolist() == want
    assert scan.absolute.tolist() == [
        [sum(abs(G[i][j]) for j in group if j != i) for group in groups]
        for i in range(6)]
    assert _function_space_scan(M).signed[:, 0].tolist() == [sum(row)
                                                             for row in want]


@pytest.mark.parametrize("budget", [13, 5], ids=["two-groups", "one-group"])
@pytest.mark.parametrize("ratio", [0, 10 ** 30], ids=["sparse-tiles",
                                                      "dense-tiles"])
def test_signed_sums_of_many_norm_groups_keep_to_the_block_budget(
        ratio, budget, monkeypatch):
    """With _GRAM_BLOCK_ENTRIES cut to 13 (5) entries, the n = 6 rows of
    A E are taken for two groups at a time (one, as 5 < n); every chunk
    must still give the dense Gram matrix's sums."""
    rng = np.random.default_rng(7)
    arr = rng.integers(-4, 5, (6, 40))
    arr[0, ~arr.any(axis=0)] = 1  # no zero column
    g = np.unique((arr * arr).sum(axis=0)).size
    assert g >= 20
    chunks = []
    real = agrip.matrix._transpose_products
    monkeypatch.setattr(agrip.matrix, "_transpose_products",
                        lambda M, X: chunks.append(len(X)) or real(M, X))
    monkeypatch.setattr(agrip.matrix, "_DENSE_WORK_RATIO", ratio)
    monkeypatch.setattr(agrip.matrix, "_GRAM_BLOCK_ENTRIES", budget)
    scan = _gram_scan(dense_to_matrix(arr), DEFAULT_PAIR_CAP)
    step = max(1, budget // 6)
    assert chunks == [step] * (g // step) + [g % step] * (g % step > 0)
    for got, want in zip(scan, _gram_scan_by_definition(arr)):
        assert np.array_equal(got, want)


def test_default_gram_block_stays_under_the_byte_budget():
    budget = 64 * 2 ** 20
    for n in (1, 13, 1100, 16_384, 16_385, 50_653, 10 ** 7, 10 ** 9):
        edge = _gram_tile(n)
        assert 1 <= edge <= 512
        assert edge == 1 or edge * n * 8 <= budget
    assert _gram_tile(1100) == 512     # every benchmark matrix (n <= 1100)
    assert _gram_tile(50_653) == 165   # ruled F_37 (1, 0)


@pytest.mark.parametrize("top,fits", [(1 << 26, False), ((1 << 26) - 1, True),
                                      (1 << 32, False), (-(1 << 63), False)])
def test_gram_scans_reject_entries_that_overflow(top, fits):
    """n max|a|^2 must stay under 2^53; here n = 2."""
    M = MeasurementMatrix(2, 2, [([0], [top]), ([0, 1], [1, 1])])
    if fits:
        for got, want in zip(_gram_scan(M, DEFAULT_PAIR_CAP),
                             _gram_scan_by_definition(M.to_dense())):
            assert np.array_equal(got, want)
        return
    for scan in (lambda: _gram_scan(M, DEFAULT_PAIR_CAP),
                 lambda: _function_space_scan(M)):
        with pytest.raises(PreconditionError,
                           match="overflows the exact int64 Gram scan"):
            scan()


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
