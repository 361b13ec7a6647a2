"""The function-space scan against the pairwise Gram scan, its oracle.

_function_space_scan must return the very tuple _gram_scan returns for the
unsigned evaluation matrix of every F_q-linear design and for its balanced
signing, p = 2 included; its mu must equal the difference trick.
coherence_report(M, design=d) must take it for those two matrices only.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from agrip.constructions import (
    EvaluationDesign,
    build_design,
    evaluation_matrix,
)
from agrip.errors import PreconditionError, RankDeficient
from agrip.fields import make_field
import agrip.matrix
from agrip.matrix import (
    DEFAULT_PAIR_CAP,
    MeasurementMatrix,
    _average_coherence_from,
    _coherence_from,
    _function_space_scan,
    _gram_scan,
    coherence_report,
)
from agrip.signs import balanced_matrix, randomize_signs
from agrip.verification import coherence_via_differences

# (family, (p, s), params): the designs the other test modules build whose
# q^T columns fit under the pair cap, less projspace F_5 n=2 r=2 and toric
# F_5 case 1 d=2 (N = 15625), whose two pairwise scans take about 10 s each
DESIGNS = [
    ("devore", (3, 1), {"r": 2}), ("devore", (3, 1), {"r": 3}),
    ("devore", (5, 1), {"r": 2}), ("devore", (5, 1), {"r": 3}),
    ("devore", (7, 1), {"r": 2}), ("devore", (7, 1), {"r": 3}),
    ("devore", (11, 1), {"r": 2}), ("devore", (11, 1), {"r": 3}),
    ("devore", (2, 2), {"r": 2}),
    ("projspace", (3, 1), {"n": 2, "r": 1}),
    ("projspace", (3, 1), {"n": 1, "r": 1}),
    ("ruled", (2, 2), {"d1": 1, "d2": 1}),
    ("ruled", (3, 1), {"d1": 0, "d2": 0}),
    ("ruled", (37, 1), {"d1": 1, "d2": 0}),
    ("toric", (5, 1), {"case": 1, "d": 1}),
    ("toric", (5, 1), {"case": 2, "d": 1, "e": 1, "r": 1}),
    ("toric", (7, 1), {"case": 3, "d": 1}),
    ("toric", (2, 2), {"case": 3, "d": 1}),
]


def _matrices(design):
    """The unsigned matrix and the balanced one."""
    yield "unsigned", evaluation_matrix(design)
    yield "balanced", balanced_matrix(design)


def _assert_scans_agree(M):
    fast = _function_space_scan(M)
    ref = _gram_scan(M, DEFAULT_PAIR_CAP)
    for name, got, want in zip(ref._fields, fast, ref):
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert _coherence_from(fast) == _coherence_from(ref)
    for mode in ("signed", "absolute"):
        assert (_average_coherence_from(fast, mode)
                == _average_coherence_from(ref, mode))
    return fast


@pytest.mark.parametrize(
    "family, field, params", DESIGNS,
    ids=[f"{f}-F{p}^{s}-" + "-".join(map(str, params.values()))
         for f, (p, s), params in DESIGNS])
def test_function_space_scan_equals_the_gram_scan(family, field, params):
    design = build_design(family, make_field(*field), params)
    assert design.num_columns <= DEFAULT_PAIR_CAP
    mu = coherence_via_differences(design)
    for kind, M in _matrices(design):
        fast = _assert_scans_agree(M)
        assert _coherence_from(fast) == mu, kind


@pytest.mark.parametrize("field", [(2, 2), (2, 3), (3, 2)],
                         ids=["F4", "F8", "F9"])
def test_function_space_scan_equals_the_gram_scan_with_a_reversed_basis(field):
    """Basis x^2, x, 1: at x = 0 the first nonvanishing basis function is 1,
    elsewhere x^2, so the p = 2 balanced signs' pivot varies by point."""
    base = build_design("devore", make_field(*field), {"r": 3})
    design = EvaluationDesign(base.field, base.points, base.basis_names[::-1],
                              base.table[::-1], base.bound_on_zeros,
                              base.family, base.params)
    for _, M in _matrices(design):
        _assert_scans_agree(M)


_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


@st.composite
def small_designs(draw):
    """A family design over a small field of odd or even p, restricted to a
    random subset of its points that keeps the basis independent."""
    p, s = draw(st.sampled_from(_FIELDS))
    field = make_field(p, s)
    q = field.q
    family = draw(st.sampled_from(["devore", "projspace", "ruled", "toric"]))
    if family == "devore":
        params = {"r": draw(st.integers(2, min(q, 3)))}
    elif family == "projspace":
        params = {"n": draw(st.integers(1, 2)), "r": 1}
    elif family == "ruled":
        # at most q^4 <= 625 columns
        d1 = draw(st.integers(0, 1))
        params = {"d1": d1, "d2": draw(st.integers(0, 1 - d1 * (q > 5)))}
    else:
        params = {"case": draw(st.sampled_from([1, 3])), "d": 1}
    try:
        base = build_design(family, field, params)
    except PreconditionError:  # e.g. toric needs d < q - 1
        assume(False)
    keep = sorted(draw(st.sets(st.integers(0, base.size - 1),
                               min_size=min(base.size, base.T + 1))))
    try:
        design = EvaluationDesign(
            field, [base.points[b] for b in keep], base.basis_names,
            base.table[:, keep], min(base.bound_on_zeros, len(keep) - 1),
            family, params)
    except RankDeficient:
        design = base
    return design


@settings(max_examples=40, deadline=None)
@given(small_designs())
def test_function_space_scan_matches_the_oracle_on_random_designs(design):
    mu = coherence_via_differences(design)
    for _, M in _matrices(design):
        assert _coherence_from(_assert_scans_agree(M)) == mu


def _with_arrays(M, data, meta):
    return MeasurementMatrix(M.n, M.N, M.indptr, M.indices, data, meta=meta)


@settings(max_examples=40, deadline=None)
@given(small_designs(), st.sampled_from(["unsigned", "balanced", "flipped",
                                         "relabelled", "other", "random"]),
       st.data())
def test_coherence_report_takes_the_function_space_scan_for_its_design_only(
        design, case, data):
    unsigned, balanced = evaluation_matrix(design), balanced_matrix(design)
    if case == "unsigned":
        M = unsigned
    elif case == "balanced":
        M = balanced
    elif case == "flipped":  # one sign of the balanced matrix flipped
        signs = balanced.data.copy()
        signs[data.draw(st.integers(0, signs.size - 1))] *= -1
        M = _with_arrays(balanced, signs, balanced.meta)
    elif case == "relabelled":  # the unsigned arrays labelled balanced
        M = _with_arrays(unsigned, unsigned.data, balanced.meta)
    elif case == "other":  # the same functions on the points reversed
        M = evaluation_matrix(EvaluationDesign(
            design.field, design.points[::-1], design.basis_names,
            design.table[:, ::-1], design.bound_on_zeros, design.family,
            design.params))
    else:
        M = randomize_signs(unsigned, data.draw(st.integers(0, 2 ** 32)))
    own = {"all_ones": unsigned,
           "balanced": balanced}.get(M.meta["sign_scheme"]["kind"])
    with mock.patch.object(agrip.matrix, "_function_space_scan",
                           wraps=_function_space_scan) as spy:
        report = coherence_report(M, design=design).to_dict()
    assert spy.called == (own is not None and M == own)
    assert report == coherence_report(M).to_dict()
