from fractions import Fraction

import numpy as np
import pytest

import agrip.verification
from agrip.errors import (
    DuplicateColumns,
    EnumerationCapExceeded,
    GcdConditionViolated,
    OracleCapExceeded,
    PreconditionError,
)
from agrip.fields import make_field
from agrip.constructions import (
    EvaluationDesign,
    construction_a_simple_poles,
    devore,
    evaluation_matrix,
    plane_curve_census,
    projective_space_design,
    ruled_surface_design,
    toric_design,
)
from agrip.matrix import coherence
from agrip.signs import randomize_signs
from agrip.verification import (
    brute_force_coherence,
    brute_force_rip_delta,
    coherence_via_differences,
    fermat_section_counts,
)
from tests.test_matrix import dense_to_matrix, identity_matrix


def test_brute_force_identity_and_duplicates():
    assert brute_force_coherence(identity_matrix(4)) == 0
    arr = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    assert brute_force_coherence(dense_to_matrix(arr)) == 1


def test_brute_force_devore():
    M = devore(make_field(3), 2)
    assert brute_force_coherence(M) == Fraction(1, 3)
    assert brute_force_coherence(M) == coherence(M)


def test_brute_force_cap(monkeypatch):
    M = devore(make_field(3), 2)
    monkeypatch.setattr(agrip.verification, "BRUTE_FORCE_COLUMN_CAP", 4)
    with pytest.raises(OracleCapExceeded):
        brute_force_coherence(M)


DESIGN_BUILDERS = [
    lambda: projective_space_design(make_field(3), 2, 1),
    lambda: projective_space_design(make_field(3), 1, 1),
    lambda: ruled_surface_design(make_field(2, 2), 1, 1),
    lambda: toric_design(make_field(5), 1, 1),
    lambda: toric_design(make_field(2, 2), 3, 1),
]


@pytest.mark.parametrize("build", DESIGN_BUILDERS)
def test_difference_trick_equals_brute_force(build):
    design = build()
    M = evaluation_matrix(design)
    assert coherence_via_differences(design) == brute_force_coherence(M)


def test_rank_check_prevents_duplicate_columns():
    # proportional rows (x and 2x on F_3) are refused outright
    f3 = make_field(3)
    with pytest.raises(Exception):
        EvaluationDesign(f3, [(0,), (1,), (2,)], ["x", "2x"],
                         [[0, 1, 2], [0, 2, 1]], 1)


def test_difference_trick_reports_duplicate_columns():
    # a validated design can never reach this state (the rank check excludes
    # functions vanishing on all of B), so doctor one behind the validator
    f3 = make_field(3)
    good = projective_space_design(f3, 1, 1)
    bad = object.__new__(EvaluationDesign)
    for name in EvaluationDesign.__slots__:
        setattr(bad, name, getattr(good, name))
    bad.table = np.array([[1, 1, 1], [0, 0, 0]], dtype=np.int64)
    with pytest.raises(DuplicateColumns):
        coherence_via_differences(bad)


def test_rip_delta_identity_zero():
    assert brute_force_rip_delta(identity_matrix(4), 2) == 0.0


@pytest.mark.parametrize("build", [
    lambda: devore(make_field(3), 2),
    lambda: devore(make_field(5), 2),
    lambda: evaluation_matrix(projective_space_design(make_field(3), 2, 1)),
    lambda: randomize_signs(devore(make_field(3), 2), 11),
    lambda: construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4]),
])
def test_delta_2_equals_mu(build):
    M = build()
    mu = coherence(M)
    delta = brute_force_rip_delta(M, 2)
    assert abs(delta - float(mu)) < 1e-12


def test_delta_k_monotone_and_gershgorin():
    M = devore(make_field(3), 2)
    d2 = brute_force_rip_delta(M, 2)
    d3 = brute_force_rip_delta(M, 3)
    d4 = brute_force_rip_delta(M, 4)
    assert d2 <= d3 <= d4
    assert d3 <= 2 * float(coherence(M)) + 1e-12  # (k-1) mu


def test_rip_caps(monkeypatch):
    M = devore(make_field(5), 3)
    monkeypatch.setattr(agrip.verification, "RIP_SUBSET_CAP", 100)
    with pytest.raises(OracleCapExceeded):
        brute_force_rip_delta(M, 3)
    with pytest.raises(PreconditionError):
        brute_force_rip_delta(M, 5)


def test_count_smooth_curves_f3():
    census = plane_curve_census(make_field(3), 2)
    assert census.tuple_count >= 108
    assert census.tuple_count == 468


def test_fermat_sections_q2():
    report = fermat_section_counts(make_field(2, 2), 1)
    assert report.exhaustive
    assert report.sections_checked == 85
    assert report.min_count >= 3
    assert report.satisfied


@pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (2, 4)],
                         ids=["F4", "F9", "F16"])
def test_fermat_plane_sections_match_closed_forms(p, s):
    """Hyperplane sections of the Hermitian surface over F_{q^2} have
    q^3 + 1 points (non-tangent) or q^3 + q^2 + 1 (tangent)."""
    field = make_field(p, s)
    Q, q = field.q, p ** (s // 2)
    report = fermat_section_counts(field, 1)
    assert report.exhaustive
    assert (report.min_count, report.max_count, report.sections_checked) == (
        q ** 3 + 1, q ** 3 + q ** 2 + 1, Q ** 3 + Q ** 2 + Q + 1)


def test_fermat_sections_sampled_at_the_default_caps():
    report = fermat_section_counts(make_field(2, 2), 2)
    assert not report.exhaustive
    assert (report.min_count, report.max_count, report.sections_checked) == (
        3, 23, 2000)


def test_fermat_sections_refuse_a_large_field_before_enumerating(
        monkeypatch):
    def enumerate_points(field):
        raise AssertionError("P^3 enumerated before the cap was checked")
    monkeypatch.setattr(agrip.verification, "fermat_surface_points",
                        enumerate_points)
    with pytest.raises(EnumerationCapExceeded):
        fermat_section_counts(make_field(2, 8), 1)  # 16 843 009 points
    for p, s in [(2, 6), (3, 4)]:  # F_64 and F_81 stay under the cap
        with pytest.raises(AssertionError):
            fermat_section_counts(make_field(p, s), 1)


def test_fermat_sections_gcd_violation():
    with pytest.raises(GcdConditionViolated):
        fermat_section_counts(make_field(3, 2), 2)  # gcd(8, 2) = 2


def test_fermat_sections_sampled_beyond_cap(monkeypatch):
    monkeypatch.setattr(agrip.verification, "SECTION_CAP", 10)
    monkeypatch.setattr(agrip.verification, "SECTION_SAMPLES", 50)
    report = fermat_section_counts(make_field(3, 2), 3)
    assert not report.exhaustive
    assert report.sections_checked == 50
    assert report.min_count >= report.lower_bound
    assert (report.min_count, report.max_count) == (23, 46)
