import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from agrip import recovery
from agrip.errors import PreconditionError
from agrip.fields import make_field
from agrip.constructions import (
    construction_a_simple_poles,
    devore,
    ruled_surface_design,
)
from agrip.signs import balanced_matrix, randomize_signs
from agrip.recovery import (
    ExperimentReport,
    SparseSignal,
    measure,
    normalized_operator,
    omp,
    one_step_thresholding,
    run_experiment,
)
from tests.test_matrix import dense_to_matrix, from_columns, identity_matrix


def test_sparse_signal_validation():
    SparseSignal(5, (1, 3), (1.0, -2.0))
    with pytest.raises(PreconditionError):
        SparseSignal(5, (3, 1), (1.0, 1.0))
    with pytest.raises(PreconditionError):
        SparseSignal(5, (1,), (0.0,))
    with pytest.raises(PreconditionError):
        SparseSignal(2, (4,), (1.0,))


def test_measure_zero_signal():
    M = devore(make_field(3), 2)
    x = SparseSignal(M.N, (), ())
    assert np.allclose(measure(M, x), 0)


def test_measure_unit_vector_extracts_normalized_column():
    M = devore(make_field(3), 2)
    x = SparseSignal(M.N, (4,), (1.0,))
    y = measure(M, x)
    phi = normalized_operator(M)
    col = np.asarray(phi[:, [4]].todense()).ravel()
    assert np.allclose(y, col)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12


def test_measure_noise_deterministic():
    M = devore(make_field(3), 2)
    x = SparseSignal(M.N, (2,), (1.5,))
    y1 = measure(M, x, sigma=0.1, seed=9)
    y2 = measure(M, x, sigma=0.1, seed=9)
    y3 = measure(M, x, sigma=0.1, seed=10)
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)


def test_omp_single_atom():
    M = devore(make_field(3), 2)
    for j in (0, 5, 8):
        y = measure(M, SparseSignal(M.N, (j,), (1.0,)))
        result = omp(M, y, 1)
        assert result.estimate.support == (j,)
        assert abs(result.estimate.values[0] - 1.0) < 1e-10
        assert not result.singular_subproblem


def test_omp_exact_recovery_in_guarantee_regime():
    M = devore(make_field(7), 2)  # mu = 1/7, guarantee up to k = 3
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        for _ in range(25):
            support = tuple(sorted(rng.choice(M.N, size=k, replace=False).tolist()))
            values = tuple(float(v) for v in
                           (rng.integers(0, 2, k) * 2 - 1) * rng.uniform(1, 2, k))
            x = SparseSignal(M.N, support, values)
            result = omp(M, measure(M, x), k)
            assert result.estimate.support == support


def test_omp_singular_subproblem_flagged():
    arr = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])  # duplicated column
    M = dense_to_matrix(arr)
    y = np.array([1.0, 1.0, 0.0])
    result = omp(M, y, 2)
    assert result.singular_subproblem
    assert len(result.estimate.support) <= 1


@pytest.mark.parametrize("k", [0, -1, 3])
def test_omp_rejects_sparsity_outside_one_to_min_n_n(k):
    # 4 x 2: the sparsity must lie in 1..min(n, N) = 1..2, as for OST
    M = dense_to_matrix(np.array([[1, 0], [0, 1], [1, 1], [0, 1]]))
    with pytest.raises(PreconditionError, match="sparsity"):
        omp(M, np.ones(4), k)


@pytest.mark.parametrize("top,fits", [((1 << 31) - 1, True), (1 << 31, False),
                                      (1 << 32, False), (-(1 << 63), False)])
def test_squared_norms_that_overflow_int64_are_refused(top, fits):
    """max|a|^2 times the longest column (2 here) must stay under 2^63."""
    M = from_columns(3, [([0, 1], [top, top]), ([1], [1]), ([2], [1])])
    if fits:
        assert M.sqnorms().tolist() == [2 * top * top, 1, 1]
        return
    with pytest.raises(PreconditionError,
                       match="overflows the int64 squared norms"):
        run_experiment(M, [1], 5)


def test_one_step_thresholding_identity():
    M = identity_matrix(4)
    y = measure(M, SparseSignal(4, (2,), (1.0,)))
    result = one_step_thresholding(M, y, 1)
    assert result.estimate.support == (2,)


def test_one_step_thresholding_degenerate_k_equals_n():
    arr = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    M = dense_to_matrix(arr)
    y = np.array([1.0, 0.5, 0.25])
    result = one_step_thresholding(M, y, 3)
    assert result.singular_subproblem  # duplicated columns: rank-deficient refit


def test_run_experiment_empty_and_deterministic():
    M = devore(make_field(3), 2)
    empty = run_experiment(M, [1, 2], trials=0, seed=4)
    assert empty.support_recovery_rate == {1: None, 2: None}
    r1 = run_experiment(M, [1, 2], trials=10, seed=4)
    r2 = run_experiment(M, [1, 2], trials=10, seed=4)
    assert r1.to_dict() == r2.to_dict()
    r3 = run_experiment(M, [1, 2], trials=10, seed=5)
    assert r1.to_dict() != r3.to_dict()


def test_run_experiment_noiseless_sweep_k1_always_recovers():
    M = devore(make_field(5), 2)
    report = run_experiment(M, [1], trials=50, seed=1)
    assert report.support_recovery_rate[1] == 1.0
    assert report.mean_relative_error[1] < 1e-10


def test_recovery_rate_declines_beyond_guarantee():
    M = devore(make_field(3), 2)  # mu = 1/3: guarantee only k <= 2
    report = run_experiment(M, [1, 2, 3, 4, 5, 6], trials=30, seed=2)
    rates = report.support_recovery_rate
    assert rates[1] == 1.0
    assert min(rates.values()) < 1.0  # failure appears somewhere in the sweep


def test_recovery_trend_degrades_over_the_sweep():
    # monotone-degrading on average over the sweep: the first-half mean rate
    # is at least the second-half mean (a trend, not a per-pair assertion)
    M = devore(make_field(5), 2)
    report = run_experiment(M, [1, 2, 3, 4, 5, 6], trials=40, seed=8)
    rates = [report.support_recovery_rate[k] for k in (1, 2, 3, 4, 5, 6)]
    assert np.mean(rates[:3]) >= np.mean(rates[3:])


def test_one_step_thresholding_on_balanced_matrix():
    design = ruled_surface_design(make_field(7), 1, 0)
    Mb = balanced_matrix(design)
    report = run_experiment(Mb, [1], trials=30, sigma=0.01, seed=3,
                            algorithm="ost")
    assert report.support_recovery_rate[1] >= 0.9


# -- the per-trial reference -----------------------------------------------
#
# The trial-by-trial loop `run_experiment` used to be: phi from scipy's
# product with a diagonal, columns by fancy indexing, one mat-vec per trial
# and step, and the refit solved in Fractions.  The batched code must give
# the same report bit for bit.  `stats` counts the singular refits and the
# selections decided among equal correlations, so a test can show that it
# reached those paths.


def _reference_phi(M):
    A = sp.csc_matrix((M.data, M.indices, M.indptr),
                      shape=(M.n, M.N)).astype(np.float64)
    return A @ sp.diags(1.0 / np.sqrt(M.sqnorms().astype(np.float64)))


def _reference_column(phi, i):
    return np.asarray(phi[:, [i]].todense()).ravel()


def _fraction_solve(G, b):
    """Gauss-Jordan over Fractions; None when a pivot column is all zero."""
    k = len(b)
    aug = [row[:] + [b[i]] for i, row in enumerate(G)]
    for c in range(k):
        piv = next((r for r in range(c, k) if aug[r][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(k):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [aug[r][k] for r in range(k)]


def _reference_refit(cols, y):
    k = cols.shape[1]
    gram = cols.T @ cols
    rhs = cols.T @ y
    if k <= 4:
        sol = _fraction_solve(
            [[Fraction(float(gram[i, j])) for j in range(k)] for i in range(k)],
            [Fraction(float(v)) for v in rhs])
        if sol is not None:
            return np.array([float(v) for v in sol]), False
    beta, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
    return beta, rank < k


def _reference_signal(support, beta, N):
    pairs = sorted((int(i), float(v)) for i, v in zip(support, beta) if v != 0.0)
    return SparseSignal(N, tuple(i for i, _ in pairs), tuple(v for _, v in pairs))


def _reference_omp(phi, y, k, stats):
    residual = y.astype(np.float64).copy()
    selected, beta, singular = [], np.zeros(0), False
    for _ in range(k):
        corr = np.abs(phi.T @ residual)
        if selected:
            corr[selected] = -1.0
        idx = int(np.argmax(corr))
        stats["ties"] += int(np.count_nonzero(corr == corr[idx]) > 1)
        selected.append(idx)
        cols = np.column_stack([_reference_column(phi, i) for i in selected])
        beta, singular = _reference_refit(cols, y)
        if singular:
            stats["singular"] += 1
            selected.pop()
            beta = _reference_refit(cols[:, :-1], y)[0] if selected \
                else np.zeros(0)
            break
        residual = y - cols @ beta
    return _reference_signal(selected, beta, phi.shape[1])


def _reference_ost(phi, y, k, stats):
    corr = np.abs(phi.T @ y)
    order = np.lexsort((np.arange(phi.shape[1]), -corr))
    stats["ties"] += int(corr[order[k - 1]] == corr[order[k]])
    support = sorted(int(i) for i in order[:k])
    cols = np.column_stack([_reference_column(phi, i) for i in support])
    beta, singular = _reference_refit(cols, y)
    stats["singular"] += singular
    return _reference_signal(support, beta, phi.shape[1])


def _reference_experiment(M, k_values, trials, sigma, seed, algorithm, stats):
    phi = _reference_phi(M)
    solver = _reference_omp if algorithm == "omp" else _reference_ost
    rates, errors = {}, {}
    for k in k_values:
        hits, rel_errs = 0, []
        for t in range(trials):
            rng = np.random.default_rng([seed, k, t])
            x = recovery._draw_signal(rng, M.N, k)
            y = np.zeros(M.n)
            for idx, val in zip(x.support, x.values):
                col = phi[:, [idx]]
                y[col.indices] += val * col.data
            if sigma:
                y = y + sigma * rng.standard_normal(M.n)
            est = solver(phi, y, k, stats)
            exact = est.support == x.support
            if exact and sigma == 0.0:
                exact = all(abs(a - b) <= 1e-10
                            for a, b in zip(est.values, x.values))
            hits += exact
            xd = x.to_dense()
            rel_errs.append(float(np.linalg.norm(est.to_dense() - xd)
                                  / np.linalg.norm(xd)))
        rates[k] = hits / trials
        errors[k] = float(np.mean(rel_errs))
    return ExperimentReport(
        family=M.meta.get("family", "unknown"), params=M.meta.get("params", {}),
        n=M.n, N=M.N, algorithm=algorithm, k_values=tuple(k_values),
        trials=trials, sigma=sigma, seed=seed,
        support_recovery_rate=rates, mean_relative_error=errors).to_dict()


def _duplicated_columns():
    """Six random signed columns, each stored twice: equal correlations and
    rank-deficient refits."""
    rng = np.random.default_rng(11)
    base = rng.integers(-1, 2, size=(8, 6))
    base[0] = np.where(base[0] == 0, 1, base[0])  # no empty column
    return dense_to_matrix(np.repeat(base, 2, axis=1))


_REFERENCE_CASES = {
    "construction-a-mixed-norms": (
        lambda: construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4]),
        (1, 2, 3, 4)),
    "devore-F3-signed": (
        lambda: randomize_signs(devore(make_field(3), 2), 5), (1, 2, 3, 4)),
    "duplicated-columns": (_duplicated_columns, (1, 2, 3, 4)),
}


@pytest.mark.parametrize("algorithm", ["omp", "ost"])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_batched_trials_match_the_per_trial_reference(case, sigma, algorithm):
    build, k_values = _REFERENCE_CASES[case]
    M = build()
    stats = {"ties": 0, "singular": 0}
    expected = _reference_experiment(M, k_values, 40, sigma, 6, algorithm,
                                      stats)
    got = run_experiment(M, k_values, 40, sigma=sigma, seed=6,
                         algorithm=algorithm).to_dict()
    assert got == expected
    assert [v.hex() for v in got["mean_relative_error"].values()] == \
        [v.hex() for v in expected["mean_relative_error"].values()]
    if case == "duplicated-columns":
        # twins tie everywhere; noisy OMP never picks the twin of a pick
        assert stats["ties"] > 0
        assert stats["singular"] > 0 or (algorithm, sigma) == ("omp", 0.05)


def test_trial_blocks_do_not_change_the_report(monkeypatch):
    M = construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4])
    for algorithm, sigma in (("omp", 0.0), ("ost", 0.05)):
        whole = run_experiment(M, [1, 3], 20, sigma=sigma, seed=2,
                               algorithm=algorithm).to_dict()
        # three trials per correlation block
        monkeypatch.setattr(recovery, "_CORRELATION_BUDGET", 3 * M.N + 2)
        blocked = run_experiment(M, [1, 3], 20, sigma=sigma, seed=2,
                                 algorithm=algorithm).to_dict()
        monkeypatch.undo()
        assert blocked == whole


def test_normalized_operator_stores_columns_in_reversed_row_order():
    for M in (construction_a_simple_poles(make_field(5), [0, 1], [2, 3, 4]),
              balanced_matrix(ruled_surface_design(make_field(5), 1, 1)),
              _duplicated_columns()):
        phi = normalized_operator(M)
        inverse = 1.0 / np.sqrt(M.sqnorms().astype(np.float64))
        assert np.array_equal(phi.indptr, M.indptr)
        for j in range(M.N):
            rows, vals = M.column(j)
            lo, hi = phi.indptr[j], phi.indptr[j + 1]
            assert np.array_equal(phi.indices[lo:hi], rows[::-1])
            assert phi.data[lo:hi].tobytes() == \
                (vals[::-1] * inverse[j]).tobytes()
        # the historical witness: scipy's product with a diagonal stores the
        # same arrays
        product = _reference_phi(M)
        assert np.array_equal(product.indptr, phi.indptr)
        assert np.array_equal(product.indices, phi.indices)
        assert product.data.tobytes() == phi.data.tobytes()


_small_float = st.integers(-2, 2).map(float)
_spread_float = st.builds(math.ldexp, st.floats(-1, 1), st.integers(-300, 300))
_any_float = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_entry = st.one_of(_small_float, _spread_float, _any_float)


@st.composite
def _systems(draw):
    """A 1..4 system; about half get one row a power-of-two multiple of
    another, which makes them singular whenever the scaling is exact."""
    k = draw(st.integers(1, 4))
    G = [[draw(_entry) for _ in range(k)] for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(k)))[:2]
        G[i] = [math.ldexp(v, draw(st.integers(-3, 3))) for v in G[j]]
    return G, [draw(_entry) for _ in range(k)]


def _outcome(solve):
    try:
        sol = solve()
    except OverflowError:
        return "overflow"
    return None if sol is None else [v.hex() for v in sol]


@settings(max_examples=400, deadline=None)
@given(_systems())
@example(([[0.0]], [1.0]))
@example(([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]))
@example(([[0.0, 1.0], [1.0, 0.0]], [0.0, -3.0]))
@example(([[-2.0, 0.0], [0.0, 3.0]], [0.0, 1.0]))
@example(([[math.ldexp(1.0, -1074), 1e300], [1.0, 2.0]], [1e-300, 3.0]))
@example(([[1e308, 1e308], [-1e308, 1e308]], [1e308, -1e-308]))
def test_integer_solver_matches_the_fraction_solve(system):
    G, b = system

    def reference():
        sol = _fraction_solve([[Fraction(v) for v in row] for row in G],
                              [Fraction(v) for v in b])
        return None if sol is None else [float(v) for v in sol]

    assert _outcome(lambda: recovery._solve_exact(
        [v for row in G for v in row], b)) == _outcome(reference)

