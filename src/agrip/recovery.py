"""Sparse-recovery experiments on the constructed matrices.

Recovery operates on the column-normalized view of a matrix (coherence is
defined on normalized columns); the integer matrix is left untouched.  Two
solvers: orthogonal matching pursuit for the noiseless mu(2k-1) < 1 regime,
and one-step thresholding (keep the k largest correlations, then refit) for
noisy measurements.

Determinism: every trial draws from its own numpy substream keyed by
(seed, k, trial), the signal first and then the noise, so reports are
reproducible and independent of execution order.  The amplitude model is
uniform +-1 signs with magnitudes uniform in [1, 2], recorded in the report.

Batching: `run_experiment` runs the trials of one k together, in blocks of
at most `_CORRELATION_BUDGET // N` trials (one at least), so an N x trials
block of correlations stays near 2 MB.  A block's measurements are built at
once, and every solver step correlates all the block's unfinished trials
with one sparse x dense product; the refit stays per trial.  `measure`,
`omp` and `one_step_thresholding` run the same kernels on one trial.  Each
correlation is summed in the same order as a single mat-vec, so a report is
bit for bit the one a trial-by-trial loop gives.

Refit: systems of up to `_EXACT_REFIT_MAX` columns solve the normal
equations exactly over the rationals (in integers, see `_solve_exact`) and
round each coefficient once; larger or singular ones use numpy lstsq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import PreconditionError
from .matrix import MeasurementMatrix

if TYPE_CHECKING:
    import scipy.sparse as sp

AMPLITUDE_MODEL = "signs +-1 uniform, magnitudes uniform in [1, 2]"
_EXACT_REFIT_MAX = 4
_AMPLITUDE_TOL = 1e-10
# float64 entries in one N x trials correlation block (2 MB)
_CORRELATION_BUDGET = 2 ** 18


@dataclass
class SparseSignal:
    """A k-sparse vector: sorted support indices and their nonzero values."""

    length: int
    support: tuple
    values: tuple

    def __post_init__(self):
        if len(self.support) != len(self.values):
            raise PreconditionError("support and values disagree in length")
        if any(v == 0 for v in self.values):
            raise PreconditionError("values on the support must be nonzero")
        if list(self.support) != sorted(set(self.support)):
            raise PreconditionError("support must be sorted and duplicate-free")
        if self.support and not (0 <= self.support[0] <= self.support[-1] < self.length):
            raise PreconditionError("support indices out of range")

    @property
    def k(self) -> int:
        return len(self.support)

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.length)
        x[list(self.support)] = self.values
        return x


@dataclass
class RecoveryResult:
    estimate: SparseSignal
    singular_subproblem: bool = False


def normalized_operator(M: MeasurementMatrix) -> sp.csc_matrix:
    """Unit-column float view of the matrix.

    Column j holds M's entries of column j in reversed row order, with values
    `data * (1 / norm_j)`.  The order is the summation order of every
    correlation `phi.T @ r`, so it fixes the last bits of `recovery.json`;
    it is the order that `A @ sp.diags(1 / norms)` gave when phi was built
    that way, and it is kept so that reports stay byte-identical.  scipy is
    imported here, so only recovery loads it.
    """
    import scipy.sparse as sp

    col = np.repeat(np.arange(M.N), np.diff(M.indptr))
    # entry p of column j comes from entry start_j + end_j - 1 - p of M
    source = (M.indptr[:-1] + M.indptr[1:] - 1)[col] - np.arange(len(col))
    inverse = 1.0 / np.sqrt(M.sqnorms().astype(np.float64))
    return sp.csc_matrix(
        (M.data[source] * inverse[col], M.indices[source], M.indptr),
        shape=(M.n, M.N))


def _dense_column(phi: sp.csc_matrix, i: int) -> np.ndarray:
    lo, hi = phi.indptr[i], phi.indptr[i + 1]
    col = np.zeros(phi.shape[0])
    col[phi.indices[lo:hi]] = phi.data[lo:hi]
    return col


def _measure(phi: sp.csc_matrix, signals, sigma: float, rngs) -> np.ndarray:
    """One row y = phi x + sigma * g per signal; g is drawn from its rng."""
    Y = np.zeros((len(signals), phi.shape[0]))
    for y, x in zip(Y, signals):
        for idx, val in zip(x.support, x.values):
            lo, hi = phi.indptr[idx], phi.indptr[idx + 1]
            y[phi.indices[lo:hi]] += val * phi.data[lo:hi]
    if sigma:
        Y = Y + sigma * np.array([rng.standard_normal(phi.shape[0])
                                  for rng in rngs])
    return Y


def measure(M: MeasurementMatrix, x: SparseSignal, sigma: float = 0.0,
            seed=None) -> np.ndarray:
    """y = Phi_normalized x + sigma * g with seeded Gaussian g."""
    if x.length != M.N:
        raise PreconditionError(f"signal length {x.length} != N = {M.N}")
    rng = None
    if sigma:
        rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)
    return _measure(normalized_operator(M), [x], sigma, [rng])[0]


def _refit(cols: np.ndarray, y: np.ndarray):
    """Least squares on the selected columns.

    Tiny systems go through exact rational normal equations (float inputs
    converted exactly), larger ones through numpy lstsq.  Returns
    (coefficients, singular_flag).
    """
    k = cols.shape[1]
    gram = cols.T @ cols
    rhs = cols.T @ y
    if k <= _EXACT_REFIT_MAX:
        sol = _solve_exact(gram.ravel().tolist(), rhs.tolist())
        if sol is not None:
            return np.array(sol), False
        # fall through to lstsq on genuinely rank-deficient systems
    try:
        beta, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        return beta, rank < k
    except np.linalg.LinAlgError:
        return np.zeros(k), True


def _solve_exact(gram: list, rhs: list):
    """The exact solution of gram x = rhs, each entry rounded once to float,
    or None when the system is singular.

    `gram` is the k x k matrix flattened row by row.  Every float is a dyadic
    rational, so scaling all entries by their largest denominator (a power of
    two) gives an integer system with the same solution.  Fraction-free
    (Bareiss) Gauss-Jordan elimination keeps every entry an integer, divides
    exactly and leaves the last pivot d = +-det on the diagonal with d x in
    the last column.  Int true division rounds d x / d correctly, exactly as
    `float(Fraction)` does.  The system is singular exactly when a pivot
    column has no nonzero entry.
    """
    k = len(rhs)
    ratios = [v.as_integer_ratio() for v in gram + rhs]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    aug = [ints[r * k:(r + 1) * k] + [ints[k * k + r]] for r in range(k)]
    prev = 1
    for c in range(k):
        piv = next((r for r in range(c, k) if aug[r][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        pivot = aug[c]
        p = pivot[c]
        for r in range(k):
            if r != c:
                f = aug[r][c]
                aug[r] = [(p * v - f * w) // prev
                          for v, w in zip(aug[r], pivot)]
        prev = p
    # a zero numerator is +0.0, as float(Fraction(0)) gives
    return [row[k] / prev if row[k] else 0.0 for row in aug]


def _signal_from(support, beta, N) -> SparseSignal:
    pairs = [(int(i), float(v)) for i, v in zip(support, beta) if v != 0.0]
    pairs.sort()
    return SparseSignal(N, tuple(i for i, _ in pairs),
                        tuple(v for _, v in pairs))


def _correlations(phi: sp.csc_matrix, R: np.ndarray) -> np.ndarray:
    """|phi.T r| for every row r of R, as the columns of an N x rows array.

    scipy's multi-vector product sums each column in the same order as a
    single mat-vec, so every column has the bits `np.abs(phi.T @ r)` has.
    """
    corr = phi.T @ R.T
    return np.abs(corr, out=corr)


def _omp(phi: sp.csc_matrix, Y: np.ndarray, k: int) -> list:
    """OMP on every row of Y; each step correlates all unfinished trials
    with one sparse x dense product.  A trial whose refit turns singular
    drops its last pick and stops."""
    N = phi.shape[1]
    columns = {}
    selected = [[] for _ in Y]
    betas = [np.zeros(0)] * len(Y)
    singular = [False] * len(Y)
    residual = Y.copy()
    active = list(range(len(Y)))
    for _ in range(k):
        if not active:
            break
        corr = _correlations(phi, residual[active])
        for j, t in enumerate(active):
            corr[selected[t], j] = -1.0
        picks = corr.argmax(axis=0)  # ties break to the lowest column index
        still = []
        for t, idx in zip(active, picks.tolist()):
            sel = selected[t]
            sel.append(idx)
            if idx not in columns:
                columns[idx] = _dense_column(phi, idx)
            cols = np.column_stack([columns[i] for i in sel])
            betas[t], singular[t] = _refit(cols, Y[t])
            if singular[t]:
                sel.pop()
                betas[t] = _refit(cols[:, :-1], Y[t])[0] if sel \
                    else np.zeros(0)
            else:
                residual[t] = Y[t] - cols @ betas[t]
                still.append(t)
        active = still
    return [RecoveryResult(_signal_from(sel, beta, N), sing)
            for sel, beta, sing in zip(selected, betas, singular)]


def _ost(phi: sp.csc_matrix, Y: np.ndarray, k: int) -> list:
    """One-step thresholding on every row of Y: keep the k largest
    correlations (ties to the lowest index), then refit."""
    corr = _correlations(phi, Y)
    # per column: every value above the k-th largest, then the lowest
    # indices among the values equal to it
    kth = np.partition(corr, corr.shape[0] - k, axis=0)[-k]
    above = corr > kth
    tied = corr == kth
    keep = above | (tied & (np.cumsum(tied, axis=0, dtype=np.int32)
                            <= k - above.sum(axis=0)))
    supports = np.nonzero(keep.T)[1].reshape(len(Y), k)
    results = []
    for y, support in zip(Y, supports.tolist()):
        cols = np.column_stack([_dense_column(phi, i) for i in support])
        beta, singular = _refit(cols, y)
        results.append(
            RecoveryResult(_signal_from(support, beta, phi.shape[1]), singular))
    return results


def _check_sparsity(M: MeasurementMatrix, k: int) -> None:
    k_max = min(M.n, M.N)
    if not 1 <= k <= k_max:
        raise PreconditionError(f"sparsity {k} is outside 1..{k_max}")


def omp(M: MeasurementMatrix, y: np.ndarray, k: int) -> RecoveryResult:
    """Orthogonal matching pursuit: k greedy max-correlation selections with
    a least-squares refit after each; ties break to the lowest column index."""
    _check_sparsity(M, k)
    return _omp(normalized_operator(M),
                np.asarray(y, dtype=np.float64)[None, :], k)[0]


def one_step_thresholding(M: MeasurementMatrix, y: np.ndarray,
                          k: int) -> RecoveryResult:
    """Keep the k largest |<phi_i, y>| and refit; degenerate refits flagged."""
    _check_sparsity(M, k)
    return _ost(normalized_operator(M),
                np.asarray(y, dtype=np.float64)[None, :], k)[0]


@dataclass
class ExperimentReport:
    """Seeded sweep statistics; reproducible from the seed."""

    family: str
    params: dict
    n: int
    N: int
    algorithm: str
    k_values: tuple
    trials: int
    sigma: float
    seed: int
    support_recovery_rate: dict
    mean_relative_error: dict
    amplitude_model: str = AMPLITUDE_MODEL

    def to_dict(self) -> dict:
        return {
            "family": self.family, "params": self.params,
            "n": self.n, "N": self.N,
            "algorithm": self.algorithm,
            "k_values": list(self.k_values),
            "trials": self.trials,
            "sigma": self.sigma,
            "seed": self.seed,
            "support_recovery_rate": {str(k): v for k, v in
                                      self.support_recovery_rate.items()},
            "mean_relative_error": {str(k): v for k, v in
                                    self.mean_relative_error.items()},
            "amplitude_model": self.amplitude_model,
        }


def _draw_signal(rng: np.random.Generator, N: int, k: int) -> SparseSignal:
    support = np.sort(rng.choice(N, size=k, replace=False))
    signs = rng.integers(0, 2, size=k) * 2 - 1
    mags = rng.uniform(1.0, 2.0, size=k)
    return SparseSignal(N, tuple(int(i) for i in support),
                        tuple(float(v) for v in signs * mags))


def check_experiment(trials: int, sigma: float = 0.0, seed: int = 0,
                     algorithm: str = "omp") -> None:
    """The checks of run_experiment's arguments that need no matrix."""
    if algorithm not in ("omp", "ost"):
        raise PreconditionError(f"unknown algorithm {algorithm!r}")
    if not isinstance(seed, int) or seed < 0:
        raise PreconditionError("seed must be a nonnegative integer")
    if not isinstance(trials, int) or trials < 0:
        raise PreconditionError("trials must be a nonnegative integer")
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma)
            and sigma >= 0):
        raise PreconditionError(
            f"sigma must be a finite nonnegative number, not {sigma!r}")


def check_sweep(M: MeasurementMatrix, k_values) -> tuple:
    """The sweep as a tuple of ints, each checked to lie in 1..min(n, N)."""
    k_values = tuple(int(k) for k in k_values)
    for k in k_values:
        _check_sparsity(M, k)
    return k_values


def run_experiment(M: MeasurementMatrix, k_values, trials: int,
                   sigma: float = 0.0, seed: int = 0,
                   algorithm: str = "omp") -> ExperimentReport:
    """Per-k support-recovery rate and mean relative l2 error."""
    check_experiment(trials, sigma, seed, algorithm)
    k_values = check_sweep(M, k_values)
    solver = _omp if algorithm == "omp" else _ost
    phi = normalized_operator(M)
    block = max(1, _CORRELATION_BUDGET // M.N)
    rates, errors = {}, {}
    for k in k_values:
        hits = 0
        rel_errs = []
        for first in range(0, trials, block):
            rngs = [np.random.default_rng([seed, k, t])
                    for t in range(first, min(trials, first + block))]
            signals = [_draw_signal(rng, M.N, k) for rng in rngs]
            Y = _measure(phi, signals, sigma, rngs)
            for x, result in zip(signals, solver(phi, Y, k)):
                est = result.estimate
                exact_support = est.support == x.support
                if exact_support and sigma == 0.0:
                    # amplitudes must match too in the noiseless regime
                    exact_support = all(
                        abs(a - b) <= _AMPLITUDE_TOL
                        for a, b in zip(est.values, x.values))
                hits += exact_support
                xd = x.to_dense()
                rel_errs.append(float(np.linalg.norm(est.to_dense() - xd)
                                      / np.linalg.norm(xd)))
        rates[k] = hits / trials if trials else None
        errors[k] = float(np.mean(rel_errs)) if rel_errs else None
    return ExperimentReport(
        family=M.meta.get("family", "unknown"),
        params=M.meta.get("params", {}),
        n=M.n, N=M.N, algorithm=algorithm,
        k_values=k_values, trials=trials, sigma=sigma, seed=seed,
        support_recovery_rate=rates, mean_relative_error=errors)
