"""Simulated Pauli tomography: counts, linear inversion, maximum likelihood.

Measurement settings are Pauli strings like ``"XYZ"``, one axis per qubit.
For every axis the eigenbasis is listed +1 eigenvector first, so outcome bit
0 always means the +1 eigenvalue; in the Z basis bit 0 is spin DOWN. Outcome
bitstrings follow the same detector-major order as the density-matrix basis.

A :class:`CountsTable` is a grid of counts, one row per setting and one
column per outcome index. Both estimators read it against the stacked
outcome eigenvectors v_k of all settings, whose Born probabilities are
p_k = v_k^dagger rho v_k: :func:`reconstruct_linear` undoes the Pauli frame
operator, and :func:`reconstruct_mle` maximises the likelihood by
accelerated projected gradient (Shang, Zhang & Ng, PRA 95, 062336 (2017)),
finishing a fit that crawls by Newton's method on a low-rank factor of the
state (Burer & Monteiro, Math. Program. 95, 329 (2003)).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .density import _MAX_QUBITS, DensityMatrix, _complex_array
from .errors import CountsParseError, IncompleteSettingsError, ValidationError

__all__ = [
    "PAULI_AXES",
    "CountRow",
    "CountsTable",
    "simulate_counts",
    "reconstruct_linear",
    "reconstruct_mle",
    "log_likelihood",
    "write_counts",
    "read_counts",
]

PAULI_AXES = "XYZ"

_MLE_TOL = 1e-11  # the MLE stops below this log-likelihood gain per iteration
_MLE_STEP = 1.0  # the MLE's first trial step along the likelihood gradient
_MLE_BACKTRACK = 0.5  # factor on the step while a candidate fails the increase test
_MLE_MIN_STEP = 1e-10  # the step is not cut further below this
_MLE_GROWTH = 1.1  # factor on the step after each accepted step
# Likelihood evaluations before the first Newton stage: staging from the
# first evaluation measured 11-19% slower on the tomography benchmark.
_MLE_RANK_CHECK = 10
_MLE_FLOOR = 16 * 2.0**-52  # a gain below this fraction of |L| is the likelihood's rounding
_NEWTON_MAX_PARAMS = 128  # the Newton stage runs on factors with at most this many real entries
_PROB_FLOOR = 1e-12  # the likelihood floors every outcome probability here

# Counts are held as float64, which holds every integer up to 2**53 exactly.
_MAX_SHOTS = 2**53

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Eigenbases of X, Y and Z in PAULI_AXES order, one eigenvector per row, +1
# eigenvector first. Z's +1 eigenvector is DOWN (bit 0).
_AXIS_STACK = np.array(
    [
        [[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]],
        [[_INV_SQRT2, 1j * _INV_SQRT2], [_INV_SQRT2, -1j * _INV_SQRT2]],
        [[1.0, 0.0], [0.0, 1.0]],
    ],
    dtype=complex,
)


def _all_pauli_settings(num_qubits: int) -> list[str]:
    """All 3^N Pauli strings in lexicographic order: informationally complete."""
    if num_qubits < 1:
        raise ValidationError("need at least one qubit")
    return ["".join(axes) for axes in itertools.product(PAULI_AXES, repeat=num_qubits)]


def _validate_setting(setting: str, num_qubits: int) -> None:
    if not setting or setting.strip(PAULI_AXES):  # leaves any character but XYZ
        raise ValidationError(
            f"setting {setting!r} must be a nonempty string over the axes XYZ"
        )
    if len(setting) != num_qubits:
        raise ValidationError(
            f"setting {setting!r} has {len(setting)} axes, expected {num_qubits}"
        )
    if num_qubits > _MAX_QUBITS:
        raise ValidationError(f"settings have {num_qubits} axes, at most {_MAX_QUBITS} are held")


def _checked_settings(settings: Sequence[str], num_qubits: int | None = None) -> tuple[str, ...]:
    """Distinct valid ``settings`` as a tuple of str, each ``num_qubits`` or the first one wide."""
    checked = () if isinstance(settings, str) else tuple(map(str, settings))
    if not checked:
        raise ValidationError(f"need a nonempty sequence of settings, got {settings!r}")
    width = len(checked[0]) if num_qubits is None else num_qubits
    for setting in checked:
        _validate_setting(setting, width)
    if len(set(checked)) < len(checked):
        raise ValidationError("settings must be distinct")
    return checked


def _setting_vectors(settings: Sequence[str]) -> np.ndarray:
    """Rows = outcome eigenvectors of each setting in turn, outcome-index order.

    Every block is the Kronecker product of the setting's axis eigenbases,
    taken one qubit at a time for all settings at once.
    """
    axes = np.array([[PAULI_AXES.index(axis) for axis in setting] for setting in settings])
    rows = np.ones((len(settings), 1, 1), dtype=complex)
    for q in range(axes.shape[1]):
        size = 2 * rows.shape[1]
        factor = _AXIS_STACK[axes[:, q]]
        rows = (rows[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(-1, size, size)
    return rows.reshape(-1, rows.shape[-1])


def _born_grid(rho: DensityMatrix, settings) -> tuple[tuple[str, ...], np.ndarray]:
    """The checked settings, all 3^N when None, and their outcome
    distributions, one row each, clipped at 0 and renormalized. A setting's
    outcomes form a basis, so its unclipped probabilities sum to rho's trace,
    which a DensityMatrix holds at 1 within TRACE_TOL; clipping the negative
    probabilities of a state whose eigenvalues dip below 0 within PSD_TOL
    can move the sum further, which the renormalization undoes."""
    if settings is None:
        settings = _all_pauli_settings(rho.num_qubits)
    settings = _checked_settings(settings, rho.num_qubits)
    dim = 2**rho.num_qubits
    grid = np.empty((len(settings), dim))
    # One einsum per setting: a single einsum over the stack differs from it
    # in the last bit for some states at N = 1.
    for block, row in zip(_setting_vectors(settings).reshape(-1, dim, dim), grid):
        probs = np.maximum(np.einsum("oi,ij,oj->o", block.conj(), rho.matrix, block).real, 0.0)
        row[:] = probs / probs.sum()
    return settings, grid


def _real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not one here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class CountRow(NamedTuple):
    setting: str
    outcome: str
    count: float


def _add_row(grid: dict[str, np.ndarray], setting, outcome, count) -> None:
    """The row rule, which adds the count of one row to its cell of ``grid``,
    one count array per setting, the first row fixing the width.

    A setting is checked (``width`` axes over XYZ) once, at the row that
    makes its array; every row's outcome must then be ``width`` bits, and its
    count (a number or its text, quoted as given in errors) finite and
    non-negative, checked in that order. A row that fails changes nothing."""
    setting, outcome = str(setting), str(outcome)
    counts = grid.get(setting)
    if counts is None:  # the setting's first row; the first setting of all fixes the width
        _validate_setting(setting, len(next(iter(grid), setting)))
        counts = np.zeros(2 ** len(setting))
    width = len(setting)
    if len(outcome) != width or outcome.strip("01"):  # leaves any character but 0/1
        raise ValidationError(f"outcome {outcome!r} must be a {width}-bit string of 0s and 1s")
    try:
        value = float(count)
    except (TypeError, ValueError):
        raise ValidationError(f"bad count {count!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"non-finite count {count!r}")
    if not value >= 0:
        raise ValidationError(f"negative count {count!r} for {setting} {outcome}")
    counts[int(outcome, 2)] += value
    grid[setting] = counts


@dataclass(frozen=True, eq=False)
class CountsTable:
    """Tomography counts as a read-only float64 grid: ``counts[i, o]`` counts
    outcome index ``o`` of ``settings[i]``, the settings distinct.

    Float counts are accepted so that infinite-statistics tables (exact
    probabilities times shots) flow through the same estimators. Counts must
    be finite and non-negative, and every setting's total must match a
    finite, positive ``shots_per_setting``."""

    settings: tuple[str, ...]
    counts: np.ndarray
    shots_per_setting: float
    seed: int | None = None

    def __post_init__(self):
        settings = _checked_settings(self.settings)
        shape = (len(settings), 2 ** len(settings[0]))
        try:
            counts = np.array(self.counts, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("counts must be an array of numbers") from None
        if counts.shape != shape:
            raise ValidationError(f"counts have shape {counts.shape}, expected {shape}")
        if not ((counts >= 0) & (counts < math.inf)).all():
            raise ValidationError("counts must be finite and non-negative")
        if not (self.seed is None or type(self.seed) is int):  # a bool is no seed
            raise ValidationError(f"seed must be None or an integer, got {self.seed!r}")
        shots = self.shots_per_setting
        if not _real(shots):
            raise ValidationError(f"shots_per_setting must be a real number, got {shots!r}")
        try:
            shots = float(shots)
        except OverflowError:  # an integer beyond float range
            shots = math.inf
        if not math.isfinite(shots):
            raise ValidationError(f"shots_per_setting must be finite, got {shots!r}")
        if not shots > 0:
            raise ValidationError("shots_per_setting must be positive")
        tol = 1e-6 * max(1.0, shots)
        for setting, total in zip(settings, counts.sum(axis=1).tolist()):
            if not abs(total - shots) <= tol:
                raise ValidationError(
                    f"setting {setting}: counts sum to {total!r}, expected "
                    f"{self.shots_per_setting}"
                )
        counts.flags.writeable = False
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots_per_setting", shots)

    @classmethod
    def from_rows(cls, rows, shots_per_setting: float, seed: int | None = None) -> "CountsTable":
        """The table of ``(setting, outcome, count)`` rows in any order under the
        row rule of ``_add_row``: a setting is checked at its first row, an
        outcome and a count at every row. Counts add up per cell in row order,
        a cell no row names is 0."""
        grid: dict[str, np.ndarray] = {}
        for row in rows:
            _add_row(grid, *row)
        return cls(tuple(grid), list(grid.values()), shots_per_setting, seed)

    @property
    def num_qubits(self) -> int:
        return len(self.settings[0])

    def _outcomes(self) -> list[str]:
        """The outcome bit strings, by outcome index."""
        return [format(o, f"0{self.num_qubits}b") for o in range(self.counts.shape[1])]

    @property
    def rows(self) -> tuple[CountRow, ...]:
        """Every outcome of every setting in grid order, zero counts included."""
        cells = itertools.product(self.settings, self._outcomes())
        return tuple(CountRow(*cell, c) for cell, c in zip(cells, self.counts.ravel().tolist()))


def simulate_counts(
    rho: DensityMatrix,
    settings: Sequence[str] | None = None,
    shots: int = 1000,
    seed: int = 0,
) -> CountsTable:
    """Draw multinomial counts for every setting from the Born distribution.

    Each setting uses its own RNG stream derived from (seed, setting index),
    so the same seed always reproduces the same table regardless of how the
    settings are processed.
    """
    if not (_real(shots) and 1 <= shots <= _MAX_SHOTS and int(shots) == shots):
        raise ValidationError(f"shots must be an integer in [1, 2**53], got {shots!r}")
    if not (_real(seed) and 0 <= seed < math.inf and int(seed) == seed):
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    settings, probs = _born_grid(rho, settings)
    rngs = (np.random.default_rng((int(seed), index)) for index in range(len(settings)))
    counts = [rng.multinomial(int(shots), row) for rng, row in zip(rngs, probs)]
    return CountsTable(settings, counts, int(shots), int(seed))


def _exact_counts(rho: DensityMatrix, settings=None, shots: float = 1.0) -> CountsTable:
    """Infinite-statistics table: exact Born probabilities times shots."""
    settings, probs = _born_grid(rho, settings)
    return CountsTable(settings, probs * shots, float(shots))


def _require_complete(table: CountsTable) -> None:
    """Informational completeness check: every Pauli string must be present.

    Counts instead of listing all 3^N strings, so a wide table fails fast.
    """
    unmeasured = 3**table.num_qubits - len(table.settings)
    if unmeasured:
        every = map("".join, itertools.product(PAULI_AXES, repeat=table.num_qubits))
        shown = ", ".join(itertools.islice((s for s in every if s not in table.settings), 6))
        more = "" if unmeasured <= 6 else f" and {unmeasured - 6} more"
        raise IncompleteSettingsError(
            f"settings are not informationally complete; missing {shown}{more}"
        )


def _inverse_frame(vectors: np.ndarray, frequencies: np.ndarray, num_qubits: int) -> np.ndarray:
    """Sum of f_k v_k v_k^dagger with the Pauli frame operator undone, Hermitised."""
    n = num_qubits
    # One axis per row and column qubit index.
    tensor = ((vectors * frequencies[:, None]).T @ vectors.conj()).reshape((2,) * (2 * n))
    for q in range(n):
        # Axes q and n + q index qubit q; block is a view into tensor.
        block = np.moveaxis(tensor, (q, n + q), (0, 1))
        partial = (block[0, 0] + block[1, 1]) / 3.0
        block[0, 0] -= partial
        block[1, 1] -= partial
    estimate = tensor.reshape(2**n, 2**n)
    return (estimate + estimate.conj().T) / 2.0


def reconstruct_linear(table: CountsTable) -> np.ndarray:
    """Linear-inversion estimate: the projector sum under the inverse frame.

    Forms Y = sum_k f_k v_k v_k^dagger over the outcome eigenvectors v_k of
    every setting, f_k being the outcome's frequency within its setting, and
    undoes the Pauli frame operator X -> X + tr(X) I one qubit at a time:
    Y -> Y - tr_q(Y) (x) I_q / 3. That is the least-squares solution of
    v_k^dagger rho v_k = f_k, which averages each Pauli expectation over the
    settings that measure it. Hermitian with unit trace, but finite
    statistics can push eigenvalues slightly negative, so the result is a raw
    matrix rather than a DensityMatrix.
    """
    _require_complete(table)
    totals = table.counts.sum(axis=1)
    for setting, total in zip(table.settings, totals):
        if not total > 0:
            raise ValidationError(f"setting {setting} has no counts")
    frequencies = (table.counts / totals[:, None]).ravel()
    return _inverse_frame(_setting_vectors(table.settings), frequencies, table.num_qubits)


def _project_density(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """The density matrix nearest a Hermitian matrix in Frobenius norm, and its rank.

    Keeps the eigenvectors and projects the eigenvalues onto the probability
    simplex: all are lowered by one shift and clipped at zero, the shift
    chosen so that the clipped values sum to 1 (Smolin, Gambetta & Smith,
    PRL 108, 070502 (2012)). The rank is the number of values above the shift.
    """
    values, basis = np.linalg.eigh(matrix)
    # The shift (S_k - 1) / k of the last rank k whose k-th largest value v_k
    # exceeds it, S_k the sum of the k largest added from the largest down.
    total = 0.0
    for rank, value in enumerate(reversed(values.tolist()), 1):
        total += value
        candidate = (total - 1.0) / rank
        if value > candidate:
            shift, kept = candidate, rank
    projected = (basis * np.maximum(values - shift, 0.0)) @ basis.conj().T
    return (projected + projected.conj().T) / 2.0, kept


def _likelihood(counted: np.ndarray, probs: np.ndarray) -> float:
    """sum_k n_k log p_k over the counted cells, given their counts and probabilities."""
    return float((counted * np.log(probs)).sum())


@contextlib.contextmanager
def _refusing_overflow(table: CountsTable):
    """Context for likelihood arithmetic on ``table``'s counts: an overflow
    inside it is refused with a ValidationError naming ``shots_per_setting``."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValidationError(
            f"shots_per_setting {table.shots_per_setting!r} overflows the likelihood arithmetic"
        ) from None


def log_likelihood(matrix: np.ndarray, table: CountsTable) -> float:
    """Multinomial log-likelihood of a candidate state given the counts.

    ``matrix`` must be a finite 2^N x 2^N array. Counts so large that the
    likelihood overflows are refused as :func:`reconstruct_mle` refuses them."""
    matrix, dim = _complex_array(matrix, "matrix"), table.counts.shape[1]
    if matrix.shape != (dim, dim) or not np.isfinite(matrix).all():
        raise ValidationError(f"matrix must be a finite {dim} x {dim} array")
    vectors, counts = _setting_vectors(table.settings), table.counts.ravel()
    probs = np.einsum("ki,ij,kj->k", vectors.conj(), matrix, vectors).real
    mask = counts > 0
    with _refusing_overflow(table):
        return _likelihood(counts[mask], np.maximum(probs, _PROB_FLOOR)[mask])


def reconstruct_mle(table: CountsTable, max_iters: int = 1000) -> DensityMatrix:
    """Maximum-likelihood reconstruction by accelerated projected gradient.

    Maximises the log-likelihood L(rho) = sum_k n_k log p_k over density
    matrices (Shang, Zhang & Ng, PRA 95, 062336 (2017)). Its gradient is
    n R, n being the table's total count and
    R = sum_k (f_k / p_k) v_k v_k^dagger with f_k = n_k / n; at the maximum
    the largest eigenvalue of R is 1.

    * Start: the inverse-frame sum of f_k 3^N (the pooled frequencies times
      the number of settings), projected onto the density matrices. That is
      :func:`reconstruct_linear`'s estimate only when every setting's total
      is exactly ``shots_per_setting``.
    * Step: from a point sigma to the projection of sigma + t R(sigma). The
      projection keeps the eigenvectors and clips the eigenvalues onto the
      probability simplex (Smolin, Gambetta & Smith, PRL 108, 070502
      (2012)). t starts at ``_MLE_STEP`` and is multiplied by
      ``_MLE_BACKTRACK`` until the candidate c passes the sufficient-increase
      test L(c) >= L(sigma) + n (<R, c - sigma> - |c - sigma|^2 / 2t), down
      to ``_MLE_MIN_STEP``. Each accepted step multiplies t by
      ``_MLE_GROWTH``, so a step cut short where the likelihood curves
      sharply can lengthen again.
    * Momentum: sigma is extrapolated from the last two accepted states with
      Nesterov's weights, theta' = (1 + sqrt(1 + 4 theta^2)) / 2. A candidate
      that would lower the likelihood is rejected and the momentum restarts
      from the last accepted state, so accepted states never lower it.
    * Newton stage: a fit on a near-pure state crawls, because the state's
      small eigenvalues make the likelihood stiff along a few directions.
      Over a factor A of rho = A A^dagger / |A|^2, which keeps the
      eigenvectors of eigenvalues above 1e-9 times the largest, scaled by
      their square roots (Burer & Monteiro, Math. Program. 95, 329 (2003)),
      that stiffness becomes curvature of order one, and Levenberg-Marquardt
      steps on the exact gradient and Hessian in the real coordinates of A
      maximise the likelihood in a few steps. From ``_MLE_RANK_CHECK``
      likelihood evaluations on, the stage runs whenever the rank of the
      accepted state, the number of eigenvalues its projection kept,
      differs from the rank of the fit's last stage and the last accepted
      step gained more than ``_MLE_FLOOR`` times |L|: a smaller gain is the
      rounding of L, which no Newton candidate can beat. Its result
      replaces the accepted state only if it raises the likelihood; the
      gradient resumes from it with the momentum restarted and t back at
      ``_MLE_STEP``. It needs at most ``_NEWTON_MAX_PARAMS`` real entries in A.
    * Stop: when an accepted step gains less than ``_MLE_TOL``, when no step
      from the accepted state itself gains, or after ``max_iters``
      iterations, each rejected candidate and each Newton candidate counting
      as one. The Newton stage also stops at its first rejected candidate
      whose predicted gain is below ``_MLE_FLOOR`` |L|.
      ``_MLE_TOL`` is an absolute gain of the whole table's log-likelihood
      in nats, not a gain per shot, so scaling every count by c scales every
      gain by c and a fit without the stage stops later.

    ``max_iters`` must be a non-negative integer (not a bool); 0 returns the
    projected start. Counts so large that the total count, the likelihood or
    the sufficient-increase test overflows are refused with a
    ValidationError that names ``shots_per_setting``.
    """
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral) or max_iters < 0:
        raise ValidationError(f"max_iters must be a non-negative integer, got {max_iters!r}")
    _require_complete(table)
    with _refusing_overflow(table):
        rho = _mle_fit(table, max_iters)
    return DensityMatrix(rho)


def _mle_fit(table: CountsTable, max_iters: int) -> np.ndarray:
    """The iteration of :func:`reconstruct_mle` on a complete table."""
    vectors, counts = _setting_vectors(table.settings), table.counts.ravel()
    total = counts.sum()
    if not total > 0:
        raise ValidationError("counts table is all zeros")
    frequencies = counts / total
    mask = counts > 0
    counted = counts[mask]
    n = table.num_qubits
    dim = 2**n
    # Row k is conj(v_k) (x) v_k, so p_k = row_k . vec(rho) and, the weights
    # w_k being real, sum_k w_k v_k v_k^dagger = conj(sum_k w_k row_k).
    projectors = (vectors.conj()[:, :, None] * vectors[:, None, :]).reshape(-1, dim * dim)

    evaluations = 0

    def evaluate(matrix: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        probs = np.maximum((projectors @ matrix.ravel()).real, _PROB_FLOOR)
        return _likelihood(counted, probs[mask]), probs

    def gradient(probs: np.ndarray) -> np.ndarray:
        # R = conj(M) for M = (f / p) @ projectors, so (R + R^H) / 2 is this.
        m_op = ((frequencies / probs) @ projectors).reshape(dim, dim)
        return (m_op.conj() + m_op.T) / 2.0

    # The pooled frequencies times the number of settings; the per-setting
    # ones when every total is exactly shots_per_setting (see Start above).
    rho, rank = _project_density(_inverse_frame(vectors, frequencies * 3**n, n))
    current, probs = evaluate(rho)
    sigma, sigma_value, sigma_probs = rho, current, probs
    theta, step = 1.0, _MLE_STEP
    iterations, staged_rank, gain = 0, 0, math.inf
    while iterations < max_iters:
        # The Newton stage: at each new rank, while the gain is above the rounding.
        if (evaluations >= _MLE_RANK_CHECK and rank != staged_rank
                and gain > _MLE_FLOOR * abs(current)):
            staged_rank = rank
            values, basis = np.linalg.eigh(rho)
            keep = values > 1e-9 * values[-1]
            factor = basis[:, keep] * np.sqrt(values[keep])
            if 2 * factor.size <= _NEWTON_MAX_PARAMS:
                factor, trials = _low_rank_newton(
                    factor, vectors, counts, mask, current, max_iters - iterations
                )
                iterations += trials
                candidate = factor @ factor.conj().T
                candidate = (candidate + candidate.conj().T) / 2.0
                value, candidate_probs = evaluate(candidate)
                if value > current:
                    rho, current, probs = candidate, value, candidate_probs
                    sigma, sigma_value, sigma_probs, theta = rho, current, probs, 1.0
                    step = _MLE_STEP
                continue
        iterations += 1
        r_op = gradient(sigma_probs)
        while True:
            candidate, candidate_rank = _project_density(sigma + step * r_op)
            value, candidate_probs = evaluate(candidate)
            delta = candidate - sigma
            increase = np.vdot(r_op, delta).real - np.vdot(delta, delta).real / (2.0 * step)
            if value >= sigma_value + total * increase or step < _MLE_MIN_STEP:
                break
            step *= _MLE_BACKTRACK
        if value < current:
            if sigma is rho:
                break
            sigma, sigma_value, sigma_probs, theta = rho, current, probs, 1.0
            continue
        gain, rank = value - current, candidate_rank
        next_theta = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        sigma = candidate + ((theta - 1.0) / next_theta) * (candidate - rho)
        rho, current, probs, theta = candidate, value, candidate_probs, next_theta
        if gain < _MLE_TOL:
            break
        sigma_value, sigma_probs = evaluate(sigma)
        step *= _MLE_GROWTH
    return rho


def _low_rank_newton(
    factor: np.ndarray, vectors: np.ndarray, counts: np.ndarray, mask: np.ndarray,
    value: float, trials: int,
) -> tuple[np.ndarray, int]:
    """The Newton stage of :func:`reconstruct_mle` from the d x r ``factor`` A
    of rho = A A^dagger / |A|^2 (Burer & Monteiro), whose likelihood is ``value``.

    Levenberg-Marquardt steps on the per-shot likelihood F(x) = sum_k f_k
    log q_k - log |x|^2, q_k = |A^dagger v_k|^2 over the counted outcomes, x
    the real view of A's columns. A candidate solves (C + mu I) dx = grad F,
    C = -Hessian(F), mu = c |grad F|, c starting at 1 and growing by 1 /
    ``_MLE_BACKTRACK`` per rejected candidate; eigvalsh(C) runs only where a
    Cholesky check finds C + mu I indefinite, to shift mu (:func:`_damped_step`).
    A candidate is accepted when it raises the likelihood and keeps every
    counted q_k above the likelihood's floor ``_PROB_FLOOR``, so F is exact
    there.
    Stops when the model predicts a gain below ``_MLE_TOL``, or on rejecting
    a candidate predicted to gain less than ``_MLE_FLOOR`` |value|, the
    likelihood's rounding (gains per shot); when an accepted candidate gains
    less than ``_MLE_TOL``; or after ``trials`` candidates. Returns the last
    accepted factor, scaled to unit norm, and the number of candidates tried.
    """
    dim, rank = factor.shape
    rows, counted, total = vectors[mask], counts[mask], counts.sum()
    weights, min_gain, floor = counted / total, _MLE_TOL / total, _MLE_FLOOR * abs(value) / total
    real_rows = np.concatenate([rows, 1j * rows]).view(float)  # real views u_k, u'_k of v_k, i v_k

    def amplitudes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w_kj = v_k^dagger a_j and q_k = |w_k|^2, for every counted outcome."""
        w = rows.conj() @ a
        return w, (w.real**2 + w.imag**2).sum(axis=1)

    def derivatives(a: np.ndarray, w: np.ndarray, q: np.ndarray) -> tuple:
        """grad F and C at a unit-norm factor."""
        scale = weights / q
        # Row k: the gradient of q_k, the real view of 2 v_k w_k.
        jac = (2.0 * w[:, :, None] * rows[:, None, :]).view(float).reshape(len(q), -1)
        x = a.T.copy().view(float).ravel()
        # A -> sum_k (f_k / q_k) v_k v_k^dagger A acts on each column alone,
        # as sum_k (f_k / q_k) (u_k u_k^T + u'_k u'_k^T) in real coordinates.
        block = 2.0 * (np.eye(2 * dim) - (real_rows.T * np.tile(scale, 2)) @ real_rows)
        curvature = (jac.T * (scale / q)) @ jac - 4.0 * np.outer(x, x)
        curvature.reshape(rank, 2 * dim, rank, 2 * dim)[range(rank), :, range(rank)] += block
        return scale @ jac - 2.0 * x, curvature

    a = factor / np.linalg.norm(factor)
    w, q = amplitudes(a)
    if not q.min() > _PROB_FLOOR:
        return a, 0
    grad, curvature = derivatives(a, w, q)
    damping = 1.0
    for trial in range(trials):
        mu = damping * np.linalg.norm(grad)
        if not mu > 0:  # a stationary point
            return a, trial
        dx, predicted = _damped_step(curvature, grad, mu)
        if not predicted >= min_gain:
            return a, trial
        candidate = a + dx.view(complex).reshape(rank, dim).T
        candidate /= np.linalg.norm(candidate)
        w, q = amplitudes(candidate)
        candidate_value = _likelihood(counted, np.maximum(q, _PROB_FLOOR))
        if candidate_value > value and q.min() > _PROB_FLOOR:
            gain, a, value = candidate_value - value, candidate, candidate_value
            if gain < _MLE_TOL:
                return a, trial + 1
            grad, curvature = derivatives(a, w, q)
        elif predicted < floor:  # more damping only predicts less: the rounding
            return a, trial + 1
        else:
            damping /= _MLE_BACKTRACK
    return a, trials


def _damped_step(curvature: np.ndarray, grad: np.ndarray, mu: float) -> tuple[np.ndarray, float]:
    """dx solving (C + mu I) dx = grad for C = ``curvature``, and its model gain
    grad . dx - dx . C dx / 2 = (grad . dx + mu |dx|^2) / 2. If Cholesky finds
    C + mu I not positive definite, mu is first raised by -lambda_min(C)."""
    system = curvature + mu * np.eye(len(grad))
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        mu -= min(np.linalg.eigvalsh(curvature)[0], 0.0)
        system = curvature + mu * np.eye(len(grad))
    dx = np.linalg.solve(system, grad)
    return dx, (grad @ dx + mu * (dx @ dx)) / 2.0


def write_counts(table: CountsTable, path) -> None:
    """Persist a counts table as delimited text with a descriptive header and
    one line per cell of the grid, the table's ``rows`` in grid order."""
    lines = [
        "# identangle tomography counts",
        f"# qubits: {table.num_qubits}",
        f"# shots_per_setting: {_format_count(table.shots_per_setting)}",
        f"# seed: {'none' if table.seed is None else table.seed}",
        "# columns: setting outcome count",
    ]
    outcomes = table._outcomes()
    for setting, counts in zip(table.settings, table.counts.tolist()):
        lines.extend(f"{setting} {o} {_format_count(c)}" for o, c in zip(outcomes, counts))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _format_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _header_value(key: str, value: str, lineno: int) -> float | int | None:
    """Value of a ``qubits``, ``shots_per_setting`` or ``seed`` header line."""
    if key == "seed" and value == "none":
        return None
    try:
        number = float(value) if key == "shots_per_setting" else int(value)
    except ValueError:
        raise CountsParseError(f"bad {key} value {value!r}", lineno) from None
    if key == "shots_per_setting" and not math.isfinite(number):
        raise CountsParseError(f"non-finite {key} value {value!r}", lineno)
    if key == "shots_per_setting" and not number > 0:
        raise CountsParseError(f"{key} must be positive, got {value!r}", lineno)
    return number


def read_counts(path) -> CountsTable:
    """Parse a counts file written by :func:`write_counts`.

    Rows pass the row rule of :meth:`CountsTable.from_rows` as they are
    read: a setting is checked at its first row, an outcome and a count at
    every row. Raises CountsParseError with the 1-based line number of the
    first malformed line: a bad or repeated header, a row that is malformed
    or breaks the row rule, or a ``qubits`` header that disagrees with the
    rows. A missing ``shots_per_setting`` header is reported too.
    """
    headers: dict[str, tuple[int, float | int | None]] = {}  # key: (line, value)
    grid: dict[str, np.ndarray] = {}  # as CountsTable.from_rows accumulates it
    lineno = 1
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                key, colon, value = line.lstrip("#").strip().partition(":")
                if colon and key in ("qubits", "shots_per_setting", "seed"):
                    if key in headers:
                        raise CountsParseError(f"repeated {key} header", lineno)
                    headers[key] = lineno, _header_value(key, value.strip(), lineno)
                continue
            fields = line.split()
            if len(fields) != 3:
                raise CountsParseError(f"expected 'setting outcome count', got {line!r}", lineno)
            try:
                _add_row(grid, *fields)
            except ValidationError as exc:
                raise CountsParseError(str(exc), lineno) from None
    if "shots_per_setting" not in headers:
        raise CountsParseError("missing 'shots_per_setting' header", lineno)
    if not grid:
        raise CountsParseError("file contains no count rows", lineno)
    width = len(next(iter(grid)))
    if "qubits" in headers and headers["qubits"][1] != width:
        line, qubits = headers["qubits"]
        raise CountsParseError(f"qubits header says {qubits}, the rows have {width} axes", line)
    shots = headers["shots_per_setting"][1]
    seed = headers["seed"][1] if "seed" in headers else None
    try:
        return CountsTable(tuple(grid), list(grid.values()), shots, seed)
    except ValidationError as exc:
        # Per-setting totals off usually means the file was cut short.
        raise CountsParseError(str(exc), lineno) from exc
