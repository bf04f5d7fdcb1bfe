"""Simulated Pauli tomography: counts, linear inversion, maximum likelihood.

Measurement settings are Pauli strings like ``"XYZ"``, one axis per qubit.
For every axis the eigenbasis is listed +1 eigenvector first, so outcome bit
0 always means the +1 eigenvalue; in the Z basis bit 0 is spin DOWN. Outcome
bitstrings follow the same detector-major order as the density-matrix basis.

Counts are drawn per setting from the Born-rule multinomial with an RNG
stream derived from (seed, setting index), which makes runs reproducible and
settings independent of each other. Both estimators work on the stacked
outcome eigenvectors v_k of all settings, whose Born probabilities are
p_k = v_k^dagger rho v_k:

* linear inversion, the sum of f_k v_k v_k^dagger over the per-setting
  frequencies f_k with the Pauli frame operator undone qubit by qubit, which
  can return a slightly non-positive matrix on finite statistics, and
* a maximum-likelihood fit by accelerated projected gradient (Shang, Zhang
  & Ng, PRA 95, 062336 (2017)). It starts from the inverse-frame sum of the
  pooled frequencies times 3^N, projected onto the density matrices; that is
  the linear estimate only when every setting's total is exactly
  ``shots_per_setting``. Each step moves along the likelihood gradient and
  projects back by clipping the eigenvalues onto the probability simplex
  (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)), with Nesterov momentum
  that restarts from the last accepted state whenever a step would lower the
  likelihood. It always returns a proper density matrix, its accepted states
  never decrease the likelihood, and it stops once a step gains less than
  ``_MLE_TOL``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .density import DensityMatrix
from .errors import CountsParseError, IncompleteSettingsError, ValidationError

__all__ = [
    "PAULI_AXES",
    "all_pauli_settings",
    "axis_eigenvectors",
    "born_probabilities",
    "CountRow",
    "CountsTable",
    "simulate_counts",
    "exact_counts",
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

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Eigenbases, +1 eigenvector first. Z's +1 eigenvector is DOWN (bit 0).
_AXIS_VECTORS = {
    "X": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    "Y": np.array([[_INV_SQRT2, 1j * _INV_SQRT2], [_INV_SQRT2, -1j * _INV_SQRT2]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
}
_AXIS_STACK = np.stack([_AXIS_VECTORS[axis] for axis in PAULI_AXES])


def axis_eigenvectors(axis: str) -> np.ndarray:
    """2x2 array whose rows are the measurement eigenvectors of one axis."""
    if axis not in _AXIS_VECTORS:
        raise ValidationError(f"unknown measurement axis {axis!r}, expected one of XYZ")
    return _AXIS_VECTORS[axis].copy()


def all_pauli_settings(num_qubits: int) -> list[str]:
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


def born_probabilities(rho: DensityMatrix, setting: str) -> np.ndarray:
    """Outcome distribution of one setting, clipped and renormalized."""
    _validate_setting(setting, rho.num_qubits)
    vectors = _setting_vectors([setting])
    probs = np.einsum("oi,ij,oj->o", vectors.conj(), rho.matrix, vectors).real
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValidationError(f"outcome probabilities sum to {total!r}, expected 1")
    return probs / total


class CountRow(NamedTuple):
    setting: str
    outcome: str
    count: float


def _check_row(setting, outcome, count, width: int) -> CountRow:
    """The row rule: the setting has ``width`` axes over XYZ, the outcome
    ``width`` bits, and the count (a number or its text, quoted as given in
    errors) is finite and non-negative. Returns the row as (str, str, float)."""
    setting, outcome = str(setting), str(outcome)
    _validate_setting(setting, width)
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
    return CountRow(setting, outcome, value)


@dataclass(frozen=True)
class CountsTable:
    """Tomography outcomes grouped by measurement setting.

    Counts are usually integers from a simulated run; float counts are
    accepted so that infinite-statistics tables (exact probabilities times
    shots) flow through the same estimators. Counts and the shot total must
    be finite, and per-setting totals must match ``shots_per_setting``.
    """

    rows: tuple[CountRow, ...]
    shots_per_setting: float
    seed: int | None = None

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("counts table has no rows")
        shots = float(self.shots_per_setting)
        if not math.isfinite(shots):
            raise ValidationError(f"shots_per_setting must be finite, got {shots!r}")
        if not shots > 0:
            raise ValidationError("shots_per_setting must be positive")
        width = len(str(self.rows[0][0]))
        self._group(tuple(_check_row(*row, width) for row in self.rows), shots)

    @classmethod
    def _of_checked_rows(cls, rows: tuple[CountRow, ...], shots: float, seed) -> "CountsTable":
        """A table of nonempty rows that already passed the row rule, with a
        finite positive float ``shots``, as :func:`read_counts` has them; the
        rule is not applied a second time."""
        table = object.__new__(cls)
        object.__setattr__(table, "shots_per_setting", shots)
        object.__setattr__(table, "seed", seed)
        table._group(rows, shots)
        return table

    def _group(self, rows: tuple[CountRow, ...], shots: float) -> None:
        """Checks every setting's total against ``shots`` and stores the
        checked rows, the shot count and the settings in first-seen order."""
        totals: dict[str, float] = {}
        for row in rows:
            totals[row.setting] = totals.get(row.setting, 0.0) + row.count
        tol = 1e-6 * max(1.0, shots)
        for setting, total in totals.items():
            if not abs(total - shots) <= tol:
                raise ValidationError(
                    f"setting {setting}: counts sum to {total!r}, expected "
                    f"{self.shots_per_setting}"
                )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shots_per_setting", shots)
        # Position of every setting in first-seen order: its row of ``_grid``.
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(totals)})

    @property
    def num_qubits(self) -> int:
        return len(self.rows[0].setting)

    def settings(self) -> list[str]:
        return list(self._index)

    def counts_for(self, setting: str) -> np.ndarray:
        """Counts of one setting indexed by outcome index, a read-only view of
        the table's grid; zeros for a setting the table does not have."""
        if setting not in self._index:
            return np.zeros(2**self.num_qubits)
        return self._grid[self._index[setting]]

    @cached_property
    def _grid(self) -> np.ndarray:
        """Read-only counts, one row per setting in first-seen order, summed in
        row order; built on first use, so a wide table that is only checked
        for completeness never allocates it."""
        grid = np.zeros((len(self._index), 2**self.num_qubits))
        for setting, outcome, count in self.rows:
            grid[self._index[setting], int(outcome, 2)] += count
        grid.flags.writeable = False
        return grid


def _counts_table(rho: DensityMatrix, settings, counts_of, shots, seed) -> CountsTable:
    """One row per outcome of every setting; ``counts_of(index, probs)`` gives the counts."""
    if settings is None:
        settings = all_pauli_settings(rho.num_qubits)
    outcomes = [format(o, f"0{rho.num_qubits}b") for o in range(2**rho.num_qubits)]
    rows = []
    for index, setting in enumerate(settings):
        counts = counts_of(index, born_probabilities(rho, setting))
        rows.extend(CountRow(setting, outcome, c) for outcome, c in zip(outcomes, counts))
    return CountsTable(rows=tuple(rows), shots_per_setting=shots, seed=seed)


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
    if shots < 1 or int(shots) != shots:
        raise ValidationError(f"shots must be a positive integer, got {shots!r}")
    if seed < 0 or int(seed) != seed:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")

    def draw(index: int, probs: np.ndarray) -> np.ndarray:
        return np.random.default_rng((int(seed), index)).multinomial(int(shots), probs)

    return _counts_table(rho, settings, draw, int(shots), int(seed))


def exact_counts(
    rho: DensityMatrix,
    settings: Sequence[str] | None = None,
    shots: float = 1.0,
) -> CountsTable:
    """Infinite-statistics table: exact Born probabilities times shots."""
    return _counts_table(rho, settings, lambda _, probs: probs * shots, float(shots), None)


def _require_complete(table: CountsTable) -> None:
    """Informational completeness check: every Pauli string must be present.

    Counts instead of listing all 3^N strings, so a wide table fails fast.
    """
    unmeasured = 3**table.num_qubits - len(table._index)
    if unmeasured:
        every = map("".join, itertools.product(PAULI_AXES, repeat=table.num_qubits))
        shown = ", ".join(itertools.islice((s for s in every if s not in table._index), 6))
        more = "" if unmeasured <= 6 else f" and {unmeasured - 6} more"
        raise IncompleteSettingsError(
            f"settings are not informationally complete; missing {shown}{more}"
        )


def _stacked_vectors(table: CountsTable) -> tuple[np.ndarray, np.ndarray]:
    """All outcome eigenvectors and aligned counts across the table."""
    return _setting_vectors(table.settings()), table._grid.ravel()


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
    totals = table._grid.sum(axis=1)
    for setting, total in zip(table.settings(), totals):
        if not total > 0:
            raise ValidationError(f"setting {setting} has no counts")
    frequencies = (table._grid / totals[:, None]).ravel()
    return _inverse_frame(_setting_vectors(table.settings()), frequencies, table.num_qubits)


def _project_density(matrix: np.ndarray) -> np.ndarray:
    """The density matrix nearest a Hermitian matrix in Frobenius norm.

    Keeps the eigenvectors and projects the eigenvalues onto the probability
    simplex: all are lowered by one shift and clipped at zero, the shift
    chosen so that the clipped values sum to 1 (Smolin, Gambetta & Smith,
    PRL 108, 070502 (2012)).
    """
    values, basis = np.linalg.eigh(matrix)
    descending = values[::-1]
    shifts = (np.cumsum(descending) - 1.0) / np.arange(1, len(values) + 1)
    shift = shifts[np.nonzero(descending > shifts)[0][-1]]
    projected = (basis * np.clip(values - shift, 0.0, None)) @ basis.conj().T
    return (projected + projected.conj().T) / 2.0


def _likelihood(counts: np.ndarray, mask: np.ndarray, probs: np.ndarray) -> float:
    return float(np.sum(counts[mask] * np.log(probs[mask])))


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

    Counts so large that the likelihood overflows are refused as
    :func:`reconstruct_mle` refuses them."""
    vectors, counts = _stacked_vectors(table)
    probs = np.einsum("ki,ij,kj->k", vectors.conj(), matrix, vectors).real
    with _refusing_overflow(table):
        return _likelihood(counts, counts > 0, np.clip(probs, 1e-12, None))


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
    * Stop: when an accepted step gains less than ``_MLE_TOL``, when no step
      from the accepted state itself gains, or after ``max_iters``
      iterations, each rejected candidate counting as one.

    Counts so large that the total count, the likelihood or the
    sufficient-increase test overflows are refused with a ValidationError
    that names ``shots_per_setting``.
    """
    _require_complete(table)
    with _refusing_overflow(table):
        rho = _mle_fit(table, max_iters)
    return DensityMatrix(rho)


def _mle_fit(table: CountsTable, max_iters: int) -> np.ndarray:
    """The iteration of :func:`reconstruct_mle` on a complete table."""
    vectors, counts = _stacked_vectors(table)
    total = counts.sum()
    if not total > 0:
        raise ValidationError("counts table is all zeros")
    frequencies = counts / total
    mask = counts > 0
    n = table.num_qubits
    dim = 2**n
    # Row k is conj(v_k) (x) v_k, so p_k = row_k . vec(rho) and, the weights
    # w_k being real, sum_k w_k v_k v_k^dagger = conj(sum_k w_k row_k).
    projectors = (vectors.conj()[:, :, None] * vectors[:, None, :]).reshape(-1, dim * dim)

    def evaluate(matrix: np.ndarray) -> tuple[float, np.ndarray]:
        probs = np.clip((projectors @ matrix.ravel()).real, 1e-12, None)
        return _likelihood(counts, mask, probs), probs

    def gradient(probs: np.ndarray) -> np.ndarray:
        r_op = ((frequencies / probs) @ projectors).conj().reshape(dim, dim)
        return (r_op + r_op.conj().T) / 2.0

    # The pooled frequencies times the number of settings; the per-setting
    # ones when every total is exactly shots_per_setting (see Start above).
    rho = _project_density(_inverse_frame(vectors, frequencies * 3**n, n))
    current, probs = evaluate(rho)
    sigma, sigma_value, sigma_probs = rho, current, probs
    theta, step = 1.0, _MLE_STEP
    for _ in range(max_iters):
        r_op = gradient(sigma_probs)
        while True:
            candidate = _project_density(sigma + step * r_op)
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
        gain = value - current
        next_theta = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        sigma = candidate + ((theta - 1.0) / next_theta) * (candidate - rho)
        rho, current, probs, theta = candidate, value, candidate_probs, next_theta
        if gain < _MLE_TOL:
            break
        sigma_value, sigma_probs = evaluate(sigma)
        step *= _MLE_GROWTH
    return rho


def write_counts(table: CountsTable, path) -> None:
    """Persist a counts table as delimited text with a descriptive header."""
    lines = [
        "# identangle tomography counts",
        f"# qubits: {table.num_qubits}",
        f"# shots_per_setting: {_format_count(table.shots_per_setting)}",
        f"# seed: {'none' if table.seed is None else table.seed}",
        "# columns: setting outcome count",
    ]
    for row in table.rows:
        lines.append(f"{row.setting} {row.outcome} {_format_count(row.count)}")
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

    Raises CountsParseError with the 1-based line number of the first
    malformed line: a bad or repeated header, a row that is malformed or
    breaks the table's row rule, or a ``qubits`` header that disagrees with
    the rows. A missing ``shots_per_setting`` header is reported too.
    """
    headers: dict[str, tuple[int, float | int | None]] = {}  # key: (line, value)
    rows: list[CountRow] = []
    lineno = 0
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
            width = len(rows[0].setting if rows else fields[0])
            try:
                rows.append(_check_row(*fields, width))
            except ValidationError as exc:
                raise CountsParseError(str(exc), lineno) from None
    if "shots_per_setting" not in headers:
        raise CountsParseError("missing 'shots_per_setting' header", max(lineno, 1))
    if not rows:
        raise CountsParseError("file contains no count rows", max(lineno, 1))
    width = len(rows[0].setting)
    if headers.get("qubits", (0, width))[1] != width:
        line, qubits = headers["qubits"]
        raise CountsParseError(f"qubits header says {qubits}, the rows have {width} axes", line)
    shots, seed = headers["shots_per_setting"][1], headers.get("seed", (0, None))[1]
    try:
        return CountsTable._of_checked_rows(tuple(rows), shots, seed)
    except ValidationError as exc:
        # Per-setting totals off usually means the file was cut short.
        raise CountsParseError(str(exc), lineno) from exc
