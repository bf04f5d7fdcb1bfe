"""Simulated Pauli tomography: counts, linear inversion, iterative MLE.

Measurement settings are Pauli strings like ``"XYZ"``, one axis per qubit.
For every axis the eigenbasis is listed +1 eigenvector first, so outcome bit
0 always means the +1 eigenvalue; in the Z basis bit 0 is spin DOWN. Outcome
bitstrings follow the same detector-major order as the density-matrix basis.

Counts are drawn per setting from the Born-rule multinomial with an RNG
stream derived from (seed, setting index), which makes runs reproducible and
settings independent of each other. Both estimators work on the stacked
outcome eigenvectors v_k of all settings, whose Born probabilities are
p_k = v_k^dagger rho v_k:

* linear inversion, one least-squares solve of p_k = f_k for rho against
  the per-setting frequencies f_k, which can return a slightly non-positive
  matrix on finite statistics, and
* a diluted iterative RrhoR maximum-likelihood fit, which always returns a
  proper density matrix and never decreases the log-likelihood between
  iterations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .density import DensityMatrix
from .errors import CountsParseError, IncompleteSettingsError, ValidationError

__all__ = [
    "PAULI_AXES",
    "MeasurementSetting",
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

# A measurement setting is a Pauli string, one character per qubit.
MeasurementSetting = str

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Eigenbases, +1 eigenvector first. Z's +1 eigenvector is DOWN (bit 0).
_AXIS_VECTORS = {
    "X": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    "Y": np.array([[_INV_SQRT2, 1j * _INV_SQRT2], [_INV_SQRT2, -1j * _INV_SQRT2]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
}

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


def _validate_setting(setting: str, num_qubits: int | None = None) -> str:
    if not setting or any(axis not in PAULI_AXES for axis in setting):
        raise ValidationError(
            f"setting {setting!r} must be a nonempty string over the axes XYZ"
        )
    if num_qubits is not None and len(setting) != num_qubits:
        raise ValidationError(
            f"setting {setting!r} has {len(setting)} axes, expected {num_qubits}"
        )
    return setting


def _setting_vectors(setting: str) -> np.ndarray:
    """Rows = outcome eigenvectors of the full setting, outcome-index order."""
    rows = np.array([[1.0]], dtype=complex)
    for axis in setting:
        rows = np.kron(rows, _AXIS_VECTORS[axis])
    return rows


def born_probabilities(rho: DensityMatrix, setting: str) -> np.ndarray:
    """Outcome distribution of one setting, clipped and renormalized."""
    _validate_setting(setting, rho.num_qubits)
    vectors = _setting_vectors(setting)
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
        rows = tuple(CountRow(str(s), str(o), float(c)) for s, o, c in self.rows)
        width = len(rows[0].setting)
        totals: dict[str, float] = {}
        for row in rows:
            _validate_setting(row.setting, width)
            if len(row.outcome) != width or any(b not in "01" for b in row.outcome):
                raise ValidationError(
                    f"outcome {row.outcome!r} must be a {width}-bit string of 0s and 1s"
                )
            if not math.isfinite(row.count):
                raise ValidationError(f"non-finite count in row {row}")
            if not row.count >= 0:
                raise ValidationError(f"negative count in row {row}")
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

    @property
    def num_qubits(self) -> int:
        return len(self.rows[0].setting)

    def settings(self) -> list[str]:
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.setting, None)
        return list(seen)

    def counts_for(self, setting: str) -> np.ndarray:
        """Counts of one setting as a vector indexed by outcome index."""
        counts = np.zeros(2**self.num_qubits)
        for row in self.rows:
            if row.setting == setting:
                counts[int(row.outcome, 2)] += row.count
        return counts


def _outcome_strings(num_qubits: int) -> list[str]:
    return [format(o, f"0{num_qubits}b") for o in range(2**num_qubits)]


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
    if settings is None:
        settings = all_pauli_settings(rho.num_qubits)
    if not settings:
        raise ValidationError("need at least one measurement setting")
    if shots < 1 or int(shots) != shots:
        raise ValidationError(f"shots must be a positive integer, got {shots!r}")
    if seed < 0 or int(seed) != seed:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    outcomes = _outcome_strings(rho.num_qubits)
    rows = []
    for index, setting in enumerate(settings):
        probs = born_probabilities(rho, setting)
        rng = np.random.default_rng((int(seed), index))
        counts = rng.multinomial(int(shots), probs)
        rows.extend(
            CountRow(setting, outcomes[o], int(c)) for o, c in enumerate(counts)
        )
    return CountsTable(rows=tuple(rows), shots_per_setting=int(shots), seed=int(seed))


def exact_counts(
    rho: DensityMatrix,
    settings: Sequence[str] | None = None,
    shots: float = 1.0,
) -> CountsTable:
    """Infinite-statistics table: exact Born probabilities times shots."""
    if settings is None:
        settings = all_pauli_settings(rho.num_qubits)
    outcomes = _outcome_strings(rho.num_qubits)
    rows = []
    for setting in settings:
        probs = born_probabilities(rho, setting)
        rows.extend(
            CountRow(setting, outcomes[o], float(p * shots))
            for o, p in enumerate(probs)
        )
    return CountsTable(rows=tuple(rows), shots_per_setting=float(shots), seed=None)


def _require_complete(table: CountsTable) -> None:
    """Informational completeness check: every Pauli string must be present.

    Counts instead of listing all 3^N strings, so a wide table fails fast.
    """
    present = set(table.settings())
    unmeasured = 3**table.num_qubits - len(present)
    if unmeasured:
        every = map("".join, itertools.product(PAULI_AXES, repeat=table.num_qubits))
        shown = ", ".join(itertools.islice((s for s in every if s not in present), 6))
        more = "" if unmeasured <= 6 else f" and {unmeasured - 6} more"
        raise IncompleteSettingsError(
            f"settings are not informationally complete; missing {shown}{more}"
        )


def _stacked_vectors(table: CountsTable) -> tuple[np.ndarray, np.ndarray]:
    """All outcome eigenvectors and aligned counts across the table."""
    blocks = []
    counts = []
    for setting in table.settings():
        blocks.append(_setting_vectors(setting))
        counts.append(table.counts_for(setting))
    return np.vstack(blocks), np.concatenate(counts)


def reconstruct_linear(table: CountsTable) -> np.ndarray:
    """Linear-inversion estimate: one least-squares solve over all outcomes.

    Solves v_k^dagger rho v_k = f_k in the least-squares sense, where v_k runs
    over the outcome eigenvectors of every setting and f_k is the outcome's
    frequency within its setting. With all 3^N settings present the solution
    is the Pauli-average estimator: least squares applies the canonical dual
    frame, which per qubit maps an outcome projector P to (3P - I)/3, so
    every Pauli expectation is averaged over the settings that measure it.
    Hermitian with unit trace, but finite statistics can push eigenvalues
    slightly negative, so the result is a raw matrix rather than a
    DensityMatrix.
    """
    _require_complete(table)
    dim = 2**table.num_qubits
    vectors, counts = _stacked_vectors(table)
    counts = counts.reshape(-1, dim)
    totals = counts.sum(axis=1)
    for setting, total in zip(table.settings(), totals):
        if not total > 0:
            raise ValidationError(f"setting {setting} has no counts")
    frequencies = (counts / totals[:, None]).ravel()
    # Row k is conj(v_k) v_k^T flattened, so that row @ rho.ravel() = p_k.
    projectors = (vectors.conj()[:, :, None] * vectors[:, None, :]).reshape(len(vectors), -1)
    estimate = np.linalg.lstsq(projectors, frequencies, rcond=None)[0].reshape(dim, dim)
    return (estimate + estimate.conj().T) / 2.0


def _probabilities(
    conj_vectors: np.ndarray, matrix: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """Born probabilities of the stacked outcomes, clipped away from zero."""
    probs = np.einsum("ki,ij,kj->k", conj_vectors, matrix, vectors).real
    return np.clip(probs, 1e-12, None)


def _likelihood(counts: np.ndarray, mask: np.ndarray, probs: np.ndarray) -> float:
    return float(np.sum(counts[mask] * np.log(probs[mask])))


def log_likelihood(matrix: np.ndarray, table: CountsTable) -> float:
    """Multinomial log-likelihood of a candidate state given the counts."""
    vectors, counts = _stacked_vectors(table)
    probs = _probabilities(vectors.conj(), matrix, vectors)
    return _likelihood(counts, counts > 0, probs)


def reconstruct_mle(
    table: CountsTable,
    max_iters: int = 1000,
    tol: float = 1e-11,
    dilution: float = 0.5,
) -> DensityMatrix:
    """Diluted iterative RrhoR maximum-likelihood reconstruction.

    Starting from the maximally mixed state, each iteration applies
    rho -> A rho A / tr(...) with A = (1 - lam) I + lam R, where R is the
    likelihood-gradient operator and lam starts at ``dilution``. If a step
    would lower the log-likelihood, lam is halved for that step, so the
    likelihood never decreases. Stops when the per-iteration gain falls
    below ``tol`` or after ``max_iters`` iterations. (Rehacek, Hradil,
    Knill & Lvovsky, PRA 75, 042108 (2007).) The probabilities of each
    accepted candidate carry over to the next iteration.
    """
    if not (0.0 < dilution <= 1.0):
        raise ValidationError(f"dilution must be in (0, 1], got {dilution}")
    _require_complete(table)
    vectors, counts = _stacked_vectors(table)
    total = counts.sum()
    if not total > 0:
        raise ValidationError("counts table is all zeros")
    frequencies = counts / total
    conj_vectors = vectors.conj()
    mask = counts > 0

    dim = 2**table.num_qubits
    identity = np.eye(dim, dtype=complex)
    rho = identity / dim
    probs = _probabilities(conj_vectors, rho, vectors)
    current = _likelihood(counts, mask, probs)
    for _ in range(max_iters):
        ratio = frequencies / probs
        r_op = (vectors * ratio[:, None]).T @ conj_vectors
        r_op = (r_op + r_op.conj().T) / 2.0

        lam = dilution
        while lam >= 1e-8:
            step = (1.0 - lam) * identity + lam * r_op
            candidate = step @ rho @ step
            candidate = (candidate + candidate.conj().T) / 2.0
            candidate /= np.trace(candidate).real
            candidate_probs = _probabilities(conj_vectors, candidate, vectors)
            value = _likelihood(counts, mask, candidate_probs)
            if value >= current - 1e-12:
                break
            lam /= 2.0
        else:
            break
        gain = value - current
        rho, probs, current = candidate, candidate_probs, value
        if gain < tol:
            break
    return DensityMatrix(rho)


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


def read_counts(path) -> CountsTable:
    """Parse a counts file written by :func:`write_counts`.

    Raises CountsParseError with the 1-based line number of the first
    malformed line; missing headers are reported too.
    """
    shots: float | None = None
    seed: int | None = None
    rows: list[CountRow] = []
    lineno = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("shots_per_setting:"):
                    value = body.split(":", 1)[1].strip()
                    try:
                        shots = float(value)
                    except ValueError:
                        raise CountsParseError(
                            f"bad shots_per_setting value {value!r}", lineno
                        ) from None
                    if not math.isfinite(shots):
                        raise CountsParseError(
                            f"non-finite shots_per_setting value {value!r}", lineno
                        )
                elif body.startswith("seed:"):
                    value = body.split(":", 1)[1].strip()
                    if value != "none":
                        try:
                            seed = int(value)
                        except ValueError:
                            raise CountsParseError(
                                f"bad seed value {value!r}", lineno
                            ) from None
                continue
            fields = line.split()
            if len(fields) != 3:
                raise CountsParseError(
                    f"expected 'setting outcome count', got {line!r}", lineno
                )
            setting, outcome, count_text = fields
            if any(axis not in PAULI_AXES for axis in setting):
                raise CountsParseError(f"bad setting {setting!r}", lineno)
            if any(bit not in "01" for bit in outcome):
                raise CountsParseError(f"bad outcome bitstring {outcome!r}", lineno)
            try:
                count = float(count_text)
            except ValueError:
                raise CountsParseError(f"bad count {count_text!r}", lineno) from None
            if not math.isfinite(count):
                raise CountsParseError(f"non-finite count {count_text!r}", lineno)
            rows.append(CountRow(setting, outcome, count))
    if shots is None:
        raise CountsParseError("missing 'shots_per_setting' header", max(lineno, 1))
    if not rows:
        raise CountsParseError("file contains no count rows", max(lineno, 1))
    try:
        return CountsTable(rows=tuple(rows), shots_per_setting=shots, seed=seed)
    except ValidationError as exc:
        # Per-setting totals off usually means the file was cut short.
        raise CountsParseError(str(exc), lineno) from exc
