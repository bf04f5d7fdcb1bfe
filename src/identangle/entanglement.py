"""Fidelities, witness checks and phase search for GHZ- and W-type targets.

Fidelity against the GHZ target above 1/2, or against the best W-family
member above 2/3, witnesses genuine tripartite entanglement of the matching
class. Both thresholds are strict inequalities.

The W family carries two free relative phases,

    |W(phi1, phi2)> = (|ddu> + e^(i*phi1) |dud> + e^(i*phi2) |udd>) / sqrt(3),

and the witness compares against the best member, so the fidelity is
maximized over both phases before the threshold test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix, _unit_vector
from .errors import ValidationError

__all__ = [
    "GHZ_WITNESS_BOUND",
    "W_WITNESS_BOUND",
    "VERDICT_GHZ",
    "VERDICT_W",
    "VERDICT_INCONCLUSIVE",
    "TargetState",
    "ghz_state",
    "w_state",
    "fidelity_pure",
    "fidelity_mixed",
    "optimize_w_phases",
    "ClassificationReport",
    "classify",
]

GHZ_WITNESS_BOUND = 0.5
W_WITNESS_BOUND = 2.0 / 3.0

VERDICT_GHZ = "genuine-GHZ-witnessed"
VERDICT_W = "genuine-W-witnessed"
VERDICT_INCONCLUSIVE = "witness-inconclusive"

# Basis positions of |ddu>, |dud>, |udd> in the detector-major ordering.
_W_SUPPORT = (1, 2, 4)
_W_GRID_SIZE = 256  # W phase search: coarse grid points per phase
_W_STEP_FLOOR = 1e-6  # W phase search: descent step (radians) that ends it
# W phase search: rounding margin of the coarse row bound, in units of
# eps * (|d| + 2 (|c12| + |c14| + |c24|)); see optimize_w_phases.
_W_BOUND_MARGIN = 64.0

# Coarse W grid tables, independent of the state: the phases, e^(i phi) as a
# column (phi1 along rows) and as a row (phi2 along columns), and the
# conjugated column.
_W_PHIS = np.arange(_W_GRID_SIZE) * (2.0 * math.pi / _W_GRID_SIZE)
_W_E1 = np.exp(1j * _W_PHIS)[:, None]
_W_E2 = _W_E1.reshape(1, -1)
_W_E1_CONJ = _W_E1.conj()
for _table in (_W_PHIS, _W_E1, _W_E2, _W_E1_CONJ):
    _table.setflags(write=False)
del _table


@dataclass(frozen=True)
class TargetState:
    """A named pure target state with a unit-norm vector."""

    kind: str
    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", _unit_vector(self.vector, "target state", 1e-12))


def ghz_state(num_qubits: int = 3) -> TargetState:
    """(|dd...d> + |uu...u>) / sqrt(2)."""
    if num_qubits < 2:
        raise ValidationError("a GHZ state needs at least two qubits")
    v = np.zeros(2**num_qubits, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return TargetState("ghz", v)


_GHZ3 = ghz_state(3)  # classify's GHZ target


def w_state(phi1: float = 0.0, phi2: float = 0.0) -> TargetState:
    """Three-qubit W-family member with relative phases phi1 and phi2."""
    v = np.zeros(8, dtype=complex)
    amp = 1.0 / math.sqrt(3.0)
    v[_W_SUPPORT[0]] = amp
    v[_W_SUPPORT[1]] = amp * np.exp(1j * phi1)
    v[_W_SUPPORT[2]] = amp * np.exp(1j * phi2)
    return TargetState("w", v)


def fidelity_pure(rho: DensityMatrix, target: TargetState) -> float:
    """<psi| rho |psi> for a pure target, clipped into [0, 1]."""
    v = target.vector
    if v.shape[0] != rho.dim:
        raise ValidationError(
            f"target lives in dimension {v.shape[0]}, the state in {rho.dim}"
        )
    value = float(np.real(v.conj() @ rho.matrix @ v))
    return min(1.0, max(0.0, value))


def fidelity_mixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Computed with Hermitian eigendecompositions; eigenvalues are clipped at
    zero to absorb roundoff from nearly singular states. Symmetric in its
    arguments to about 1e-8.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    vals, vecs = np.linalg.eigh(rho.matrix)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    inner = (inner + inner.conj().T) / 2.0
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    value = float(np.sqrt(eigs).sum() ** 2)
    return min(1.0, max(0.0, value))


def _w_objective_terms(rho: DensityMatrix):
    """Constant and coefficients of the W fidelity as a function of phases.

    F(phi1, phi2) = (d + 2 Re(c12 e^(i phi1) + c14 e^(i phi2)
                    + c24 e^(i (phi2 - phi1)))) / 3
    where d sums the three diagonal entries on the W support.
    """
    m = rho.matrix
    a, b, c = _W_SUPPORT
    d = float((m[a, a] + m[b, b] + m[c, c]).real)
    return d, complex(m[a, b]), complex(m[a, c]), complex(m[b, c])


def _w_grid_rows(d: float, c12: complex, c14: complex, c24: complex,
                 rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the coarse W grid, each bit-equal to the same row of
    the full broadcast grid: the expression and its order of operations are
    the full grid's, and ``c12 * e1`` is formed over all rows before the
    rows are picked, so no element depends on how many rows are asked for.
    """
    return (
        d
        + 2.0 * np.real((c12 * _W_E1)[rows] + c14 * _W_E2 + c24 * _W_E2 * _W_E1_CONJ[rows])
    ) / 3.0


def optimize_w_phases(rho: DensityMatrix) -> tuple[float, float, float]:
    """Maximize fidelity against the W family over both phases.

    Coarse stage: the best point of the ``_W_GRID_SIZE``^2 grid over
    [0, 2pi)^2, ties broken toward the lexicographically smallest
    (phi1, phi2). Fine stage: coordinate descent from that point, halving the
    step until it drops below ``_W_STEP_FLOOR`` radians. Returns (phi1, phi2,
    best fidelity) with phases wrapped to (-pi, pi].

    The coarse stage evaluates only the grid rows (fixed phi1 = phi_i) that
    can hold the grid's best value. With e_i = e^(i phi_i), row i reads
    F_ij = (d + 2 Re(c12 e_i + (c14 + c24 conj(e_i)) e_j)) / 3, so no entry
    of the row exceeds its bound

        B_i = (d + 2 (Re(c12 e_i) + |c14 + c24 conj(e_i)|)) / 3.

    The row with the largest B_i is evaluated first; its maximum M is a lower
    bound on the grid's. Then every row with B_i + margin >= M is evaluated,
    in ascending order, with the same expression as the full grid, and
    ``np.argmax`` runs over those rows. The margin is ``_W_BOUND_MARGIN``
    * eps * S with S = |d| + 2 (|c12| + |c14| + |c24|), the size of every
    term either side sums. A computed grid entry and a computed bound each
    come from a handful of roundings, none larger than eps * S, so each lies
    within a few eps * S of its exact value for the stored e_i; on 30,000
    random and near-tied states no row's computed maximum exceeded its
    computed bound by more than 0.6 eps * S. Rows left out therefore hold
    only entries strictly below M: they can neither hold the grid's maximum
    nor tie with it. The rows kept are evaluated entry for entry as in the
    full grid, so a row-major argmax over them in ascending order picks the
    full grid's first flat index, and (phi1, phi2, fidelity) are bit-equal to
    a search over the whole grid. When c12 = c14 = c24 = 0 the grid is
    constant and row 0 alone is evaluated; when a single row survives, the
    first evaluation of it is reused.

    The fine stage runs on Python floats. With a = Re c and b = Im c and
    p21 = phi2 - phi1, each candidate is

        (d + 2 (((a12 cos phi1 - b12 sin phi1) + (a14 cos phi2 - b14 sin phi2))
                + (a24 cos p21 - b24 sin p21))) / 3,

    which is the numpy expression (d + 2 Re(c12 e^(i phi1) + c14 e^(i phi2)
    + c24 e^(i p21))) / 3 operation for operation: numpy's complex exp of
    i*p is (cos p, sin p) from the C library, a complex product's real part
    is a c - b s, and the sum runs left to right. So every candidate,
    comparison and step is bit-equal to the numpy descent at a fraction of
    its cost; a test checks the objective against numpy's on 100,000 points.
    The term of a coordinate that did not move is kept from the candidate
    that moved it. The final wrap to (-pi, pi] stays
    ``np.angle(np.exp(1j * phi))``: ``math.atan2(sin phi, cos phi)`` differs
    from it in the last bit for about one phase in ten.
    """
    if rho.num_qubits != 3:
        raise ValidationError("the W phase search is defined for three qubits")
    d, c12, c14, c24 = _w_objective_terms(rho)

    if c12 == 0 and c14 == 0 and c24 == 0:
        rows = np.zeros(1, dtype=np.intp)
        grid = _w_grid_rows(d, c12, c14, c24, rows)
    else:
        e1 = _W_E1[:, 0]
        bound = (d + 2.0 * (np.real(c12 * e1) + np.abs(c14 + c24 * e1.conj()))) / 3.0
        first = bound.argmax(keepdims=True)
        grid = _w_grid_rows(d, c12, c14, c24, first)
        row_best = float(grid.max())
        scale = abs(d) + 2.0 * (abs(c12) + abs(c14) + abs(c24))
        margin = _W_BOUND_MARGIN * np.finfo(float).eps * scale
        rows = np.flatnonzero(bound + margin >= row_best)
        if rows.size != 1 or rows[0] != first[0]:
            grid = _w_grid_rows(d, c12, c14, c24, rows)
    row, j = divmod(int(np.argmax(grid)), _W_GRID_SIZE)
    i = int(rows[row])
    phi1, phi2 = float(_W_PHIS[i]), float(_W_PHIS[j])
    best = float(grid[row, j])

    # Fine stage (see the docstring): t1 and t2 hold the phi1 and phi2 terms
    # at the current point; phi2 - phi1 moves with every candidate.
    a12, b12, a14, b14, a24, b24 = c12.real, c12.imag, c14.real, c14.imag, c24.real, c24.imag
    t1 = a12 * math.cos(phi1) - b12 * math.sin(phi1)
    t2 = a14 * math.cos(phi2) - b14 * math.sin(phi2)
    step = 2.0 * math.pi / _W_GRID_SIZE
    while step >= _W_STEP_FLOOR:
        moved = False
        for delta in (step, -step):
            p1 = phi1 + delta
            u1 = a12 * math.cos(p1) - b12 * math.sin(p1)
            p21 = phi2 - p1
            candidate = (d + 2.0 * ((u1 + t2) + (a24 * math.cos(p21) - b24 * math.sin(p21)))) / 3.0
            if candidate > best:
                phi1, t1, best, moved = p1, u1, candidate, True
        for delta in (step, -step):
            p2 = phi2 + delta
            u2 = a14 * math.cos(p2) - b14 * math.sin(p2)
            p21 = p2 - phi1
            candidate = (d + 2.0 * ((t1 + u2) + (a24 * math.cos(p21) - b24 * math.sin(p21)))) / 3.0
            if candidate > best:
                phi2, t2, best, moved = p2, u2, candidate, True
        if not moved:
            step /= 2.0
    phi1 = float(np.angle(np.exp(1j * phi1)))
    phi2 = float(np.angle(np.exp(1j * phi2)))
    return phi1, phi2, float(min(1.0, max(0.0, best)))


@dataclass(frozen=True)
class ClassificationReport:
    """Witness summary of a postselected state."""

    fidelity_ghz: float
    fidelity_w_max: float
    phi1: float
    phi2: float
    ghz_witness_passed: bool
    w_witness_passed: bool
    offdiag_norm: float
    verdict: str


def classify(rho: DensityMatrix) -> ClassificationReport:
    """Run both witnesses and report the strongest one that passes.

    Both thresholds are strict inequalities, so a fidelity exactly at a bound
    does not pass.
    """
    if rho.num_qubits != 3:
        raise ValidationError("classification is defined for three qubits")
    f_ghz = fidelity_pure(rho, _GHZ3)
    phi1, phi2, f_w = optimize_w_phases(rho)
    ghz_passed = bool(f_ghz > GHZ_WITNESS_BOUND)
    w_passed = bool(f_w > W_WITNESS_BOUND)
    offdiag = float(np.sum(np.abs(rho.matrix)) - np.sum(np.abs(np.diag(rho.matrix))))
    if ghz_passed:
        verdict = VERDICT_GHZ
    elif w_passed:
        verdict = VERDICT_W
    else:
        verdict = VERDICT_INCONCLUSIVE
    return ClassificationReport(
        fidelity_ghz=f_ghz,
        fidelity_w_max=f_w,
        phi1=phi1,
        phi2=phi2,
        ghz_witness_passed=ghz_passed,
        w_witness_passed=w_passed,
        offdiag_norm=offdiag,
        verdict=verdict,
    )
