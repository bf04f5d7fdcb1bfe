"""Fidelities, witness checks and phase search for GHZ- and W-type targets.

Fidelity against the GHZ target above 1/2, or against the best W-family
member above 2/3, witnesses genuine tripartite entanglement of the matching
class. Both thresholds are strict inequalities, optionally stiffened by a
caller-supplied margin.

The W family carries two free relative phases,

    |W(phi1, phi2)> = (|ddu> + e^(i*phi1) |dud> + e^(i*phi2) |udd>) / sqrt(3),

and the witness compares against the best member, so the fidelity is
maximized over both phases before the threshold test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix
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


@dataclass(frozen=True)
class TargetState:
    """A named pure target state with a unit-norm vector."""

    kind: str
    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValidationError(f"target state norm is {norm:.12g}, expected 1")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


def ghz_state(num_qubits: int = 3) -> TargetState:
    """(|dd...d> + |uu...u>) / sqrt(2)."""
    if num_qubits < 2:
        raise ValidationError("a GHZ state needs at least two qubits")
    v = np.zeros(2**num_qubits, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return TargetState("ghz", v)


def w_state(phi1: float = 0.0, phi2: float = 0.0) -> TargetState:
    """Three-qubit W-family member with relative phases phi1 and phi2."""
    v = np.zeros(8, dtype=complex)
    amp = 1.0 / math.sqrt(3.0)
    v[_W_SUPPORT[0]] = amp
    v[_W_SUPPORT[1]] = amp * np.exp(1j * phi1)
    v[_W_SUPPORT[2]] = amp * np.exp(1j * phi2)
    return TargetState("w", v)


def fidelity_pure(rho: DensityMatrix, target: TargetState | np.ndarray) -> float:
    """<psi| rho |psi> for a pure target, clipped into [0, 1]."""
    v = target.vector if isinstance(target, TargetState) else np.asarray(target)
    v = v.reshape(-1)
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


def optimize_w_phases(
    rho: DensityMatrix,
    grid_size: int = 256,
    refine_step_floor: float = 1e-6,
) -> tuple[float, float, float]:
    """Maximize fidelity against the W family over both phases.

    Coarse stage: exhaustive grid over [0, 2pi)^2, ties broken toward the
    lexicographically smallest (phi1, phi2). Fine stage: coordinate descent
    from the best grid point, halving the step until it drops below
    ``refine_step_floor`` radians. Returns (phi1, phi2, best fidelity) with
    phases wrapped to (-pi, pi].
    """
    if rho.num_qubits != 3:
        raise ValidationError("the W phase search is defined for three qubits")
    d, c12, c14, c24 = _w_objective_terms(rho)

    def objective(phi1: float, phi2: float) -> float:
        cross = (
            c12 * np.exp(1j * phi1)
            + c14 * np.exp(1j * phi2)
            + c24 * np.exp(1j * (phi2 - phi1))
        )
        return float((d + 2.0 * cross.real) / 3.0)

    phis = np.arange(grid_size) * (2.0 * math.pi / grid_size)
    e1 = np.exp(1j * phis)[:, None]
    e2 = np.exp(1j * phis)[None, :]
    grid = (d + 2.0 * np.real(c12 * e1 + c14 * e2 + c24 * e2 * e1.conj())) / 3.0
    flat_best = int(np.argmax(grid))
    i, j = divmod(flat_best, grid_size)
    phi1, phi2 = float(phis[i]), float(phis[j])
    best = float(grid[i, j])

    step = 2.0 * math.pi / grid_size
    while step >= refine_step_floor:
        moved = False
        for delta1, delta2 in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            candidate = objective(phi1 + delta1, phi2 + delta2)
            if candidate > best:
                phi1, phi2, best = phi1 + delta1, phi2 + delta2, candidate
                moved = True
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


def classify(rho: DensityMatrix, margin: float = 0.0) -> ClassificationReport:
    """Run both witnesses and report the strongest one that passes.

    ``margin`` stiffens both thresholds; the default 0 keeps the bare strict
    inequalities, so a fidelity exactly at a bound does not pass.
    """
    if rho.num_qubits != 3:
        raise ValidationError("classification is defined for three qubits")
    f_ghz = fidelity_pure(rho, ghz_state(3))
    phi1, phi2, f_w = optimize_w_phases(rho)
    ghz_passed = bool(f_ghz > GHZ_WITNESS_BOUND + margin)
    w_passed = bool(f_w > W_WITNESS_BOUND + margin)
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
