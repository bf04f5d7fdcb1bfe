"""Validated density matrices on the postselected spin register.

Basis convention used everywhere in this package: after postselection there
is one particle per detector, so the register is the spin pattern read off
detector by detector. Patterns are ordered detector-major with detector 0 as
the most significant bit and DOWN (0) before UP (1). For three detectors the
basis is |ddd>, |ddu>, |dud>, |duu>, |udd>, |udu>, |uud>, |uuu> at indices
0 through 7.

The checks shared by the validated types live here: one Hermitian-PSD rule
(also behind ``reduction.GramMatrix``) and one unit-vector rule (also behind
``entanglement.TargetState``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "HERMITIAN_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "DensityMatrix",
]

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-10


def _hermitian_psd(matrix, name: str, hermitian_tol: float) -> np.ndarray:
    """Read-only complex copy of a nonempty square matrix that is finite,
    Hermitian within ``hermitian_tol`` and positive semidefinite within
    ``PSD_TOL``; ``name`` starts every error message."""
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} entries must be finite")
    with np.errstate(over="ignore"):  # an overflowing defect is inf, refused below
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
    if not herm_defect <= hermitian_tol:
        raise ValidationError(
            f"{name} is not Hermitian (defect {herm_defect:.3e} > {hermitian_tol})"
        )
    min_eig = float(np.linalg.eigvalsh(m).min())
    if not min_eig >= -PSD_TOL:
        raise ValidationError(
            f"{name} is not positive semidefinite (min eigenvalue {min_eig:.3e})"
        )
    m.setflags(write=False)
    return m


def _unit_vector(vector, name: str, tol: float) -> np.ndarray:
    """Read-only flat complex copy of a vector whose norm is 1 within ``tol``;
    ``name`` starts the error message."""
    v = np.array(vector, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
        norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= tol:
        raise ValidationError(f"{name} norm is {norm:.12g}, expected 1")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class DensityMatrix:
    """A 2^N x 2^N matrix checked to be Hermitian, positive and unit-trace.

    Construction fails loudly if any of the three properties is violated
    beyond tolerance, so holding a DensityMatrix is itself the certificate
    that the state is physical.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian_psd(self.matrix, "density matrix", HERMITIAN_TOL)
        dim = m.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValidationError(
                f"density matrix dimension must be a power of two, got {dim}"
            )
        with np.errstate(over="ignore"):  # an overflowing trace is inf, refused below
            trace_defect = abs(complex(np.trace(m)) - 1.0)
        if not trace_defect <= TRACE_TOL:
            raise ValidationError(
                f"matrix trace differs from 1 by {trace_defect:.3e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @classmethod
    def from_pure(cls, vector) -> "DensityMatrix":
        """Rank-one density matrix |v><v| of a unit vector."""
        v = _unit_vector(vector, "state vector", 1e-9)
        return cls(np.outer(v, v.conj()))
