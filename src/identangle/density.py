"""Validated density matrices on the postselected spin register.

Basis convention used everywhere in this package: after postselection there
is one particle per detector, so the register is the spin pattern read off
detector by detector. Patterns are ordered detector-major with detector 0 as
the most significant bit and DOWN (0) before UP (1). For three detectors the
basis is |ddd>, |ddu>, |dud>, |duu>, |udd>, |udu>, |uud>, |uuu> at indices
0 through 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "HERMITIAN_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "spin_pattern_index",
    "DensityMatrix",
]

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-10


def spin_pattern_index(spins: Sequence[int]) -> int:
    """Basis index of a spin pattern, detector 0 most significant, DOWN=0."""
    index = 0
    for spin in spins:
        index = (index << 1) | int(spin)
    return index


@dataclass(frozen=True)
class DensityMatrix:
    """A 2^N x 2^N matrix checked to be Hermitian, positive and unit-trace.

    Construction fails loudly if any of the three properties is violated
    beyond tolerance, so holding a DensityMatrix is itself the certificate
    that the state is physical.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValidationError(
                f"density matrix dimension must be a power of two, got {dim}"
            )
        if not np.isfinite(m).all():
            raise ValidationError("density matrix entries must be finite")
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        if not herm_defect <= HERMITIAN_TOL:
            raise ValidationError(
                f"matrix is not Hermitian (defect {herm_defect:.3e} > {HERMITIAN_TOL})"
            )
        min_eig = float(np.linalg.eigvalsh(m).min())
        if not min_eig >= -PSD_TOL:
            raise ValidationError(
                f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})"
            )
        trace_defect = abs(complex(np.trace(m)) - 1.0)
        if not trace_defect <= TRACE_TOL:
            raise ValidationError(
                f"matrix trace differs from 1 by {trace_defect:.3e}"
            )
        m.setflags(write=False)
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
        v = np.array(vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValidationError(f"state vector norm is {norm:.12g}, expected 1")
        return cls(np.outer(v, v.conj()))
