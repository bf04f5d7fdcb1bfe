"""Validated density matrices on the postselected spin register.

Basis convention used everywhere in this package: after postselection there
is one particle per detector, so the register is the spin pattern read off
detector by detector. Patterns are ordered detector-major with detector 0 as
the most significant bit and DOWN (0) before UP (1). For three detectors the
basis is |ddd>, |ddu>, |dud>, |duu>, |udd>, |udu>, |uud>, |uuu> at indices
0 through 7.

The checks shared by the validated types live here: one Hermitian-PSD rule
(also behind ``reduction.GramMatrix``) and one unit-vector rule (also behind
``entanglement.TargetState``). The Hermitian-PSD rule checks a stack of
matrices at once; a single matrix is a stack of one.
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


def _complex_array(data, name: str) -> np.ndarray:
    """Complex copy of ``data``; ``name`` starts the error message when numpy
    cannot read it as a rectangular array of complex numbers."""
    try:
        return np.array(data, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not an array of complex numbers ({exc})") from None


def _cut(stack: np.ndarray, error, defect: np.ndarray, limit, message):
    """``stack`` cut before its first matrix whose ``defect`` is not at most
    ``limit`` (a NaN defect is not), and that matrix's error,
    ``message(index)``; unchanged, with ``error``, when every defect is within
    the limit. A check run on the prefix that earlier checks left finds a
    failure before theirs, so its error replaces theirs."""
    for index, value in enumerate(defect.tolist()):
        if not value <= limit:
            return stack[:index], ValidationError(message(index))
    return stack, error


def _hermitian_psd(stack: np.ndarray, name: str, hermitian_tol: float):
    """The Hermitian-PSD rule on a complex stack (P, d, d): every matrix is
    finite, Hermitian within ``hermitian_tol`` and positive semidefinite
    within ``PSD_TOL``, checked in that order with one ``eigvalsh`` for the
    stack. Returns the longest prefix that passes and the error of the first
    matrix that fails (None when all pass); ``name`` starts the message.
    Rules run with overflow ignored: an overflowing defect is inf, and
    refused."""
    non_finite = ~np.isfinite(stack).all(axis=(1, 2))
    stack, error = _cut(stack, None, non_finite, False, lambda i: f"{name} entries must be finite")
    herm_defect = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    stack, error = _cut(
        stack, error, herm_defect, hermitian_tol,
        lambda i: f"{name} is not Hermitian (defect {herm_defect[i]:.3e} > {hermitian_tol})",
    )
    min_eig = np.linalg.eigvalsh(stack).min(axis=1)
    return _cut(
        stack, error, -min_eig, PSD_TOL,
        lambda i: f"{name} is not positive semidefinite (min eigenvalue {min_eig[i]:.3e})",
    )


def _single(matrix, name: str, rule) -> np.ndarray:
    """Read-only complex copy of one nonempty square matrix that passes
    ``rule`` as a stack of one; raises the rule's error."""
    m = _complex_array(matrix, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    m.setflags(write=False)
    with np.errstate(over="ignore"):
        _, error = rule(m[None])
    if error is not None:
        raise error
    return m


def _validated_stack(
    cls, field: str, stack: np.ndarray, rule
) -> tuple[list, ValidationError | None]:
    """Instances of ``cls``, a frozen dataclass whose one array ``field`` its
    ``__post_init__`` checks with ``rule``, around the matrices of a complex
    stack (P, d, d) checked together by ``rule``: those before the first
    matrix that fails, and that one's error (None when all pass). They are
    built from that one check, without ``__post_init__``. Marks ``stack``
    read-only; each instance holds a view of it."""
    stack.setflags(write=False)
    with np.errstate(over="ignore"):
        valid, error = rule(stack)
    made = []
    for matrix in valid:
        instance = object.__new__(cls)
        object.__setattr__(instance, field, matrix)
        made.append(instance)
    return made, error


def _unit_vector(vector, name: str, tol: float) -> np.ndarray:
    """Read-only flat complex copy of a vector whose norm is 1 within ``tol``;
    ``name`` starts the error message."""
    v = _complex_array(vector, name).reshape(-1)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
        norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= tol:
        raise ValidationError(f"{name} norm is {norm:.12g}, expected 1")
    v.setflags(write=False)
    return v


def _density_rule(stack: np.ndarray):
    """The Hermitian-PSD rule, a power-of-two dimension and unit trace within
    ``TRACE_TOL`` on a stack (P, d, d); the passing prefix and the first
    failing matrix's error, as :func:`_hermitian_psd` returns them."""
    stack, error = _hermitian_psd(stack, "density matrix", HERMITIAN_TOL)
    dim = stack.shape[1]
    if len(stack) and (dim < 2 or dim & (dim - 1)):
        return stack[:0], ValidationError(
            f"density matrix dimension must be a power of two, got {dim}"
        )
    trace_defect = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    return _cut(
        stack, error, trace_defect, TRACE_TOL,
        lambda i: f"matrix trace differs from 1 by {trace_defect[i]:.3e}",
    )


@dataclass(frozen=True)
class DensityMatrix:
    """A 2^N x 2^N matrix checked to be Hermitian, positive and unit-trace.

    Construction fails loudly if any of the three properties is violated
    beyond tolerance, so holding a DensityMatrix is itself the certificate
    that the state is physical.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _single(self.matrix, "density matrix", _density_rule))

    @classmethod
    def _stack(cls, stack: np.ndarray) -> tuple[list["DensityMatrix"], ValidationError | None]:
        """Density matrices of a stack, validated at once (see _validated_stack)."""
        return _validated_stack(cls, "matrix", stack, _density_rule)

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
