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
matrices at once, all or nothing: it raises the error of the first matrix
that fails its earliest failing check. A single matrix is a stack of one:
``TransformSpec``, ``GramMatrix`` and ``DensityMatrix`` construct one as
their ``_stack`` of one, and one factory, :func:`_made`, makes the instances
of every stack.
The rule proves "positive semidefinite within ``PSD_TOL``" with a
certificate: one Cholesky factorization of the stack shifted by
``PSD_TOL / 2``, which succeeds only on stacks the rule accepts and fails on
every matrix it refuses. Only a stack whose factorization fails, or whose
trace is too large for the factorization's rounding bound, pays for
``eigvalsh``, which then decides and words any refusal.
From 64 rows on it checks only the occupied block of the stack, the rows and
columns with a nonzero entry: what it leaves out is zeros, which are finite,
Hermitian and add only zero eigenvalues, so it refuses what the whole-matrix
check refuses, and an N = 7 state no longer pays for a 128-row factorization.
"""

from __future__ import annotations

import sys
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
# From this dimension on, the Hermitian-PSD rule runs on the occupied block
# (see _hermitian_psd). Measured under the Cholesky certificate, as the
# gathered rule's time over the whole-matrix rule's on kernel states: at
# d = 32, 0.98-1.02 on banded and wide states (8-9 of 32 rows occupied) and
# 1.27-1.31 on a dense one (27); at d = 64, 0.40-0.57 on banded and wide
# states (5-30 rows) and 1.00-1.03 on a dense one (53); at d = 128, 0.11-0.36
# (14-61 rows).
_BLOCK_DIM = 64
# The widest register held: a counts table (tomography) takes 2^N float64
# counts per setting, 8 MiB at this width, and a GHZ target (entanglement) a
# 2^N complex vector, 16 MiB; no estimator here fits a state past N = 5.
_MAX_QUBITS = 20


def _complex_array(data, name: str) -> np.ndarray:
    """Complex copy of ``data``; ``name`` starts the error message when numpy
    cannot read it as a rectangular array of complex numbers."""
    try:
        return np.array(data, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not an array of complex numbers ({exc})") from None


def _check(defect: np.ndarray, limit, message) -> None:
    """Raises ``message(index)`` for the first matrix of a stack whose
    ``defect`` is not at most ``limit`` (a NaN defect is not)."""
    for index, value in enumerate(defect.tolist()):
        if not value <= limit:
            raise ValidationError(message(index))


def _certified(stack: np.ndarray) -> bool:
    """Whether one Cholesky factorization proves every matrix of a finite,
    Hermitian stack (P, d, d) positive semidefinite within ``PSD_TOL``.

    A factorization R^H R of A + (PSD_TOL / 2) I that succeeds in floating
    point is exact for a perturbation bounded entrywise by gamma_(d+1)
    |R^H| |R| (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 10.3), whose 2-norm is at most about (d + 1) eps |tr A| / 2,
    since ||R||_F^2 = tr(R^H R). The guard (d + 1) d eps max|tr A| <=
    PSD_TOL / 4 leaves a further factor 2d for complex arithmetic. Then
    success gives lambda_min(A) >= -3 PSD_TOL / 4, which the ``eigvalsh``
    rule accepts, and every A that rule refuses fails the factorization. The
    guard holds for unit-trace matrices up to d of about 1,000 and for Gram
    matrices up to about 100 particles. ``np.linalg.cholesky`` reads the
    lower triangle, as ``eigvalsh`` does.
    """
    dim = stack.shape[1]
    largest_trace = max(map(abs, stack.trace(axis1=1, axis2=2).tolist()), default=0.0)
    if not (dim + 1) * dim * sys.float_info.epsilon * largest_trace <= PSD_TOL / 4:
        return False
    shift = np.zeros((dim, dim))  # (PSD_TOL / 2) I
    shift.flat[:: dim + 1] = PSD_TOL / 2
    try:
        np.linalg.cholesky(stack + shift)
    except np.linalg.LinAlgError:
        return False
    return True


def _hermitian_psd(stack: np.ndarray, name: str, hermitian_tol: float) -> None:
    """The Hermitian-PSD rule on a complex stack (P, d, d): every matrix is
    finite, Hermitian within ``hermitian_tol`` and positive semidefinite
    within ``PSD_TOL`` (its smallest eigenvalue is at least ``-PSD_TOL``),
    checked in that order; ``name`` starts the message. Rules run with
    overflow and invalid operations ignored: an overflowing defect is inf,
    and the defect of a matrix with a non-finite entry inf or NaN, all
    refused.

    The PSD check is one Cholesky certificate for the stack
    (:func:`_certified`). When the certificate fails, one ``eigvalsh`` of
    the stack decides: it accepts a stack whose matrices all lie within
    ``PSD_TOL`` but too close to it for the certificate, and otherwise words
    the refusal with the smallest eigenvalue of the first matrix refused.

    From ``d = _BLOCK_DIM`` on, the checks run on the occupied block of the
    stack: the indices whose row or column holds a nonzero entry (NaN counts)
    in some matrix. Every entry off the block is 0 in a matrix and in its
    conjugate transpose, so the finite and Hermitian defects are those of the
    whole matrix, bit for bit, and the spectrum is the block's plus one zero
    per index left out, which passes. So the rule refuses the same matrices as
    on the whole matrix, in exact arithmetic, and a refused matrix's smallest
    eigenvalue, being negative, is its block's; its printed digits may differ
    in the last places. A banded N = 7 state fills 4-30 of its 128 rows.
    """
    dim = stack.shape[1]
    if dim >= _BLOCK_DIM:
        nonzero = stack.any(axis=0)  # NaN is nonzero
        occupied = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        stack = stack[:, occupied[:, None], occupied]
    # The initial value stands in for an empty block (an all-zero stack).
    herm_defect = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    for defect in herm_defect.tolist():
        if not defect <= hermitian_tol:
            # A non-finite entry makes its matrix's defect inf or NaN, so the
            # finite check, which comes first, runs only once a defect fails.
            _check(~np.isfinite(stack).all(axis=(1, 2)), False,
                   lambda i: f"{name} entries must be finite")
            raise ValidationError(
                f"{name} is not Hermitian (defect {defect:.3e} > {hermitian_tol})"
            )
    del herm_defect  # not held through the certificate's two copies of the stack
    if _certified(stack):
        return
    min_eig = np.linalg.eigvalsh(stack).min(axis=1, initial=np.inf)
    _check(
        -min_eig, PSD_TOL,
        lambda i: f"{name} is not positive semidefinite (min eigenvalue {min_eig[i]:.3e})",
    )


def _square(matrix, name: str) -> np.ndarray:
    """Complex copy of one nonempty square matrix, as a stack of one; ``name``
    starts the error message."""
    m = _complex_array(matrix, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    return m[None]


def _made(cls, *held: np.ndarray) -> list:
    """Instances of ``cls``, a frozen dataclass of validated arrays, one per
    row of the stacks ``held``, which its ``_stack`` has checked: instance p
    holds row p of each stack in its fields, in order. Every validated
    instance is made here: a constructor is the stack of one, and holds what
    the one instance made for it holds."""
    made = []
    for p in range(len(held[0])):  # indexed: iterating an array costs more
        instance = object.__new__(cls)
        instance.__dict__.update(zip(cls.__dataclass_fields__, [stack[p] for stack in held]))
        made.append(instance)
    return made


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


def _density_rule(stack: np.ndarray) -> None:
    """The Hermitian-PSD rule, a power-of-two dimension and unit trace within
    ``TRACE_TOL`` on a stack (P, d, d); raises as :func:`_hermitian_psd`."""
    _hermitian_psd(stack, "density matrix", HERMITIAN_TOL)
    dim = stack.shape[1]
    if len(stack) and (dim < 2 or dim & (dim - 1)):
        raise ValidationError(f"density matrix dimension must be a power of two, got {dim}")
    trace_defect = np.abs(stack.trace(axis1=1, axis2=2) - 1.0)
    _check(
        trace_defect, TRACE_TOL,
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
        vars(self).update(vars(self._stack(_square(self.matrix, "density matrix"))[0]))

    @classmethod
    def _stack(cls, stack: np.ndarray) -> list["DensityMatrix"]:
        """Density matrices of a complex stack (P, d, d), validated at once and
        holding read-only views of it."""
        stack.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            _density_rule(stack)
        return _made(cls, stack)

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
