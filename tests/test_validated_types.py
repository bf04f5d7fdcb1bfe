"""Refusals of the validated matrix and vector types.

``DensityMatrix`` and ``GramMatrix`` share one Hermitian-PSD rule, and
``TargetState`` and ``DensityMatrix.from_pure`` one unit-vector rule. Every
refusal is a ValidationError, also for entries near the float limit, where
the arithmetic of a check could overflow, and the property test at the end
feeds them arbitrary finite floats of arbitrary shape. The project-wide
filterwarnings setting turns a numpy overflow warning into a failure.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from identangle import DensityMatrix, GramMatrix, TargetState, ValidationError


@pytest.mark.parametrize("matrix,message", [
    (np.eye(2, 4) / 2, r"density matrix must be square, got shape \(2, 4\)"),
    (np.eye(3) / 3, "density matrix dimension must be a power of two, got 3"),
    ([[0.5, 0.1], [0.2, 0.5]], "density matrix is not Hermitian"),
    ([[1.5, 0.0], [0.0, -0.5]], "density matrix is not positive semidefinite"),
    (np.eye(2), "matrix trace differs from 1 by 1.000e"),
])
def test_density_matrix_refuses_each_broken_property(matrix, message):
    with pytest.raises(ValidationError, match=message):
        DensityMatrix(matrix)


def test_unit_vectors_refuse_a_wrong_norm():
    with pytest.raises(ValidationError, match="state vector norm is 1.41421356237"):
        DensityMatrix.from_pure([1.0, 1.0])
    with pytest.raises(ValidationError, match="target state norm is 2, expected 1"):
        TargetState("x", [2.0, 0.0])


@pytest.mark.parametrize("make,message", [
    (lambda: DensityMatrix([[1e308, 1e308], [-1e308, 0.0]]), "not Hermitian"),
    (lambda: DensityMatrix(np.diag([1e308, 1e308])), "trace differs from 1 by inf"),
    (lambda: DensityMatrix.from_pure([1e200, 1e200]), "state vector norm is inf"),
    (lambda: TargetState("x", [1e200, 0.0]), "target state norm is inf"),
], ids=["hermitian-defect", "trace", "from-pure-norm", "target-norm"])
def test_checks_that_overflow_refuse_without_warning(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


@pytest.mark.parametrize("make,name", [
    (lambda: GramMatrix([[1, 2], [3]]), "Gram matrix"),
    (lambda: DensityMatrix([[10**400]]), "density matrix"),
    (lambda: DensityMatrix.from_pure([1, "up"]), "state vector"),
    (lambda: TargetState("x", ["a"]), "target state"),
], ids=["ragged-gram", "huge-int-density", "text-pure", "text-target"])
def test_input_that_is_not_an_array_of_numbers_is_refused(make, name):
    with pytest.raises(ValidationError, match=f"^{name} is not an array of complex numbers"):
        make()


def test_a_stack_reports_its_first_failing_matrix():
    # Matrix 1 fails the PSD check, matrix 2 the finite check that comes
    # before it; matrix 1 fails first in stack order, so its error wins.
    good = np.eye(4) / 4
    stack = np.array([good, np.diag([1.5, -0.5, 0, 0]), np.full((4, 4), np.nan), good],
                     dtype=complex)
    valid, error = DensityMatrix._stack(stack)
    assert [rho.matrix.tobytes() for rho in valid] == [DensityMatrix(good).matrix.tobytes()]
    assert str(error) == str(pytest.raises(ValidationError, DensityMatrix, stack[1]).value)
    assert not valid[0].matrix.flags.writeable
    overlaps = np.array([np.eye(2), [[1, 0.5], [0.5, 1]], [[2, 0], [0, 2]], np.eye(2)],
                        dtype=complex)
    valid, error = GramMatrix._stack(overlaps)
    assert [g.overlaps.tolist() for g in valid] == overlaps[:2].tolist()
    assert str(error).startswith("Gram matrix diagonal must be all ones")
    valid, error = GramMatrix._stack(overlaps[:2])
    assert len(valid) == 2 and error is None


# Any finite float, with the extremes and the subnormals drawn often.
EXTREMES = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324,
                            2.2250738585072014e-308, 0.0, 0.5, 1.0])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EXTREMES
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)


@st.composite
def float_arrays(draw):
    """A float array of random shape; a square one is often mirrored into a
    symmetric matrix (no arithmetic, so the draw itself cannot overflow), so
    that the checks past the Hermitian one run too."""
    a = draw(hnp.arrays(np.float64, SHAPES, elements=FINITE))
    if a.ndim == 2 and a.shape[0] == a.shape[1] and draw(st.booleans()):
        upper = np.triu(np.ones(a.shape, dtype=bool))
        a = np.where(upper, a, a.T)
    return a


@settings(derandomize=True, deadline=None, max_examples=300)
@given(a=float_arrays())
def test_validated_types_return_or_refuse_any_finite_floats(a):
    for make in (DensityMatrix, GramMatrix, DensityMatrix.from_pure,
                 lambda v: TargetState("x", v)):
        try:
            make(a)
        except ValidationError:
            pass
