"""Property tests: a NaN or infinite entry never gets through a validated type.

Each case starts from a valid input, overwrites one entry (for the Gram and
density matrices, one entry and its mirror, so the matrix stays Hermitian in
shape) with a non-finite value, and expects a ValidationError.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_gram, random_row_normalized
from identangle import (
    DensityMatrix,
    GramMatrix,
    TransformSpec,
    ValidationError,
    custom_spec,
    density_matrix_from_spec,
)

NON_FINITE = st.sampled_from([
    complex(math.nan, 0.0),
    complex(0.0, math.nan),
    complex(math.inf, 0.0),
    complex(-math.inf, 0.0),
    complex(0.5, math.inf),
    complex(math.nan, math.inf),
])
PROPERTY = settings(max_examples=40, deadline=None)


def valid_inputs(seed: int, n: int):
    rng = np.random.default_rng(seed)
    t = random_row_normalized(rng, n, n)
    s = rng.integers(0, 2, size=(n, n))
    return t, s, random_gram(rng, n).overlaps.copy()


def poison(matrix, i, j, bad, mirror=False):
    out = np.array(matrix, dtype=complex)
    out[i, j] = bad
    if mirror:
        out[j, i] = np.conj(bad)
    return out


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cell=st.data(), bad=NON_FINITE)
def test_transform_spec_rejects_non_finite_amplitudes(seed, n, cell, bad):
    t, s, _ = valid_inputs(seed, n)
    i, j = cell.draw(st.integers(0, n - 1)), cell.draw(st.integers(0, n - 1))
    with pytest.raises(ValidationError):
        TransformSpec(poison(t, i, j, bad), s)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cell=st.data(), bad=NON_FINITE)
def test_gram_matrix_rejects_non_finite_overlaps(seed, n, cell, bad):
    _, _, g = valid_inputs(seed, n)
    i, j = cell.draw(st.integers(0, n - 1)), cell.draw(st.integers(0, n - 1))
    with pytest.raises(ValidationError):
        GramMatrix(poison(g, i, j, bad, mirror=True))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), qubits=st.integers(1, 3), cell=st.data(),
       bad=NON_FINITE)
def test_density_matrix_rejects_non_finite_entries(seed, qubits, cell, bad):
    dim = 2**qubits
    rho = random_density(np.random.default_rng(seed), dim).matrix
    i, j = cell.draw(st.integers(0, dim - 1)), cell.draw(st.integers(0, dim - 1))
    with pytest.raises(ValidationError):
        DensityMatrix(poison(rho, i, j, bad, mirror=True))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), cell=st.data(),
       bad=NON_FINITE, target=st.sampled_from(["amplitudes", "gram"]))
def test_solve_from_raw_arrays_rejects_non_finite_entries(seed, n, cell, bad, target):
    # The forward call from raw arrays never hands back a state.
    t, s, g = valid_inputs(seed, n)
    i, j = cell.draw(st.integers(0, n - 1)), cell.draw(st.integers(0, n - 1))
    if target == "amplitudes":
        t = poison(t, i, j, bad)
    else:
        g = poison(g, i, j, bad, mirror=True)
    with pytest.raises(ValidationError):
        density_matrix_from_spec(custom_spec(t, s), GramMatrix(g))


def test_all_nan_density_matrix_is_rejected():
    with pytest.raises(ValidationError, match="finite"):
        DensityMatrix(np.full((2, 2), np.nan))
