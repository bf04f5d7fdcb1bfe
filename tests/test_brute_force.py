"""Checks for the brute-force reference implementations themselves.

The brute-force routines are the measuring stick for the production pipeline,
so they get their own independent verification: the permanent against a naive
factorial sum written here, and the density-matrix enumerator against states
small enough to work out by hand.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import random_gram, random_row_normalized, random_spec
from identangle import (
    GramMatrix,
    PostselectionImpossibleError,
    UnsupportedConfigurationError,
    ValidationError,
    brute_density_matrix,
    custom_spec,
    ghz_preset,
    ghz_state,
    permanent,
    w_preset,
)


def naive_permanent(matrix: np.ndarray) -> complex:
    """Permanent as the literal sum over all K! column permutations."""
    k = matrix.shape[0]
    total = complex(0.0)
    for sigma in itertools.permutations(range(k)):
        product = complex(1.0)
        for i in range(k):
            product *= matrix[i, sigma[i]]
        total += product
    return total


def test_permanent_two_by_two():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)


def test_permanent_identity_and_ones():
    assert permanent(np.eye(4)) == pytest.approx(1.0)
    assert permanent(np.ones((3, 3))) == pytest.approx(math.factorial(3))


def test_permanent_single_entry():
    assert permanent(np.array([[2.5 + 1j]])) == pytest.approx(2.5 + 1j)


def test_permanent_matches_naive_sum():
    rng = np.random.default_rng(2024)
    for k in range(1, 7):
        for _ in range(8):
            a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            assert permanent(a) == pytest.approx(naive_permanent(a), abs=1e-10)


def test_permanent_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        permanent(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        permanent(np.ones((13, 13)))


def test_brute_ghz_balanced_is_pure_ghz():
    rho, p = brute_density_matrix(ghz_preset(), GramMatrix.fully_indistinguishable(3))
    assert p == pytest.approx(0.25, abs=1e-12)
    target = ghz_state().vector
    np.testing.assert_allclose(rho.matrix, np.outer(target, target.conj()), atol=1e-12)


def test_brute_fully_distinguishable_probability_is_permanent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = random_row_normalized(rng)
        spec = custom_spec(t, rng.integers(0, 2, size=(3, 3)))
        _, p = brute_density_matrix(spec, GramMatrix.fully_distinguishable(3))
        assert p == pytest.approx(permanent(np.abs(t) ** 2).real, abs=1e-12)


def test_brute_all_ones_gram_amplitude_is_permanent():
    # With identical hidden states and every path carrying the same spin, the
    # lone surviving basis state has amplitude permanent(T).
    rng = np.random.default_rng(6)
    t = random_row_normalized(rng)
    spec = custom_spec(t, np.zeros((3, 3), dtype=int))
    rho, p = brute_density_matrix(spec, GramMatrix.fully_indistinguishable(3))
    perm = permanent(t)
    assert p == pytest.approx(abs(perm) ** 2, abs=1e-12)
    assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_brute_case_ladder_probabilities():
    spec = w_preset(np.full((3, 3), 1.0 / math.sqrt(3.0)))
    expected = {
        (1, 1, 1): 4.0 / 9.0,  # all particles mutually identical
        (0, 0, 0): 2.0 / 9.0,  # all distinguishable
    }
    for off, p_expected in expected.items():
        g = np.eye(3, dtype=complex)
        g[0, 1] = g[1, 0] = off[0]
        g[0, 2] = g[2, 0] = off[1]
        g[1, 2] = g[2, 1] = off[2]
        _, p = brute_density_matrix(spec, GramMatrix(g))
        assert p == pytest.approx(p_expected, abs=1e-12)


def test_brute_destructive_interference_raises():
    r = 1.0 / math.sqrt(2.0)
    spec = custom_spec([[r, r], [r, -r]], [[0, 0], [0, 0]])
    with pytest.raises(PostselectionImpossibleError):
        brute_density_matrix(spec, GramMatrix.fully_indistinguishable(2))


def test_brute_rejects_rectangular_and_oversized():
    rng = np.random.default_rng(7)
    t = random_row_normalized(rng, 2, 3)
    # A rectangular routing is refused when the spec is built.
    with pytest.raises(UnsupportedConfigurationError):
        custom_spec(t, rng.integers(0, 2, size=(2, 3)))
    t7 = random_row_normalized(rng, 7, 7)
    with pytest.raises(ValidationError):
        brute_density_matrix(
            custom_spec(t7, rng.integers(0, 2, size=(7, 7))),
            GramMatrix.fully_distinguishable(7),
        )


def test_brute_rejects_more_than_eight_particles_whatever_their_outcomes():
    # One outcome is within the pair budget, but the walk of 9! permutations
    # is not started.
    spins = np.where(np.eye(9) == 1, 0, -1)
    with pytest.raises(ValidationError, match="8 particles, got 9"):
        brute_density_matrix(custom_spec(np.eye(9), spins), GramMatrix.fully_distinguishable(9))


def test_brute_gram_size_mismatch():
    rng = np.random.default_rng(8)
    with pytest.raises(ValidationError):
        brute_density_matrix(random_spec(rng), random_gram(rng, 4))
