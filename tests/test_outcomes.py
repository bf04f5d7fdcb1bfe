"""The no-bunching outcomes: one per detector bijection sigma with a
nonzero amplitude prod_i t[i, sigma(i)], as no_bunching_outcomes enumerates it."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import random_spec
from identangle import (
    Spin,
    ValidationError,
    custom_spec,
    ghz_preset,
    no_bunching_outcomes,
)

D, U = int(Spin.DOWN), int(Spin.UP)


def detector_spins(index, n):
    """Spin pattern of a basis index, detector 0 first."""
    return [int(index) >> (n - 1 - d) & 1 for d in range(n)]


def test_initial_state_rejects_empty_and_bad_spins():
    with pytest.raises(ValidationError):
        no_bunching_outcomes(custom_spec([], []))
    r = 1 / math.sqrt(2)
    with pytest.raises(ValidationError):
        no_bunching_outcomes(custom_spec([[r, r], [r, r]], [[D, 3], [U, D]]))


def test_terms_in_lexicographic_choice_order():
    # A zero entry on each row prunes the routings through it; the rest come
    # out in the order itertools.permutations gives them.
    r = 1 / math.sqrt(2)
    t = [[r, r, 0, 0], [0, r, r, 0], [r, 0, 0, r], [r, 0, r, 0]]
    spins = [[0, 1, -1, -1], [-1, 0, 1, -1], [1, -1, -1, 0], [0, -1, 1, -1]]
    spec = custom_spec(t, spins)
    expected = [
        sigma for sigma in itertools.permutations(range(4))
        if all(t[i][sigma[i]] != 0 for i in range(4))
    ]
    outcomes = no_bunching_outcomes(spec)
    sigmas = [tuple(np.argsort(labels)) for labels in outcomes.labels]
    assert sigmas == expected


def test_amplitudes_factor_into_matrix_entries():
    rng = np.random.default_rng(101)
    for _ in range(25):
        spec = random_spec(rng)
        outcomes = no_bunching_outcomes(spec)
        assert len(outcomes) == 6
        for amplitude, index, labels in zip(
            outcomes.amplitudes, outcomes.indices, outcomes.labels
        ):
            spins = detector_spins(index, 3)
            expected = complex(1.0)
            for detector, particle in enumerate(labels):
                expected *= spec.amplitudes[particle, detector]
                assert spins[detector] == spec.spins[particle, detector]
            assert amplitude == pytest.approx(expected, abs=1e-12)


def test_row_phase_scales_every_term():
    # Each outcome uses every input row exactly once, so a unit phase on one
    # row multiplies all amplitudes by that phase.
    rng = np.random.default_rng(103)
    spec = random_spec(rng)
    phase = np.exp(1j * 0.7331)
    t_scaled = spec.amplitudes.copy()
    t_scaled[1] *= phase
    base = no_bunching_outcomes(spec).amplitudes
    scaled = no_bunching_outcomes(custom_spec(t_scaled, spec.spins)).amplitudes
    np.testing.assert_allclose(scaled, base * phase, rtol=0, atol=1e-12)


def test_amplitude_of_ghz_assignments():
    outcomes = no_bunching_outcomes(ghz_preset())
    by_sigma = {
        tuple(np.argsort(labels)): amplitude
        for amplitude, labels in zip(outcomes.amplitudes, outcomes.labels)
    }
    straight = by_sigma.pop((0, 1, 2))
    assert straight == pytest.approx((1 / math.sqrt(2)) ** 3)
    # Cyclic routing: particle i reaches detector i + 1 (mod 3).
    cyclic = by_sigma.pop((1, 2, 0))
    assert cyclic == pytest.approx((1 / math.sqrt(2)) ** 3)
    # Closed paths (particle 0 never reaches detector 2, for one) leave no
    # other bijection with a nonzero amplitude.
    assert by_sigma == {}
