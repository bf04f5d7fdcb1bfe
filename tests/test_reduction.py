from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_banded_spec, random_gram, random_spec
from identangle import (
    DelayModel,
    GramMatrix,
    PostselectionImpossibleError,
    Spin,
    UnsupportedConfigurationError,
    ValidationError,
    balanced_tritter_rows,
    brute_density_matrix,
    custom_spec,
    density_matrix_from_spec,
    dft_tritter_rows,
    ghz_preset,
    ghz_state,
    gram_from_delays,
    gram_from_labels,
    no_bunching_outcomes,
    permanent,
    w_preset,
)
from identangle import reduction

D, U = int(Spin.DOWN), int(Spin.UP)

# Probability amplitude of each surviving routing in the balanced presets.
GHZ_AMP = (1 / math.sqrt(2)) ** 3
W_AMP = (1 / math.sqrt(3)) ** 3

GHZ = ghz_preset()
W = w_preset(balanced_tritter_rows())


def detector_spins(index, n):
    """Spin pattern of a basis index, detector 0 first."""
    return [int(index) >> (n - 1 - d) & 1 for d in range(n)]


def test_ghz_postselection_keeps_two_routings():
    outcomes = no_bunching_outcomes(GHZ)
    assert len(outcomes) == 2
    by_index = {int(i): k for k, i in enumerate(outcomes.indices)}
    down = by_index[0b000]
    assert tuple(outcomes.labels[down]) == (0, 1, 2)
    assert outcomes.amplitudes[down] == pytest.approx(GHZ_AMP)
    up = by_index[0b111]
    # The all-up branch is the cyclic routing: detector 0 holds particle 2.
    assert tuple(outcomes.labels[up]) == (2, 0, 1)
    assert outcomes.amplitudes[up] == pytest.approx(GHZ_AMP)
    assert np.sum(np.abs(outcomes.amplitudes) ** 2) == pytest.approx(0.25, abs=1e-12)


def test_w_postselection_keeps_all_six_routings():
    outcomes = no_bunching_outcomes(W)
    assert len(outcomes) == 6
    for amplitude, index, labels in zip(outcomes.amplitudes, outcomes.indices, outcomes.labels):
        assert amplitude == pytest.approx(W_AMP)
        assert sorted(labels) == [0, 1, 2]
        # Exactly one detector sees the up spin: the one particle 2 reached.
        spins = detector_spins(index, 3)
        assert spins.count(U) == 1
        assert spins.index(U) == list(labels).index(2)
    assert np.sum(np.abs(outcomes.amplitudes) ** 2) == pytest.approx(6 / 27, abs=1e-12)


def test_postselection_requires_square_problem():
    rng = np.random.default_rng(1)
    spec = random_spec(rng, n=2, m=3)
    with pytest.raises(UnsupportedConfigurationError):
        no_bunching_outcomes(spec)
    with pytest.raises(UnsupportedConfigurationError):
        density_matrix_from_spec(spec, GramMatrix.fully_indistinguishable(2))


def test_ghz_fully_indistinguishable_gives_pure_ghz():
    rho, p = density_matrix_from_spec(GHZ, GramMatrix.fully_indistinguishable(3))
    assert p == pytest.approx(0.25, abs=1e-12)
    target = ghz_state().vector
    np.testing.assert_allclose(rho.matrix, np.outer(target, target.conj()), atol=1e-12)


def test_ghz_distinguishable_third_particle_kills_coherence():
    rho, p = density_matrix_from_spec(GHZ, gram_from_labels(("a", "a", "b")))
    assert p == pytest.approx(0.25, abs=1e-12)
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.max(np.abs(off)) < 1e-12
    assert rho.matrix[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert rho.matrix[7, 7] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_ghz_uniform_overlap_coherence_law(g):
    rho, p = density_matrix_from_spec(GHZ, GramMatrix.uniform(3, g))
    assert p == pytest.approx(0.25, abs=1e-12)
    # Off-diagonal coherence carries one overlap factor per detector.
    assert abs(rho.matrix[0, 7]) == pytest.approx(g**3 / 2, abs=1e-12)
    fidelity = np.real(ghz_state().vector.conj() @ rho.matrix @ ghz_state().vector)
    assert fidelity == pytest.approx((1 + g**3) / 2, abs=1e-12)


def test_w_case_one_pure_w_state():
    rho, p = density_matrix_from_spec(W, GramMatrix.fully_indistinguishable(3))
    assert p == pytest.approx(4 / 9, abs=1e-12)
    v = np.zeros(8, dtype=complex)
    v[[1, 2, 4]] = 1 / math.sqrt(3)
    np.testing.assert_allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-12)


def test_w_case_two_biseparable_mixture():
    # One of the two down-spin particles orthogonal to the other two: each
    # pair of routings that swaps the odd particle keeps its coherence, so
    # three two-term superpositions survive as an equal mixture.
    rho, p = density_matrix_from_spec(W, gram_from_labels(("x", "y", "x")))
    assert p == pytest.approx(2 / 9, abs=1e-12)
    support = np.ix_([1, 2, 4], [1, 2, 4])
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=complex) / 6
    np.testing.assert_allclose(rho.matrix[support], expected, atol=1e-12)
    total = np.zeros((8, 8), dtype=complex)
    total[support] = expected
    np.testing.assert_allclose(rho.matrix, total, atol=1e-12)


def test_w_case_three_and_four_same_diagonal_state():
    rho3, p3 = density_matrix_from_spec(W, gram_from_labels(("x", "x", "y")))
    rho4, p4 = density_matrix_from_spec(W, GramMatrix.fully_distinguishable(3))
    assert p3 == pytest.approx(4 / 9, abs=1e-12)
    assert p4 == pytest.approx(2 / 9, abs=1e-12)
    # Different success probabilities, identical normalized states.
    np.testing.assert_allclose(rho3.matrix, rho4.matrix, atol=1e-12)
    diag = np.zeros(8)
    diag[[1, 2, 4]] = 1 / 3
    np.testing.assert_allclose(np.diag(rho3.matrix).real, diag, atol=1e-12)
    assert np.max(np.abs(rho3.matrix - np.diag(np.diag(rho3.matrix)))) < 1e-12


def test_two_particle_bell_from_antialigned_spins():
    r = 1 / math.sqrt(2)
    spec = custom_spec([[r, r], [r, r]], [[D, U], [U, D]])
    rho, p = density_matrix_from_spec(spec, GramMatrix.fully_indistinguishable(2))
    assert p == pytest.approx(0.5, abs=1e-12)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = r
    np.testing.assert_allclose(rho.matrix, np.outer(bell, bell.conj()), atol=1e-12)


def test_destructive_interference_raises():
    r = 1 / math.sqrt(2)
    spec = custom_spec([[r, r], [r, -r]], [[D, D], [D, D]])
    with pytest.raises(PostselectionImpossibleError):
        density_matrix_from_spec(spec, GramMatrix.fully_indistinguishable(2))
    # The same two particles split half the time once they are distinguishable.
    _, p = density_matrix_from_spec(spec, GramMatrix.fully_distinguishable(2))
    assert p == pytest.approx(0.5, abs=1e-12)


def test_gram_size_must_match_particle_count():
    with pytest.raises(ValidationError):
        density_matrix_from_spec(GHZ, GramMatrix.fully_indistinguishable(4))


def test_gram_validation_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        GramMatrix([[1.0, 0.5], [0.4, 1.0]])  # not Hermitian
    with pytest.raises(ValidationError):
        GramMatrix([[1.0, 0.0], [0.0, 0.9]])  # diagonal off
    with pytest.raises(ValidationError):
        GramMatrix.uniform(3, -0.9)  # not positive semidefinite
    with pytest.raises(ValidationError, match="Gram matrix must be square"):
        GramMatrix(np.eye(2, 3))


def test_gram_entry_too_large_to_subtract_is_refused_without_warning():
    with pytest.raises(ValidationError, match="not Hermitian"):
        GramMatrix([[complex(1e308, 1e308), 0.0], [0.0, 1.0]])


def test_gram_from_labels_matches_uniform_cases():
    np.testing.assert_allclose(
        gram_from_labels(("a", "a", "a")).overlaps,
        GramMatrix.fully_indistinguishable(3).overlaps,
    )
    np.testing.assert_allclose(
        gram_from_labels(("a", "b", "c")).overlaps,
        GramMatrix.fully_distinguishable(3).overlaps,
    )


def test_gram_from_delays():
    model = DelayModel(coherence_length=0.5, delays=(0.0, 0.0, 1.0))
    gram = gram_from_delays(model)
    assert gram.overlaps[0, 1] == pytest.approx(1.0)
    expected = math.exp(-((1.0 / 0.5) ** 2))
    assert gram.overlaps[0, 2] == pytest.approx(expected, abs=1e-15)
    assert gram.overlaps[1, 2] == pytest.approx(expected, abs=1e-15)
    np.testing.assert_allclose(np.diag(gram.overlaps), 1.0)


def test_delays_too_far_apart_to_square_give_zero_overlap():
    gram = gram_from_delays(DelayModel(coherence_length=1e-200, delays=(0.0, 1e200, 0.0)))
    np.testing.assert_array_equal(gram.overlaps, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])


def test_infinite_delay_is_refused_without_warning():
    with pytest.raises(ValidationError, match="must be finite"):
        gram_from_delays(DelayModel(coherence_length=1.0, delays=(0.0, math.inf, 0.0)))


def test_delay_model_validation():
    with pytest.raises(ValidationError):
        DelayModel(coherence_length=0.0, delays=(0.0,))
    with pytest.raises(ValidationError):
        DelayModel(coherence_length=1.0, delays=())


def test_random_states_are_valid_density_matrices():
    rng = np.random.default_rng(303)
    for _ in range(100):
        spec = random_spec(rng)
        gram = random_gram(rng)
        rho, p = density_matrix_from_spec(spec, gram)
        assert 0.0 < p <= 1.0 + 1e-12
        # DensityMatrix construction already enforced the physicality checks;
        # re-assert the trace to make the intent visible here.
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_reduction_matches_brute_force_enumeration():
    rng = np.random.default_rng(304)
    for _ in range(50):
        spec = random_spec(rng)
        gram = random_gram(rng)
        rho_fast, p_fast = density_matrix_from_spec(spec, gram)
        rho_ref, p_ref = brute_density_matrix(spec, gram)
        np.testing.assert_allclose(rho_fast.matrix, rho_ref.matrix, atol=1e-10)
        assert p_fast == pytest.approx(p_ref, abs=1e-12)


def test_distinguishable_success_probability_is_permanent():
    rng = np.random.default_rng(305)
    for _ in range(50):
        spec = random_spec(rng)
        _, p = density_matrix_from_spec(spec, GramMatrix.fully_distinguishable(3))
        assert p == pytest.approx(permanent(np.abs(spec.amplitudes) ** 2).real, abs=1e-12)


def test_pipeline_wrapper_matches_manual_chain():
    # The kernel against the trace written out over the enumerated outcomes.
    spec = ghz_preset()
    gram = GramMatrix.uniform(3, 0.3)
    rho_a, p_a = density_matrix_from_spec(spec, gram)
    outcomes = no_bunching_outcomes(spec)
    g = gram.overlaps
    raw = np.zeros((8, 8), dtype=complex)
    for amp_k, idx_k, lab_k in zip(outcomes.amplitudes, outcomes.indices, outcomes.labels):
        for amp_b, idx_b, lab_b in zip(outcomes.amplitudes, outcomes.indices, outcomes.labels):
            overlap = complex(1.0)
            for d in range(3):
                overlap *= g[lab_b[d], lab_k[d]]
            raw[idx_k, idx_b] += amp_k * amp_b.conjugate() * overlap
    p_b = float(np.trace(raw).real)
    assert rho_a.matrix.tobytes() == (raw / p_b).tobytes()
    assert p_a == p_b


def assert_byte_identical(spec, gram):
    try:
        expected = brute_density_matrix(spec, gram)
    except PostselectionImpossibleError:
        with pytest.raises(PostselectionImpossibleError):
            density_matrix_from_spec(spec, gram)
        return
    rho, p = density_matrix_from_spec(spec, gram)
    assert rho.matrix.tobytes() == expected[0].matrix.tobytes()
    assert p == expected[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_is_byte_identical_to_oracle(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(10):
        assert_byte_identical(random_spec(rng, n, n), random_gram(rng, n))
        width = int(rng.integers(1, n + 1))
        assert_byte_identical(random_banded_spec(rng, n, width), random_gram(rng, n))


def test_kernel_is_byte_identical_to_oracle_at_six_particles():
    rng = np.random.default_rng(406)
    for width in (2, 3, 3, 4):
        assert_byte_identical(random_banded_spec(rng, 6, width), random_gram(rng, 6))
    assert_byte_identical(random_spec(rng, 6, 6), random_gram(rng, 6))


@pytest.mark.parametrize(
    "spec", [GHZ, W, w_preset(dft_tritter_rows())], ids=["ghz", "w-balanced", "w-dft"]
)
def test_kernel_is_byte_identical_to_oracle_on_presets(spec):
    for g in np.linspace(0.0, 1.0, 17):
        assert_byte_identical(spec, GramMatrix.uniform(3, g))


def test_kernel_blocks_keep_byte_identity(monkeypatch):
    # 120 outcomes: blocks of 50 pairs fall back to one whole ket row,
    # blocks of 250 take two.
    rng = np.random.default_rng(407)
    spec, gram = random_spec(rng, 5, 5), random_gram(rng, 5)
    for block in (50, 250):
        monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
        assert_byte_identical(spec, gram)
