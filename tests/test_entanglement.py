from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_density
from identangle import (
    DensityMatrix,
    GramMatrix,
    ValidationError,
    VERDICT_GHZ,
    VERDICT_INCONCLUSIVE,
    VERDICT_W,
    classify,
    density_matrix_from_spec,
    dft_tritter_rows,
    fidelity_mixed,
    fidelity_pure,
    ghz_preset,
    ghz_state,
    optimize_w_phases,
    w_preset,
    w_state,
)


def test_ghz_state_vector():
    v = ghz_state().vector
    assert v[0] == pytest.approx(1 / math.sqrt(2))
    assert v[7] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(v) == 2


def test_w_state_vector_and_phases():
    v = w_state().vector
    expected = np.zeros(8, dtype=complex)
    expected[[1, 2, 4]] = 1 / math.sqrt(3)
    np.testing.assert_allclose(v, expected, atol=1e-15)

    phi1, phi2 = 0.4, -1.1
    v = w_state(phi1, phi2).vector
    assert v[1] == pytest.approx(1 / math.sqrt(3))
    assert v[2] == pytest.approx(np.exp(1j * phi1) / math.sqrt(3))
    assert v[4] == pytest.approx(np.exp(1j * phi2) / math.sqrt(3))


def test_fidelity_pure_known_values():
    ghz = ghz_state()
    rho = DensityMatrix.from_pure(ghz.vector)
    assert fidelity_pure(rho, ghz) == pytest.approx(1.0, abs=1e-14)
    assert fidelity_pure(rho, w_state()) == pytest.approx(0.0, abs=1e-14)
    mixed = DensityMatrix(np.eye(8) / 8)
    assert fidelity_pure(mixed, ghz) == pytest.approx(1 / 8, abs=1e-14)


def test_fidelity_pure_rejects_dimension_mismatch():
    rho = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(ValidationError):
        fidelity_pure(rho, ghz_state())


def test_fidelity_mixed_reduces_to_pure_overlap():
    rng = np.random.default_rng(11)
    rho = random_density(rng)
    ghz = ghz_state()
    pure = DensityMatrix.from_pure(ghz.vector)
    assert fidelity_mixed(rho, pure) == pytest.approx(fidelity_pure(rho, ghz), abs=1e-7)


def test_fidelity_mixed_self_and_symmetry():
    rng = np.random.default_rng(12)
    a = random_density(rng)
    b = random_density(rng)
    assert fidelity_mixed(a, a) == pytest.approx(1.0, abs=1e-9)
    assert fidelity_mixed(a, b) == pytest.approx(fidelity_mixed(b, a), abs=1e-8)


def test_fidelity_mixed_orthogonal_states():
    ghz = DensityMatrix.from_pure(ghz_state().vector)
    w = DensityMatrix.from_pure(w_state().vector)
    assert fidelity_mixed(ghz, w) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("phases", [(0.0, 0.0), (1.0, -2.0), (2.5, 0.7), (-3.0, 3.0)])
def test_phase_optimization_recovers_planted_phases(phases):
    phi1, phi2 = phases
    rho = DensityMatrix.from_pure(w_state(phi1, phi2).vector)
    got1, got2, fmax = optimize_w_phases(rho)
    assert fmax == pytest.approx(1.0, abs=1e-10)
    # Compare on the circle; the optimizer reports values in (-pi, pi].
    assert math.remainder(got1 - phi1, 2 * math.pi) == pytest.approx(0.0, abs=1e-5)
    assert math.remainder(got2 - phi2, 2 * math.pi) == pytest.approx(0.0, abs=1e-5)


def test_phase_optimization_on_diagonal_state_is_flat():
    diag = np.zeros((8, 8), dtype=complex)
    diag[1, 1] = diag[2, 2] = diag[4, 4] = 1 / 3
    phi1, phi2, fmax = optimize_w_phases(DensityMatrix(diag))
    # No coherence to exploit: the objective is constant at 1/3 and the
    # grid tie-break lands on the first point.
    assert fmax == pytest.approx(1 / 3, abs=1e-12)
    assert phi1 == pytest.approx(0.0, abs=1e-12)
    assert phi2 == pytest.approx(0.0, abs=1e-12)


def test_phase_optimization_is_consistent_with_direct_fidelity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        rho = random_density(rng)
        phi1, phi2, fmax = optimize_w_phases(rho)
        direct = fidelity_pure(rho, w_state(phi1, phi2))
        assert fmax == pytest.approx(direct, abs=1e-12)
        assert fmax >= fidelity_pure(rho, w_state()) - 1e-12


def test_phase_optimization_requires_three_qubits():
    with pytest.raises(ValidationError):
        optimize_w_phases(DensityMatrix(np.eye(4) / 4))


def test_dft_tritter_phases_cancel():
    # With the discrete-Fourier splitter the three surviving coherences all
    # pick up phase omega^2 * (1 + omega^2) = -1, a global sign, so the
    # postselected state is the phase-free target at one ninth success.
    rho, p = density_matrix_from_spec(
        w_preset(dft_tritter_rows()), GramMatrix.fully_indistinguishable(3)
    )
    assert p == pytest.approx(1 / 9, abs=1e-12)
    phi1, phi2, fmax = optimize_w_phases(rho)
    assert fmax == pytest.approx(1.0, abs=1e-10)
    assert phi1 == pytest.approx(0.0, abs=1e-6)
    assert phi2 == pytest.approx(0.0, abs=1e-6)
    assert fidelity_pure(rho, w_state()) == pytest.approx(1.0, abs=1e-10)


def test_classify_ghz_witness():
    rho, _ = density_matrix_from_spec(ghz_preset(), GramMatrix.fully_indistinguishable(3))
    report = classify(rho)
    assert report.verdict == VERDICT_GHZ
    assert report.ghz_witness_passed is True
    assert report.fidelity_ghz == pytest.approx(1.0, abs=1e-12)
    assert report.offdiag_norm > 0


def test_classify_w_witness():
    rho = DensityMatrix.from_pure(w_state(0.3, -0.8).vector)
    report = classify(rho)
    assert report.verdict == VERDICT_W
    assert report.w_witness_passed is True
    assert report.ghz_witness_passed is False
    assert report.fidelity_w_max == pytest.approx(1.0, abs=1e-10)


def test_classify_inconclusive_on_maximally_mixed():
    report = classify(DensityMatrix(np.eye(8) / 8))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.ghz_witness_passed is False
    assert report.w_witness_passed is False
    assert report.fidelity_ghz == pytest.approx(1 / 8, abs=1e-12)


def test_classify_w_boundary_is_strict():
    # The biseparable mixture reaches the witness bound exactly; a strict
    # inequality must not fire there.
    support = np.ix_([1, 2, 4], [1, 2, 4])
    rho = np.zeros((8, 8), dtype=complex)
    rho[support] = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 6
    report = classify(DensityMatrix(rho))
    assert report.fidelity_w_max == pytest.approx(2 / 3, abs=1e-12)
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_classify_margin_raises_the_bar():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = rho[7, 7] = 0.5
    rho[0, 7] = rho[7, 0] = 0.3
    report = classify(DensityMatrix(rho), margin=0.0)
    assert report.fidelity_ghz == pytest.approx(0.8, abs=1e-12)
    assert report.verdict == VERDICT_GHZ
    strict = classify(DensityMatrix(rho), margin=0.35)
    assert strict.verdict == VERDICT_INCONCLUSIVE


def test_classify_mixture_reports_dominant_class():
    ghz = ghz_state().vector
    w = w_state().vector
    mix = 0.7 * np.outer(ghz, ghz.conj()) + 0.3 * np.outer(w, w.conj())
    report = classify(DensityMatrix(mix))
    # The two targets live on disjoint basis states, so the W fidelity of
    # the mixture is just its W weight.
    assert report.fidelity_ghz == pytest.approx(0.7, abs=1e-12)
    assert report.fidelity_w_max == pytest.approx(0.3, abs=1e-10)
    assert report.verdict == VERDICT_GHZ
