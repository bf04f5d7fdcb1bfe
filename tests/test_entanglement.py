from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_density
from identangle import (
    DelayModel,
    DensityMatrix,
    GHZParams,
    GramMatrix,
    ValidationError,
    VERDICT_GHZ,
    VERDICT_INCONCLUSIVE,
    VERDICT_W,
    balanced_tritter_rows,
    classify,
    density_matrix_from_spec,
    dft_tritter_rows,
    fidelity_mixed,
    fidelity_pure,
    ghz_preset,
    ghz_state,
    gram_from_delays,
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


def test_classify_reports_ghz_above_the_bound():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = rho[7, 7] = 0.5
    rho[0, 7] = rho[7, 0] = 0.3
    report = classify(DensityMatrix(rho))
    assert report.fidelity_ghz == pytest.approx(0.8, abs=1e-12)
    assert report.verdict == VERDICT_GHZ


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


def _full_grid_w_phases(rho):
    """Naive W phase search over the whole coarse grid, as it stood before
    the row pruning: the reference the pruned search must equal bit for bit."""
    m = rho.matrix
    d = float((m[1, 1] + m[2, 2] + m[4, 4]).real)
    c12, c14, c24 = complex(m[1, 2]), complex(m[1, 4]), complex(m[2, 4])

    def objective(phi1, phi2):
        cross = (
            c12 * np.exp(1j * phi1)
            + c14 * np.exp(1j * phi2)
            + c24 * np.exp(1j * (phi2 - phi1))
        )
        return float((d + 2.0 * cross.real) / 3.0)

    phis = np.arange(256) * (2.0 * math.pi / 256)
    e1 = np.exp(1j * phis)[:, None]
    e2 = np.exp(1j * phis)[None, :]
    grid = (d + 2.0 * np.real(c12 * e1 + c14 * e2 + c24 * e2 * e1.conj())) / 3.0
    i, j = divmod(int(np.argmax(grid)), 256)
    phi1, phi2 = float(phis[i]), float(phis[j])
    best = float(grid[i, j])
    step = 2.0 * math.pi / 256
    while step >= 1e-6:
        moved = False
        for delta1, delta2 in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            candidate = objective(phi1 + delta1, phi2 + delta2)
            if candidate > best:
                phi1, phi2, best = phi1 + delta1, phi2 + delta2, candidate
                moved = True
        if not moved:
            step /= 2.0
    phi1 = float(np.angle(np.exp(1j * phi1)))
    phi2 = float(np.angle(np.exp(1j * phi2)))
    return phi1, phi2, float(min(1.0, max(0.0, best)))


def _assert_bit_equal_to_full_grid(rho):
    got = [float(x).hex() for x in optimize_w_phases(rho)]
    assert got == [x.hex() for x in _full_grid_w_phases(rho)]


def _w_block_state(diag, c12, c14, c24):
    m = np.zeros((8, 8), dtype=complex)
    m[1, 1], m[2, 2], m[4, 4] = diag
    m[1, 2], m[1, 4], m[2, 4] = c12, c14, c24
    m[2, 1], m[4, 1], m[4, 2] = np.conj(c12), np.conj(c14), np.conj(c24)
    return DensityMatrix(m)


def test_pruned_w_search_is_bit_equal_to_full_grid_on_random_states():
    rng = np.random.default_rng(601)
    for k in range(512):
        rank = 1 + k % 8
        a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
        rho = a @ a.conj().T
        _assert_bit_equal_to_full_grid(DensityMatrix(rho / np.trace(rho).real))


def test_pruned_w_search_is_bit_equal_to_full_grid_on_near_tied_dft_states():
    # Equal-magnitude coherences at +-2pi/3 make several grid points tie to
    # within an ulp; 1e-15 nudges of magnitude and phase move the winner.
    rng = np.random.default_rng(602)
    third = 2.0 * math.pi / 3.0
    for signs in np.ndindex(3, 3, 3):
        angles = (np.array(signs) - 1) * third
        for _ in range(8):
            r = rng.choice([0.05, 0.1, 1.0 / 6.0])
            nudge_r = 1.0 + 1e-15 * rng.integers(-2, 3, size=3)
            nudge_a = 1e-15 * rng.integers(-2, 3, size=3)
            c12, c14, c24 = r * nudge_r * np.exp(1j * (angles + nudge_a))
            _assert_bit_equal_to_full_grid(_w_block_state((1 / 3, 1 / 3, 1 / 3), c12, c14, c24))


def test_pruned_w_search_is_bit_equal_to_full_grid_with_zero_coherences():
    rng = np.random.default_rng(603)
    _assert_bit_equal_to_full_grid(_w_block_state((1 / 3, 1 / 3, 1 / 3), 0, 0, 0))
    _assert_bit_equal_to_full_grid(DensityMatrix(np.eye(8) / 8))
    for _ in range(4):
        p = rng.dirichlet(np.ones(8))
        _assert_bit_equal_to_full_grid(DensityMatrix(np.diag(p).astype(complex)))
    # One coherence alone: whole rows or columns tie, on and off grid phases.
    for slot in range(3):
        for angle in (0.0, math.pi / 2, math.pi, -math.pi / 4, 1.234):
            coherences = [0j, 0j, 0j]
            coherences[slot] = 0.2 * np.exp(1j * angle)
            _assert_bit_equal_to_full_grid(_w_block_state((0.3, 0.3, 0.4), *coherences))


@pytest.mark.parametrize(
    "spec",
    [ghz_preset(), w_preset(balanced_tritter_rows()), w_preset(dft_tritter_rows())],
    ids=["ghz", "w-balanced", "w-dft"],
)
def test_pruned_w_search_is_bit_equal_to_full_grid_along_uniform_g(spec):
    for g in np.linspace(0.0, 1.0, 41):
        rho, _ = density_matrix_from_spec(spec, GramMatrix.uniform(3, float(g)))
        _assert_bit_equal_to_full_grid(rho)


def _w_descent_objective(d, c12, c14, c24, phi1, phi2):
    """The fine-stage objective of ``optimize_w_phases`` on Python floats."""
    p21 = phi2 - phi1
    return (
        d
        + 2.0
        * (
            ((c12.real * math.cos(phi1) - c12.imag * math.sin(phi1))
             + (c14.real * math.cos(phi2) - c14.imag * math.sin(phi2)))
            + (c24.real * math.cos(p21) - c24.imag * math.sin(p21))
        )
    ) / 3.0


def _w_numpy_objective(d, c12, c14, c24, phi1, phi2):
    """The same objective as numpy's complex expression, as in the full-grid oracle."""
    cross = (
        c12 * np.exp(1j * phi1)
        + c14 * np.exp(1j * phi2)
        + c24 * np.exp(1j * (phi2 - phi1))
    )
    return float((d + 2.0 * cross.real) / 3.0)


def test_w_descent_objective_is_bit_equal_to_numpy_complex_expression():
    # The float descent is bit-equal to the numpy one only if numpy's complex
    # exp rounds as the C library's cos and sin do; a platform where it does
    # not must fail here.
    rng = np.random.default_rng(801)
    n = 100_000
    grid = np.arange(256) * (2.0 * math.pi / 256)
    phases = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, size=(n, 2))
    # Exact grid phases, and grid phases one descent step (2pi/256 / 2^k) away.
    on_grid = rng.random(size=(n, 2)) < 0.3
    steps = (2.0 * math.pi / 256) / 2.0 ** rng.integers(0, 23, size=(n, 2))
    near = grid[rng.integers(0, 256, size=(n, 2))] + rng.choice([-1.0, 0.0, 1.0], size=(n, 2)) * steps
    phases[on_grid] = near[on_grid]
    zero = rng.random(size=(n, 2)) < 0.02
    phases[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    magnitudes = rng.uniform(0.0, 0.5, size=(n, 3))
    magnitudes[rng.random(size=(n, 3)) < 0.1] = 0.0
    coherences = magnitudes * np.exp(1j * rng.uniform(-math.pi, math.pi, size=(n, 3)))
    signed_zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    diagonals = rng.uniform(0.0, 1.0, size=n)
    diagonals[rng.random(size=n) < 0.01] = 0.0
    mismatches = []
    for k, (d, cs, (phi1, phi2)) in enumerate(
        zip(diagonals.tolist(), coherences.tolist(), phases.tolist())
    ):
        cs = [signed_zeros[(k + m) % 4] if c == 0 else c for m, c in enumerate(cs)]
        got = _w_descent_objective(d, *cs, phi1, phi2)
        want = _w_numpy_objective(d, *cs, phi1, phi2)
        if got.hex() != want.hex():
            mismatches.append((d, cs, phi1, phi2, got, want))
    assert not mismatches, f"{len(mismatches)} of {n} differ, first {mismatches[0]}"


@pytest.mark.parametrize("index", [0, 1, 2], ids=["L1", "L2", "L3"])
@pytest.mark.parametrize(
    "spec",
    [ghz_preset(), w_preset(balanced_tritter_rows()), w_preset(dft_tritter_rows())],
    ids=["ghz", "w-balanced", "w-dft"],
)
def test_pruned_w_search_is_bit_equal_to_full_grid_along_delay_scans(spec, index):
    for value in np.linspace(-1.5, 2.0, 57).tolist():
        delays = [0.0, 0.25, 0.5]
        delays[index] = value
        gram = gram_from_delays(DelayModel(coherence_length=1.0, delays=tuple(delays)))
        _assert_bit_equal_to_full_grid(density_matrix_from_spec(spec, gram)[0])


def test_pruned_w_search_is_bit_equal_to_full_grid_along_ghz_amplitude():
    half = 1.0 / math.sqrt(2.0)
    gram = gram_from_delays(DelayModel(coherence_length=1.0, delays=(0.0, 0.25, 0.5)))
    for alpha1 in np.linspace(0.0, 1.0, 41).tolist():
        params = GHZParams(
            alpha1=complex(alpha1),
            alpha2=complex(math.sqrt(1.0 - alpha1 * alpha1)),
            beta2=complex(half),
            beta3=complex(half),
            gamma1=complex(half),
            gamma3=complex(half),
        )
        _assert_bit_equal_to_full_grid(density_matrix_from_spec(ghz_preset(params), gram)[0])
