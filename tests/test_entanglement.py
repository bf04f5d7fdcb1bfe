from __future__ import annotations

import cmath
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import random_density
from identangle import entanglement
from identangle import (
    DensityMatrix,
    GHZParams,
    GramMatrix,
    ValidationError,
    VERDICT_GHZ,
    VERDICT_INCONCLUSIVE,
    VERDICT_W,
    balanced_tritter_rows,
    classify,
    classify_states,
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


@pytest.mark.parametrize("width", [21, 64])
def test_ghz_state_refuses_a_width_past_the_widest_table_without_allocating(width):
    # 21 is one past the widest counts table; a 2^64 vector is past what
    # numpy can shape. Neither is allocated before the refusal.
    tracemalloc.start()
    try:
        message = f"^a GHZ state has at most 20 qubits, got {width}$"
        with pytest.raises(ValidationError, match=message):
            ghz_state(width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ghz_state_takes_up_to_20_qubits():
    v = ghz_state(20).vector
    assert v.shape == (2**20,)
    assert v[0] == v[-1] == 1.0 / math.sqrt(2.0)


def test_w_state_of_default_phases_is_real_bit_for_bit():
    expected = np.zeros(8, dtype=complex)
    expected[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
    assert w_state().vector.tobytes() == expected.tobytes()


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


def test_fidelity_pure_is_clipped_at_1():
    # <psi| psi psi^H |psi> rounds to 1 + 2 ulps for this member.
    target = w_state(0.4, -1.1)
    assert fidelity_pure(DensityMatrix.from_pure(target.vector), target) == 1.0


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


def test_fidelity_mixed_is_clipped_at_1():
    # Its square roots of eigenvalues lift this value 2e-8 above 1.
    w = DensityMatrix.from_pure(w_state().vector)
    assert fidelity_mixed(w, w) == 1.0


def test_fidelity_mixed_of_orthogonal_basis_states_is_exactly_zero():
    # Every eigenvalue and product is exact here, so no clipped eigenvalue
    # may add to the sum.
    down, up = np.zeros((8, 8)), np.zeros((8, 8))
    down[0, 0] = up[7, 7] = 1.0
    assert fidelity_mixed(DensityMatrix(down), DensityMatrix(up)) == 0.0


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
    # No GHZ coherence: the best fidelity is that of the populations, at phase 0.
    assert (report.fidelity_ghz_max, report.ghz_phase) == (1 / 8, 0.0)


def test_the_ghz_witness_scores_the_best_relative_phase():
    # alpha1 = e^(i theta) / sqrt(2) weighs the all-down outcome by e^(i theta):
    # the state is (e^(i theta) |ddd> + |uuu>) / sqrt(2), whose fidelity with
    # the phase-0 target is (1 + cos theta) / 2 and with the member of phase
    # -theta is 1, a GHZ verdict at every theta.
    r = 1 / math.sqrt(2)
    gram = GramMatrix.fully_indistinguishable(3)
    for theta in np.linspace(-math.pi, math.pi, 25).tolist():
        params = GHZParams(r * cmath.exp(1j * theta), r, r, r, r, r)
        report = classify(density_matrix_from_spec(ghz_preset(params), gram)[0])
        assert report.fidelity_ghz == pytest.approx((1 + math.cos(theta)) / 2, abs=1e-12)
        assert report.fidelity_ghz_max == pytest.approx(1.0, abs=1e-12)
        assert -math.pi <= report.ghz_phase <= math.pi
        assert cmath.exp(1j * report.ghz_phase) == pytest.approx(cmath.exp(-1j * theta), abs=1e-12)
        assert report.ghz_witness_passed is True
        assert report.verdict == VERDICT_GHZ


def test_the_best_ghz_phase_reads_signed_zeros_as_zero_and_the_maximum_is_clipped():
    mixed = np.eye(8, dtype=complex) / 8
    # A rho70 of -0 in either part has no phase: it reads 0, not -pi, pi or -0.
    unsigned = mixed.copy()
    unsigned[7, 0], unsigned[0, 7] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    phase = classify(DensityMatrix(unsigned)).ghz_phase
    assert (phase, math.copysign(1.0, phase)) == (0.0, 1.0)
    # A negative rho70 of subnormal scale is still at phase pi.
    tiny = mixed.copy()
    tiny[7, 0] = tiny[0, 7] = -1e-300
    assert classify(DensityMatrix(tiny)).ghz_phase == math.pi
    # (rho00 + rho77) / 2 + |rho70| rounds to 1 + 2^-52 here, and is clipped to 1.
    over = np.zeros((8, 8), dtype=complex)
    over[0, 0] = over[7, 7] = 0.5000000000000002
    over[0, 7] = over[7, 0] = 0.5
    assert classify(DensityMatrix(over)).fidelity_ghz_max == 1.0


def test_the_ghz_coherence_carries_the_triad_phase_of_the_gram_matrix():
    # |G_ij| = g with triad phase phi = arg(G01 G12 G20): the coherence goes as
    # G01 G12 G20, so the phase-0 fidelity is (1 + g^3 cos phi) / 2 and the
    # best, at phase -phi, is (1 + g^3) / 2. g <= 0.45 keeps G positive
    # semidefinite at every phi.
    for g in (0.2, 0.35, 0.45):
        for phi in np.linspace(-math.pi, math.pi, 13).tolist():
            e = g * cmath.exp(1j * phi / 3)
            c = e.conjugate()
            gram = GramMatrix(np.array([[1, e, c], [c, 1, e], [e, c, 1]]))
            report = classify(density_matrix_from_spec(ghz_preset(), gram)[0])
            assert report.fidelity_ghz == pytest.approx((1 + g**3 * math.cos(phi)) / 2, abs=1e-12)
            assert report.fidelity_ghz_max == pytest.approx((1 + g**3) / 2, abs=1e-12)
            assert cmath.exp(1j * report.ghz_phase) == pytest.approx(cmath.exp(-1j * phi),
                                                                     abs=1e-12)
            assert report.verdict == VERDICT_GHZ


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


def _reference_descent(objective, phi1, phi2, best):
    """Coordinate descent: phi1 + step, phi1 - step, phi2 + step, phi2 - step,
    each from the point the last move left, the step halved after a pass
    without a move until it drops below 1e-6."""
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
    return phi1, phi2, best


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
    phi1, phi2, best = _reference_descent(objective, phi1, phi2, best)
    phi1 = float(np.angle(np.exp(1j * phi1)))
    phi2 = float(np.angle(np.exp(1j * phi2)))
    return phi1, phi2, float(min(1.0, max(0.0, best)))


def _assert_bit_equal_to_full_grid(rho):
    got = [float(x).hex() for x in optimize_w_phases(rho)]
    assert got == [x.hex() for x in _full_grid_w_phases(rho)]


def _w_block_state(diag, c12, c14, c24):
    """A state with the given W block; what trace it leaves sits on |000> and |111>."""
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = m[7, 7] = (1.0 - sum(diag)) / 2.0
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
    # Coherences with +-0.0 real and imaginary parts, on a W block with d > 0
    # and on GHZ-support states with d = +0.0 and d = -0.0.
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    for c12, c14, c24 in itertools.product(zeros, repeat=3):
        for diag in ((0.3, 0.3, 0.4), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)):
            m = np.zeros((8, 8), dtype=complex)
            m[0, 0] = m[7, 7] = m[0, 7] = m[7, 0] = (1.0 - sum(diag)) / 2.0
            m[1, 1], m[2, 2], m[4, 4] = diag
            m[1, 2], m[1, 4], m[2, 4] = c12, c14, c24
            m[2, 1], m[4, 1], m[4, 2] = c12.conjugate(), c14.conjugate(), c24.conjugate()
            _assert_bit_equal_to_full_grid(DensityMatrix(m))
    # One coherence alone: whole rows or columns tie, on and off grid phases.
    for slot in range(3):
        for angle in (0.0, math.pi / 2, math.pi, -math.pi / 4, 1.234):
            coherences = [0j, 0j, 0j]
            coherences[slot] = 0.2 * np.exp(1j * angle)
            _assert_bit_equal_to_full_grid(_w_block_state((0.3, 0.3, 0.4), *coherences))


def _w_descent_calls(monkeypatch):
    """Spy on the fine stage: the list of calls grows by one per searched state."""
    calls = []
    descent = entanglement._w_descent

    def spy(*args):
        calls.append(args)
        return descent(*args)

    monkeypatch.setattr(entanglement, "_w_descent", spy)
    return calls


def test_w_search_at_the_origin_is_bit_equal_to_full_grid_on_real_non_negative_coherences(
    monkeypatch,
):
    # Real, non-negative coherences with c24 <= c12 + c14 are answered at
    # (0, 0) without a search; the answer must be the full search's.
    calls = _w_descent_calls(monkeypatch)
    rng = np.random.default_rng(604)
    for k in range(240):
        diag = rng.dirichlet(np.ones(3)) * rng.choice([1.0, 0.5, 1e-3])
        a12, a14, a24 = rng.uniform(0.0, 0.5, size=3) * min(diag)
        if k % 4 == 1:
            a24 = a12 + a14  # the pair bound met exactly, in floats
        elif k % 4 == 2:
            a12, a24 = 0.0, min(a24, a14)
        elif k % 4 == 3:
            a14, a24 = 0.0, min(a24, a12)
        else:
            a24 = min(a24, a12 + a14)
        _assert_bit_equal_to_full_grid(_w_block_state(diag, a12, a14, a24))
    # Parts of +-0.0, with d = +0.0 and d = -0.0 as well as d > 0.
    parts = [complex(re, im) for re in (0.0, -0.0, 0.1) for im in (0.0, -0.0)]
    for c12, c14, c24 in itertools.product(parts, repeat=3):
        if c24.real > c12.real + c14.real:
            continue
        for diag in ((0.3, 0.3, 0.4), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)):
            if min(diag) == 0.0 and any(c.real for c in (c12, c14, c24)):
                continue  # not positive semidefinite
            _assert_bit_equal_to_full_grid(_w_block_state(diag, c12, c14, c24))
    assert not calls


def test_w_search_value_is_clipped_at_1():
    # Both values round to 1 + 1 ulp: the (0, 0) rule's on the phase-0 member,
    # and the descent's on a member at grid phases.
    assert optimize_w_phases(DensityMatrix.from_pure(w_state().vector)) == (0.0, 0.0, 1.0)
    searched = DensityMatrix.from_pure(w_state(0.0, 8 * (2.0 * math.pi / 256)).vector)
    assert optimize_w_phases(searched)[2] == 1.0


def test_w_search_origin_rule_starts_at_the_smallest_normal_pair(monkeypatch):
    # a12 + a14 equal to the smallest normal float is answered at (0, 0);
    # one subnormal step below it is searched.
    calls = _w_descent_calls(monkeypatch)
    half = sys.float_info.min / 2.0
    _assert_bit_equal_to_full_grid(_w_block_state((0.3, 0.3, 0.4), half, half, 0.0))
    assert not calls
    _assert_bit_equal_to_full_grid(_w_block_state((0.3, 0.3, 0.4), half, half - 5e-324, 0.0))
    assert len(calls) == 1


def test_w_search_is_bit_equal_to_full_grid_on_subnormal_magnitudes():
    # The (0, 0) rule rests on the diagonal's relative drop, which subnormal
    # magnitudes do not keep: c12 + c14 below the smallest normal float is
    # searched. Both sides of that line, against d from subnormal up.
    tiny = sys.float_info.min
    magnitudes = (0.0, 5e-324, tiny / 2.0, tiny, 1e-200)
    for d in (1e-323, 0.1):
        diag = (d / 3.0, d / 3.0, d - 2.0 * (d / 3.0))
        for c12, c14, c24 in itertools.product(magnitudes, repeat=3):
            _assert_bit_equal_to_full_grid(_w_block_state(diag, c12, c14, c24))
    # Signed and imaginary subnormal coherences are searched. With S =
    # |d| + 2 (|c12| + |c14| + |c24|) subnormal, a row margin of 64 eps * S
    # underflows to 0: without its floor, 24 of these raised on an empty
    # argmax or kept too few rows (d = 1e-323, c12 = 0, c14 = 5e-324 and
    # c24 = -5e-324 raised).
    for d in (1e-323, 1e-320):
        diag = (d / 3.0, d / 3.0, d - 2.0 * (d / 3.0))
        for c12 in (0.0, 5e-324):
            for c14, c24 in itertools.product((5e-324, -5e-324, 5e-324j, 1e-320), repeat=2):
                _assert_bit_equal_to_full_grid(_w_block_state(diag, c12, c14, c24))


def test_w_search_near_misses_of_the_origin_rule_take_the_full_search(monkeypatch):
    calls = _w_descent_calls(monkeypatch)
    diag = (0.3, 0.3, 0.4)
    a12, a14 = 0.1, 0.05
    cases = [
        (a12, a14, math.nextafter(a12 + a14, math.inf)),  # c24 one ulp above the pair
        (-5e-324, a14, 0.1),
        (a12, -5e-324, 0.1),
        (a12, a14, -5e-324),
        (complex(a12, 5e-324), a14, 0.1),
        (a12, complex(a14, -5e-324), 0.1),
        (a12, a14, complex(0.1, 5e-324)),
    ]
    for case in cases:
        _assert_bit_equal_to_full_grid(_w_block_state(diag, *case))
    assert len(calls) == len(cases)


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


def test_w_descent_moves_as_the_reference_from_starts_where_both_moves_gain():
    # The search starts its descent at the grid's best point, where a move
    # rarely gains both ways. From a minimum along phi1 (or phi2) both moves
    # of that phase gain, so only the order +step, -step, phi1 before phi2,
    # gives the reference's path.
    d, cs = 0.9, (0.25 + 0.1j, -0.2 + 0.05j, 0.1 - 0.15j)
    objective = lambda phi1, phi2: _w_numpy_objective(d, *cs, phi1, phi2)  # noqa: E731
    fine = (np.arange(4096) * (2.0 * math.pi / 4096)).tolist()
    starts = []
    for other in np.linspace(-3.0, 3.0, 6).tolist():
        starts.append((min(fine, key=lambda phi: objective(phi, other)), other))
        starts.append((other, min(fine, key=lambda phi: objective(other, phi))))
    for phi1, phi2 in starts:
        best = objective(phi1, phi2)
        got = entanglement._w_descent(d, *cs, phi1, phi2, best)
        want1, want2, want_best = _reference_descent(objective, phi1, phi2, best)
        assert [x.hex() for x in got] == [want1.hex(), want2.hex(), min(1.0, want_best).hex()]


def test_w_phase_wrap_of_a_block_is_bit_equal_to_each_phase_alone():
    # The searched states of a block have their phases wrapped as one (P, 2)
    # slice; each must be the one-phase np.angle(np.exp(1j * phi)).
    rng = np.random.default_rng(802)
    step = 2.0 * math.pi / 256
    grid = np.arange(-1024, 1025) * step
    phases = np.concatenate([
        [math.pi, -math.pi, 0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi, 3.0 * math.pi],
        grid,
        np.nextafter(grid, np.inf),
        np.nextafter(grid, -np.inf),
        # Descent end points: grid phases moved by steps 2pi/256 / 2^k.
        rng.choice(grid[768:1281], size=40_000)
        + rng.choice([-1.0, 1.0], size=40_000) * step / 2.0 ** rng.integers(0, 23, size=40_000),
        rng.uniform(-4.0 * math.pi, 4.0 * math.pi, size=53_846),
    ])
    assert len(phases) >= 100_000 and len(phases) % 2 == 0
    want = [float(np.angle(np.exp(1j * phi))).hex() for phi in phases.tolist()]
    pairs, got, start, size = phases.reshape(-1, 2), [], 0, 1
    while start < len(pairs):
        # Blocks of every size a classification block can search, 1 to 64
        # states, as the (P, 2) slice of the (P, 3) results the search wraps.
        block = pairs[start:start + size]
        results = np.zeros((len(block), 3))
        results[:, :2] = block
        got += [x.hex() for x in entanglement._wrapped(results[:, :2]).ravel().tolist()]
        start, size = start + size, size % 64 + 1
    assert got == want


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
        gram = gram_from_delays(tuple(delays), 1.0)
        _assert_bit_equal_to_full_grid(density_matrix_from_spec(spec, gram)[0])


def test_pruned_w_search_is_bit_equal_to_full_grid_along_ghz_amplitude():
    half = 1.0 / math.sqrt(2.0)
    gram = gram_from_delays((0.0, 0.25, 0.5), 1.0)
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


def _reference_report(rho):
    """One state classified as before the stacked search: the GHZ fidelities,
    GHZ phase and off-diagonal norm of the one-matrix expressions, the W
    phases of the whole coarse grid."""
    m = rho.matrix
    v = ghz_state().vector
    f_ghz = min(1.0, max(0.0, float(np.real(v.conj() @ m @ v))))
    f_max = min(1.0, max(0.0, (m[0, 0].real + m[7, 7].real) / 2 + np.abs(m)[7, 0]))
    theta = float(np.angle(m[7, 0] + 0.0))
    phi1, phi2, f_w = _full_grid_w_phases(rho)
    offdiag = float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))
    return [f_ghz, f_max, theta, f_w, phi1, phi2, f_max > 0.5, f_w > 2 / 3, offdiag]


def _report_bits(report):
    return [
        float(x).hex() if isinstance(x, float) else x
        for x in (report.fidelity_ghz, report.fidelity_ghz_max, report.ghz_phase,
                  report.fidelity_w_max, report.phi1, report.phi2, report.ghz_witness_passed,
                  report.w_witness_passed, report.offdiag_norm)
    ] + [report.verdict]


def _mixed_stack(rng, size):
    """GHZ-support, zero-coherence, random, near-tied W-dft and preset states,
    interleaved so every block of the stack holds each kind."""
    third = 2.0 * math.pi / 3.0
    dft = w_preset(dft_tritter_rows())
    makers = [
        lambda: random_density(rng),
        lambda: density_matrix_from_spec(ghz_preset(), GramMatrix.uniform(3, rng.uniform()))[0],
        lambda: DensityMatrix(np.diag(rng.dirichlet(np.ones(8))).astype(complex)),
        lambda: _w_block_state(
            (1 / 3, 1 / 3, 1 / 3),
            *(0.1 * (1.0 + 1e-15 * rng.integers(-2, 3, size=3))
              * np.exp(1j * ((rng.integers(0, 3, size=3) - 1) * third
                             + 1e-15 * rng.integers(-2, 3, size=3)))),
        ),
        lambda: density_matrix_from_spec(dft, GramMatrix.uniform(3, 0.5))[0],
        lambda: density_matrix_from_spec(
            w_preset(balanced_tritter_rows()), GramMatrix.uniform(3, rng.uniform())
        )[0],
    ]
    return [makers[k % len(makers)]() for k in range(size)]


@pytest.mark.parametrize("size", [63, 64, 65, 129])
def test_classify_states_is_bit_equal_to_each_state_alone(size):
    # Blocks hold 64 states, so these stacks end one short of, on, one past
    # and one past two block boundaries.
    states = _mixed_stack(np.random.default_rng(900 + size), size)
    stacked = list(classify_states(states))
    assert len(stacked) == size
    for rho, report in zip(states, stacked):
        assert _report_bits(report) == _report_bits(classify(rho))
        reference = _reference_report(rho)
        assert _report_bits(report)[:9] == [
            x.hex() if isinstance(x, float) else x for x in reference
        ]


def test_classify_states_keeps_every_row_of_w_dft_at_half_overlap(monkeypatch):
    # W-dft at g = 1/2 ties every row bound: the search evaluates all 256 rows
    # again for that state, inside a stack as alone. Below g = 1/2 it ties
    # 4 rows; above it the first row alone can hold the maximum, so no row
    # is evaluated again.
    spec = w_preset(dft_tritter_rows())
    rho = density_matrix_from_spec(spec, GramMatrix.uniform(3, 0.5))[0]
    regrids = []
    w_rows = entanglement._w_rows

    def spy(dc, t12, c14, c24, states, rows):
        if np.ndim(states) == 0:  # the kept rows of one state
            regrids.append((int(states), len(rows)))
        return w_rows(dc, t12, c14, c24, states, rows)

    monkeypatch.setattr(entanglement, "_w_rows", spy)
    rng = np.random.default_rng(905)
    gs = (0.1, 0.3, 0.45, 0.55, 0.8, 1.0)
    others = [density_matrix_from_spec(spec, GramMatrix.uniform(3, g))[0] for g in gs]
    states = [random_density(rng) for _ in range(7)] + [rho] + others
    stacked = list(classify_states(states))
    assert (7, 256) in regrids
    assert [regrid for regrid in regrids if regrid[0] > 7] == [(8, 4), (9, 4), (10, 4)]
    half = stacked[7]
    assert _report_bits(half) == _report_bits(classify(rho))
    assert [x.hex() for x in (half.phi1, half.phi2, half.fidelity_w_max)] == [
        x.hex() for x in _full_grid_w_phases(rho)
    ]


def _nine_point_scan(spec, param):
    """The states of a 9-point scan of ``g`` over [0, 1], or of one delay over
    [-1.5, 2] from delays (0, 0.25, 0.5) and coherence length 1."""
    if param == "g":
        grams = [GramMatrix.uniform(3, g) for g in np.linspace(0.0, 1.0, 9).tolist()]
    else:
        grams = []
        for value in np.linspace(-1.5, 2.0, 9).tolist():
            delays = [0.0, 0.25, 0.5]
            delays[int(param[1]) - 1] = value
            grams.append(gram_from_delays(tuple(delays), 1.0))
    return [density_matrix_from_spec(spec, gram)[0] for gram in grams]


@pytest.mark.parametrize("param", ["g", "L1", "L2", "L3"])
def test_w_balanced_scans_classify_without_a_w_search(monkeypatch, param):
    # Every W-balanced coherence is real and non-negative, with
    # c24 <= c12 + c14, so its scans are answered at (0, 0); W-dft
    # coherences carry phases, so its scans are still searched.
    calls = []
    for name in ("_w_descent", "_w_rows"):
        def spy(*args, name=name, original=getattr(entanglement, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(entanglement, name, spy)
    reports = list(classify_states(_nine_point_scan(w_preset(balanced_tritter_rows()), param)))
    assert any(report.offdiag_norm > 0.0 for report in reports)
    assert not calls
    list(classify_states(_nine_point_scan(w_preset(dft_tritter_rows()), param)))
    assert set(calls) == {"_w_descent", "_w_rows"}


def test_classify_states_refuses_a_state_that_is_not_three_qubits():
    states = [DensityMatrix(np.eye(8) / 8), DensityMatrix(np.eye(4) / 4)]
    with pytest.raises(ValidationError, match="three qubits"):
        list(classify_states(states))


def test_classification_scratch_memory_does_not_grow_with_the_stack():
    # Reports are consumed as they come, so what tracemalloc sees is the
    # scratch of the classification; it must stay that of one block.
    rng = np.random.default_rng(906)
    states = [random_density(rng) for _ in range(64)]
    peaks = {}
    for size in (64, 640):
        stack = states * (size // 64)
        tracemalloc.start()
        try:
            for _ in classify_states(stack):
                pass
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # One block's (64, 256) complex temporaries alone take 256 KiB each.
    assert peaks[64] > 256 * 1024
    assert peaks[640] < peaks[64] + 64 * 1024, peaks


def _exact_w_maximum(matrix):
    """max over (phi1, phi2) of the W fidelity, with no grid and no descent.

    With phi1 fixed, the best phi2 turns c14 e^(i phi2) + c24 e^(i (phi2 -
    phi1)) real, so max F = (d + 2 max h) / 3 with h(phi1) = Re(c12 e^(i
    phi1)) + |c14 + c24 e^(-i phi1)|. h is sampled at 4,096 points, and the
    bracket of each of its four highest sampled peaks is narrowed by golden
    section (h has at most three maxima, and none at a kink of the modulus,
    whose kinks point down)."""
    d = (matrix[1, 1] + matrix[2, 2] + matrix[4, 4]).real
    c12, c14, c24 = (complex(matrix[i, j]) for i, j in ((1, 2), (1, 4), (2, 4)))

    def h(phi):
        return (c12 * complex(math.cos(phi), math.sin(phi))).real + abs(
            c14 + c24 * complex(math.cos(phi), -math.sin(phi)))

    step = 2.0 * math.pi / 4096
    phis = np.arange(4096) * step
    samples = (c12 * np.exp(1j * phis)).real + np.abs(c14 + c24 * np.exp(-1j * phis))
    peaks = np.flatnonzero((samples >= np.roll(samples, 1)) & (samples >= np.roll(samples, -1)))
    best = samples.max()
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for k in peaks[np.argsort(-samples[peaks], kind="stable")[:4]].tolist():
        lo, hi = phis[k] - step, phis[k] + step
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        ha, hb = h(a), h(b)
        for _ in range(60):
            if ha < hb:
                lo, a, ha = a, b, hb
                b = lo + ratio * (hi - lo)
                hb = h(b)
            else:
                hi, b, hb = b, a, ha
                a = hi - ratio * (hi - lo)
                ha = h(a)
        best = max(best, ha, hb)
    return (d + 2.0 * best) / 3.0


def test_w_maximum_meets_an_exact_maximiser():
    # Random states of rank 1, 2 and 8, pure states on the W support, and
    # the presets' 9-point g and L1-L3 scans. Measured on 2,252 such states:
    # at most 0.5 ulp above the exact maximum, 9.4e-13 below it, and 5.6e-16
    # between the reported value and the fidelity at the reported phases.
    rng = np.random.default_rng(1919)
    states = []
    for rank in (1, 2, 8):
        for _ in range(100):
            a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
            m = a @ a.conj().T
            states.append(DensityMatrix(m / np.trace(m).real))
    for _ in range(100):
        v = np.zeros(8, dtype=complex)
        v[[1, 2, 4]] = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        states.append(DensityMatrix(np.outer(v, v.conj())))
    for spec in (ghz_preset(), w_preset(balanced_tritter_rows()), w_preset(dft_tritter_rows())):
        for param in ("g", "L1", "L2", "L3"):
            states += _nine_point_scan(spec, param)
    for rho, report in zip(states, classify_states(states)):
        exact = _exact_w_maximum(rho.matrix)
        assert report.fidelity_w_max <= exact + 4 * math.ulp(1.0)
        assert report.fidelity_w_max >= exact - 2e-12
        at_phases = fidelity_pure(rho, w_state(report.phi1, report.phi2))
        assert abs(at_phases - report.fidelity_w_max) <= 1e-15
