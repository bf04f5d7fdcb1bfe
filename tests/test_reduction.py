from __future__ import annotations

import functools
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_banded_spec, random_gram, random_row_normalized, random_spec
from identangle import (
    GramMatrix,
    PostselectionImpossibleError,
    Spin,
    UNUSED,
    UnsupportedConfigurationError,
    ValidationError,
    balanced_tritter_rows,
    brute_density_matrix,
    classify,
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
    # A spec is square by construction, so the kernel never meets another shape.
    rng = np.random.default_rng(1)
    for n, m in ((2, 3), (3, 2)):
        with pytest.raises(UnsupportedConfigurationError,
                           match=f"got {n} particles over {m} detectors$"):
            random_spec(rng, n=n, m=m)


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


@pytest.mark.parametrize("amplitude,solved", [
    (complex(math.sqrt(3e-15)), True),
    # |amplitude|^2 rounds to 1e-15, SUCCESS_FLOOR itself, exactly.
    (complex(3.162277660168379e-08, 5e-16), False),
    (complex(math.sqrt(5e-16)), False),
])
def test_a_success_probability_at_or_below_the_floor_is_refused(amplitude, solved):
    # Particle 1 reaches detector 0 only, so particle 0 must reach detector 1:
    # the one outcome has probability |amplitude|^2.
    c = math.sqrt(1 - abs(amplitude) ** 2)
    spec = custom_spec([[c, amplitude], [1, 0]], [[D, U], [D, UNUSED]])
    gram = GramMatrix.fully_indistinguishable(2)
    p_success = amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
    assert (p_success > reduction.SUCCESS_FLOOR) is solved
    if solved:
        assert density_matrix_from_spec(spec, gram)[1] == p_success
    else:
        with pytest.raises(PostselectionImpossibleError, match=f"probability {p_success:.3e}"):
            density_matrix_from_spec(spec, gram)


def test_gram_size_must_match_particle_count():
    with pytest.raises(ValidationError):
        density_matrix_from_spec(GHZ, GramMatrix.fully_indistinguishable(4))


def test_gram_validation_rejects_bad_matrices():
    # Not Hermitian: refused before the Hermitian part is taken, alone or in a stack.
    message = "^Gram matrix is not Hermitian \\(defect 1.000e-01 > 1e-12\\)$"
    with pytest.raises(ValidationError, match=message):
        GramMatrix([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValidationError, match=message):
        GramMatrix._stack(np.array([np.eye(2), [[1.0, 0.5], [0.4, 1.0]]], dtype=complex))
    with pytest.raises(ValidationError):
        GramMatrix([[1.0, 0.0], [0.0, 0.9]])  # diagonal off
    with pytest.raises(ValidationError):
        GramMatrix.uniform(3, -0.9)  # not positive semidefinite
    with pytest.raises(ValidationError, match="Gram matrix must be square"):
        GramMatrix(np.eye(2, 3))
    # Within the unit-diagonal (1e-12) and PSD (1e-9) tolerances an overlap
    # can still exceed 1 + 1e-9, by less than 1e-12: the magnitude rule
    # refuses it there.
    a, x = 1 + 9e-13, 1 + 1e-9 + 5e-13
    with pytest.raises(ValidationError, match="entries must have magnitude at most 1$"):
        GramMatrix([[a, x], [x, a]])


def test_gram_matrices_hold_exactly_hermitian_matrices():
    # Unit-diagonal PSD matrices with Hermitian defects up to 5e-13, which the
    # rule accepts; each is held as its Hermitian part, alone or in a stack.
    rng = np.random.default_rng(441)
    stack = np.array([random_gram(rng, 4).overlaps for _ in range(6)])
    upper = np.triu(rng.uniform(-5e-13, 5e-13, size=stack.shape), k=1)
    stack = stack + upper + 1j * upper
    alone = [GramMatrix(m) for m in stack]
    stacked = GramMatrix._stack(stack.copy())
    assert len(stacked) == len(alone)
    for m, one, many in zip(stack, alone, stacked):
        assert not np.array_equal(m, m.conj().T)
        for held in (one.overlaps, many.overlaps):
            assert np.array_equal(held, held.conj().T)
            assert not held.flags.writeable
            np.testing.assert_allclose(held, m, rtol=0, atol=5e-13)
        assert one.overlaps.tobytes() == many.overlaps.tobytes()


def test_gram_builders_are_held_bit_for_bit():
    values = np.linspace(0.0, 1.0, 17)
    for value, built in zip(values, reduction._uniform_overlaps(3, values)):
        assert GramMatrix.uniform(3, float(value)).overlaps.tobytes() == built.tobytes()
    stacked = GramMatrix._stack(reduction._uniform_overlaps(3, values))
    assert b"".join(g.overlaps.tobytes() for g in stacked) == (
        reduction._uniform_overlaps(3, values).tobytes()
    )
    table = np.array([[0.0, 0.35, 0.8], [0.1, -0.4, 2.0], [0.0, 0.0, 1e-9]])
    for delays, built in zip(table, reduction._delay_overlaps(table, 0.7)):
        assert gram_from_delays(delays, 0.7).overlaps.tobytes() == built.astype(complex).tobytes()
    stacked = GramMatrix._stack(reduction._delay_overlaps(table, 0.7).astype(complex))
    for gram, built in zip(stacked, reduction._delay_overlaps(table, 0.7)):
        assert gram.overlaps.tobytes() == built.astype(complex).tobytes()
    same = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex)
    assert gram_from_labels("abab").overlaps.tobytes() == same.tobytes()
    ones, eye = np.ones((4, 4), complex), np.eye(4, dtype=complex)
    assert GramMatrix.fully_indistinguishable(4).overlaps.tobytes() == ones.tobytes()
    assert GramMatrix.fully_distinguishable(4).overlaps.tobytes() == eye.tobytes()


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
    gram = gram_from_delays((0.0, 0.0, 1.0), 0.5)
    assert gram.overlaps[0, 1] == pytest.approx(1.0)
    expected = math.exp(-((1.0 / 0.5) ** 2))
    assert gram.overlaps[0, 2] == pytest.approx(expected, abs=1e-15)
    assert gram.overlaps[1, 2] == pytest.approx(expected, abs=1e-15)
    np.testing.assert_allclose(np.diag(gram.overlaps), 1.0)


def test_delays_too_far_apart_to_square_give_zero_overlap():
    gram = gram_from_delays((0.0, 1e200, 0.0), 1e-200)
    np.testing.assert_array_equal(gram.overlaps, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])


def test_infinite_delay_is_refused_without_warning():
    with pytest.raises(ValidationError, match="must be finite"):
        gram_from_delays((0.0, math.inf, 0.0), 1.0)


def test_delay_model_validation():
    # Every positive coherence length is one, the smallest subnormal too.
    assert gram_from_delays((0.0, 1.0), 5e-324).overlaps.tolist() == np.eye(2).tolist()
    with pytest.raises(ValidationError):
        gram_from_delays((0.0,), 0.0)
    with pytest.raises(ValidationError):
        gram_from_delays((), 1.0)


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


def test_kernel_is_byte_identical_to_oracle_at_seven_and_eight_particles():
    # Banded routings of three paths per row, wide ones of four (144
    # outcomes at N = 7) and a banded N = 8 routing: the oracle's pair budget
    # admits these, not a dense N = 7 routing.
    rng = np.random.default_rng(408)
    for n, width in ((7, 3), (7, 3), (7, 4), (7, 4), (8, 3)):
        assert_byte_identical(random_banded_spec(rng, n, width), random_gram(rng, n))


@pytest.mark.parametrize(
    "spec", [GHZ, W, w_preset(dft_tritter_rows())], ids=["ghz", "w-balanced", "w-dft"]
)
def test_kernel_is_byte_identical_to_oracle_on_presets(spec):
    for g in np.linspace(0.0, 1.0, 17):
        assert_byte_identical(spec, GramMatrix.uniform(3, g))


def first_principles_density(spec, gram):
    """rho and p_success from the particles' joint state, sharing no overlap
    formula with the kernel or ``brute_force``: G = H^dagger H (by ``eigh``)
    gives hidden vectors h_a = H[:, a]; the postselected state
    sum_sigma prod_i t[i, sigma(i)] (x)_d |s(d)> |h_sigma^-1(d)> puts slot d on
    detector d, and the hidden part is traced out as M M^dagger of its
    (2^N, r^N) reshape."""
    t, s = spec.amplitudes, spec.spins
    n = len(t)
    w, v = np.linalg.eigh(gram.overlaps)
    h = np.sqrt(np.clip(w, 0.0, None))[:, None] * v.conj().T
    state = np.zeros((2,) * n + h.shape[:1] * n, dtype=complex)
    for sigma in itertools.permutations(range(n)):
        amplitude = math.prod(t[i, sigma[i]] for i in range(n))
        if amplitude == 0:
            continue  # an UNUSED path: its spin entry is no spin
        inverse = np.argsort(sigma)
        spins = tuple(int(s[inverse[d], d]) for d in range(n))
        state[spins] += amplitude * functools.reduce(
            np.multiply.outer, [h[:, inverse[d]] for d in range(n)]
        )
    m = state.reshape(2**n, -1)
    raw = m @ m.conj().T
    p_success = float(np.trace(raw).real)
    return raw / p_success, p_success


def random_sparse_spec(rng, n):
    """Random routing whose off-diagonal paths are each zero (UNUSED) with
    probability 1/3; the diagonal keeps one bijection alive."""
    t = random_row_normalized(rng, n, n)
    used = (rng.random((n, n)) > 1.0 / 3.0) | np.eye(n, dtype=bool)
    t = np.where(used, t, 0.0)
    t /= np.sqrt(np.sum(np.abs(t) ** 2, axis=1))[:, None]
    return custom_spec(t, np.where(used, rng.integers(0, 2, size=(n, n)), -1))


def test_kernel_matches_a_first_principles_oracle():
    rng = np.random.default_rng(1500)
    for k in range(30):
        n = 2 + k % 3
        spec = random_sparse_spec(rng, n) if k % 2 else random_spec(rng, n, n)
        gram = random_gram(rng, n)
        rho, p = density_matrix_from_spec(spec, gram)
        expected, p_expected = first_principles_density(spec, gram)
        assert np.abs(rho.matrix - expected).max() <= 1e-12
        assert abs(p - p_expected) <= 1e-12


def test_first_principles_oracle_tells_the_gram_matrix_from_its_transpose():
    # The kernel and brute_force share one index formula, so a transposed G
    # would pass every comparison between them; this oracle catches it.
    rng = np.random.default_rng(1501)
    spec, gram = random_spec(rng, 3, 3), random_gram(rng, 3)
    expected, _ = first_principles_density(spec, gram)
    transposed, _ = density_matrix_from_spec(spec, GramMatrix(gram.overlaps.T))
    assert np.abs(transposed.matrix - expected).max() > 1e-3


def test_kernel_matches_a_first_principles_oracle_at_five_particles_and_on_presets():
    rng = np.random.default_rng(1505)
    cases = [(random_sparse_spec(rng, 5) if k % 2 else random_spec(rng, 5, 5), random_gram(rng, 5))
             for k in range(2)]
    cases += [(spec, GramMatrix.uniform(3, g))
              for spec in (GHZ, W, w_preset(dft_tritter_rows())) for g in (0.0, 0.3, 0.75, 1.0)]
    for spec, gram in cases:
        rho, p = density_matrix_from_spec(spec, gram)
        expected, p_expected = first_principles_density(spec, gram)
        assert np.abs(rho.matrix - expected).max() <= 1e-12
        assert abs(p - p_expected) <= 1e-12


def triad_grams():
    """(r, phi, G): 3 x 3 Gram matrices with |G_ij| = r off the diagonal and
    triad phase arg(G01 G12 G20) = phi, on the PSD points of an (r, phi) grid."""
    for r in np.linspace(0.0, 1.0, 11):
        for phi in np.linspace(-np.pi, np.pi, 13):
            g = np.eye(3, dtype=complex)
            g[0, 1], g[1, 2], g[2, 0] = r * np.exp(1j * phi), r, r
            g[1, 0], g[2, 1], g[0, 2] = np.conj([g[0, 1], g[1, 2], g[2, 0]])
            if np.linalg.eigvalsh(g).min() >= 0.0:
                yield r, phi, GramMatrix(g)


def test_spinless_dft_tritter_success_follows_the_triad_phase():
    # Menssen et al., PRL 118, 153603 (2017): three photons in one internal
    # state on the DFT tritter, postselected on one per output.
    spinless = custom_spec(dft_tritter_rows(), np.full((3, 3), D))
    grid = list(triad_grams())
    assert len(grid) > 60
    for r, phi, gram in grid:
        _, p = density_matrix_from_spec(spinless, gram)
        assert abs(p - (2 / 9 - r**2 / 3 + 4 / 9 * r**3 * math.cos(phi))) <= 1e-12


def test_ghz_fidelity_follows_the_triad_phase():
    for r, phi, gram in triad_grams():
        rho, _ = density_matrix_from_spec(GHZ, gram)
        assert abs(classify(rho).fidelity_ghz - (1 + r**3 * math.cos(phi)) / 2) <= 1e-12


FORWARD_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "forward_pool.npz"


def test_seven_particle_solves_equal_the_stored_benchmark_references():
    # The benchmark's stored solutions of banded and wide N = 7 routings, a
    # seeded draw of 8 of each pool.
    rng = np.random.default_rng(3707)
    with np.load(FORWARD_POOL) as pool:
        for name in ("band7", "wide7"):
            t, s, g, r, p = (pool[f"{name}/{field}"] for field in "tsgrp")
            for k in rng.choice(len(p), size=8, replace=False):
                rho, p_success = density_matrix_from_spec(custom_spec(t[k], s[k]), GramMatrix(g[k]))
                assert rho.matrix.tobytes() == r[k].tobytes()
                assert p_success.hex() == float(p[k]).hex()


@pytest.mark.parametrize("n, width, seed", [
    (3, 3, 0), (3, 3, 1), (4, 4, 0), (4, 4, 1), (5, 5, 0), (5, 5, 1),
    (6, 6, 0), (6, 3, 0), (7, 3, 0), (7, 3, 1), (7, 4, 0), (7, 4, 1),
])
def test_symmetries_of_the_postselected_state(n, width, seed):
    # Relabelling the particles or the phases of their internal states
    # leaves rho alone; relabelling the detectors permutes its qubits;
    # conjugating the amplitudes and overlaps conjugates it; flipping every
    # spin flips every qubit. A band of width n is a dense routing; at N = 7
    # the routings are banded, as a dense solve there takes about 1.5 s.
    rng = np.random.default_rng([n, width, seed])
    spec, g = random_banded_spec(rng, n, width), random_gram(rng, n).overlaps
    t, s = spec.amplitudes, spec.spins

    def solve(t, s, g):
        return density_matrix_from_spec(custom_spec(t, s), GramMatrix(g))[0].matrix

    rho = solve(t, s, g)
    p, q = rng.permutation(n), rng.permutation(n)
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    axes = [*q, *(q + n)]  # new qubit k is old qubit q[k], in ket and bra
    relations = {
        "particles": (solve(t[p], s[p], g[np.ix_(p, p)]), rho),
        "gauge": (solve(t, s, phases[:, None] * g * phases.conj()), rho),
        "detectors": (solve(t[:, q], s[:, q], g),
                      rho.reshape((2,) * 2 * n).transpose(axes).reshape(rho.shape)),
        "conjugate": (solve(t.conj(), s, g.conj()), rho.conj()),
        "spin flip": (solve(t, np.where(s == UNUSED, UNUSED, 1 - s), g), rho[::-1, ::-1]),
    }
    for name, (got, expected) in relations.items():
        assert np.abs(got - expected).max() <= 1e-12, name


def test_kernel_blocks_keep_byte_identity(monkeypatch):
    # 120 outcomes: blocks of 50 pairs fall back to one ket row per step (120
    # steps in 15 bands), blocks of 250 take two (60 steps, again 15 bands).
    # Every step after the first reads the values of its earlier bras from
    # tiles that steps of its own band and of earlier bands set aside.
    rng = np.random.default_rng(407)
    spec, gram = random_spec(rng, 5, 5), random_gram(rng, 5)
    for block in (50, 250):
        monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
        assert_byte_identical(spec, gram)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_mirrored_trace_is_byte_identical_to_oracle(monkeypatch, n):
    # A dense routing keeps all K = n! outcomes. A block of one pair traces
    # one ket row per step (K steps in up to 16 bands); K * ceil(K / 3) pairs
    # give three steps; the default gives one step up to N = 4, two (the cap
    # of half the rows) at N = 5 and 33 in 11 bands at N = 6.
    rng = np.random.default_rng(420 + n)
    spec, gram = random_spec(rng, n, n), random_gram(rng, n)
    count = math.factorial(n)
    assert len(no_bunching_outcomes(spec)) == count
    expected, expected_p = brute_density_matrix(spec, gram)
    for block in (1, count * -(-count // 3), reduction.PAIR_BLOCK):
        monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
        rho, p = density_matrix_from_spec(spec, gram)
        assert rho.matrix.tobytes() == expected.matrix.tobytes()
        assert p == expected_p


def trace_steps(monkeypatch, spec, grams):
    """(kets, bras) of every step of the trace of one call, read off each
    step's amplitude product, whose first factor is (P or 1, kets, 1)."""
    steps = []
    product = reduction._complex_product

    def spied(ar, ai, br, bi):
        if np.ndim(ar) == 3 and ar.shape[2] == 1:
            steps.append((ar.shape[1], br.shape[2]))
        return product(ar, ai, br, bi)

    monkeypatch.setattr(reduction, "_complex_product", spied)
    reduction.density_matrices_from_spec(spec, grams)
    return steps


def test_the_trace_steps_follow_the_pair_block_and_the_mirror_cap(monkeypatch):
    # Dense N = 5 (120 outcomes, 14,400 pairs) takes the cap of half the
    # rows; dense N = 6 (720) takes 16,384 // 720 = 22 ket rows per step; a
    # banded N = 7 routing (31 outcomes, 961 pairs) and a 25-point N = 3 W
    # scan (900 pairs) are under the cap and take one step.
    rng = np.random.default_rng(440)
    dense5, dense6 = random_spec(rng, 5, 5), random_spec(rng, 6, 6)
    assert trace_steps(monkeypatch, dense5, [random_gram(rng, 5)]) == [(60, 120), (60, 60)]
    assert trace_steps(monkeypatch, dense6, [random_gram(rng, 6)]) == [
        (min(22, 720 - k0), 720 - k0) for k0 in range(0, 720, 22)
    ]
    banded = random_banded_spec(rng, 7, 3)
    assert len(no_bunching_outcomes(banded)) == 31
    assert trace_steps(monkeypatch, banded, [random_gram(rng, 7)]) == [(31, 31)]
    scan = [GramMatrix.uniform(3, g) for g in np.linspace(0.0, 1.0, 25)]
    assert trace_steps(monkeypatch, W, scan) == [(6, 6)]


def test_the_trace_drops_each_band_of_set_aside_values_after_its_last_reader():
    # The set-aside values of a dense N = 6 solve peak near a quarter of its
    # 518,400 pairs, 2 MiB at 16 bytes each, and the solve near 4 MiB in
    # all. Bands kept to the end hold about half of them, a peak near 5.5
    # MiB (numpy 2.4.6).
    rng = np.random.default_rng(441)
    spec, gram = random_spec(rng, 6, 6), random_gram(rng, 6)
    density_matrix_from_spec(spec, gram)
    tracemalloc.start()
    try:
        density_matrix_from_spec(spec, gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.75 * 2**20


@pytest.mark.parametrize("block", [600, 1 << 14])
def test_a_scan_traced_in_split_blocks_matches_the_oracle(monkeypatch, block):
    # 8 points of 24 outcomes: 192 pairs per ket row of every point, so a
    # block of 600 takes three ket rows per step (8 steps), and the default,
    # over 4,096 pairs in all, takes the cap of half the rows (2 steps).
    rng = np.random.default_rng(431)
    spec = random_spec(rng, 4, 4)
    grams = [random_gram(rng, 4) for _ in range(8)]
    monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
    batch = reduction.density_matrices_from_spec(spec, grams)
    for (rho, p), gram in zip(batch, grams, strict=True):
        expected, expected_p = brute_density_matrix(spec, gram)
        assert rho.matrix.tobytes() == expected.matrix.tobytes()
        assert p == expected_p


@pytest.mark.parametrize("block", [1, 1 << 14])
def test_mirrored_trace_on_routings_with_no_or_one_outcome(monkeypatch, block):
    monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
    # Both particles reach detector 0 only: no bijection survives.
    dark = custom_spec([[1, 0], [1, 0]], [[D, -1], [D, -1]])
    assert len(no_bunching_outcomes(dark)) == 0
    assert_byte_identical(dark, GramMatrix.uniform(2, 0.5))
    # Each particle goes straight to its own detector: one bijection.
    straight = custom_spec(np.eye(3), [[U, -1, -1], [-1, D, -1], [-1, -1, U]])
    assert len(no_bunching_outcomes(straight)) == 1
    assert_byte_identical(straight, random_gram(np.random.default_rng(432), 3))


def test_a_gram_matrix_hermitian_within_tolerance_is_traced_as_its_hermitian_part(
    monkeypatch,
):
    rng = np.random.default_rng(433)
    spec = random_spec(rng, 5, 5)
    g = np.array(random_gram(rng, 5).overlaps)
    g[1, 3] += 5e-13
    gram = GramMatrix(g)
    assert not np.array_equal(g, g.conj().T)
    assert np.array_equal(gram.overlaps, gram.overlaps.conj().T)
    assert np.abs(gram.overlaps - g).max() == pytest.approx(2.5e-13, rel=1e-3)
    for block in (1, 1 << 14):
        monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
        assert_byte_identical(spec, gram)
