"""The no-bunching outcomes: one per detector bijection sigma that the zero
pattern leaves open, with amplitude prod_i t[i, sigma(i)] (an exact 0 where
that product underflows), as the kernel traces them for a run of routings
and as no_bunching_outcomes gives them for a run of one."""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np
import pytest

from conftest import random_spec
from identangle import (
    UNUSED,
    GramMatrix,
    NoBunchingOutcomes,
    PostselectionImpossibleError,
    Spin,
    ValidationError,
    custom_spec,
    density_matrices_from_spec,
    ghz_preset,
    no_bunching_outcomes,
    reduction,
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


def reference_outcomes(spec):
    """Amplitudes, indices and labels by a naive walk: bijections grow row by
    row over the nonzero entries and free detectors, and their amplitudes
    multiply up as Python complex numbers from complex(1.0). A bijection
    whose amplitude underflows to 0 is kept."""
    t, s = spec.amplitudes, spec.spins
    n = len(t)
    routes = [((), complex(1.0))]
    for row in t.tolist():
        routes = [
            (sigma + (j,), amplitude * entry)
            for sigma, amplitude in routes
            for j, entry in enumerate(row)
            if entry != 0 and j not in sigma
        ]
    sigmas = [sigma for sigma, _ in routes]
    indices = [sum(int(s[i, sigma[i]]) << (n - 1 - sigma[i]) for i in range(n)) for sigma in sigmas]
    return (
        np.array([amplitude for _, amplitude in routes], dtype=complex),
        np.array(indices, dtype=np.intp),
        np.argsort(np.array(sigmas, dtype=np.intp).reshape(-1, n), axis=1),
    )


def assert_equals_reference(outcomes, spec):
    for name, expected in zip(("amplitudes", "indices", "labels"), reference_outcomes(spec)):
        got = getattr(outcomes, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        assert got.tobytes() == expected.tobytes(), name


def banded_support(n, width):
    return np.array([[(j - i) % n < width for j in range(n)] for i in range(n)])


def random_support(rng, n):
    """Each path open with probability 1/2; every row keeps one open path."""
    support = rng.random((n, n)) < 0.5
    support[np.arange(n), rng.integers(0, n, size=n)] = True
    return support


def seeded_supports(rng):
    """Zero patterns at N = 1-7: dense (up to N = 6), banded, wide and random."""
    for n in range(1, 8):
        if n <= 6:
            yield np.ones((n, n), dtype=bool)
        yield banded_support(n, min(n, 3))
        yield banded_support(n, min(n, 4))
        for _ in range(3):
            yield random_support(rng, n)


def routing_on(rng, support, kind="complex"):
    """A routing with zero pattern ``support`` and random spins on its open
    paths. "signed-zero" entries are real with a -0.0 imaginary part or
    imaginary with a -0.0 real part; "tiny" puts 1e-200 on about half of the
    open paths, all but one per row, so that a product of two underflows."""
    n = len(support)
    re, im = rng.normal(size=(2, n, n))
    if kind == "signed-zero":
        real = rng.random((n, n)) < 0.5
        re, im = np.where(real, re, -0.0), np.where(real, -0.0, im)
    if kind == "tiny":
        small = support & (rng.random((n, n)) < 0.5)
        small[np.arange(n), np.argmax(support, axis=1)] = False
        re, im = np.where(small, 1e-200 * re, re), np.where(small, 1e-200 * im, im)
    norm = np.sqrt(np.sum(np.where(support, re * re + im * im, 0.0), axis=1))[:, None]
    t = np.zeros((n, n), dtype=complex)
    t.real, t.imag = re / norm, im / norm
    t[~support] = 0.0
    return custom_spec(t, np.where(support, rng.integers(0, 2, size=(n, n)), UNUSED))


def traced_runs(specs):
    """The (labels, indices, amplitudes) of each _trace call of one batch of
    ``specs``. The spy records and traces nothing, so the batch ends in
    PostselectionImpossibleError; the trace is checked against the oracle
    elsewhere."""
    calls = []

    def spy(labels, indices, amplitudes, overlaps, out):
        calls.append((labels, indices, amplitudes.copy()))

    gram = GramMatrix.fully_indistinguishable(specs[0].num_particles)
    with pytest.MonkeyPatch.context() as patch, contextlib.suppress(PostselectionImpossibleError):
        patch.setattr(reduction, "_trace", spy)
        density_matrices_from_spec(specs, [gram])
    return calls


def assert_run_equals_reference(run, specs):
    """One traced run holds the whole walk of each of its routings: labels
    and indices once, and one amplitude row per routing."""
    labels, indices, amplitudes = run
    assert len(amplitudes) == len(specs)
    for row, spec in zip(amplitudes, specs):
        assert_equals_reference(NoBunchingOutcomes(row, indices, labels), spec)


@pytest.mark.parametrize("kind", ["complex", "signed-zero", "tiny"])
def test_outcomes_are_byte_equal_to_a_naive_walk(kind):
    # Each routing alone, then the routings of each zero pattern, given one
    # spin pattern, as one batch: one run, whose amplitudes are one product
    # over the pattern's table.
    rng = np.random.default_rng([3701, len(kind)])
    rows = []
    for support in seeded_supports(rng):
        first, *others = (routing_on(rng, support, kind) for _ in range(3))
        specs = [first] + [custom_spec(spec.amplitudes, first.spins) for spec in others]
        for spec in specs:
            assert_equals_reference(no_bunching_outcomes(spec), spec)
        (run,) = traced_runs(specs)
        assert_run_equals_reference(run, specs)
        rows.append(run[2])
    # The cases reach what they are for: underflowed products were kept as
    # exact zeros, and -0.0 parts reached the nonzero amplitudes.
    zeros = sum(np.count_nonzero(a == 0) for a in rows)
    kept = np.concatenate([a[a != 0] for a in rows])
    parts = np.concatenate([kept.real, kept.imag])
    assert (zeros > 0) == (kind == "tiny")
    assert np.signbit(parts[parts == 0]).any() == (kind == "signed-zero")


def test_no_and_one_outcome_are_byte_equal_to_a_naive_walk():
    dark = custom_spec([[1, 0], [1, 0]], [[D, -1], [D, -1]])
    straight = custom_spec(np.eye(3), [[U, -1, -1], [-1, D, -1], [-1, -1, U]])
    for spec, count in ((dark, 0), (straight, 1)):
        assert len(no_bunching_outcomes(spec)) == count
        assert_equals_reference(no_bunching_outcomes(spec), spec)
        (run,) = traced_runs([spec, spec])
        assert_run_equals_reference(run, [spec, spec])


def test_bijection_tables_are_kept_for_a_bounded_number_of_supports():
    rng = np.random.default_rng(3702)
    bound = reduction._SUPPORTS_KEPT
    supports = {}
    while len(supports) < bound + 4:
        support = random_support(rng, 4)
        supports[support.tobytes()] = support
    reduction._bijections.cache_clear()
    specs = [routing_on(rng, support) for support in supports.values()]
    for spec in specs:
        no_bunching_outcomes(spec)
    info = reduction._bijections.cache_info()
    assert (info.misses, info.currsize) == (bound + 4, bound)
    # The latest supports are kept and not walked again.
    for spec in specs[-bound:]:
        assert_equals_reference(no_bunching_outcomes(spec), spec)
    assert reduction._bijections.cache_info().misses == bound + 4


def test_outcome_arrays_are_read_only():
    # The kernel traces the kept table itself, so it must be read-only too;
    # no_bunching_outcomes hands out that table, an underflowed product or not.
    tiny = routing_on(np.random.default_rng(3703), np.ones((4, 4), dtype=bool), "tiny")
    for spec in (ghz_preset(), tiny):
        outcomes = no_bunching_outcomes(spec)
        ((labels, _, _),) = traced_runs([spec, spec])
        assert labels is outcomes.labels is reduction._bijections(*reduction._support(spec))[0]
        for array in (outcomes.amplitudes, outcomes.indices, outcomes.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
    assert (outcomes.amplitudes == 0).any()


def test_routings_with_one_support_get_their_own_spin_indices():
    rng = np.random.default_rng(3704)
    first = routing_on(rng, np.ones((3, 3), dtype=bool))
    flipped = custom_spec(first.amplitudes, 1 - first.spins)
    a, b = no_bunching_outcomes(first), no_bunching_outcomes(flipped)
    assert a.labels is b.labels
    assert (a.indices + b.indices == 7).all()
    # A spin pattern that changes splits a batch into runs of one table.
    specs = [first, flipped, first]
    runs = traced_runs(specs)
    assert len(runs) == 3
    for run, spec in zip(runs, specs):
        assert run[0] is a.labels
        assert_run_equals_reference(run, [spec])
