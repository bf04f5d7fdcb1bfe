from __future__ import annotations

import math

import numpy as np
import pytest

from identangle import (
    GHZParams,
    UNUSED,
    Spin,
    TransformSpec,
    UnsupportedConfigurationError,
    ValidationError,
    balanced_ghz_params,
    balanced_tritter_rows,
    custom_spec,
    dft_tritter_rows,
    ghz_preset,
    w_preset,
)

D, U = int(Spin.DOWN), int(Spin.UP)


def test_ghz_preset_structure():
    spec = ghz_preset()
    r = 1.0 / math.sqrt(2.0)
    expected_t = np.array([[r, r, 0], [0, r, r], [r, 0, r]], dtype=complex)
    np.testing.assert_allclose(spec.amplitudes, expected_t, atol=1e-15)
    expected_s = np.array([[D, U, UNUSED], [UNUSED, D, U], [U, UNUSED, D]])
    np.testing.assert_array_equal(spec.spins, expected_s)


def test_ghz_preset_is_not_unitary():
    # The scheme drops unmonitored ports, so the effective matrix cannot be
    # unitary even though every row is normalized.
    t = ghz_preset().amplitudes
    assert not np.allclose(t @ t.conj().T, np.eye(3), atol=1e-6)
    np.testing.assert_allclose(np.sum(np.abs(t) ** 2, axis=1), 1.0, atol=1e-12)


def test_ghz_preset_custom_params():
    params = GHZParams(0.6, 0.8, 0.8, 0.6, 1.0, 0.0)
    spec = ghz_preset(params)
    assert spec.amplitudes[0, 0] == pytest.approx(0.6)
    assert spec.amplitudes[2, 2] == 0.0
    # The closed path loses its spin assignment.
    assert spec.spins[2, 2] == UNUSED


def test_ghz_params_reject_unnormalized_pairs():
    with pytest.raises(ValidationError):
        GHZParams(1.0, 1.0, 0.7, 0.7, 1.0, 0.0)


def test_ghz_deterministic_routing_valid():
    spec = ghz_preset(GHZParams(1.0, 0.0, 1.0, 0.0, 0.0, 1.0))
    assert np.count_nonzero(spec.amplitudes) == 3
    assert (spec.spins[spec.amplitudes == 0] == UNUSED).all()


def test_balanced_ghz_params_helper():
    p = balanced_ghz_params()
    assert p.alpha1 == pytest.approx(1 / math.sqrt(2))


def test_w_preset_structure():
    spec = w_preset(balanced_tritter_rows())
    np.testing.assert_allclose(spec.amplitudes, 1 / math.sqrt(3), atol=1e-15)
    np.testing.assert_array_equal(spec.spins[0], [D, D, D])
    np.testing.assert_array_equal(spec.spins[1], [D, D, D])
    np.testing.assert_array_equal(spec.spins[2], [U, U, U])


def test_w_preset_identity_routing():
    spec = w_preset(np.eye(3))
    assert (spec.spins[spec.amplitudes == 0] == UNUSED).all()
    assert spec.spins[2, 2] == U


def test_w_preset_requires_three_by_three():
    with pytest.raises(ValidationError):
        w_preset(np.eye(2))


def test_dft_tritter_rows_are_unitary():
    t = dft_tritter_rows()
    np.testing.assert_allclose(t @ t.conj().T, np.eye(3), atol=1e-12)
    spec = w_preset(t)  # also passes row normalization
    assert spec.amplitudes.shape == (3, 3)


def test_custom_spec_two_particle_beamsplitter():
    r = 1.0 / math.sqrt(2.0)
    spec = custom_spec([[r, r], [r, r]], [[D, U], [U, D]])
    assert spec.num_particles == 2
    assert spec.amplitudes.shape == spec.spins.shape == (2, 2)


def test_custom_spec_rejects_unnormalized_row():
    with pytest.raises(ValidationError):
        custom_spec([[1.0, 1.0], [1.0, 0.0]], [[D, D], [D, UNUSED]])
    # The tolerance on a row's squared norm is 1e-9, on either side.
    for defect, accepted in ((9e-10, True), (-9e-10, True), (2e-9, False), (-2e-9, False)):
        t = [[math.sqrt(1 + defect), 0.0], [0.0, 1.0]]
        if accepted:
            custom_spec(t, [[D, UNUSED], [UNUSED, D]])
        else:
            with pytest.raises(ValidationError, match="^row 0 of the amplitude matrix"):
                custom_spec(t, [[D, UNUSED], [UNUSED, D]])


@pytest.mark.parametrize("amplitudes,spins", [
    ([1.0], [D]), ([[]], [[]]), (np.zeros((2, 0)), [[], []]),
], ids=["one-dimensional", "empty-row", "no-columns"])
def test_custom_spec_refuses_a_routing_that_is_not_a_nonempty_matrix(amplitudes, spins):
    message = "^amplitude matrix must be 2-dimensional and non-empty"
    with pytest.raises(ValidationError, match=message):
        custom_spec(amplitudes, spins)


def test_custom_spec_rejects_amplitude_too_large_to_square():
    with pytest.raises(ValidationError, match="squared norm inf"):
        custom_spec([[1e200, 0.0], [0.0, 1.0]], [[D, UNUSED], [UNUSED, D]])


def test_custom_spec_rejects_zero_row():
    with pytest.raises(ValidationError):
        custom_spec([[0.0, 0.0], [0.0, 1.0]], [[UNUSED, UNUSED], [UNUSED, D]])


def test_custom_spec_rejects_spin_amplitude_mismatch():
    r = 1.0 / math.sqrt(2.0)
    # Spin assigned on a dead path.
    with pytest.raises(ValidationError):
        custom_spec([[r, r, 0], [0, r, r], [r, 0, r]], np.zeros((3, 3), dtype=int))
    # Path open but marked unused.
    with pytest.raises(ValidationError):
        custom_spec([[r, r], [r, r]], [[D, UNUSED], [D, D]])


def test_custom_spec_rejects_bad_spin_values():
    with pytest.raises(ValidationError):
        custom_spec([[1.0]], [[5]])


@pytest.mark.parametrize("make,message", [
    (lambda: custom_spec([[1.0]], [[0.5]]), "spin matrix entries must be .* got 0.5$"),
    (lambda: custom_spec([[1.0]], [[1.9]]), "spin matrix entries must be .* got 1.9$"),
    (lambda: custom_spec([[1.0]], [[257]]), "spin matrix entries must be .* got 257$"),
    (lambda: custom_spec([[1.0]], [[math.nan]]), "spin matrix entries must be .* got nan$"),
    (lambda: custom_spec([[1.0]], [["up"]]), "spin matrix entries must be .* got 'up'$"),
    (lambda: custom_spec([[1.0]], [[1 + 1j]]), r"spin matrix entries must be .* got \(1\+1j\)$"),
    (lambda: custom_spec([[1.0]], [[10**400]]), "spin matrix entries must be .* got 1000"),
    (lambda: custom_spec([[1.0]], [[U], [U, D]]), "^spin matrix is not a rectangular array"),
    (lambda: custom_spec([[1.0], [1.0, 0.0]], [[U], [U, D]]),
     "^amplitude matrix is not an array of complex numbers"),
    (lambda: custom_spec([[10**400]], [[U]]),
     "^amplitude matrix is not an array of complex numbers"),
    (lambda: w_preset([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),
     "^amplitude matrix is not an array of complex numbers"),
], ids=["truncates-to-down", "truncates-to-up", "wraps-int8", "nan", "text", "complex",
        "huge-int", "ragged-spins", "ragged-amplitudes", "huge-amplitude", "ragged-w-rows"])
def test_entries_the_casts_would_change_or_reject_are_refused(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


@pytest.mark.parametrize("spins", [[[1.0, -1.0], [-1.0, 0.0]],
                                   [[1 + 0j, -1 + 0j], [-1 + 0j, 0j]]], ids=["float", "complex"])
def test_spins_equal_to_an_allowed_value_are_accepted(spins):
    spec = custom_spec(np.eye(2), spins)
    np.testing.assert_array_equal(spec.spins, [[U, UNUSED], [UNUSED, D]])
    assert spec.spins.dtype == np.int8


def test_custom_spec_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        custom_spec([[1.0, 0.0]], [[D]])


def test_spec_arrays_are_read_only():
    spec = ghz_preset()
    with pytest.raises(ValueError):
        spec.amplitudes[0, 0] = 5.0
    with pytest.raises(ValueError):
        spec.spins[0, 0] = U


def routing_stack(points=5, seed=2601):
    """Seeded complex 3x3 routings with random spins, as stacks (P, 3, 3)."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(points, 3, 3)) + 1j * rng.normal(size=(points, 3, 3))
    t /= np.sqrt(np.sum(np.abs(t) ** 2, axis=2))[:, :, None]
    return t, rng.integers(0, 2, size=(points, 3, 3)).astype(np.int8)


def spoil_finite(t, s):
    t[2, 1, 0] = np.nan


def spoil_norm(t, s):
    t[2, 1] *= 1.1


def spoil_zero(t, s):
    t[2, 0, 2] = 0.0


def spoil_unused(t, s):
    s[2, 1, 1] = UNUSED


def spoil_spin(t, s):
    s[2, 2, 0] = 7


@pytest.mark.parametrize("spoil", [spoil_finite, spoil_norm, spoil_zero, spoil_unused, spoil_spin],
                         ids=["non-finite", "row-norm", "zero-with-spin", "unused-path", "spin"])
def test_a_stack_refuses_one_bad_routing_as_the_constructor_does(spoil):
    t, s = routing_stack()
    spoil(t, s)
    with pytest.raises(ValidationError) as alone:
        TransformSpec(t[2], s[2])
    with pytest.raises(ValidationError) as stacked:
        TransformSpec._stack(t, s)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("rows,spin_shape", [(3, (3, 2)), (2, (2, 3))],
                         ids=["spins-differ", "not-square"])
def test_a_stack_of_a_bad_shape_is_refused_as_the_constructor_refuses_each_routing(
    rows, spin_shape
):
    # A stack holds one shape, so every routing has the bad one: spins of a
    # shape the amplitudes do not have, or routings that are not square.
    t, s = routing_stack()
    t = t[:, :rows] / np.sqrt(np.sum(np.abs(t[:, :rows]) ** 2, axis=2))[:, :, None]
    s = s[:, :spin_shape[0], :spin_shape[1]]
    with pytest.raises(ValidationError) as alone:
        TransformSpec(t[0], s[0])
    with pytest.raises(ValidationError) as stacked:
        TransformSpec._stack(t, s)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)
    assert isinstance(stacked.value, UnsupportedConfigurationError) == (rows == 2)


def test_a_stack_raises_for_its_first_routing_that_fails_the_earliest_rule():
    t, s = routing_stack()
    t[1, 0] *= 1.5  # row norm, an earlier routing
    t[3, 2] *= 1.2  # row norm, a later routing
    t[4, 1, 1] = np.inf  # non-finite, the earliest rule
    with pytest.raises(ValidationError, match="^amplitude matrix entries must be finite$"):
        TransformSpec._stack(t, s)
    t[4, 1, 1] = 0.5
    first = r"^row 0 of the amplitude matrix has squared norm 2\.25;"
    with pytest.raises(ValidationError, match=first):
        TransformSpec._stack(t, s)


def test_a_stack_of_one_is_the_constructors_spec_bit_for_bit():
    t, s = routing_stack(points=1)
    t[0, 1, 2] = 0.0
    t[0, 1] /= np.sqrt(np.sum(np.abs(t[0, 1]) ** 2))
    s[0, 1, 2] = UNUSED
    (stacked,) = TransformSpec._stack(t, s)
    alone = TransformSpec(t[0], s[0])
    for held, expected in ((stacked.amplitudes, alone.amplitudes), (stacked.spins, alone.spins)):
        assert held.dtype == expected.dtype and held.shape == expected.shape
        assert held.tobytes() == expected.tobytes()


def test_a_stack_holds_read_only_views_and_leaves_its_input_alone():
    t, s = routing_stack()
    specs = TransformSpec._stack(t, s)
    assert len(specs) == len(t)
    for spec, routing, pattern in zip(specs, t, s):
        assert isinstance(spec, TransformSpec)
        assert not spec.amplitudes.flags.writeable and not spec.spins.flags.writeable
        assert spec.amplitudes.tobytes() == routing.tobytes()
        assert spec.spins.tobytes() == pattern.tobytes()
    t[0, 0, 0] = 5.0
    assert specs[0].amplitudes[0, 0] != 5.0
    with pytest.raises(ValueError):
        specs[1].amplitudes[0, 0] = 5.0
    assert TransformSpec._stack(t[:0], s[:0]) == []
