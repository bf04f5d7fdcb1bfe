from __future__ import annotations

import math

import numpy as np
import pytest

from identangle import (
    GHZParams,
    Spin,
    UNUSED,
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
    assert spec.num_modes == 3


def test_custom_spec_two_particle_beamsplitter():
    r = 1.0 / math.sqrt(2.0)
    spec = custom_spec([[r, r], [r, r]], [[D, U], [U, D]])
    assert spec.num_particles == 2
    assert spec.num_modes == 2


def test_custom_spec_rejects_unnormalized_row():
    with pytest.raises(ValidationError):
        custom_spec([[1.0, 1.0], [1.0, 0.0]], [[D, D], [D, UNUSED]])


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


def test_custom_spec_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        custom_spec([[1.0, 0.0]], [[D]])


def test_spec_arrays_are_read_only():
    spec = ghz_preset()
    with pytest.raises(ValueError):
        spec.amplitudes[0, 0] = 5.0
    with pytest.raises(ValueError):
        spec.spins[0, 0] = U
