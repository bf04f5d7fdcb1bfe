"""The abstract's decay claim, read off the kernel: as the particles become
more distinguishable, the entanglement it makes decays toward full
separability. Entanglement is measured here by the partial-transpose
negativity of each one-particle cut (Peres, PRL 77, 1413 (1996)), an
entanglement monotone (Vidal & Werner, PRA 65, 032314 (2002)), so a rise
along a path of growing distinguishability could not come from LOCC alone.

The claim holds along every GHZ path and along the W presets' L3 and the
W-balanced g path. It does not hold everywhere: a W state whose spin-down
particle is delayed keeps half the pure-W negativity on every cut, and the
W-dft state is separable at g = 1/2 and entangled on both sides of it.

Each path is 101 points, solved as one batch."""

from __future__ import annotations

import math

import numpy as np
import pytest

from identangle import (
    GramMatrix,
    balanced_tritter_rows,
    density_matrices_from_spec,
    dft_tritter_rows,
    ghz_preset,
    gram_from_delays,
    w_preset,
)

PRESETS = {
    "ghz": ghz_preset(),
    "w-balanced": w_preset(balanced_tritter_rows()),
    "w-dft": w_preset(dft_tritter_rows()),
}
# Overlap g from fully distinguishable to indistinguishable, and a delay
# from 0 to 3 coherence lengths with the other two particles at 0.
G_GRID = np.linspace(0.0, 1.0, 101)
DELAY_GRID = np.linspace(0.0, 3.0, 101)
# Half the negativity of the pure W state, sqrt(2) / 3, on every cut.
HALF_W = math.sqrt(2.0) / 6.0


def cut_negativities(matrices: np.ndarray) -> np.ndarray:
    """Negativity (P, 3) of each one-qubit cut of a stack (P, 8, 8) of
    three-qubit states: the summed magnitude of the negative eigenvalues of
    the state transposed on that qubit (detector 0 is the most significant
    bit of a basis index)."""
    qubits = matrices.reshape(-1, 2, 2, 2, 2, 2, 2)
    values = []
    for k in range(3):
        transposed = qubits.swapaxes(1 + k, 4 + k).reshape(-1, 8, 8)
        eigenvalues = np.linalg.eigvalsh(transposed)
        values.append(-np.minimum(eigenvalues, 0.0).sum(axis=1))
    return np.stack(values, axis=1)


def path_negativities(preset: str, param: str, grid=None) -> np.ndarray:
    """Cut negativities (P, 3) along one path, solved as one batch: ``g``
    over G_GRID or delay ``L1``-``L3`` over DELAY_GRID (or ``grid``)."""
    if param == "g":
        grams = [GramMatrix.uniform(3, float(g)) for g in (G_GRID if grid is None else grid)]
    else:
        index = int(param[1]) - 1
        grid = DELAY_GRID if grid is None else grid
        grams = [gram_from_delays(np.eye(3)[index] * value, 1.0) for value in grid.tolist()]
    solutions = density_matrices_from_spec(PRESETS[preset], grams)
    return cut_negativities(np.array([rho.matrix for rho, _ in solutions]))


@pytest.mark.parametrize("preset,param", [
    ("ghz", "g"), ("ghz", "L1"), ("ghz", "L2"), ("ghz", "L3"),
    ("w-balanced", "g"), ("w-balanced", "L1"), ("w-balanced", "L2"), ("w-balanced", "L3"),
    ("w-dft", "L3"),
])
def test_the_smallest_cut_negativity_never_rises_with_distinguishability(preset, param):
    smallest = path_negativities(preset, param).min(axis=1)
    # Distinguishability grows as g falls and as a delay grows.
    along = smallest[::-1] if param == "g" else smallest
    assert (np.diff(along) <= 1e-12).all()
    assert along[0] > 0.2


@pytest.mark.parametrize("preset,param", [
    ("ghz", "g"), ("ghz", "L1"), ("ghz", "L2"), ("ghz", "L3"), ("w-balanced", "g"),
    ("w-balanced", "L3"), ("w-dft", "g"), ("w-dft", "L3"),
])
def test_the_far_end_of_a_decaying_path_is_ppt_on_every_cut(preset, param):
    # Fully distinguishable (g = 0), or one particle delayed by 10 coherence
    # lengths: no cut keeps a negativity above rounding.
    far = np.array([0.0 if param == "g" else 10.0])
    assert path_negativities(preset, param, far).max() <= 1e-16


def test_ghz_decays_as_g_cubed_to_full_separability():
    # GHZ negativity is g^3 / 2 on every cut along g, 0 when the particles
    # are fully distinguishable.
    negativities = path_negativities("ghz", "g")
    np.testing.assert_allclose(negativities, np.repeat(G_GRID[:, None] ** 3 / 2, 3, axis=1),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("param", ["L1", "L2"])
def test_w_with_a_spin_down_particle_delayed_keeps_half_the_pure_w_negativity(param):
    # Delaying a spin-down particle by 10 coherence lengths leaves the two
    # outcomes that swap the spin-down particles coherent: every cut keeps
    # sqrt(2) / 6, half the pure W value.
    (far,) = path_negativities("w-balanced", param, np.array([10.0]))
    assert np.abs(far - HALF_W).max() <= 1e-15


def test_w_dft_is_separable_at_half_overlap_and_entangled_on_both_sides():
    # The W-dft coherence goes as g^2 (2g - 1) / 27, which vanishes at g = 1/2:
    # there the state is diagonal in the product basis, a mixture of product
    # states, and no cut is negative.
    ((rho, _),) = density_matrices_from_spec(PRESETS["w-dft"], [GramMatrix.uniform(3, 0.5)])
    assert np.abs(rho.matrix - np.diag(rho.matrix.diagonal())).max() < 1e-16
    at = path_negativities("w-dft", "g", np.array([0.45, 0.5, 0.55])).min(axis=1)
    assert at[1] < 1e-16
    assert at[0] == pytest.approx(0.0053, abs=5e-5)
    assert at[2] == pytest.approx(0.0084, abs=5e-5)


def test_w_dft_along_a_spin_down_delay_dips_then_rises():
    # Along L1 the smallest-cut negativity has an interior minimum near 0.64
    # coherence lengths, then rises to half the pure-W value at 3.
    smallest = path_negativities("w-dft", "L1").min(axis=1)
    low = int(smallest.argmin())
    assert abs(DELAY_GRID[low] - 0.64) <= 0.03
    assert smallest[low] == pytest.approx(0.1543, abs=1e-4)
    assert smallest[0] > smallest[low] < smallest[-1]
    assert smallest[-1] == pytest.approx(HALF_W, abs=1e-4)
