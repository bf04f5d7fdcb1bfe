"""Shared helpers for building random problem instances."""

from __future__ import annotations

import math
import os

# One BLAS thread, set before numpy is first imported: the suite's matrix
# products are small, and extra threads only add spin time. On a 2-CPU host
# tier-1 took 26.0 s wall and 24.0 s user pinned, against 27.9 s and 31.8 s.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from identangle import DensityMatrix, GramMatrix, TransformSpec, custom_spec  # noqa: E402


def random_row_normalized(rng: np.random.Generator, n: int = 3, m: int = 3) -> np.ndarray:
    """Complex Gaussian matrix with every row normalized to unit power."""
    t = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return t / np.sqrt(np.sum(np.abs(t) ** 2, axis=1))[:, None]


def random_spec(rng: np.random.Generator, n: int = 3, m: int = 3) -> TransformSpec:
    """Random transformation with random spin assignments on every path."""
    t = random_row_normalized(rng, n, m)
    s = rng.integers(0, 2, size=(n, m))
    return custom_spec(t, s)


def random_banded_spec(rng: np.random.Generator, n: int, width: int) -> TransformSpec:
    """Random n x n transformation in which row i reaches only detectors
    i, i + 1, ..., i + width - 1 (mod n); every other path is UNUSED."""
    t = np.zeros((n, n), dtype=complex)
    s = np.full((n, n), -1)
    for i in range(n):
        band = (i + np.arange(width)) % n
        t[i, band] = random_row_normalized(rng, 1, width)[0]
        s[i, band] = rng.integers(0, 2, size=width)
    return custom_spec(t, s)


def random_gram(rng: np.random.Generator, n: int = 3) -> GramMatrix:
    """Random positive semidefinite Gram matrix with unit diagonal.

    Built as a normalized A A^dagger, which makes it an honest Gram matrix of
    n random vectors, so positivity and |entry| <= 1 hold by construction.
    """
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = a @ a.conj().T
    scale = 1.0 / np.sqrt(np.diag(g).real)
    return GramMatrix(g * np.outer(scale, scale))


def random_density(rng: np.random.Generator, dim: int = 8) -> DensityMatrix:
    """Random full-rank density matrix (normalized Wishart)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Particles 0 and 1 meet on a 50:50 splitter with equal spins; particle 2
# goes straight to detector 2. The coincidence vanishes at g = 1 (HOM).
HOM_PLUS_ONE = {
    "preset": "custom",
    "custom": {
        "amplitudes": [[INV_SQRT2, INV_SQRT2, 0], [INV_SQRT2, -INV_SQRT2, 0], [0, 0, 1]],
        "spins": [["down", "down", None], ["down", "down", None], [None, None, "up"]],
    },
    "distinguishability": {"gram": np.eye(3).tolist()},
}


# Counts files with one row-level fault each: id -> (text, line of the faulty
# row, the whole error message about it). A row's setting is checked at its
# first row, before its outcome; its outcome and count at every row.
ROW_FAULT_FILES = {
    "negative-count": (
        "# identangle tomography counts\n# qubits: 1\n# shots_per_setting: 2\n# seed: none\n"
        "# columns: setting outcome count\nX 0 -1\nX 1 1\nY 0 1\nY 1 1\nZ 0 1\nZ 1 1\n",
        6,
        "negative count '-1' for X 0",
    ),
    "two-axis-setting": (
        "# shots_per_setting: 2\nX 0 1\nXY 1 1\nY 0 1\nY 1 1\n",
        3,
        "setting 'XY' has 2 axes, expected 1",
    ),
    "three-bit-outcome": (
        "# qubits: 2\n# shots_per_setting: 2\nXX 00 1\nXX 01 0\nXX 011 1\nXY 00 2\n",
        5,
        "outcome '011' must be a 2-bit string of 0s and 1s",
    ),
    "outcome-of-a-seen-setting": (
        "# shots_per_setting: 2\nXY 00 1\nZZ 00 2\nXY 1 1\n",
        4,
        "outcome '1' must be a 2-bit string of 0s and 1s",
    ),
    "bad-axis-after-valid-rows": (
        "# shots_per_setting: 2\nXY 00 1\nXY 11 1\nXQ 00 2\n",
        4,
        "setting 'XQ' must be a nonempty string over the axes XYZ",
    ),
    "bad-setting-and-outcome": (
        "# shots_per_setting: 2\nXY 00 2\nXYZ 0 2\n",
        3,
        "setting 'XYZ' has 3 axes, expected 2",
    ),
    "non-finite-count-of-a-repeated-row": (
        "# shots_per_setting: 2\nZ 0 1\nZ 1 1\nZ 0 inf\n",
        4,
        "non-finite count 'inf'",
    ),
}
