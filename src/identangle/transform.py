"""Transformation specs: how input particles spread over detector modes.

A transformation takes N identical particles, one per input port, and sends
them onto M spatially separated detectors. It is described by two matrices of
the same shape:

* an amplitude matrix ``t`` where ``t[i, j]`` is the complex amplitude for
  particle ``i`` to reach detector ``j``, and
* a spin matrix ``s`` where ``s[i, j]`` is the internal (spin-1/2-like)
  state the particle carries on that path, ``Spin.DOWN`` or ``Spin.UP``.

Rows of ``t`` are normalized, sum_j |t[i, j]|^2 = 1, because each particle
must end up at some detector. The matrix as a whole is deliberately NOT
required to be unitary: these maps are effective descriptions of a larger
interferometer after dropping unmonitored ports, and the GHZ preset below is
in fact non-unitary. Wherever an amplitude is exactly zero the spin entry is
the sentinel ``UNUSED``, since no particle ever travels that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ValidationError

__all__ = [
    "ROW_NORM_TOL",
    "Spin",
    "UNUSED",
    "TransformSpec",
    "custom_spec",
    "GHZParams",
    "balanced_ghz_params",
    "ghz_preset",
    "w_preset",
    "balanced_tritter_rows",
    "dft_tritter_rows",
]

ROW_NORM_TOL = 1e-9


class Spin(IntEnum):
    """Two-level internal state carried by a particle. DOWN sorts before UP."""

    DOWN = 0
    UP = 1


# Spin-matrix entry for paths with amplitude exactly zero.
UNUSED = -1


def _as_amplitude_matrix(values) -> np.ndarray:
    t = np.array(values, dtype=complex)
    if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
        raise ValidationError(
            f"amplitude matrix must be 2-dimensional and non-empty, got shape {t.shape}"
        )
    if not np.isfinite(t).all():
        raise ValidationError("amplitude matrix entries must be finite")
    return t


def _as_spin_matrix(values) -> np.ndarray:
    s = np.array(values, dtype=np.int8)
    allowed = (s == int(Spin.DOWN)) | (s == int(Spin.UP)) | (s == UNUSED)
    if not allowed.all():
        bad = sorted(set(s[~allowed].tolist()))
        raise ValidationError(
            f"spin matrix entries must be Spin.DOWN, Spin.UP or UNUSED, got {bad}"
        )
    return s


@dataclass(frozen=True)
class TransformSpec:
    """Validated pair of amplitude and spin matrices, shape (n inputs, m detectors).

    Instances are immutable; the wrapped arrays are marked read-only.
    """

    amplitudes: np.ndarray
    spins: np.ndarray

    def __post_init__(self):
        t = _as_amplitude_matrix(self.amplitudes)
        s = _as_spin_matrix(self.spins)
        if t.shape != s.shape:
            raise ValidationError(
                f"amplitude matrix {t.shape} and spin matrix {s.shape} differ in shape"
            )
        # An amplitude too large to square gives an infinite norm, refused below.
        with np.errstate(over="ignore"):
            row_norms = np.sum(np.abs(t) ** 2, axis=1)
        for i, norm in enumerate(row_norms):
            if not abs(norm - 1.0) <= ROW_NORM_TOL:
                raise ValidationError(
                    f"row {i} of the amplitude matrix has squared norm {norm:.12g}; "
                    "each particle must reach the detectors with total probability 1"
                )
        zero = t == 0
        unused = s == UNUSED
        if (zero != unused).any():
            i, j = np.argwhere(zero != unused)[0]
            raise ValidationError(
                f"spin entry ({i}, {j}) must be UNUSED exactly where the amplitude "
                "is zero, and a real spin everywhere else"
            )
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "amplitudes", t)
        object.__setattr__(self, "spins", s)

    @property
    def num_particles(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def num_modes(self) -> int:
        return self.amplitudes.shape[1]


def custom_spec(amplitudes, spins) -> TransformSpec:
    """Build a TransformSpec from arbitrary matrices, running full validation."""
    return TransformSpec(amplitudes, spins)


@dataclass(frozen=True)
class GHZParams:
    """Row amplitudes of the GHZ-generating transformation.

    Each input particle is split over exactly two detectors, so each row is a
    two-component amplitude pair that must be normalized on its own:
    |alpha1|^2 + |alpha2|^2 = 1 and likewise for the beta and gamma pairs.
    """

    alpha1: complex
    alpha2: complex
    beta2: complex
    beta3: complex
    gamma1: complex
    gamma3: complex

    def __post_init__(self):
        pairs = {
            "alpha": (self.alpha1, self.alpha2),
            "beta": (self.beta2, self.beta3),
            "gamma": (self.gamma1, self.gamma3),
        }
        for name, (first, second) in pairs.items():
            # Products, not ** 2: a float power raises OverflowError, a product
            # overflows to inf, which the check below refuses.
            norm = abs(first) * abs(first) + abs(second) * abs(second)
            if not abs(norm - 1.0) <= ROW_NORM_TOL:
                raise ValidationError(
                    f"{name} amplitudes have squared norm {norm:.12g}, expected 1"
                )


def balanced_ghz_params() -> GHZParams:
    """All six amplitudes equal to 1/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return GHZParams(r, r, r, r, r, r)


def ghz_preset(params: GHZParams | None = None) -> TransformSpec:
    """Three-particle scheme whose surviving outcomes form a GHZ-type state.

    Particle 0 reaches detectors 0 and 1, particle 1 reaches 1 and 2, and
    particle 2 reaches 2 and 0, a ring in which every detector is fed by two
    particles. The spin pattern is arranged so that once every detector fires
    exactly once, only the all-down and all-up branches remain.
    """
    p = params if params is not None else balanced_ghz_params()
    t = np.array(
        [
            [p.alpha1, p.alpha2, 0.0],
            [0.0, p.beta2, p.beta3],
            [p.gamma1, 0.0, p.gamma3],
        ],
        dtype=complex,
    )
    d, u = int(Spin.DOWN), int(Spin.UP)
    s = np.array(
        [
            [d, u, UNUSED],
            [UNUSED, d, u],
            [u, UNUSED, d],
        ],
        dtype=np.int8,
    )
    # Degenerate parameter choices (say alpha2 = 0) close a path entirely.
    s = s.copy()
    s[t == 0] = UNUSED
    return TransformSpec(t, s)


def w_preset(rows) -> TransformSpec:
    """Three-particle scheme whose surviving outcomes form a W-type state.

    ``rows`` is the full 3x3 amplitude matrix of a three-port splitter
    (a tritter). The first two particles carry spin down on every path and
    the third carries spin up, so each no-bunching outcome has exactly one
    detector seeing the up spin.
    """
    t = _as_amplitude_matrix(rows)
    if t.shape != (3, 3):
        raise ValidationError(f"w_preset needs a 3x3 amplitude matrix, got {t.shape}")
    d, u = int(Spin.DOWN), int(Spin.UP)
    s = np.array([[d] * 3, [d] * 3, [u] * 3], dtype=np.int8)
    s[t == 0] = UNUSED
    return TransformSpec(t, s)


def balanced_tritter_rows() -> np.ndarray:
    """All-positive balanced three-port splitter: every entry 1/sqrt(3)."""
    return np.full((3, 3), 1.0 / math.sqrt(3.0), dtype=complex)


def dft_tritter_rows() -> np.ndarray:
    """Balanced three-port splitter with discrete-Fourier phases.

    Entry (j, k) is omega^(j*k) / sqrt(3) with omega = exp(2*pi*i/3). Unlike
    the all-positive version this matrix is unitary; the W-type state it
    produces picks up relative phases that a phase search can recover.
    """
    omega = np.exp(2j * np.pi / 3.0)
    j, k = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    return omega ** (j * k) / np.sqrt(3.0)
