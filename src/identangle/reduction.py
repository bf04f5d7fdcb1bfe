"""No-bunching postselection and the partial-distinguishability trace.

Identical particles can still be told apart by degrees of freedom the
detectors never resolve: arrival time, frequency, which source fired. Those
hidden degrees of freedom enter only through their mutual overlaps, collected
in a Gram matrix G with G[i, j] = <d_i|d_j> for the hidden states of input
particles i and j. G is Hermitian with unit diagonal and positive
semidefinite; G = all-ones means fully indistinguishable particles, G = I
means fully distinguishable ones.

Postselection keeps the outcomes in which every detector fires exactly once.
With N particles on N detectors such an outcome is a bijection sigma from
particles to detectors: its amplitude is prod_i t[i, sigma(i)], and detector
d holds particle sigma^-1(d) (its label) with spin s[sigma^-1(d), d]. The
trace pairs every ket outcome with every bra outcome: the pair adds
amp_ket * conj(amp_bra) * prod_d G[label_bra(d), label_ket(d)] to the entry
|spins_ket><spins_bra|, so outcomes whose label patterns overlap poorly lose
their mutual coherence. The trace of the unnormalized result is the
postselection success probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import DensityMatrix
from .errors import (
    PostselectionImpossibleError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .transform import TransformSpec

__all__ = [
    "GRAM_HERMITIAN_TOL",
    "GRAM_PSD_TOL",
    "SUCCESS_FLOOR",
    "PAIR_BLOCK",
    "GramMatrix",
    "gram_from_labels",
    "DelayModel",
    "gram_from_delays",
    "NoBunchingOutcomes",
    "no_bunching_outcomes",
    "density_matrix_from_spec",
]

GRAM_HERMITIAN_TOL = 1e-12
GRAM_PSD_TOL = 1e-9
# Success probabilities at or below this are treated as exact destructive
# interference rather than a usable postselection.
SUCCESS_FLOOR = 1e-15
# (ket, bra) pairs traced per step; bounds the trace's scratch memory.
PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class GramMatrix:
    """Validated matrix of pairwise overlaps between hidden particle states."""

    overlaps: np.ndarray

    def __post_init__(self):
        g = np.array(self.overlaps, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
            raise ValidationError(f"Gram matrix must be square, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValidationError("Gram matrix entries must be finite")
        herm_defect = float(np.max(np.abs(g - g.conj().T)))
        if not herm_defect <= GRAM_HERMITIAN_TOL:
            raise ValidationError(
                f"Gram matrix is not Hermitian (defect {herm_defect:.3e})"
            )
        diag_defect = float(np.max(np.abs(np.diag(g) - 1.0)))
        if not diag_defect <= GRAM_HERMITIAN_TOL:
            raise ValidationError(
                "Gram matrix diagonal must be all ones (a state overlaps itself "
                f"perfectly); max defect {diag_defect:.3e}"
            )
        min_eig = float(np.linalg.eigvalsh(g).min())
        if not min_eig >= -GRAM_PSD_TOL:
            raise ValidationError(
                f"Gram matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})"
            )
        if not (np.abs(g) <= 1.0 + 1e-9).all():
            raise ValidationError("Gram matrix entries must have magnitude at most 1")
        g.setflags(write=False)
        object.__setattr__(self, "overlaps", g)

    @property
    def num_particles(self) -> int:
        return self.overlaps.shape[0]

    @classmethod
    def fully_indistinguishable(cls, n: int) -> "GramMatrix":
        """All pairwise overlaps equal to 1."""
        return cls(np.ones((n, n)))

    @classmethod
    def fully_distinguishable(cls, n: int) -> "GramMatrix":
        """All off-diagonal overlaps equal to 0."""
        return cls(np.eye(n))

    @classmethod
    def uniform(cls, n: int, overlap: float) -> "GramMatrix":
        """Every pair of particles shares the same real overlap."""
        g = np.full((n, n), complex(overlap))
        np.fill_diagonal(g, 1.0)
        return cls(g)


def gram_from_labels(labels: Sequence) -> GramMatrix:
    """Gram matrix of particles that are pairwise identical or orthogonal.

    Particles with equal labels overlap perfectly, particles with different
    labels not at all. ``gram_from_labels(("a", "b", "a"))`` says particles
    0 and 2 are clones while particle 1 is distinguishable from both.
    """
    n = len(labels)
    if n == 0:
        raise ValidationError("need at least one label")
    g = np.array(
        [[1.0 if labels[i] == labels[j] else 0.0 for j in range(n)] for i in range(n)]
    )
    return GramMatrix(g)


@dataclass(frozen=True)
class DelayModel:
    """Relative path delays mapped to overlaps by a Gaussian envelope.

    Two wave packets separated by delay difference dL out of coherence length
    Lc overlap by exp(-(dL/Lc)^2). Delays are in the same length unit as the
    coherence length.
    """

    coherence_length: float
    delays: tuple[float, ...]

    def __post_init__(self):
        if not (self.coherence_length > 0.0):
            raise ValidationError(
                f"coherence length must be positive, got {self.coherence_length}"
            )
        delays = tuple(float(d) for d in self.delays)
        if len(delays) == 0:
            raise ValidationError("need at least one delay")
        object.__setattr__(self, "delays", delays)


def gram_from_delays(model: DelayModel) -> GramMatrix:
    """Overlap matrix G[i, j] = exp(-((L_i - L_j) / L_c)^2)."""
    delays = np.asarray(model.delays, dtype=float)
    diff = delays[:, None] - delays[None, :]
    return GramMatrix(np.exp(-((diff / model.coherence_length) ** 2)))


@dataclass(frozen=True)
class NoBunchingOutcomes:
    """The nonzero-amplitude bijections of a square routing, one row each.

    Rows are in lexicographic order of sigma (particle 0's detector varies
    slowest). ``amplitudes[k]`` is prod_i t[i, sigma_k(i)], ``labels[k, d]``
    the particle sigma_k^-1(d) at detector d, and ``indices[k]`` the basis
    index of the spin pattern read off detector by detector.
    """

    amplitudes: np.ndarray
    indices: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.amplitudes)

    @property
    def num_particles(self) -> int:
        return self.labels.shape[1]


def _complex_product(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as four rounded products and two rounded sums.

    These are the operations of a scalar complex product, so the vectorised
    kernel rounds exactly as the oracle's Python loops do.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def no_bunching_outcomes(spec: TransformSpec) -> NoBunchingOutcomes:
    """Enumerate the routings in which every detector receives one particle.

    Routings grow row by row, skipping zero entries and taken detectors, so
    zero-amplitude routings are never built. Amplitudes multiply up along
    the way from complex(1.0), in the oracle's order; a routing whose
    amplitude still underflows to zero is dropped at the end.
    """
    n = spec.num_particles
    if spec.num_modes != n:
        raise UnsupportedConfigurationError(
            "no-bunching postselection needs as many detectors as particles, got "
            f"{n} particles over {spec.num_modes} detectors"
        )
    routes = [((), complex(1.0))]
    for row in spec.amplitudes.tolist():
        columns = [j for j, entry in enumerate(row) if entry != 0]
        routes = [
            (sigma + (j,), amplitude * row[j])
            for sigma, amplitude in routes
            for j in columns
            if j not in sigma
        ]
    routes = [route for route in routes if route[1] != 0]
    sigma = np.array([route[0] for route in routes], dtype=np.intp).reshape(-1, n)
    amplitudes = np.array([route[1] for route in routes], dtype=complex)

    rows = np.arange(n)
    labels = np.empty_like(sigma)
    labels[np.arange(len(sigma))[:, None], sigma] = rows
    spins = spec.spins[rows, sigma].astype(np.intp)
    indices = (spins << (n - 1 - sigma)).sum(axis=1)
    return NoBunchingOutcomes(amplitudes, indices, labels)


def density_matrix_from_spec(
    spec: TransformSpec, gram: GramMatrix
) -> tuple[DensityMatrix, float]:
    """Postselected spin-register density matrix and its success probability.

    Sums amp_ket * conj(amp_bra) * prod_d G[label_bra(d), label_ket(d)] over
    every (ket, bra) pair of no-bunching outcomes, PAIR_BLOCK pairs at a
    time. Pairs are taken ket-major and each product is formed from real and
    imaginary parts in the oracle's factor order, so the result is
    byte-identical to ``brute_density_matrix``. Raises
    PostselectionImpossibleError when the success probability vanishes
    (fully destructive interference).
    """
    outcomes = no_bunching_outcomes(spec)
    n = outcomes.num_particles
    if gram.num_particles != n:
        raise ValidationError(
            f"Gram matrix is {gram.num_particles}x{gram.num_particles} but the "
            f"state has {n} particles"
        )
    # factor[:, d, l, b]: real and imaginary part of G[label of bra b at
    # detector d, l] for every ket label l. At d = 0 it is 1 * G, since the
    # oracle starts each product from complex(1.0).
    labels = np.ascontiguousarray(outcomes.labels.T)
    g_t = gram.overlaps.T
    factor = np.array([g_t.real, g_t.imag])[:, :, labels].swapaxes(1, 2).copy()
    factor[:, 0] = _complex_product(1.0, 0.0, *factor[:, 0])

    amp_re, amp_im = outcomes.amplitudes.real, outcomes.amplitudes.imag
    conj_im = -amp_im
    indices = outcomes.indices
    count = len(outcomes)
    dim = 2**n
    raw = np.zeros(dim * dim, dtype=complex)
    # Blocks of whole ket rows (or, past PAIR_BLOCK outcomes, pieces of one
    # row) keep the pairs ket-major, the order the oracle accumulates in.
    rows = max(1, PAIR_BLOCK // max(count, 1))
    cols = min(count, PAIR_BLOCK)
    for k0 in range(0, count, rows):
        kets = slice(k0, k0 + rows)
        for b0 in range(0, count, cols):
            bras = slice(b0, b0 + cols)
            re, im = _complex_product(
                amp_re[kets, None], amp_im[kets, None], amp_re[bras], conj_im[bras]
            )
            f_re, f_im = factor[:, 0, labels[0, kets], bras]
            for d in range(1, n):
                f_re, f_im = _complex_product(f_re, f_im, *factor[:, d, labels[d, kets], bras])
            value = np.empty(re.shape, dtype=complex)
            value.real, value.imag = _complex_product(re, im, f_re, f_im)
            np.add.at(raw, (indices[kets, None] * dim + indices[bras]).ravel(), value.ravel())
    raw = raw.reshape(dim, dim)
    p_success = float(np.trace(raw).real)
    if not p_success > SUCCESS_FLOOR:
        raise PostselectionImpossibleError(
            "the all-detectors coincidence has probability "
            f"{p_success:.3e}; nothing survives postselection"
        )
    return DensityMatrix(raw / p_success), p_success
