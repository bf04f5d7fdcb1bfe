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

Only the Gram factor depends on G, so a scan of G over one routing shares
the outcomes: :func:`density_matrices_from_spec` traces a stack of Gram
matrices in one all-or-nothing call, and :func:`density_matrix_from_spec` is
its one-point case.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .density import (
    DensityMatrix,
    _check,
    _complex_array,
    _hermitian_psd,
    _single,
    _validated_stack,
)
from .errors import PostselectionImpossibleError, ValidationError
from .transform import TransformSpec

__all__ = [
    "GRAM_HERMITIAN_TOL",
    "SUCCESS_FLOOR",
    "PAIR_BLOCK",
    "GramMatrix",
    "gram_from_labels",
    "DelayModel",
    "gram_from_delays",
    "NoBunchingOutcomes",
    "no_bunching_outcomes",
    "density_matrices_from_spec",
    "density_matrix_from_spec",
]

GRAM_HERMITIAN_TOL = 1e-12
# Success probabilities at or below this are treated as exact destructive
# interference rather than a usable postselection.
SUCCESS_FLOOR = 1e-15
# (ket, bra) pairs traced per step, in whole ket rows of every point of the
# call; bounds scratch memory while a ket row fits, else a step holds one ket
# row of every point.
PAIR_BLOCK = 1 << 14


def _gram_rule(stack: np.ndarray) -> None:
    """The Hermitian-PSD rule, a unit diagonal and entries of magnitude at most
    1 on a stack (P, n, n); raises as ``density._hermitian_psd``."""
    _hermitian_psd(stack, "Gram matrix", GRAM_HERMITIAN_TOL)
    diag_defect = np.abs(np.diagonal(stack, axis1=1, axis2=2) - 1.0).max(axis=1)
    _check(
        diag_defect, GRAM_HERMITIAN_TOL,
        lambda i: "Gram matrix diagonal must be all ones (a state overlaps itself "
        f"perfectly); max defect {diag_defect[i]:.3e}",
    )
    _check(
        np.abs(stack).max(axis=(1, 2)), 1.0 + 1e-9,
        lambda i: "Gram matrix entries must have magnitude at most 1",
    )


def _uniform_overlaps(n: int, overlaps) -> np.ndarray:
    """Stack (P, n, n) of Gram entries in which every pair of particles shares
    the same overlap, one matrix per entry of ``overlaps``."""
    g = np.empty((len(overlaps), n, n), dtype=complex)
    g[:] = _complex_array(overlaps, "Gram matrix overlap")[:, None, None]
    g[:, range(n), range(n)] = 1.0
    return g


def _delay_overlaps(delays: np.ndarray, coherence_length: float) -> np.ndarray:
    """Stack (P, n, n) of G[i, j] = exp(-((L_i - L_j) / L_c)^2), one matrix per
    row of ``delays`` (P, n)."""
    # A difference too large to represent gives the overlap exp(-inf) = 0; an
    # infinite delay gives NaN, which the Gram rule refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = delays[:, :, None] - delays[:, None, :]
        return np.exp(-((diff / coherence_length) ** 2))


@dataclass(frozen=True)
class GramMatrix:
    """Validated matrix of pairwise overlaps between hidden particle states."""

    overlaps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "overlaps", _single(self.overlaps, "Gram matrix", _gram_rule))

    @classmethod
    def _stack(cls, stack: np.ndarray) -> list["GramMatrix"]:
        """Gram matrices of a stack, validated at once (see density._validated_stack)."""
        return _validated_stack(cls, "overlaps", stack, _gram_rule)

    @property
    def num_particles(self) -> int:
        return self.overlaps.shape[0]

    @classmethod
    def fully_indistinguishable(cls, n: int) -> "GramMatrix":
        """All pairwise overlaps equal to 1."""
        return cls.uniform(n, 1.0)

    @classmethod
    def fully_distinguishable(cls, n: int) -> "GramMatrix":
        """All off-diagonal overlaps equal to 0."""
        return cls.uniform(n, 0.0)

    @classmethod
    def uniform(cls, n: int, overlap: float) -> "GramMatrix":
        """Every pair of particles shares the same real overlap."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValidationError(f"particle count must be an integer of at least 1, got {n!r}")
        return cls(_uniform_overlaps(n, [overlap])[0])


def gram_from_labels(labels: Sequence) -> GramMatrix:
    """Gram matrix of particles that are pairwise identical or orthogonal.

    Particles with equal labels overlap perfectly, particles with different
    labels not at all. ``gram_from_labels(("a", "b", "a"))`` says particles
    0 and 2 are clones while particle 1 is distinguishable from both.
    """
    if not isinstance(labels, Sequence) and np.ndim(labels) != 1:
        raise ValidationError(f"labels must be a sequence, got {labels!r}")
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
        try:
            length = float(self.coherence_length)
            delays = tuple(float(d) for d in self.delays)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"delay model needs real numbers ({exc})") from None
        if not (length > 0.0):
            raise ValidationError(f"coherence length must be positive, got {length}")
        if len(delays) == 0:
            raise ValidationError("need at least one delay")
        object.__setattr__(self, "coherence_length", length)
        object.__setattr__(self, "delays", delays)


def gram_from_delays(model: DelayModel) -> GramMatrix:
    """Overlap matrix G[i, j] = exp(-((L_i - L_j) / L_c)^2)."""
    delays = np.asarray(model.delays, dtype=float)[None]
    return GramMatrix(_delay_overlaps(delays, model.coherence_length)[0])


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

    A TransformSpec is square, so each such routing is a bijection from
    particles to detectors. Routings grow row by row, skipping zero entries
    and taken detectors, so zero-amplitude routings are never built.
    Amplitudes multiply up along the way from complex(1.0), in the oracle's
    order; a routing whose amplitude still underflows to zero is dropped at
    the end.
    """
    n = spec.num_particles
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


def _trace(outcomes: NoBunchingOutcomes, overlaps: np.ndarray) -> np.ndarray:
    """Unnormalized matrices (P, 2^N, 2^N), one per Gram matrix of ``overlaps``
    (P, N, N): the pair sum of :func:`density_matrices_from_spec`."""
    n = outcomes.num_particles
    points = len(overlaps)
    # factor[:, p, d, l, b]: real and imaginary part of G_p[label of bra b at
    # detector d, l] for every ket label l. At d = 0 it is 1 * G_p, since the
    # oracle starts each product from complex(1.0).
    labels = np.ascontiguousarray(outcomes.labels.T)
    g_t = overlaps.swapaxes(1, 2)
    factor = np.array([g_t.real, g_t.imag])[:, :, :, labels].swapaxes(2, 3).copy()
    factor[:, :, 0] = _complex_product(1.0, 0.0, *factor[:, :, 0])

    amp_re, amp_im = outcomes.amplitudes.real, outcomes.amplitudes.imag
    conj_im = -amp_im
    indices = outcomes.indices
    count = len(outcomes)
    dim = 2**n
    raw = np.zeros(points * dim * dim, dtype=complex)
    # Point p's entries start at p * dim^2 of raw. Blocks of whole ket rows
    # keep each point's pairs ket-major, the order the oracle accumulates in;
    # np.add.at adds them in that order.
    offsets = np.arange(0, points * dim * dim, dim * dim)[:, None, None]
    rows = max(1, PAIR_BLOCK // max(points * count, 1))
    for k0 in range(0, count, rows):
        kets = slice(k0, k0 + rows)
        re, im = _complex_product(amp_re[kets, None], amp_im[kets, None], amp_re, conj_im)
        f_re, f_im = factor[:, :, 0, labels[0, kets]]
        for d in range(1, n):
            f_re, f_im = _complex_product(f_re, f_im, *factor[:, :, d, labels[d, kets]])
        value = np.empty(f_re.shape, dtype=complex)
        value.real, value.imag = _complex_product(re, im, f_re, f_im)
        pairs = (offsets + indices[kets, None] * dim) + indices
        np.add.at(raw, pairs.ravel(), value.ravel())
    return raw.reshape(points, dim, dim)


def density_matrices_from_spec(
    spec: TransformSpec, grams: Sequence[GramMatrix]
) -> list[tuple[DensityMatrix, float]]:
    """Postselected density matrix and success probability at each Gram
    matrix of a scan over one routing, in order.

    Partial distinguishability enters only through G, so the routing side --
    the no-bunching outcomes, their label tables and scatter indices -- is
    built once. Each point's matrix sums amp_ket * conj(amp_bra) *
    prod_d G[label_bra(d), label_ket(d)] over every (ket, bra) pair of
    outcomes; all points are traced as one stack, normalized, and validated
    together as DensityMatrix. Pairs are taken ket-major and each product is
    formed from real and imaginary parts in the oracle's factor order, so
    every point is byte-identical to ``brute_density_matrix`` on its own.

    The call is all-or-nothing: it returns every point or raises, when a
    point has a Gram matrix of the wrong size (ValidationError), a vanishing
    success probability (PostselectionImpossibleError, fully destructive
    interference) or a result that is not a density matrix, checked in that
    order over all points.
    """
    if not grams:
        return []
    outcomes = no_bunching_outcomes(spec)
    n = outcomes.num_particles
    for gram in grams:
        if gram.num_particles != n:
            size = gram.num_particles
            raise ValidationError(f"Gram matrix is {size}x{size} but the state has {n} particles")
    raw = _trace(outcomes, np.array([gram.overlaps for gram in grams]))
    p_success = np.trace(raw, axis1=1, axis2=2).real
    values = p_success.tolist()
    for p in values:
        if not p > SUCCESS_FLOOR:
            raise PostselectionImpossibleError(
                "the all-detectors coincidence has probability "
                f"{p:.3e}; nothing survives postselection"
            )
    raw /= p_success[:, None, None]
    return list(zip(DensityMatrix._stack(raw), values))


def density_matrix_from_spec(
    spec: TransformSpec, gram: GramMatrix
) -> tuple[DensityMatrix, float]:
    """Postselected spin-register density matrix and its success probability.

    The one-point case of :func:`density_matrices_from_spec`, byte-identical
    to ``brute_density_matrix``. Raises PostselectionImpossibleError when the
    success probability vanishes (fully destructive interference).
    """
    return density_matrices_from_spec(spec, [gram])[0]
