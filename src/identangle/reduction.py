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
d holds particle sigma^-1(d) (its label) with spin s[sigma^-1(d), d]. Which
bijections are open depends only on the zero pattern of t, so they are walked
once per pattern and kept in a small cache; each routing then gathers its
entries over that table and multiplies its amplitudes up as arrays, in the
oracle's order and with its roundings.

The trace pairs every ket outcome with every bra outcome: the pair adds
amp_ket * conj(amp_bra) * prod_d G[label_bra(d), label_ket(d)] to the entry
|spins_ket><spins_bra|, so outcomes whose label patterns overlap poorly lose
their mutual coherence. The trace of the unnormalized result is the
postselection success probability.

A scan solves all its points in one all-or-nothing call,
:func:`density_matrices_from_spec`, whose one-point case is
:func:`density_matrix_from_spec`. A point is a routing and a Gram matrix. A
scan of G keeps one routing, so its points share the outcomes and are traced
as one stack of Gram matrices. A scan of a routing amplitude keeps G; its
routings come validated as one stack. The kernel traces runs of consecutive
routings with one zero pattern and one spin pattern. A run takes the labels
of its pattern's table, the basis indices of its spins once, and one
amplitude row per point from one product over the table; an amplitude of
exactly 0 or 1 changes the zero pattern and starts a new run. A product that
underflows to 0 stays in its run as an exact zero. Its pairs add zeros of
either sign, and a sum that starts from +0 never holds -0, so they leave
every entry as it was: the oracle, which skips those pairs, gets the same
bits. :func:`no_bunching_outcomes` gives the run of one routing, so it has
one outcome per open bijection too, an underflowed product as an exact 0.

Since G is Hermitian, the (bra, ket) term is the complex conjugate of the
(ket, bra) term, and the kernel computes only one of each such pair. Both
terms are formed from the same rounded products up to sign, so the conjugate
is exact once G is exactly Hermitian: :class:`GramMatrix` checks its input
and then holds the Hermitian part (G + G^H) / 2, which equals the input for
every exactly Hermitian G.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix, _check, _complex_array, _hermitian_psd, _made, _square
from .errors import PostselectionImpossibleError, ValidationError
from .transform import TransformSpec

__all__ = [
    "GRAM_HERMITIAN_TOL",
    "SUCCESS_FLOOR",
    "PAIR_BLOCK",
    "GramMatrix",
    "gram_from_labels",
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
# row of every point. Memory trade-off: the values that steps set aside for
# later steps (see _trace) peak a little above a quarter of all pairs, at 16
# bytes each: 2.4 MiB at dense N = 6 (720 outcomes). ru_maxrss of one dense
# N = 7 solve (5,040 outcomes) went from 48 to 156 MiB, and that of a
# 100,000-step w-dft g scan from 420 to 410 MiB.
PAIR_BLOCK = 1 << 14
# From this many pairs in a call on, a step holds at most half the ket rows,
# so that later steps take mirrored values. With the cap, in the benchmark's
# forward loop, a dense N = 5 solve (14,400 pairs) took 1.5-1.7 ms and no
# page faults against 1.9-2.0 ms and 193 faults, and a wide N = 7 solve
# (20,736 pairs) 3.1 against 3.8 ms. Below this the extra step costs more
# than it saves: capped, the trace alone ran about 2x slower at banded N = 7
# (961 pairs) and 1.4-1.8x at dense N = 3 and 4 and on 9- and 25-point N = 3
# scans (36 to 900 pairs). A quarter-row cap ran 16-27% slower than half.
_MIRROR_PAIRS = 1 << 12


def _gram_rule(stack: np.ndarray) -> None:
    """The Hermitian-PSD rule, a unit diagonal and entries of magnitude at most
    1 on a stack (P, n, n); raises as ``density._hermitian_psd``."""
    _hermitian_psd(stack, "Gram matrix", GRAM_HERMITIAN_TOL)
    diag_defect = np.abs(stack.diagonal(axis1=1, axis2=2) - 1.0).max(axis=1)
    _check(
        diag_defect, GRAM_HERMITIAN_TOL,
        lambda i: "Gram matrix diagonal must be all ones (a state overlaps itself "
        f"perfectly); max defect {diag_defect[i]:.3e}",
    )
    _check(
        np.abs(stack).max(axis=(1, 2)), 1.0 + 1e-9,
        lambda i: "Gram matrix entries must have magnitude at most 1",
    )


def _hermitian_part(stack: np.ndarray) -> np.ndarray:
    """Read-only (G + G^H) / 2 of every matrix G of a stack (P, n, n), which is
    exactly Hermitian: entries (i, j) and (j, i) sum the same two numbers. For
    an exactly Hermitian G the sum doubles each entry and the halving undoes
    it, both exactly, so G comes back value for value (a real symmetric G bit
    for bit)."""
    held = stack + stack.conj().swapaxes(1, 2)
    held *= 0.5
    held.setflags(write=False)
    return held


def _uniform_overlaps(n: int, overlaps) -> np.ndarray:
    """Stack (P, n, n) of Gram entries in which every pair of particles shares
    the same overlap, one matrix per entry of ``overlaps``."""
    g = np.empty((len(overlaps), n, n), dtype=complex)
    g[:] = _complex_array(overlaps, "Gram matrix overlap")[:, None, None]
    g[:, range(n), range(n)] = 1.0
    return g


def _delay_overlaps(delays: np.ndarray, coherence_length: float) -> np.ndarray:
    """Complex stack (P, n, n) of G[i, j] = exp(-((L_i - L_j) / L_c)^2), one
    matrix per row of ``delays`` (P, n)."""
    # A difference too large to represent gives the overlap exp(-inf) = 0; an
    # infinite delay gives NaN, which the Gram rule refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = delays[:, :, None] - delays[:, None, :]
        return np.exp(-((diff / coherence_length) ** 2)).astype(complex)


@dataclass(frozen=True)
class GramMatrix:
    """Validated matrix of pairwise overlaps between hidden particle states."""

    overlaps: np.ndarray

    def __post_init__(self):
        vars(self).update(vars(self._stack(_square(self.overlaps, "Gram matrix"))[0]))

    @classmethod
    def _stack(cls, stack: np.ndarray) -> list["GramMatrix"]:
        """Gram matrices of a complex stack (P, n, n), validated at once; each
        holds the Hermitian part of its matrix."""
        with np.errstate(over="ignore", invalid="ignore"):
            _gram_rule(stack)
        return _made(cls, _hermitian_part(stack))

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


def gram_from_delays(delays: Sequence, coherence_length: float) -> GramMatrix:
    """Overlap matrix G[i, j] = exp(-((L_i - L_j) / L_c)^2) of relative path
    delays L_i under a Gaussian envelope of coherence length L_c, in the same
    length unit: two wave packets separated by dL overlap by exp(-(dL/L_c)^2)."""
    try:
        length = float(coherence_length)
        table = np.array([[float(d) for d in delays]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"delay model needs real numbers ({exc})") from None
    if not (length > 0.0):
        raise ValidationError(f"coherence length must be positive, got {length}")
    if table.size == 0:
        raise ValidationError("need at least one delay")
    return GramMatrix(_delay_overlaps(table, length)[0])


@dataclass(frozen=True)
class NoBunchingOutcomes:
    """The bijections that a square routing's zero pattern leaves open, one
    row each.

    Rows are in lexicographic order of sigma (particle 0's detector varies
    slowest). ``amplitudes[k]`` is prod_i t[i, sigma_k(i)], an exact 0 where
    that product underflows, ``labels[k, d]`` the particle sigma_k^-1(d) at
    detector d, and ``indices[k]`` the basis index of the spin pattern read
    off detector by detector. The arrays are read-only: ``labels`` is the
    bijection table walked once for the zero pattern, shared by every
    routing with that pattern.
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
    kernel rounds exactly as the oracle's Python loops do. The sums are taken
    in place, which saves two temporaries and changes no bit.
    """
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    return re, im


# Zero patterns whose bijection tables are kept (see _bijections). A table of
# K bijections of n particles holds three intp arrays of n K entries, about
# 24 n K bytes: 0.8 MiB for a dense N = 7 routing (K = 5,040), so the kept
# tables take at most 13 MiB up to N = 7. A dense N = 8 table takes 7.4 MiB,
# but the trace of its 1.6e9 pairs is far out of reach.
_SUPPORTS_KEPT = 16


@functools.lru_cache(maxsize=_SUPPORTS_KEPT)
def _bijections(n: int, support: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the K bijections sigma that an n x n zero pattern
    leaves open, in lexicographic order of sigma, and the place values of
    the n detectors' spins in a basis index:
    - labels (K, n): labels[k, d] is the particle sigma_k^-1(d);
    - the flat indices i n + sigma_k(i) of their routing entries (n, K);
    - the flat indices labels[k, d] n + d of their spins (n, K), detector
      by detector;
    - the place values 2^(n - 1 - d) (n,).

    ``support`` is the bytes of the boolean matrix t != 0. Bijections grow
    row by row, skipping closed entries and taken detectors, so bijections
    through a closed path are never built.
    """
    routes = [()]
    for row in np.frombuffer(support, dtype=bool).reshape(n, n).tolist():
        columns = [j for j, entry in enumerate(row) if entry]
        routes = [sigma + (j,) for sigma in routes for j in columns if j not in sigma]
    sigma = np.array(routes, dtype=np.intp).reshape(-1, n).T.copy()
    rows = np.arange(n)[:, None]
    labels = np.empty(sigma.shape[::-1], dtype=np.intp)
    labels[np.arange(len(labels)), sigma] = rows
    tables = labels, rows * n + sigma, labels.T * n + rows, 1 << rows[::-1, 0]
    for table in tables:
        table.setflags(write=False)
    return tables


def _support(spec: TransformSpec) -> tuple[int, bytes]:
    """The key of a routing's bijection table: its size and zero pattern."""
    return spec.num_particles, spec.amplitudes.astype(bool).tobytes()


def _products(entries: np.ndarray) -> np.ndarray:
    """Complex products over the first axis of ``entries`` (n, ...), taken
    from 1 + 0i in order, each step with the four roundings and two sums of
    a scalar complex product: bit-equal to the oracle's Python products,
    which start from complex(1.0)."""
    re, im = 1.0, 0.0
    for row in entries:
        re, im = _complex_product(re, im, row.real, row.imag)
    product = np.empty(re.shape, dtype=complex)
    product.real, product.imag = re, im
    return product


def _run_outcomes(
    support: tuple[int, bytes], specs: Sequence[TransformSpec]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcomes of a run of routings with the zero pattern ``support``
    (see :func:`_support`) and one spin pattern: the labels (K, n) of the
    pattern's table, the basis indices (K,) of the run's spin pattern, and
    one amplitude row (P, K) per routing, formed as one product over the
    stacked entries. A product that underflowed is an exact 0 in its row."""
    labels, flat, placed, values = _bijections(*support)
    # Gathered (n, P K): entry [i, p K + k] is that of bijection k on row i
    # of routing p. numpy runs an operation on one-dimensional rows with less
    # overhead than on (P, K) ones: the amplitudes of one banded N = 7
    # routing took 26 against 38 us (numpy 2.4.6).
    t = np.array([spec.amplitudes for spec in specs]).reshape(len(specs), -1)
    entries = t.take(flat, axis=1).swapaxes(0, 1).reshape(len(flat), -1)
    amplitudes = _products(entries).reshape(len(specs), -1)
    return labels, values @ specs[0].spins.take(placed), amplitudes


def no_bunching_outcomes(spec: TransformSpec) -> NoBunchingOutcomes:
    """Enumerate the routings in which every detector receives one particle.

    A TransformSpec is square, so each such routing is a bijection from
    particles to detectors. The bijections that the routing's zero pattern
    leaves open are walked once per pattern, row by row over open entries
    and free detectors, and kept in a small cache. Each call gathers its
    entries over that table and multiplies the amplitudes up from
    complex(1.0) in row order, with the roundings of Python's complex
    multiply, so they are bit-equal to the oracle's. These are the outcomes
    the kernel traces for a run of one routing: a bijection whose amplitude
    underflows is kept, as an exact 0. The arrays are read-only.
    """
    labels, indices, (amplitudes,) = _run_outcomes(_support(spec), [spec])
    for array in (indices, amplitudes):
        array.setflags(write=False)
    return NoBunchingOutcomes(amplitudes, indices, labels)


def _trace(labels: np.ndarray, indices: np.ndarray, amplitudes: np.ndarray,
           overlaps: np.ndarray, out: np.ndarray) -> None:
    """Adds the pair sum of :func:`density_matrices_from_spec` of every point
    into ``out`` (P, 2^N, 2^N), a C-contiguous stack.

    Every point has the K outcomes with labels ``labels`` (K, N) and basis
    indices ``indices`` (K,); point p has amplitude row p of ``amplitudes``
    (P or 1 rows of K) and Gram matrix p of ``overlaps`` (P or 1 of N x N);
    a stack of one serves every point. An amplitude may be an exact 0: its
    pairs add zeros, which leave every sum as it was. Each
    Gram matrix must be exactly Hermitian, as ``GramMatrix`` holds it.
    Then the value of the pair (ket b, bra k) equals the conjugate of the
    value of (ket k, bra b): the amplitude and Gram products of the two
    differ only in the signs of their imaginary inputs, and rounding is
    symmetric in sign. So a step, a run of whole ket rows, computes values
    only for the bras from its own first ket on. The values of earlier bras
    it takes, conjugated, from tiles that earlier steps set aside, and it
    hands every pair of its rows to ``np.add.at`` in ket-major order, so the
    sums are the oracle's, bit for bit. (A zero may come out with the other
    sign; no sum that starts from +0 can tell.)
    """
    count, n = labels.shape
    points = len(out)
    # factor[:, p, d, l, b]: real and imaginary part of G_p[label of bra b at
    # detector d, l] for every ket label l. The oracle's products start from
    # complex(1.0); 1 * G_p only flips zero signs, so it is left out (see above).
    labels = np.ascontiguousarray(labels.T)
    g_t = overlaps.swapaxes(1, 2)
    factor = np.array([g_t.real, g_t.imag])[:, :, :, labels].swapaxes(2, 3).copy()

    amp_re, amp_im = amplitudes.real, amplitudes.imag
    conj_im = -amp_im
    dim = 2**n
    raw = out.reshape(-1)
    # Point p's entries start at p * dim^2 of raw. Blocks of whole ket rows
    # keep each point's pairs ket-major, the order the oracle accumulates in;
    # np.add.at adds them in that order.
    offsets = np.arange(0, points * dim * dim, dim * dim)[:, None, None]
    rows = max(1, PAIR_BLOCK // max(points * count, 1))
    if points * count * count >= _MIRROR_PAIRS:
        rows = min(rows, max(1, count // 2))
    starts = range(0, count, rows)
    # Steps are grouped into at most 16 bands of whole steps, so a step moves
    # set-aside values in one array operation per band, not per earlier step.
    # tiles[j0][i0][:, b - j0, k - i0] holds conj(value of ket k, bra b) for k
    # in the band at i0, b in the band at j0 and k < b; the steps of the band
    # at j0 read them, and the tiles are dropped after its last step.
    band = rows * -(-len(starts) // 16)
    tiles = defaultdict(dict)
    for k0 in starts:
        k1 = min(k0 + rows, count)
        kets, bras = slice(k0, k1), slice(k0, None)
        re, im = _complex_product(
            amp_re[:, kets, None], amp_im[:, kets, None], amp_re[:, None, bras],
            conj_im[:, None, bras],
        )
        f_re, f_im = factor[:, :, 0, :, bras].take(labels[0, kets], axis=2)
        for d in range(1, n):
            f_d = factor[:, :, d, :, bras].take(labels[d, kets], axis=2)
            f_re, f_im = _complex_product(f_re, f_im, *f_d)
        value = np.empty((points, k1 - k0, count), dtype=complex)
        upper = value[:, :, bras]
        upper.real, upper.imag = _complex_product(re, im, f_re, f_im)
        j0 = k0 - k0 % band
        for i0, tile in tiles[j0].items():
            stop = min(i0 + band, k0)
            value[:, :, i0:stop] = tile[:, k0 - j0:k1 - j0, :stop - i0]
        for m0 in range(j0, count, band):
            lo, hi = max(k1, m0), min(m0 + band, count)
            if lo < hi:
                if j0 not in tiles[m0]:
                    tiles[m0][j0] = np.empty((points, hi - m0, min(band, count - j0)), complex)
                mirror = tiles[m0][j0][:, lo - m0:, k0 - j0:k1 - j0]
                np.conjugate(value[:, :, lo:hi].swapaxes(1, 2), out=mirror)
        if k1 == min(j0 + band, count):
            del tiles[j0]
        pairs = (offsets + indices[kets, None] * dim) + indices
        np.add.at(raw, pairs.ravel(), value.ravel())


def density_matrices_from_spec(
    spec: TransformSpec | Sequence[TransformSpec], grams: Sequence[GramMatrix]
) -> list[tuple[DensityMatrix, float]]:
    """Postselected density matrix and success probability at each point of
    a scan, in order.

    A point is a routing and a Gram matrix. ``spec`` is one routing for
    every point or a sequence of one routing per point, and ``grams`` a
    sequence of one Gram matrix per point or of one for every point: P
    points take 1 or P of each. Each point's matrix sums amp_ket *
    conj(amp_bra) * prod_d G[label_bra(d), label_ket(d)] over every (ket,
    bra) pair of its outcomes. Consecutive points whose routings share the
    zero pattern and the spins are traced as one stack over the pattern's
    bijections, those whose amplitude underflowed to 0 included (their pairs
    add nothing); then all points are normalized and
    validated together as DensityMatrix. Pairs are taken ket-major and each
    product is formed from real and imaginary parts in the oracle's factor
    order, so every point is byte-identical to ``brute_density_matrix`` on
    its own.

    The call is all-or-nothing: it returns every point or raises, when the
    routings or Gram matrices are neither 1 nor P, the routings differ in
    particle count, or a point has a Gram matrix of the wrong size
    (ValidationError), a vanishing success probability
    (PostselectionImpossibleError, fully destructive interference) or a
    result that is not a density matrix, checked in that order over all
    points.
    """
    specs = [spec] if isinstance(spec, TransformSpec) else list(spec)
    if not specs or not grams:
        return []
    points = max(len(specs), len(grams))
    if {len(specs), len(grams)} - {1, points}:
        raise ValidationError(
            f"a batch takes 1 or P routings and Gram matrices, got {len(specs)} and {len(grams)}"
        )
    n = specs[0].num_particles
    for other in specs:
        if other.num_particles != n:
            raise ValidationError(
                f"the routings of a batch have {n} and {other.num_particles} particles"
            )
    for gram in grams:
        if gram.num_particles != n:
            size = gram.num_particles
            raise ValidationError(f"Gram matrix is {size}x{size} but the state has {n} particles")
    overlaps = np.array([gram.overlaps for gram in grams])
    raw = np.zeros((points, 2**n, 2**n), dtype=complex)
    start = 0
    for (support, _), run in itertools.groupby(specs, lambda s: (_support(s), s.spins.tobytes())):
        run = list(run)
        stop = start + len(run)
        at = slice(start, stop) if len(specs) > 1 else slice(None)
        outcomes = _run_outcomes(support, run)
        _trace(*outcomes, overlaps[at] if len(grams) > 1 else overlaps, raw[at])
        start = stop
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
