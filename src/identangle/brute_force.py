"""Brute-force reference calculations used to cross-check the fast paths.

Everything here recomputes results by direct enumeration straight from the
defining matrices. Nothing of the vectorised kernel in ``reduction`` is
reused; that separation is the point, since these functions exist to catch
bugs in it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .density import DensityMatrix
from .errors import PostselectionImpossibleError, ValidationError
from .reduction import SUCCESS_FLOOR, GramMatrix
from .transform import TransformSpec

__all__ = ["permanent", "brute_density_matrix"]

_PERMANENT_MAX = 12
# The oracle walks all N! permutations, then K^2 (ket, bra) pairs of N steps
# each for its K outcomes. Both limits bound that work: 40,320 permutations
# at N = 8, and a pair budget that admits a dense N = 6 routing (518,400
# pairs) and the wide N = 7 band of four paths per row (20,736), but not a
# dense N = 7 routing (25.4 million).
_BRUTE_MAX = 8
_BRUTE_PAIRS = 1 << 20


def permanent(matrix) -> complex:
    """Permanent of a square matrix by Ryser's inclusion-exclusion formula.

    Cost grows as 2^K, capped at K = 12.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"permanent needs a square matrix, got shape {a.shape}")
    k = a.shape[0]
    if k == 0:
        raise ValidationError("permanent of an empty matrix is not defined here")
    if k > _PERMANENT_MAX:
        raise ValidationError(
            f"permanent limited to {_PERMANENT_MAX}x{_PERMANENT_MAX}, got {k}x{k}"
        )
    total = complex(0.0)
    for subset in range(1, 1 << k):
        columns = [j for j in range(k) if subset >> j & 1]
        row_sums = a[:, columns].sum(axis=1)
        sign = -1 if (k - len(columns)) % 2 else 1
        total += sign * complex(np.prod(row_sums))
    return total


def brute_density_matrix(
    spec: TransformSpec, gram: GramMatrix
) -> tuple[DensityMatrix, float]:
    """Postselected density matrix by direct enumeration of all N! routings,
    for N up to 8 and at most 2^20 (ket, bra) pairs of outcomes.

    A no-bunching outcome of the square routing (TransformSpec refuses any
    other shape) is a bijection sigma from particles to detectors; its
    amplitude is prod_i t[i, sigma(i)], the spin at detector d is
    s[sigma^-1(d), d] and the label there is sigma^-1(d). Bra and ket
    bijections are enumerated independently and every pair contributes
    amp_ket * conj(amp_bra) * prod_d G[label_bra(d), label_ket(d)].
    """
    n = spec.num_particles
    if n > _BRUTE_MAX:
        raise ValidationError(f"brute force limited to {_BRUTE_MAX} particles, got {n}")
    if gram.num_particles != n:
        raise ValidationError(
            f"Gram matrix is {gram.num_particles}x{gram.num_particles}, expected {n}x{n}"
        )
    t = spec.amplitudes
    s = spec.spins
    g = gram.overlaps

    outcomes = []
    for sigma in itertools.permutations(range(n)):
        amp = complex(1.0)
        for i in range(n):
            amp *= complex(t[i, sigma[i]])
        if amp == 0:
            continue
        inverse = [0] * n
        for i, d in enumerate(sigma):
            inverse[d] = i
        index = 0
        for d in range(n):
            index = (index << 1) | int(s[inverse[d], d])
        outcomes.append((amp, index, inverse))
    if len(outcomes) ** 2 > _BRUTE_PAIRS:
        raise ValidationError(
            f"brute force limited to {_BRUTE_PAIRS} outcome pairs, got {len(outcomes) ** 2}"
        )

    dim = 2**n
    raw = np.zeros((dim, dim), dtype=complex)
    for amp_ket, idx_ket, labels_ket in outcomes:
        for amp_bra, idx_bra, labels_bra in outcomes:
            overlap = complex(1.0)
            for d in range(n):
                overlap *= g[labels_bra[d], labels_ket[d]]
            raw[idx_ket, idx_bra] += amp_ket * amp_bra.conjugate() * overlap
    p_success = float(np.trace(raw).real)
    if not p_success > SUCCESS_FLOOR:
        raise PostselectionImpossibleError(
            f"coincidence probability {p_success:.3e}; nothing survives"
        )
    return DensityMatrix(raw / p_success), p_success
