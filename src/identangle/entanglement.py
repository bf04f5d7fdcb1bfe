"""Fidelities, witness checks and phase search for GHZ- and W-type targets.

Fidelity against the best GHZ-family member above 1/2, or against the best
W-family member above 2/3, witnesses genuine tripartite entanglement of the
matching class. Both thresholds are strict inequalities.

The GHZ family carries one free relative phase and the W family two,

    |GHZ(theta)> = (|ddd> + e^(i*theta) |uuu>) / sqrt(2),
    |W(phi1, phi2)> = (|ddu> + e^(i*phi1) |dud> + e^(i*phi2) |udd>) / sqrt(3),

and each witness compares against the best member, so its fidelity is
maximized over the phases before the threshold test. Every member is a
local-unitary image of the phase-0 one, and the biseparable states form a
local-unitary invariant set, so each bound certifies genuine entanglement
for every member alike.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .density import _MAX_QUBITS, DensityMatrix, _unit_vector
from .errors import ValidationError

__all__ = [
    "GHZ_WITNESS_BOUND",
    "W_WITNESS_BOUND",
    "VERDICT_GHZ",
    "VERDICT_W",
    "VERDICT_INCONCLUSIVE",
    "TargetState",
    "ghz_state",
    "w_state",
    "fidelity_pure",
    "fidelity_mixed",
    "optimize_w_phases",
    "ClassificationReport",
    "classify",
    "classify_states",
]

GHZ_WITNESS_BOUND = 0.5
W_WITNESS_BOUND = 2.0 / 3.0

VERDICT_GHZ = "genuine-GHZ-witnessed"
VERDICT_W = "genuine-W-witnessed"
VERDICT_INCONCLUSIVE = "witness-inconclusive"

# Basis positions of |ddu>, |dud>, |udd> in the detector-major ordering.
_W_SUPPORT = (1, 2, 4)
_W_GRID_SIZE = 256  # W phase search: coarse grid points per phase
_W_STEP_FLOOR = 1e-6  # W phase search: descent step (radians) that ends it
# W phase search: rounding margin of the coarse row bound, per unit of
# |d| + 2 (|c12| + |c14| + |c24|): 64 eps, and never below 16 of the smallest
# subnormal float (2^-1074); see optimize_w_phases.
_W_BOUND_MARGIN = 64.0 * np.finfo(float).eps
_W_MARGIN_FLOOR = 16.0 * 5e-324
# classify_states reads states in blocks of this many, whose 64 x 256 W row
# bounds make one reduction.PAIR_BLOCK (2^14 values) of scratch.
_CLASSIFY_BLOCK = 64

# Coarse W grid tables, independent of the state: the phases, e^(i phi) as a
# row (phi2 along columns), and its conjugate as a column (phi1 along rows)
# and as a row.
_W_PHIS = np.arange(_W_GRID_SIZE) * (2.0 * math.pi / _W_GRID_SIZE)
_W_E2 = np.exp(1j * _W_PHIS)[None, :]
_W_E1_CONJ = _W_E2.conj().reshape(-1, 1)
_W_E2_CONJ = _W_E2.conj()
for _table in (_W_PHIS, _W_E2, _W_E1_CONJ, _W_E2_CONJ):
    _table.setflags(write=False)
del _table


@dataclass(frozen=True)
class TargetState:
    """A pure target state with a unit-norm vector."""

    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", _unit_vector(self.vector, "target state", 1e-12))


def ghz_state(num_qubits: int = 3) -> TargetState:
    """(|dd...d> + |uu...u>) / sqrt(2), on 2 to ``density._MAX_QUBITS`` (20) qubits."""
    if isinstance(num_qubits, bool) or not isinstance(num_qubits, numbers.Integral):
        raise ValidationError(f"qubit count must be an integer, got {num_qubits!r}")
    if num_qubits < 2:
        raise ValidationError("a GHZ state needs at least two qubits")
    if num_qubits > _MAX_QUBITS:
        raise ValidationError(f"a GHZ state has at most {_MAX_QUBITS} qubits, got {num_qubits}")
    v = np.zeros(2**num_qubits, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return TargetState(v)


_GHZ3 = ghz_state(3)  # classify's GHZ target


def w_state(phi1: float = 0.0, phi2: float = 0.0) -> TargetState:
    """Three-qubit W-family member with relative phases phi1 and phi2."""
    v = np.zeros(8, dtype=complex)
    amp = 1.0 / math.sqrt(3.0)
    v[_W_SUPPORT[0]] = amp
    v[_W_SUPPORT[1]] = amp * np.exp(1j * phi1)
    v[_W_SUPPORT[2]] = amp * np.exp(1j * phi2)
    return TargetState(v)


def fidelity_pure(rho: DensityMatrix, target: TargetState) -> float:
    """<psi| rho |psi> for a pure target, clipped into [0, 1]."""
    v = target.vector
    if v.shape[0] != rho.dim:
        raise ValidationError(
            f"target lives in dimension {v.shape[0]}, the state in {rho.dim}"
        )
    return _fidelities(rho.matrix[None], target)[0]


def _fidelities(stack: np.ndarray, target: TargetState) -> list[float]:
    """:func:`fidelity_pure` of each matrix of a stack (P, d, d). Each matrix
    takes the BLAS calls that ``v.conj() @ matrix @ v`` makes for it alone,
    a vector-matrix product and then a dot product, so each value is the
    one-matrix value bit for bit."""
    v = target.vector
    values = ((v.conj() @ stack)[:, None] @ v[:, None]).real.ravel().tolist()
    return [min(1.0, max(0.0, value)) for value in values]


def fidelity_mixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Computed with Hermitian eigendecompositions; eigenvalues are clipped at
    zero to absorb roundoff from nearly singular states. Symmetric in its
    arguments to about 1e-8.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    vals, vecs = np.linalg.eigh(rho.matrix)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    inner = (inner + inner.conj().T) / 2.0
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    value = float(np.sqrt(eigs).sum() ** 2)
    return min(1.0, max(0.0, value))


def optimize_w_phases(rho: DensityMatrix) -> tuple[float, float, float]:
    """Maximize fidelity against the W family over both phases.

    Coarse stage: the best point of the ``_W_GRID_SIZE``^2 grid over
    [0, 2pi)^2, ties broken toward the lexicographically smallest
    (phi1, phi2). Fine stage: coordinate descent from that point, halving the
    step until it drops below ``_W_STEP_FLOOR`` radians. Returns (phi1, phi2,
    best fidelity) with phases wrapped to (-pi, pi].

    This is the search of a stack of one state: :func:`classify_states` runs
    it on a whole stack, and its coarse stage there is array operations over
    the stack, each state's terms a column against the grid's rows, so each
    state's result is the one it gets alone, bit for bit.

    The fidelity is F(phi1, phi2) = (d + 2 Re(c12 e^(i phi1) + c14 e^(i phi2)
    + c24 e^(i (phi2 - phi1)))) / 3, where d sums the three diagonal entries
    on the W support and c12, c14, c24 are its coherences.

    The coarse stage evaluates only the grid rows (fixed phi1 = phi_i) that
    can hold the grid's best value. With e_i = e^(i phi_i), row i reads
    F_ij = (d + 2 Re(c12 e_i + (c14 + c24 conj(e_i)) e_j)) / 3, so no entry
    of the row exceeds its bound

        B_i = (d + 2 (Re(c12 e_i) + |c14 + c24 conj(e_i)|)) / 3.

    Every grid row evaluated is formed by one expression, the full grid's
    F_ij = (d + 2 Re(c12 e_i + c14 e_j + c24 e_j conj(e_i))) / 3 in its order
    of operations, with c12 e_i taken from the products formed over all
    rows. The row with the largest B_i is evaluated first; its maximum M is a
    lower bound on the grid's. Then every row with B_i + margin >= M is
    evaluated, in ascending order, and ``np.argmax`` runs over those rows.
    The margin is ``_W_BOUND_MARGIN`` * S = 64 eps * S with
    S = |d| + 2 (|c12| + |c14| + |c24|), the size of every term either side
    sums. A computed grid entry and a computed bound each come from a handful
    of roundings, none larger than eps * S, so each lies within a few eps * S
    of its exact value for the stored e_i; on 30,000 random and near-tied
    states no row's computed maximum exceeded its computed bound by more than
    0.6 eps * S. The margin is floored at ``_W_MARGIN_FLOOR`` = 16 * 2^-1074:
    for a subnormal S rounding is absolute (2^-1075 each) while 64 eps * S
    underflows, so without it the first row's computed maximum could exceed
    every computed bound and no row be kept. For a normal S, 64 eps * S >=
    64 * 2^-1074, so the floor never binds. Rows left out therefore hold only
    entries strictly below M:
    they can neither hold the grid's maximum nor tie with it. The rows kept
    are evaluated entry for entry as in the full grid, so a row-major argmax
    over them in ascending order picks the full grid's first flat index, and
    (phi1, phi2, fidelity) are bit-equal to a search over the whole grid.
    When a single row survives, the first evaluation of it is reused.

    The (0, 0) rule. With a = Re c and b = Im c: when b12, b14 and b24 are
    zeros of either sign, a12, a14 and a24 are >= 0, a24 <= a12 + a14, and
    a12 + a14 is 0 or at least ``sys.float_info.min``, the search returns
    (0, 0, (d + 2 ((a12 + a14) + a24)) / 3), clipped into [0, 1], with no
    grid and no descent. This is bit-equal to the whole search:

    - Every grid term is a_k times a cosine (the b_k terms are exact zeros),
      and the (0, 0) entry has every cosine 1. Entries in row 0 or column 0
      have the others' cosines <= 1, and entries off the diagonal have
      |cos(phi_j - phi_i)| <= cos(2pi/256) as well, so by monotone rounding
      each is <= the (0, 0) entry.
    - On the diagonal, phi_i = phi_j != 0, the a12 and a14 terms drop by at
      least (1 - cos(2pi/256)) (a12 + a14) >= 3e-4 (a12 + a14) >= 3e-4 a24,
      while rounding can lift the a24 term (a24 |e_i|^2) by only a few ulps
      of a24. So no diagonal entry exceeds the (0, 0) entry, and np.argmax
      takes flat index 0 on ties.
    - From (0, 0), every descent candidate is <= ``best``: its cosines are
      <= 1 and its sine terms are multiplied by exact zeros. So the descent
      never moves, and it ends at (0, 0) with the grid's value, which is the
      rule's up to the sign of a zero sum that the clip removes.
    - The diagonal bound is relative, and it fails when a12 + a14 is
      subnormal, where rounding is absolute: without the
      ``sys.float_info.min`` clause the rule disagreed with the full grid on
      80 of 4,004 states whose a12 + a14 is subnormal.

    When c12 = c14 = c24 = 0 (every GHZ-support state), the rule gives d / 3,
    the constant objective. Every W-balanced state along g and the three
    delays meets the rule (4 x 1,017 sweep points), so those scans classify
    at the cost of GHZ scans; W-dft coherences carry phases and are searched.

    The fine stage runs on Python floats. With a = Re c and b = Im c and
    p21 = phi2 - phi1, each candidate is

        (d + 2 (((a12 cos phi1 - b12 sin phi1) + (a14 cos phi2 - b14 sin phi2))
                + (a24 cos p21 - b24 sin p21))) / 3,

    which is the numpy expression (d + 2 Re(c12 e^(i phi1) + c14 e^(i phi2)
    + c24 e^(i p21))) / 3 operation for operation: numpy's complex exp of
    i*p is (cos p, sin p) from the C library, a complex product's real part
    is a c - b s, and the sum runs left to right. So every candidate,
    comparison and step is bit-equal to the numpy descent at a fraction of
    its cost; a test checks the objective against numpy's on 100,000 points.
    The term of a coordinate that did not move is kept from the candidate
    that moved it. The final wrap to (-pi, pi] is ``np.angle(np.exp(1j *
    phi))``, made once for all the searched states of a block
    (:func:`_wrapped`): ``math.atan2(sin phi, cos phi)`` differs from it in
    the last bit for about one phase in ten.
    """
    if rho.num_qubits != 3:
        raise ValidationError("the W phase search is defined for three qubits")
    return _w_phases(rho.matrix[None])[0]


def _w_phases(stack: np.ndarray) -> list[tuple[float, float, float]]:
    """:func:`optimize_w_phases` of each matrix of a three-qubit stack
    (P, 8, 8). The (0, 0) rule answers the states it covers, state by state
    on Python floats (cheaper than array operations on the 9 to 25 states of
    a short scan); the others are then searched as one stack and their
    results filled in. The coarse stage runs on the whole stack, each state's
    terms a column (P, 1) that meets the grid tables as the one state's
    would, so every bound, first-row entry and argmax is the one-state value.
    The kept rows are evaluated again, state by state, unless the first row
    is the only one; the fine stage runs state by state, and the phases it
    ends at are wrapped once, as one (P, 2) array (:func:`_wrapped`)."""
    a, b, c = _W_SUPPORT
    d = (stack[:, a, a] + stack[:, b, b] + stack[:, c, c]).real
    # c12, c14, c24: entries (a, b), (a, c) and (b, c) of each matrix.
    terms = stack.reshape(len(stack), -1).take([8 * a + b, 8 * a + c, 8 * b + c], axis=1)
    found, live = [], []
    for k, (dk, (c12, c14, c24)) in enumerate(zip(d.tolist(), terms.tolist())):
        a12, a14, a24 = c12.real, c14.real, c24.real
        pair = a12 + a14
        if (not (c12.imag or c14.imag or c24.imag) and a12 >= 0.0 and a14 >= 0.0
                and 0.0 <= a24 <= pair and (pair == 0.0 or pair >= sys.float_info.min)):
            found.append((0.0, 0.0, min(1.0, max(0.0, (dk + 2.0 * (pair + a24)) / 3.0))))
        else:
            found.append(None)
            live.append(k)
    if not live:
        return found
    if len(live) != len(found):
        d, terms = d[live], terms[live]
    points = np.arange(len(live))
    dc = d[:, None]
    c12, c14, c24 = terms[:, 0:1], terms[:, 1:2], terms[:, 2:3]
    t12 = c12 * _W_E2  # c12 e_i for every row i, as the full grid forms it
    bound = (dc + 2.0 * (t12.real + np.abs(c14 + c24 * _W_E2_CONJ))) / 3.0
    first = bound.argmax(axis=1)
    grid = _w_rows(dc, t12, c14, c24, points, first)
    j = grid.argmax(axis=1)
    best = grid[points, j]
    margin = np.maximum(_W_BOUND_MARGIN * (np.abs(d) + 2.0 * np.abs(terms).sum(axis=1)),
                        _W_MARGIN_FLOOR)
    keep = bound + margin[:, None] >= best[:, None]

    searched = []
    for k, (dk, (c12k, c14k, c24k), i, jk, bk, kept) in enumerate(zip(
        d.tolist(), terms.tolist(), first.tolist(), j.tolist(), best.tolist(),
        keep.sum(axis=1).tolist(),
    )):
        if kept != 1 or not keep[k, i]:
            rows = np.flatnonzero(keep[k])
            grid_k = _w_rows(dc, t12, c14, c24, k, rows)
            row, jk = divmod(int(np.argmax(grid_k)), _W_GRID_SIZE)
            i, bk = int(rows[row]), float(grid_k[row, jk])
        searched.append(_w_descent(dk, c12k, c14k, c24k, float(_W_PHIS[i]), float(_W_PHIS[jk]), bk))
    results = np.array(searched)
    results[:, :2] = _wrapped(results[:, :2])
    for state, result in zip(live, results.tolist()):
        found[state] = tuple(result)
    return found


def _wrapped(phases: np.ndarray) -> np.ndarray:
    """Every phase of an array wrapped to (-pi, pi] as
    ``np.angle(np.exp(1j * phi))`` wraps it alone, bit for bit: np.angle is
    np.arctan2 of the imaginary and real parts, here called once on the
    array; a test checks the per-phase equality on 100,000 phases."""
    z = np.exp(1j * phases)
    return np.arctan2(z.imag, z.real)


def _w_rows(dc: np.ndarray, t12: np.ndarray, c14: np.ndarray, c24: np.ndarray,
            states: int | np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (fixed phi1 = phi_i) of the coarse W grid of the states
    ``states``, from the terms of a searched stack: d, c14 and c24 as columns
    (P, 1) and t12 = c12 e_i (P, 256). ``states`` and ``rows`` are either two
    index arrays of one length (one row of each state) or one state index and
    an array of its rows; the result holds one grid row per row index. Each
    entry is the full broadcast grid's bit for bit: c12 e_i is picked from
    t12, formed over all rows, and the rest is the full grid's expression in
    its order of operations."""
    return (
        dc[states]
        + 2.0 * (t12[states, rows, None] + c14[states] * _W_E2
                 + c24[states] * _W_E2 * _W_E1_CONJ[rows]).real
    ) / 3.0


def _w_descent(d: float, c12: complex, c14: complex, c24: complex,
               phi1: float, phi2: float, best: float) -> tuple[float, float, float]:
    """Fine stage of the W search from the grid point (phi1, phi2) of value
    ``best``; see :func:`optimize_w_phases`. Returns the phases it ends at,
    not yet wrapped, and the best value clipped into [0, 1]. t1 and t2 hold
    the phi1 and phi2 terms at the current point; phi2 - phi1 moves with
    every candidate. Each pass tries phi1 + step, then phi1 - step from the
    point the first move left, then the same two moves of phi2, each
    coordinate's candidate written once in the loop over (step, -step)
    (phi + -step is phi - step exactly); a pass that moves neither phase
    halves the step."""
    cos, sin = math.cos, math.sin
    a12, b12, a14, b14, a24, b24 = c12.real, c12.imag, c14.real, c14.imag, c24.real, c24.imag
    t1 = a12 * cos(phi1) - b12 * sin(phi1)
    t2 = a14 * cos(phi2) - b14 * sin(phi2)
    step = 2.0 * math.pi / _W_GRID_SIZE
    while step >= _W_STEP_FLOOR:
        moved = False
        for move in (step, -step):
            p1 = phi1 + move
            u1 = a12 * cos(p1) - b12 * sin(p1)
            p21 = phi2 - p1
            candidate = (d + 2.0 * ((u1 + t2) + (a24 * cos(p21) - b24 * sin(p21)))) / 3.0
            if candidate > best:
                phi1, t1, best, moved = p1, u1, candidate, True
        for move in (step, -step):
            p2 = phi2 + move
            u2 = a14 * cos(p2) - b14 * sin(p2)
            p21 = p2 - phi1
            candidate = (d + 2.0 * ((t1 + u2) + (a24 * cos(p21) - b24 * sin(p21)))) / 3.0
            if candidate > best:
                phi2, t2, best, moved = p2, u2, candidate, True
        if not moved:
            step /= 2.0
    return phi1, phi2, min(1.0, max(0.0, best))


@dataclass(frozen=True)
class ClassificationReport:
    """Witness summary of a postselected state.

    ``fidelity_ghz`` is the fidelity with the phase-0 GHZ target,
    ``fidelity_ghz_max`` that with the best GHZ-family member, whose phase
    ``ghz_phase`` lies in [-pi, pi], and ``ghz_witness_passed`` reads the
    maximum.
    """

    fidelity_ghz: float
    fidelity_ghz_max: float
    ghz_phase: float
    fidelity_w_max: float
    phi1: float
    phi2: float
    ghz_witness_passed: bool
    w_witness_passed: bool
    offdiag_norm: float
    verdict: str


def classify(rho: DensityMatrix) -> ClassificationReport:
    """Run both witnesses and report the strongest one that passes.

    Both thresholds are strict inequalities, so a fidelity exactly at a bound
    does not pass. This is the classification of a stack of one state (see
    :func:`classify_states`).
    """
    (report,) = _classify_block([rho])
    return report


def classify_states(states: Iterable[DensityMatrix]) -> Iterator[ClassificationReport]:
    """Yields :func:`classify` of every state, in order, each report bit-equal
    to the one the state gets alone, from one pass over the stack of their
    matrices.

    The states are read in blocks of ``_CLASSIFY_BLOCK`` (64), and a
    block's reports are yielded before the next block is read, so neither
    the scratch memory (the W phase search's (P, 256) arrays) nor the states
    and reports held here grow with the number of states. A state that is
    not a three-qubit state raises when its block is read.
    """
    states = iter(states)
    while block := list(itertools.islice(states, _CLASSIFY_BLOCK)):
        yield from _classify_block(block)


def _classify_block(states: list[DensityMatrix]) -> list[ClassificationReport]:
    """The reports of a stack of states: ``offdiag_norm``, the GHZ fidelities
    and phase and the W phase search's coarse stage are array operations
    over the stack; the W search keeps its re-evaluation of kept rows and
    its fine stage per state.

    The fidelity with (|ddd> + e^(i theta) |uuu>) / sqrt(2) is
    (rho00 + rho77) / 2 + Re(e^(-i theta) rho70). Its maximum over theta,
    (rho00 + rho77) / 2 + |rho70|, is reached at theta = arg rho70 and
    reported clipped into [0, 1]; theta is taken by ``np.angle``, in [-pi,
    pi]. A zero of either sign in rho70 counts as +0, so theta is 0, not
    +-pi or -0, when rho70 is 0.
    """
    if any(rho.dim != 8 for rho in states):
        raise ValidationError("classification is defined for three qubits")
    stack = np.array([rho.matrix for rho in states])
    magnitudes = np.abs(stack)
    offdiag = magnitudes.sum(axis=(1, 2)) - magnitudes.trace(axis1=1, axis2=2)
    populations = (stack[:, 0, 0].real + stack[:, 7, 7].real) / 2.0
    f_ghz_max = np.clip(populations + magnitudes[:, 7, 0], 0.0, 1.0)
    theta = np.angle(stack[:, 7, 0] + 0.0)
    reports = []
    for f_ghz, f_max, phase, (phi1, phi2, f_w), off in zip(
        _fidelities(stack, _GHZ3), f_ghz_max.tolist(), theta.tolist(), _w_phases(stack),
        offdiag.tolist(),
    ):
        ghz_passed = f_max > GHZ_WITNESS_BOUND
        w_passed = f_w > W_WITNESS_BOUND
        if ghz_passed:
            verdict = VERDICT_GHZ
        elif w_passed:
            verdict = VERDICT_W
        else:
            verdict = VERDICT_INCONCLUSIVE
        reports.append(
            ClassificationReport(
                f_ghz, f_max, phase, f_w, phi1, phi2, ghz_passed, w_passed, off, verdict
            )
        )
    return reports
