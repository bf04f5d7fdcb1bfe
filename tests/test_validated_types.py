"""Refusals of the validated matrix and vector types.

``DensityMatrix`` and ``GramMatrix`` share one Hermitian-PSD rule, and
``TargetState`` and ``DensityMatrix.from_pure`` one unit-vector rule. Every
refusal is a ValidationError, also for entries near the float limit, where
the arithmetic of a check could overflow, and the property test at the end
feeds them arbitrary finite floats of arbitrary shape. The project-wide
filterwarnings setting turns a numpy overflow warning into a failure.

From 64 rows on, the Hermitian-PSD rule checks the occupied block of a stack;
the tests after the stack test show that it refuses what the whole-matrix
check refuses, with the same message.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_banded_spec, random_gram, random_spec
import identangle
from identangle import (
    UNUSED,
    CountRow,
    CountsTable,
    DensityMatrix,
    GramMatrix,
    IdentangleError,
    TargetState,
    TransformSpec,
    ValidationError,
    balanced_tritter_rows,
    classify,
    custom_spec,
    density_matrices_from_spec,
    density_matrix_from_spec,
    dft_tritter_rows,
    fidelity_mixed,
    ghz_preset,
    ghz_state,
    gram_from_delays,
    gram_from_labels,
    permanent,
    reconstruct_mle,
    simulate_counts,
    w_preset,
)
from identangle import density, reduction


@pytest.mark.parametrize("matrix,message", [
    (np.eye(2, 4) / 2, r"density matrix must be square, got shape \(2, 4\)"),
    (np.eye(3) / 3, "density matrix dimension must be a power of two, got 3"),
    ([[0.5, 0.1], [0.2, 0.5]], "density matrix is not Hermitian"),
    ([[1.5, 0.0], [0.0, -0.5]], "density matrix is not positive semidefinite"),
    (np.eye(2), "matrix trace differs from 1 by 1.000e"),
    (np.diag([0.5, 0.5 + 5e-10]), "^matrix trace differs from 1 by 5.000e-10$"),
])
def test_density_matrix_refuses_each_broken_property(matrix, message):
    with pytest.raises(ValidationError, match=message):
        DensityMatrix(matrix)


def test_density_matrix_takes_a_trace_within_its_tolerance():
    assert DensityMatrix(np.diag([0.5, 0.5 + 5e-11])).matrix[1, 1] == 0.5 + 5e-11


def test_a_hermitian_defect_equal_to_the_tolerance_passes():
    at_tol = [[0.5, density.HERMITIAN_TOL], [0.0, 0.5]]
    assert DensityMatrix(at_tol).matrix[0, 1] == density.HERMITIAN_TOL
    past = [[0.5, math.nextafter(density.HERMITIAN_TOL, 1.0)], [0.0, 0.5]]
    assert refusal(lambda: DensityMatrix(past)).startswith("density matrix is not Hermitian")


def test_a_target_state_holds_a_read_only_vector():
    target = TargetState([0.6, 0.8j])
    assert target.vector.tolist() == [0.6, 0.8j]
    assert not target.vector.flags.writeable


def test_unit_vectors_refuse_a_wrong_norm():
    with pytest.raises(ValidationError, match="state vector norm is 1.41421356237"):
        DensityMatrix.from_pure([1.0, 1.0])
    # Past the norm tolerance, not just past the trace tolerance.
    assert refusal(lambda: DensityMatrix.from_pure([1 + 5e-9, 0.0])) == (
        "state vector norm is 1.000000005, expected 1"
    )
    with pytest.raises(ValidationError, match="target state norm is 2, expected 1"):
        TargetState([2.0, 0.0])


def test_a_pure_state_is_refused_for_its_norm_before_its_trace_is():
    # Its trace, 1 + 1e-9, is past TRACE_TOL, but the caller passed a vector.
    assert refusal(lambda: DensityMatrix.from_pure([1 + 5e-10, 0.0])) == (
        "state vector norm is 1.0000000005, expected 1"
    )
    assert DensityMatrix.from_pure([1 + 1e-11, 0.0]).matrix[0, 0] == (1 + 1e-11) ** 2


@pytest.mark.parametrize("make,message", [
    (lambda: DensityMatrix([[1e308, 1e308], [-1e308, 0.0]]), "not Hermitian"),
    (lambda: DensityMatrix(np.diag([1e308, 1e308])), "trace differs from 1 by inf"),
    (lambda: DensityMatrix.from_pure([1e200, 1e200]), "state vector norm is inf"),
    (lambda: TargetState([1e200, 0.0]), "target state norm is inf"),
], ids=["hermitian-defect", "trace", "from-pure-norm", "target-norm"])
def test_checks_that_overflow_refuse_without_warning(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


@pytest.mark.parametrize("make,name", [
    (lambda: GramMatrix([[1, 2], [3]]), "Gram matrix"),
    (lambda: DensityMatrix([[10**400]]), "density matrix"),
    (lambda: DensityMatrix.from_pure([1, "up"]), "state vector"),
    (lambda: TargetState(["a"]), "target state"),
], ids=["ragged-gram", "huge-int-density", "text-pure", "text-target"])
def test_input_that_is_not_an_array_of_numbers_is_refused(make, name):
    with pytest.raises(ValidationError, match=f"^{name} is not an array of complex numbers"):
        make()


@pytest.mark.parametrize("make,message", [
    (lambda: gram_from_delays(("a",), 1.0), "^delay model needs real numbers"),
    (lambda: gram_from_delays((0,), "x"), "^delay model needs real numbers"),
    (lambda: gram_from_delays((10**400,), 1.0), "^delay model needs real numbers"),
    (lambda: GramMatrix.uniform(3, 10**400), "^Gram matrix overlap is not an array of complex"),
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), shots=2**63),
     r"^shots must be an integer in \[1, 2\*\*53\]"),
    # Counts are float64, which stops holding every integer past 2**53.
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), shots=2**53 + 1),
     r"^shots must be an integer in \[1, 2\*\*53\]"),
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), seed=math.inf),
     "^seed must be a nonnegative integer"),
    # A bool is no count and no seed, as CountsTable refuses seed=True.
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), shots=True),
     r"^shots must be an integer in \[1, 2\*\*53\], got True$"),
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), shots="1000"),
     r"^shots must be an integer in \[1, 2\*\*53\], got '1000'$"),
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), shots=None),
     r"^shots must be an integer in \[1, 2\*\*53\], got None$"),
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), seed=True),
     "^seed must be a nonnegative integer, got True$"),
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), seed="7"),
     "^seed must be a nonnegative integer, got '7'$"),
    (lambda: simulate_counts(DensityMatrix(np.eye(8) / 8), seed=None),
     "^seed must be a nonnegative integer, got None$"),
    (lambda: GramMatrix.uniform(-1, 0.5), "^particle count must be an integer of at least 1"),
    (lambda: GramMatrix.uniform("a", 0.5), "^particle count must be an integer of at least 1"),
    (lambda: GramMatrix.uniform(2.5, 0.5), "^particle count must be an integer of at least 1"),
    (lambda: GramMatrix.fully_indistinguishable(-1),
     "^particle count must be an integer of at least 1"),
    (lambda: GramMatrix.fully_distinguishable(-2),
     "^particle count must be an integer of at least 1"),
    (lambda: gram_from_labels(5), "^labels must be a sequence"),
    (lambda: gram_from_labels([]), "^need at least one label$"),
    (lambda: permanent(np.zeros((0, 0))), "^permanent of an empty matrix is not defined here$"),
    (lambda: ghz_state(1), "^a GHZ state needs at least two qubits$"),
    (lambda: ghz_state(3.0), "^qubit count must be an integer, got 3.0$"),
    (lambda: ghz_state(True), "^qubit count must be an integer, got True$"),
    (lambda: fidelity_mixed(DensityMatrix(np.eye(4) / 4), DensityMatrix(np.eye(8) / 8)),
     "^dimension mismatch: 4 vs 8$"),
    (lambda: classify(DensityMatrix(np.eye(4) / 4)),
     "^classification is defined for three qubits$"),
    (lambda: CountsTable.from_rows((CountRow("Z", "0", 1.0), CountRow("Z", "1", 0.0)),
                                   shots_per_setting=0),
     "^shots_per_setting must be positive$"),
], ids=["text-delay", "text-coherence-length", "huge-delay", "huge-overlap", "shots-past-int64",
        "shots-past-exact-float", "infinite-seed", "bool-shots", "text-shots",
        "none-shots", "bool-seed", "text-seed", "none-seed", "negative-uniform", "text-uniform",
        "fractional-uniform", "negative-indistinguishable", "negative-distinguishable",
        "int-labels", "no-labels", "empty-permanent", "one-qubit-ghz", "float-ghz", "bool-ghz",
        "fidelity-dimensions", "two-qubit-classify", "zero-shots"])
def test_library_constructors_refuse_bad_numbers_with_validation_error(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def test_a_stack_reports_its_first_failing_matrix():
    good, diagonal = np.eye(4) / 4, np.diag([0.1, 0.2, 0.3, 0.4])
    valid = DensityMatrix._stack(np.array([good, diagonal], dtype=complex))
    assert [rho.matrix.tobytes() for rho in valid] == [
        DensityMatrix(m).matrix.tobytes() for m in (good, diagonal)
    ]
    assert not any(rho.matrix.flags.writeable for rho in valid)
    # Matrix 1 fails the PSD check, matrix 2 the finite check that comes
    # before it; the stack raises the error of the earliest check.
    stack = np.array([good, np.diag([1.5, -0.5, 0, 0]), np.full((4, 4), np.nan), good],
                     dtype=complex)
    for failing, index in ((stack, 2), (stack[[0, 1, 3]], 1)):
        alone = pytest.raises(ValidationError, DensityMatrix, stack[index])
        assert str(pytest.raises(ValidationError, DensityMatrix._stack, failing).value) == str(
            alone.value
        )
    overlaps = np.array([np.eye(2), [[1, 0.5], [0.5, 1]], [[2, 0], [0, 2]], np.eye(2)],
                        dtype=complex)
    raised = pytest.raises(ValidationError, GramMatrix._stack, overlaps)
    assert str(raised.value) == str(pytest.raises(ValidationError, GramMatrix, overlaps[2]).value)
    assert str(raised.value).startswith("Gram matrix diagonal must be all ones")
    valid = GramMatrix._stack(overlaps[:2].copy())
    assert [g.overlaps.tobytes() for g in valid] == [
        GramMatrix(m).overlaps.tobytes() for m in overlaps[:2]
    ]
    assert not any(g.overlaps.flags.writeable for g in valid)


def refusal(make) -> str:
    return str(pytest.raises(ValidationError, make).value)


def whole_matrix_refusal(monkeypatch, make) -> str:
    """What ``make`` raises when the rule checks every row, as it does below
    its block size."""
    with monkeypatch.context() as patch:
        patch.setattr(density, "_BLOCK_DIM", math.inf)
        return refusal(make)


def two_row_state(dim: int = 128) -> np.ndarray:
    """A valid density matrix on rows 3 and 40; every other row is empty."""
    m = np.zeros((dim, dim), dtype=complex)
    m[3, 3] = m[40, 40] = 0.5
    m[3, 40], m[40, 3] = 0.25j, -0.25j
    return m


def with_entry(m: np.ndarray, i: int, j: int, value) -> np.ndarray:
    out = m.copy()
    out[i, j] = value
    return out


def complex_copy(m) -> np.ndarray:
    return np.array(m, dtype=complex)


def ghz_arrays(**changes):
    """Amplitude and spin arrays of the balanced GHZ routing, with entries set
    by ``changes``: name -> ((i, j), value) of the array it names."""
    spec = ghz_preset()
    t, s = spec.amplitudes.copy(), spec.spins.copy()
    for name, (at, value) in changes.items():
        {"t": t, "s": s}[name][at] = value
    return t, s


@pytest.mark.parametrize("cls,arrays", [
    (DensityMatrix, (complex_copy(np.eye(4) / 4),)),
    (DensityMatrix, (complex_copy([[0.5, 0.25j], [-0.25j, 0.5]]),)),
    (DensityMatrix, (complex_copy(two_row_state()),)),
    (DensityMatrix, (complex_copy(np.eye(3) / 3),)),
    (DensityMatrix, (complex_copy([[0.5, 0.1], [0.2, 0.5]]),)),
    (DensityMatrix, (complex_copy([[1.5, 0.0], [0.0, -0.5]]),)),
    (DensityMatrix, (complex_copy(np.eye(2)),)),
    (DensityMatrix, (complex_copy(np.diag([1e308, 1e308])),)),
    (DensityMatrix, (complex_copy(with_entry(two_row_state(), 90, 7, np.nan)),)),
    (GramMatrix, (complex_copy([[1.0, 0.5], [0.5, 1.0]]),)),
    (GramMatrix, (reduction._delay_overlaps(np.array([[0.0, 0.3, 1.0]]), 0.5)[0],)),
    (GramMatrix, (complex_copy([[1.0, 0.5 + 0.25j], [0.5 - (0.25 + 1e-13) * 1j, 1.0]]),)),
    (GramMatrix, (complex_copy(np.eye(3)),)),
    (GramMatrix, (complex_copy([[2.0, 0.0], [0.0, 2.0]]),)),
    (GramMatrix, (complex_copy([[1.0, 0.5], [0.4, 1.0]]),)),
    (GramMatrix, (complex_copy([[1.0, 1.0 + 1e-6], [1.0 + 1e-6, 1.0]]),)),
    (GramMatrix, (complex_copy([[complex(1e308, 1e308), 0.0], [0.0, 1.0]]),)),
    (TransformSpec, ghz_arrays()),
    (TransformSpec, ghz_arrays(t=((0, 0), 0.5))),
    (TransformSpec, ghz_arrays(s=((0, 2), 1))),
    (TransformSpec, ghz_arrays(t=((1, 0), 1e200))),
    (TransformSpec, (np.ones((2, 3)) / math.sqrt(3), np.zeros((2, 3), dtype=int))),
], ids=["density", "density-complex", "density-block", "density-dimension", "density-hermitian",
        "density-psd", "density-trace", "density-trace-overflow", "density-nan-in-empty-row",
        "gram", "gram-delays", "gram-hermitian-within-tol", "gram-identity", "gram-diagonal", "gram-hermitian",
        "gram-psd", "gram-overflow", "routing", "routing-row-norm", "routing-unused-spin",
        "routing-norm-overflow", "routing-not-square"])
def test_a_constructor_is_the_stack_of_one(cls, arrays):
    """``cls(*arrays)`` and ``cls._stack`` of the stacks of one agree: on the
    arrays held, which are read-only, or on the error's class and message."""
    try:
        alone = cls(*arrays)
    except IdentangleError as exc:
        raised = pytest.raises(type(exc), cls._stack, *(a[None] for a in arrays)).value
        assert (type(raised), str(raised)) == (type(exc), str(exc))
        return
    (stacked,) = cls._stack(*(a[None] for a in arrays))
    for field in dataclasses.fields(cls):
        held, held_alone = getattr(stacked, field.name), getattr(alone, field.name)
        assert (held.dtype, held.shape) == (held_alone.dtype, held_alone.shape)
        assert held.tobytes() == held_alone.tobytes()
        assert not held.flags.writeable and not held_alone.flags.writeable


@pytest.mark.parametrize("make,field", [
    (lambda: DensityMatrix(np.eye(2) / 2), "matrix"),
    (lambda: GramMatrix.uniform(3, 0.5), "overlaps"),
    (ghz_preset, "amplitudes"),
], ids=["density", "gram", "routing"])
def test_a_validated_instance_cannot_be_rebound(make, field):
    # Holding one is the certificate, so its fields cannot be swapped for
    # unchecked arrays after construction.
    held = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(held, field, np.eye(2))


def test_every_exported_name_resolves():
    modules = [identangle, *(importlib.import_module(f"identangle.{info.name}")
                             for info in pkgutil.iter_modules(identangle.__path__))]
    exported = {module.__name__: module.__all__ for module in modules if hasattr(module, "__all__")}
    assert {"identangle", "identangle.density", "identangle.reduction"} <= exported.keys()
    unresolved = [f"{name}.{attr}" for name, attrs in exported.items() for attr in attrs
                  if not hasattr(sys.modules[name], attr)]
    assert unresolved == []


# The names the package exported while its own __init__ listed them by hand.
PACKAGE_NAMES_0_2_0 = [
    "__version__", "ClassificationReport", "ConfigError", "CountRow", "CountsParseError",
    "CountsTable", "DensityMatrix", "GHZParams", "GHZ_WITNESS_BOUND", "GramMatrix",
    "IdentangleError", "IncompleteSettingsError", "NoBunchingOutcomes",
    "PostselectionImpossibleError", "Spin", "TargetState", "TransformSpec", "UNUSED",
    "UnsupportedConfigurationError", "VERDICT_GHZ", "VERDICT_INCONCLUSIVE", "VERDICT_W",
    "ValidationError", "W_WITNESS_BOUND", "balanced_ghz_params", "balanced_tritter_rows",
    "brute_density_matrix", "classify", "classify_states", "custom_spec",
    "density_matrices_from_spec", "density_matrix_from_spec", "dft_tritter_rows",
    "fidelity_mixed", "fidelity_pure", "ghz_preset", "ghz_state", "gram_from_delays",
    "gram_from_labels", "log_likelihood", "no_bunching_outcomes", "optimize_w_phases",
    "permanent", "read_counts", "reconstruct_linear", "reconstruct_mle", "simulate_counts",
    "w_preset", "w_state", "write_counts",
]


def test_the_package_exports_each_module_name_once():
    names = identangle.__all__
    assert len(names) == len(set(names))
    assert set(PACKAGE_NAMES_0_2_0) <= set(names)
    library = ["brute_force", "density", "entanglement", "errors", "reduction",
               "tomography", "transform"]
    assert names == ["__version__"] + [
        name for module in library
        for name in importlib.import_module(f"identangle.{module}").__all__
    ]
    star = {}
    exec("from identangle import *", star)
    assert star.keys() - {"__builtins__"} == set(names)
    assert all(star[name] is getattr(identangle, name) for name in names)
    errors = importlib.import_module("identangle.errors")
    assert sorted(errors.__all__) == sorted(
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    )
    assert len(errors.__all__) == 7


@pytest.mark.parametrize("matrix,message", [
    (with_entry(two_row_state(), 90, 7, np.nan), "density matrix entries must be finite"),
    (with_entry(two_row_state(), 3, 100, 0.125),
     "density matrix is not Hermitian (defect 1.250e-01 > 1e-10)"),
    (np.zeros((128, 128)), "matrix trace differs from 1 by 1.000e+00"),
], ids=["nan-in-empty-row", "entry-facing-an-empty-row", "all-zero"])
def test_block_rule_refuses_as_the_whole_matrix_check(monkeypatch, matrix, message):
    assert refusal(lambda: DensityMatrix(matrix)) == message
    assert whole_matrix_refusal(monkeypatch, lambda: DensityMatrix(matrix)) == message


def test_a_fully_occupied_block_keeps_a_small_negative_eigenvalue():
    rng = np.random.default_rng(64)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    eigenvalues = rng.uniform(size=64)
    eigenvalues *= (1 + 1e-8) / eigenvalues.sum()
    eigenvalues[0] = -1e-8
    m = (q * eigenvalues) @ q.conj().T
    m = (m + m.conj().T) / 2
    assert np.all(m != 0)
    assert refusal(lambda: DensityMatrix(m)) == (
        "density matrix is not positive semidefinite (min eigenvalue -1.000e-08)"
    )


def eigvalsh_spectra(monkeypatch, make, certify=True) -> list:
    """The spectra ``eigvalsh`` returns to the Hermitian-PSD rule while
    ``make()`` runs, one array per call; with ``certify=False`` the rule's
    Cholesky certificate always fails, so every stack reaches ``eigvalsh``."""
    spectra, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs)
        if sys._getframe(1).f_code is density._hermitian_psd.__code__:
            spectra.append(w)
        return w

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", spy)
        if not certify:
            patch.setattr(density, "_certified", lambda stack: False)
        make()
    return spectra


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("width", [3, 4], ids=["banded", "wide"])
def test_block_rule_min_eigenvalue_matches_the_whole_matrix(monkeypatch, n, width):
    rng = np.random.default_rng(10 * n + width)
    rows_left_out = 0
    for _ in range(4):
        spec, gram = random_banded_spec(rng, n, width), random_gram(rng, n)
        m = density_matrix_from_spec(spec, gram)[0].matrix
        (spectrum,) = eigvalsh_spectra(monkeypatch, lambda: DensityMatrix(m), certify=False)
        left_out = np.count_nonzero(~(m.any(axis=0) | m.any(axis=1)))
        assert spectrum.shape == (1, len(m) - left_out)
        min_eig = min(spectrum.min(), 0.0) if left_out else spectrum.min()
        assert abs(min_eig - np.linalg.eigvalsh(m).min()) <= 1e-12
        rows_left_out += left_out
    assert rows_left_out  # so the block is smaller than the matrix


def scan_stack():
    """A 25-point W-dft scan over a delay: 25 Gram matrices made as one stack,
    and the scan's 25 density matrices."""
    delays = np.zeros((25, 3))
    delays[:, 1] = np.linspace(0.0, 2.0, 25)
    grams = GramMatrix._stack(reduction._delay_overlaps(delays, 0.5))
    return density_matrices_from_spec(w_preset(dft_tritter_rows()), grams)


def mle_result():
    rho = density_matrix_from_spec(ghz_preset(), GramMatrix.uniform(3, 0.9))[0]
    return reconstruct_mle(simulate_counts(rho, shots=1000, seed=7), max_iters=60)


@pytest.mark.parametrize("make", [
    lambda: density_matrix_from_spec(ghz_preset(), GramMatrix.uniform(3, 0.9)),
    lambda: density_matrix_from_spec(w_preset(balanced_tritter_rows()), GramMatrix.uniform(3, 1)),
    lambda: density_matrix_from_spec(w_preset(dft_tritter_rows()), GramMatrix.uniform(3, 0.5)),
    lambda: density_matrix_from_spec(random_spec(np.random.default_rng(5), 5, 5),
                                     random_gram(np.random.default_rng(5), 5)),
    lambda: density_matrix_from_spec(random_banded_spec(np.random.default_rng(7), 7, 3),
                                     random_gram(np.random.default_rng(7), 7)),
    lambda: density_matrix_from_spec(random_banded_spec(np.random.default_rng(8), 7, 4),
                                     random_gram(np.random.default_rng(8), 7)),
    scan_stack,
    mle_result,
], ids=["ghz", "w-balanced", "w-dft", "dense-5", "banded-7", "wide-7", "scan-25", "mle"])
def test_valid_states_are_certified_without_eigvalsh(monkeypatch, make):
    assert eigvalsh_spectra(monkeypatch, make) == []


def test_a_refused_matrix_takes_one_eigvalsh(monkeypatch):
    m = np.diag([0.5, 0.5, 1e-3, -1e-3])
    spectra = eigvalsh_spectra(monkeypatch, lambda: refusal(lambda: DensityMatrix(m)))
    assert len(spectra) == 1
    assert refusal(lambda: DensityMatrix(m)) == (
        "density matrix is not positive semidefinite (min eigenvalue -1.000e-03)"
    )


def eigvalsh_only_rule(stack: np.ndarray, name: str, hermitian_tol: float) -> None:
    """The Hermitian-PSD rule as it was before its Cholesky certificate: one
    ``eigvalsh`` of the (block-reduced) stack decides and words every
    refusal. The reference the certificate must agree with."""
    dim = stack.shape[1]
    if dim >= density._BLOCK_DIM:
        nonzero = stack.any(axis=0)
        occupied = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        stack = stack[:, occupied[:, None], occupied]
    density._check(~np.isfinite(stack).all(axis=(1, 2)), False,
                   lambda i: f"{name} entries must be finite")
    herm_defect = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    density._check(
        herm_defect, hermitian_tol,
        lambda i: f"{name} is not Hermitian (defect {herm_defect[i]:.3e} > {hermitian_tol})",
    )
    min_eig = np.linalg.eigvalsh(stack).min(axis=1, initial=np.inf)
    if stack.shape[1] < dim:
        min_eig = np.minimum(min_eig, 0.0)
    density._check(
        -min_eig, density.PSD_TOL,
        lambda i: f"{name} is not positive semidefinite (min eigenvalue {min_eig[i]:.3e})",
    )


def rule_outcome(rule, m: np.ndarray) -> str | None:
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rule(m[None], "density matrix", density.HERMITIAN_TOL)
        except ValidationError as exc:
            return str(exc)
    return None


def with_min_eigenvalue(rng, dim: int, trace: float, min_eig: float) -> np.ndarray:
    """A Hermitian matrix of the given trace whose smallest eigenvalue is
    ``min_eig``, in a random eigenbasis."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    eigenvalues = rng.uniform(0.5, 1.0, size=dim)
    eigenvalues[0] = 0.0
    eigenvalues *= (trace - min_eig) / eigenvalues.sum()
    eigenvalues[0] = min_eig
    m = (q * eigenvalues) @ q.conj().T
    return (m + m.conj().T) / 2


PSD_BOUNDARY = [-2e-9, -1.001e-9, -0.999e-9, -0.5005e-9, -0.4995e-9, 0.0]


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_the_certificate_gives_the_verdicts_and_messages_of_eigvalsh(dim):
    # At trace 1e4 the rounding guard turns the certificate off from d = 16;
    # there the matrices' own rounding blurs 0.1% of PSD_TOL, so only the
    # unit-trace verdicts are fixed in advance.
    rng = np.random.default_rng(dim)
    outcomes = []
    for trace in (1.0, 1e4):
        for min_eig in PSD_BOUNDARY:
            m = with_min_eigenvalue(rng, dim, trace, min_eig)
            outcomes.append(rule_outcome(density._hermitian_psd, m))
            assert outcomes[-1] == rule_outcome(eigvalsh_only_rule, m), (trace, min_eig)
    assert [outcome is None for outcome in outcomes[:6]] == [False, False, True, True, True, True]


def test_the_certificate_shift_and_guard_sit_at_their_bounds(monkeypatch):
    # A matrix whose smallest eigenvalue is just inside -PSD_TOL / 2 is
    # certified, one just outside it passes through eigvalsh; a positive
    # semidefinite matrix is certified up to the trace at which the rounding
    # guard (d + 1) d eps |tr| <= PSD_TOL / 4 stops holding, that trace
    # included.
    rng = np.random.default_rng(46)
    dim = 8
    limit = density.PSD_TOL / 4 / ((dim + 1) * dim * sys.float_info.epsilon)
    assert (dim + 1) * dim * sys.float_info.epsilon * limit == density.PSD_TOL / 4
    cases = [(with_min_eigenvalue(rng, dim, 1.0, -0.45e-9), 0),
             (with_min_eigenvalue(rng, dim, 1.0, -0.55e-9), 1),
             (np.diag([limit] + [0.0] * (dim - 1)), 0),
             (np.diag([math.nextafter(limit, math.inf)] + [0.0] * (dim - 1)), 1),
             (np.diag([-limit] + [0.0] * (dim - 1)), 1)]
    for index, (m, calls) in enumerate(cases):
        m = np.array(m, dtype=complex)
        spectra = eigvalsh_spectra(monkeypatch, lambda: rule_outcome(density._hermitian_psd, m))
        assert len(spectra) == calls, index


def two_point_spec():
    """N = 7 routing whose rows depend on the overlap. Particles 0 and 1 meet
    on a balanced splitter into detectors 0 and 1; particle 1 can also reach
    detector 2, the one path with spin UP, and particle 2 detectors 1 and 2.
    Particles 3-6 go straight to their own detectors. For indistinguishable
    particles the two outcomes that read DOWN on detectors 0-2 cancel exactly
    (Hong-Ou-Mandel), so their row is empty; for distinguishable ones it is
    occupied."""
    r2, r3 = 1 / math.sqrt(2), 1 / math.sqrt(3)
    t = np.zeros((7, 7), dtype=complex)
    s = np.full((7, 7), UNUSED)
    t[0, :2], s[0, :2] = r2, 0
    t[1, :3], s[1, :3] = [r3, -r3, r3], [0, 0, 1]
    t[2, 1:3], s[2, 1:3] = r2, 0
    t[range(3, 7), range(3, 7)], s[range(3, 7), range(3, 7)] = 1, [0, 1, 1, 0]
    return custom_spec(t, s)


def test_a_stack_is_checked_on_the_union_of_its_occupied_rows():
    spec = two_point_spec()
    grams = [GramMatrix.uniform(7, g) for g in (1.0, 0.0)]
    points = [rho.matrix for rho, _ in density_matrices_from_spec(spec, grams)]
    assert [np.flatnonzero(m.any(axis=0) | m.any(axis=1)).tolist() for m in points] == [
        [22], [6, 22]
    ]
    assert [m.tobytes() for m in points] == [
        density_matrix_from_spec(spec, gram)[0].matrix.tobytes() for gram in grams
    ]
    # Matrices 1 and 2 of the stack are point 0 with a negative diagonal
    # entry on a row it leaves empty: row 6, which point 1 fills, and row 50,
    # which no point fills. The stack raises matrix 1's error, as per-point
    # construction does.
    broken = [with_entry(points[0], row, row, value) for row, value in ((6, -2e-3), (50, -5e-3))]
    stack = np.array([points[1], *broken])
    message = "density matrix is not positive semidefinite (min eigenvalue -2.000e-03)"
    assert refusal(lambda: DensityMatrix._stack(stack)) == message
    assert refusal(lambda: [DensityMatrix(m) for m in stack]) == message


# Any finite float, with the extremes and the subnormals drawn often.
EXTREMES = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324,
                            2.2250738585072014e-308, 0.0, 0.5, 1.0])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EXTREMES
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)


@st.composite
def float_arrays(draw):
    """A float array of random shape; a square one is often mirrored into a
    symmetric matrix (no arithmetic, so the draw itself cannot overflow), so
    that the checks past the Hermitian one run too."""
    a = draw(hnp.arrays(np.float64, SHAPES, elements=FINITE))
    if a.ndim == 2 and a.shape[0] == a.shape[1] and draw(st.booleans()):
        upper = np.triu(np.ones(a.shape, dtype=bool))
        a = np.where(upper, a, a.T)
    return a


@settings(derandomize=True, deadline=None, max_examples=300)
@given(a=float_arrays())
def test_validated_types_return_or_refuse_any_finite_floats(a):
    for make in (DensityMatrix, GramMatrix, DensityMatrix.from_pure,
                 TargetState):
        try:
            make(a)
        except ValidationError:
            pass
