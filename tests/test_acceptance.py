"""Acceptance gate: one test per headline capability, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every density matrix produced along the way is stashed and re-checked
at the end with raw numpy, independent of the library's own validation.
"""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from identangle import (
    CountRow,
    CountsTable,
    DensityMatrix,
    GramMatrix,
    balanced_tritter_rows,
    brute_density_matrix,
    classify,
    custom_spec,
    density_matrix_from_spec,
    fidelity_pure,
    ghz_preset,
    ghz_state,
    gram_from_labels,
    optimize_w_phases,
    permanent,
    reconstruct_mle,
    simulate_counts,
    w_preset,
    w_state,
)
from identangle.cli import main as cli_main
from identangle.tomography import _all_pauli_settings

# Every density matrix any criterion produces lands here; the final
# criterion re-validates all of them with raw numpy.
_RHOS: list[tuple[str, np.ndarray]] = []


def _collect(tag: str, rho: DensityMatrix) -> DensityMatrix:
    _RHOS.append((tag, np.array(rho.matrix, copy=True)))
    return rho


@contextmanager
def _criterion(number: int, summary: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({summary})")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS ({summary}) [{elapsed:.2f}s]")


def _random_spec(rng):
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    t /= np.sqrt(np.sum(np.abs(t) ** 2, axis=1))[:, None]
    return custom_spec(t, rng.integers(0, 2, size=(3, 3)))


def _random_gram(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = a @ a.conj().T
    scale = 1.0 / np.sqrt(np.diag(g).real)
    return GramMatrix(g * np.outer(scale, scale))


def test_criterion_01_ghz_generation():
    with _criterion(1, "balanced GHZ: F=1, p=1/4, oracle match, witness fires"):
        start = time.perf_counter()
        spec = ghz_preset()
        gram = GramMatrix.fully_indistinguishable(3)
        rho, p = density_matrix_from_spec(spec, gram)
        _collect("ghz", rho)
        assert abs(fidelity_pure(rho, ghz_state()) - 1.0) < 1e-10
        assert abs(p - 0.25) < 1e-10
        rho_ref, p_ref = brute_density_matrix(spec, gram)
        np.testing.assert_allclose(rho.matrix, rho_ref.matrix, atol=1e-10)
        assert abs(p - p_ref) < 1e-10
        report = classify(rho)
        assert report.ghz_witness_passed
        assert report.verdict == "genuine-GHZ-witnessed"
        assert time.perf_counter() - start < 1.0


def test_criterion_02_ghz_decay_to_separable():
    with _criterion(2, "third particle orthogonal: off-diagonals vanish, F=1/2"):
        start = time.perf_counter()
        gram = gram_from_labels(("a", "a", "b"))
        rho, p = density_matrix_from_spec(ghz_preset(), gram)
        _collect("ghz-decayed", rho)
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.max(np.abs(off)) < 1e-12
        assert abs(fidelity_pure(rho, ghz_state()) - 0.5) < 1e-10
        assert abs(p - 0.25) < 1e-10
        report = classify(rho)
        assert not report.ghz_witness_passed
        assert report.verdict == "witness-inconclusive"
        assert time.perf_counter() - start < 1.0


def test_criterion_03_w_case_ladder():
    with _criterion(3, "W ladder fidelities 1, 2/3, 1/3, 1/3; cases III=IV"):
        start = time.perf_counter()
        spec = w_preset(balanced_tritter_rows())
        cases = {
            "I": GramMatrix.fully_indistinguishable(3),
            "II": gram_from_labels(("x", "y", "x")),
            "III": gram_from_labels(("x", "x", "y")),
            "IV": GramMatrix.fully_distinguishable(3),
        }
        expected = {"I": 1.0, "II": 2 / 3, "III": 1 / 3, "IV": 1 / 3}
        rhos = {}
        for name, gram in cases.items():
            rho, _ = density_matrix_from_spec(spec, gram)
            rhos[name] = _collect(f"w-case-{name}", rho)
            _, _, f_max = optimize_w_phases(rho)
            assert abs(f_max - expected[name]) < 1e-6, (name, f_max)
        np.testing.assert_allclose(
            rhos["III"].matrix, rhos["IV"].matrix, atol=1e-10
        )
        assert time.perf_counter() - start < 5.0


def test_criterion_04_uniform_overlap_coherence_law(tmp_path):
    with _criterion(4, "F(g) = (1 + g^3)/2 on g in {0, .25, .5, .75, 1}"):
        values = [0.0, 0.25, 0.5, 0.75, 1.0]
        for g in values:
            rho, _ = density_matrix_from_spec(ghz_preset(), GramMatrix.uniform(3, g))
            _collect(f"ghz-g-{g}", rho)
            fidelity = fidelity_pure(rho, ghz_state())
            assert abs(fidelity - (1 + g**3) / 2) < 1e-9, g

        # Same law through the command-line scan.
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "preset": "ghz",
                    "distinguishability": {"gram": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]},
                }
            ),
            encoding="utf-8",
        )
        rc = cli_main(
            ["scan", "--config", str(config), "--param", "g", "--start", "0",
             "--stop", "1", "--steps", "5", "--out-dir", str(tmp_path),
             "--format", "csv"]
        )
        assert rc == 0
        with open(tmp_path / "scan.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [float(r["g"]) for r in rows] == values
        for row in rows:
            g = float(row["g"])
            assert abs(float(row["fidelity_ghz"]) - (1 + g**3) / 2) < 1e-9


def test_criterion_05_oracle_equivalence():
    with _criterion(5, "200 random instances: pipeline = brute force; p = permanent"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)
        identity = GramMatrix.fully_distinguishable(3)
        for index in range(200):
            spec = _random_spec(rng)
            gram = _random_gram(rng)
            rho, p = density_matrix_from_spec(spec, gram)
            _collect(f"random-{index}", rho)
            rho_ref, p_ref = brute_density_matrix(spec, gram)
            np.testing.assert_allclose(rho.matrix, rho_ref.matrix, atol=1e-10)
            assert abs(p - p_ref) < 1e-10

            rho_d, p_d = density_matrix_from_spec(spec, identity)
            _collect(f"random-distinguishable-{index}", rho_d)
            classical = permanent(np.abs(spec.amplitudes) ** 2).real
            assert abs(p_d - classical) < 1e-10
        assert time.perf_counter() - start < 30.0


def test_criterion_06_phase_recovery():
    with _criterion(6, "planted W phases (-0.21 pi, 0.28 pi) recovered"):
        phi1 = -0.21 * math.pi
        phi2 = 0.28 * math.pi
        rho = _collect(
            "w-planted-phases", DensityMatrix.from_pure(w_state(phi1, phi2).vector)
        )
        got1, got2, f_max = optimize_w_phases(rho)
        assert f_max >= 1.0 - 1e-9
        assert abs(math.remainder(got1 - phi1, 2 * math.pi)) < 1e-3
        assert abs(math.remainder(got2 - phi2, 2 * math.pi)) < 1e-3


def test_criterion_07_tomography_round_trip():
    with _criterion(7, "1e5-shot GHZ tomography: MLE fidelity >= 0.99; fuzz stays physical"):
        start = time.perf_counter()
        truth = _collect("tomography-truth", DensityMatrix.from_pure(ghz_state().vector))
        table = simulate_counts(truth, shots=100_000, seed=7)
        estimate = _collect("tomography-mle", reconstruct_mle(table))
        assert fidelity_pure(estimate, ghz_state()) >= 0.99

        rng = np.random.default_rng(2024)
        settings = _all_pauli_settings(3)
        outcomes = [format(o, "03b") for o in range(8)]
        for index in range(50):
            rows = []
            for setting in settings:
                counts = rng.multinomial(300, rng.dirichlet(np.ones(8)))
                rows.extend(
                    CountRow(setting, outcomes[o], int(c))
                    for o, c in enumerate(counts)
                )
            fuzz_table = CountsTable.from_rows(rows, shots_per_setting=300)
            _collect(f"fuzz-{index}", reconstruct_mle(fuzz_table))
        assert time.perf_counter() - start < 60.0


def test_criterion_08_invariant_suite():
    with _criterion(8, "all collected states Hermitian, PSD, unit trace"):
        assert _RHOS, "run the full acceptance module so states get collected"
        for tag, matrix in _RHOS:
            assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-10, tag
            assert np.linalg.eigvalsh(matrix).min() >= -1e-9, tag
            assert abs(np.trace(matrix).real - 1.0) <= 1e-10, tag
