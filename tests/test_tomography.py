from __future__ import annotations

import itertools
from functools import reduce

import numpy as np
import pytest

from conftest import random_density
from identangle import (
    CountRow,
    CountsTable,
    CountsParseError,
    DensityMatrix,
    IncompleteSettingsError,
    ValidationError,
    all_pauli_settings,
    axis_eigenvectors,
    born_probabilities,
    exact_counts,
    fidelity_pure,
    ghz_state,
    log_likelihood,
    read_counts,
    reconstruct_linear,
    reconstruct_mle,
    simulate_counts,
    w_state,
    write_counts,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def ghz_rho():
    return DensityMatrix.from_pure(ghz_state().vector)


def test_all_pauli_settings():
    assert all_pauli_settings(1) == ["X", "Y", "Z"]
    two = all_pauli_settings(2)
    assert len(two) == 9
    assert two[0] == "XX" and two[-1] == "ZZ"
    assert two == sorted(two)
    assert len(all_pauli_settings(3)) == 27
    with pytest.raises(ValidationError):
        all_pauli_settings(0)


@pytest.mark.parametrize("axis", "XYZ")
def test_eigenvectors_diagonalize_each_axis(axis):
    vectors = axis_eigenvectors(axis)
    plus, minus = vectors[0], vectors[1]
    np.testing.assert_allclose(PAULI[axis] @ plus, plus, atol=1e-15)
    np.testing.assert_allclose(PAULI[axis] @ minus, -minus, atol=1e-15)
    assert abs(plus.conj() @ minus) < 1e-15


def test_unknown_axis_rejected():
    with pytest.raises(ValidationError):
        axis_eigenvectors("Q")


def test_born_probabilities_ghz_z_basis():
    probs = born_probabilities(ghz_rho(), "ZZZ")
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_born_probabilities_ghz_x_basis():
    # GHZ correlations in the X basis: only even-parity outcomes appear.
    probs = born_probabilities(ghz_rho(), "XXX")
    expected = np.zeros(8)
    expected[[0, 3, 5, 6]] = 0.25
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_born_probabilities_maximally_mixed():
    rho = DensityMatrix(np.eye(8) / 8)
    for setting in ("XXX", "XYZ", "ZZZ"):
        np.testing.assert_allclose(
            born_probabilities(rho, setting), np.full(8, 1 / 8), atol=1e-12
        )


def test_born_probabilities_rejects_wrong_width():
    with pytest.raises(ValidationError):
        born_probabilities(ghz_rho(), "ZZ")


def test_simulate_counts_is_deterministic_per_seed():
    rho = ghz_rho()
    a = simulate_counts(rho, shots=200, seed=5)
    b = simulate_counts(rho, shots=200, seed=5)
    assert a.rows == b.rows
    assert a.seed == 5
    c = simulate_counts(rho, shots=200, seed=6)
    assert c.rows != a.rows


def test_simulate_counts_totals_and_validation():
    table = simulate_counts(ghz_rho(), settings=["ZZZ", "XYZ"], shots=321, seed=1)
    assert table.settings() == ["ZZZ", "XYZ"]
    for setting in table.settings():
        assert table.counts_for(setting).sum() == 321
    with pytest.raises(ValidationError):
        simulate_counts(ghz_rho(), shots=0)
    with pytest.raises(ValidationError):
        simulate_counts(ghz_rho(), seed=-1)
    with pytest.raises(ValidationError):
        simulate_counts(ghz_rho(), settings=[])


def test_linear_inversion_inverts_exact_statistics():
    rng = np.random.default_rng(42)
    rho = random_density(rng)
    table = exact_counts(rho)
    estimate = reconstruct_linear(table)
    np.testing.assert_allclose(estimate, rho.matrix, atol=1e-9)


def pauli_average_estimate(table: CountsTable) -> np.ndarray:
    """rho = (1/d) sum_P <P> P, each <P> averaged over the settings measuring P."""
    n = table.num_qubits
    outcomes = [format(o, f"0{n}b") for o in range(2**n)]
    counts = {setting: table.counts_for(setting) for setting in table.settings()}
    estimate = np.zeros((2**n, 2**n), dtype=complex)
    for pauli in itertools.product("IXYZ", repeat=n):
        support = [q for q, axis in enumerate(pauli) if axis != "I"]
        signs = np.array([(-1) ** sum(int(bits[q]) for q in support) for bits in outcomes])
        values = [
            vector @ signs / vector.sum()
            for setting, vector in counts.items()
            if all(setting[q] == pauli[q] for q in support)
        ]
        estimate += np.mean(values) * reduce(np.kron, [PAULI[axis] for axis in pauli])
    return estimate / 2**n


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_linear_inversion_averages_pauli_expectations_on_finite_statistics(num_qubits):
    rng = np.random.default_rng(num_qubits)
    for seed in range(3 if num_qubits <= 3 else 1):
        table = simulate_counts(random_density(rng, 2**num_qubits), shots=200, seed=seed)
        np.testing.assert_allclose(
            reconstruct_linear(table), pauli_average_estimate(table), rtol=0, atol=1e-12
        )


def test_linear_inversion_rejects_a_setting_without_counts():
    # Totals of zero are within tolerance of a tiny shot count.
    rows = tuple(CountRow(setting, "0", 0.0) for setting in all_pauli_settings(1))
    table = CountsTable(rows=rows, shots_per_setting=1e-7)
    with pytest.raises(ValidationError, match="has no counts"):
        reconstruct_linear(table)


def test_linear_inversion_requires_complete_settings():
    table = exact_counts(ghz_rho(), settings=["ZZZ"])
    with pytest.raises(IncompleteSettingsError):
        reconstruct_linear(table)
    with pytest.raises(IncompleteSettingsError):
        reconstruct_mle(table)


def test_completeness_check_stays_cheap_on_wide_tables():
    # 3^40 settings could never be listed; the check must not try.
    row = CountRow("Z" * 40, "0" * 40, 1)
    table = CountsTable(rows=(row,), shots_per_setting=1)
    with pytest.raises(IncompleteSettingsError, match=f"and {3**40 - 7} more"):
        reconstruct_mle(table)


def test_mle_on_exact_statistics_recovers_truth():
    rho = ghz_rho()
    estimate = reconstruct_mle(exact_counts(rho))
    np.testing.assert_allclose(estimate.matrix, rho.matrix, atol=1e-6)


def test_mle_likelihood_never_decreases_with_more_iterations():
    table = simulate_counts(ghz_rho(), shots=500, seed=3)
    values = [
        log_likelihood(reconstruct_mle(table, max_iters=k).matrix, table)
        for k in (1, 2, 5, 20, 100)
    ]
    for earlier, later in zip(values, values[1:]):
        assert later >= earlier - 1e-9


@pytest.mark.parametrize("shots,floor", [(1_000, 0.95), (10_000, 0.98)])
def test_mle_round_trip_fidelity(shots, floor):
    truth = ghz_rho()
    table = simulate_counts(truth, shots=shots, seed=7)
    estimate = reconstruct_mle(table)
    assert fidelity_pure(estimate, ghz_state()) > floor


def test_mle_round_trip_on_w_state():
    truth = DensityMatrix.from_pure(w_state(0.9, -1.7).vector)
    table = simulate_counts(truth, shots=5_000, seed=11)
    estimate = reconstruct_mle(table)
    assert fidelity_pure(estimate, w_state(0.9, -1.7)) > 0.97


def test_mle_returns_physical_state_on_arbitrary_counts():
    # Counts need not come from any quantum state; the estimator must still
    # produce a valid density matrix (the constructor enforces it).
    rng = np.random.default_rng(99)
    settings = all_pauli_settings(2)
    outcomes = [format(o, "02b") for o in range(4)]
    for _ in range(10):
        rows = []
        for setting in settings:
            probs = rng.dirichlet(np.ones(4))
            counts = rng.multinomial(400, probs)
            rows.extend(
                CountRow(setting, outcomes[o], int(c)) for o, c in enumerate(counts)
            )
        table = CountsTable(rows=tuple(rows), shots_per_setting=400)
        estimate = reconstruct_mle(table)
        assert estimate.matrix.shape == (4, 4)
        assert np.trace(estimate.matrix).real == pytest.approx(1.0, abs=1e-9)


def test_counts_table_validation():
    good = CountRow("ZZ", "00", 5)
    with pytest.raises(ValidationError):
        CountsTable(rows=(), shots_per_setting=5)
    with pytest.raises(ValidationError):
        CountsTable(rows=(CountRow("ZZ", "0", 5),), shots_per_setting=5)
    with pytest.raises(ValidationError):
        CountsTable(rows=(CountRow("ZZ", "02", 5),), shots_per_setting=5)
    with pytest.raises(ValidationError):
        CountsTable(rows=(CountRow("ZZ", "00", -1),), shots_per_setting=5)
    with pytest.raises(ValidationError):
        # 5 counted, 6 promised.
        CountsTable(rows=(good,), shots_per_setting=6)
    table = CountsTable(rows=(good,), shots_per_setting=5)
    assert table.num_qubits == 2


def test_counts_file_round_trip(tmp_path):
    table = simulate_counts(ghz_rho(), shots=777, seed=13)
    path = tmp_path / "counts.txt"
    write_counts(table, path)
    loaded = read_counts(path)
    assert loaded.rows == table.rows
    assert loaded.shots_per_setting == table.shots_per_setting
    assert loaded.seed == 13


def test_counts_file_round_trip_with_float_counts(tmp_path):
    table = exact_counts(ghz_rho(), shots=2.5)
    path = tmp_path / "counts.txt"
    write_counts(table, path)
    loaded = read_counts(path)
    assert loaded.rows == table.rows
    assert loaded.seed is None


def test_read_counts_reports_malformed_row_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "# shots_per_setting: 10\n"
        "ZZZ 000 4\n"
        "ZZZ 111\n",
        encoding="utf-8",
    )
    with pytest.raises(CountsParseError, match="line 3"):
        read_counts(path)


def test_read_counts_reports_bad_count_value(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "# shots_per_setting: 10\n"
        "ZZZ 000 four\n",
        encoding="utf-8",
    )
    with pytest.raises(CountsParseError, match="line 2.*four"):
        read_counts(path)


def test_read_counts_requires_shots_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ZZZ 000 10\n", encoding="utf-8")
    with pytest.raises(CountsParseError, match="shots_per_setting"):
        read_counts(path)


def test_read_counts_flags_truncated_file(tmp_path):
    table = simulate_counts(ghz_rho(), settings=["XXX", "ZZZ"], shots=100, seed=2)
    path = tmp_path / "counts.txt"
    write_counts(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    # Drop the tail of the last setting block so its total comes up short.
    path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
    with pytest.raises(CountsParseError, match="counts sum to"):
        read_counts(path)
