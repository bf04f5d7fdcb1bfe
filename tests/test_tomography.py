from __future__ import annotations

import contextlib
import itertools
from functools import cache, reduce

import numpy as np
import pytest

from conftest import ROW_FAULT_FILES, random_density
from identangle import (
    CountRow,
    CountsTable,
    CountsParseError,
    DelayModel,
    DensityMatrix,
    IncompleteSettingsError,
    ValidationError,
    all_pauli_settings,
    axis_eigenvectors,
    balanced_tritter_rows,
    born_probabilities,
    density_matrix_from_spec,
    exact_counts,
    fidelity_pure,
    ghz_state,
    gram_from_delays,
    log_likelihood,
    read_counts,
    reconstruct_linear,
    reconstruct_mle,
    simulate_counts,
    w_preset,
    w_state,
    write_counts,
)
from identangle import tomography
from identangle.tomography import _project_density

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
    for table in (simulate_counts(ghz_rho(), shots=500, seed=3), dirichlet_tables()[0]):
        values = [
            log_likelihood(reconstruct_mle(table, max_iters=k).matrix, table)
            for k in (1, 2, 5, 20, 100, 200)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-9


@cache
def dirichlet_tables() -> tuple[CountsTable, ...]:
    """The first ten 300-shot tables of acceptance criterion 7: per setting,
    multinomial counts of a Dirichlet draw, so no state need fit them."""
    rng = np.random.default_rng(2024)
    outcomes = [format(o, "03b") for o in range(8)]
    tables = []
    for _ in range(10):
        rows = []
        for setting in all_pauli_settings(3):
            counts = rng.multinomial(300, rng.dirichlet(np.ones(8)))
            rows.extend(CountRow(setting, outcomes[o], int(c)) for o, c in enumerate(counts))
        tables.append(CountsTable(rows=tuple(rows), shots_per_setting=300))
    return tuple(tables)


def w_balanced_with_delays_table() -> CountsTable:
    gram = gram_from_delays(DelayModel(coherence_length=1.0, delays=(0.0, 0.13, 0.07)))
    rho, _ = density_matrix_from_spec(w_preset(balanced_tritter_rows()), gram)
    return simulate_counts(rho, shots=10_000, seed=5)


def stacked_outcomes(table: CountsTable) -> tuple[np.ndarray, np.ndarray]:
    """Outcome eigenvectors of every setting and their counts, one row each."""
    settings = table.settings()
    vectors = np.vstack(
        [reduce(np.kron, [axis_eigenvectors(axis) for axis in s]) for s in settings]
    )
    return vectors, np.concatenate([table.counts_for(s) for s in settings])


def clipped_born(vectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.clip(np.einsum("ki,ij,kj->k", vectors.conj(), rho, vectors).real, 1e-12, None)


def r_operator(vectors: np.ndarray, counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """R = sum_k (f_k / p_k) v_k v_k^dagger, f_k the counts over their total."""
    weights = counts / counts.sum() / probs
    r_op = np.einsum("k,ki,kj->ij", weights, vectors, vectors.conj())
    return (r_op + r_op.conj().T) / 2.0


def diluted_rrhor(table: CountsTable, max_iters: int = 1000) -> np.ndarray:
    """The diluted RrhoR fit (Rehacek, Hradil, Knill & Lvovsky, PRA 75,
    042108 (2007)) that reconstruct_mle used before, written out plainly:
    from I/d, rho -> A rho A / tr with A = (1 - lam) I + lam R, lam = 1/2
    halved while the step lowers the likelihood; stops below a 1e-11 gain."""
    vectors, counts = stacked_outcomes(table)
    observed = counts > 0

    def likelihood(rho):
        probs = clipped_born(vectors, rho)
        return np.sum(counts[observed] * np.log(probs[observed])), probs

    identity = np.eye(vectors.shape[1], dtype=complex)
    rho = identity / vectors.shape[1]
    current, probs = likelihood(rho)
    for _ in range(max_iters):
        r_op = r_operator(vectors, counts, probs)
        lam = 0.5
        while lam >= 1e-8:
            step = (1.0 - lam) * identity + lam * r_op
            candidate = step @ rho @ step
            candidate = (candidate + candidate.conj().T) / 2.0
            candidate /= np.trace(candidate).real
            value, candidate_probs = likelihood(candidate)
            if value >= current - 1e-12:
                break
            lam /= 2.0
        else:
            break
        gain = value - current
        rho, current, probs = candidate, value, candidate_probs
        if gain < 1e-11:
            break
    return rho


def test_mle_reaches_at_least_the_diluted_rrhor_likelihood():
    tables = [
        *dirichlet_tables()[:8],
        simulate_counts(ghz_rho(), shots=100_000, seed=7),
        w_balanced_with_delays_table(),
    ]
    for index, table in enumerate(tables):
        shots = sum(row.count for row in table.rows)
        fitted = log_likelihood(reconstruct_mle(table).matrix, table) / shots
        reference = log_likelihood(diluted_rrhor(table), table) / shots
        # 1e-9 nat per shot is the benchmark's likelihood tolerance.
        assert fitted >= reference - 1e-9, index


def test_mle_satisfies_the_optimality_condition():
    # rho maximises the likelihood over density matrices iff R(rho) <= I,
    # with equality on the support of rho.
    for index, table in enumerate(
        [*dirichlet_tables(), simulate_counts(ghz_rho(), shots=100_000, seed=7)]
    ):
        vectors, counts = stacked_outcomes(table)
        rho = reconstruct_mle(table).matrix
        r_op = r_operator(vectors, counts, clipped_born(vectors, rho))
        assert np.linalg.eigvalsh(r_op).max() - 1.0 <= 1e-6, index


def simplex_projection(values: list[float]) -> list[float]:
    """Euclidean projection onto {x >= 0, sum x = 1}: lower every value by
    the largest shift that leaves the kept values summing to one."""
    ordered = sorted(values, reverse=True)
    shift = 0.0
    for kept in range(1, len(ordered) + 1):
        candidate = (sum(ordered[:kept]) - 1.0) / kept
        if ordered[kept - 1] > candidate:
            shift = candidate
    return [max(value - shift, 0.0) for value in values]


def test_project_density_returns_a_density_matrix():
    rng = np.random.default_rng(8)
    for dim in (2, 4, 8):
        for scale in (0.1, 1.0, 10.0):
            a = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            projected = _project_density((a + a.conj().T) / 2.0)
            assert np.array_equal(projected, projected.conj().T)
            assert np.linalg.eigvalsh(projected).min() >= -1e-12
            assert abs(np.trace(projected) - 1.0) <= 1e-12
            DensityMatrix(projected)


def test_project_density_leaves_density_matrices_unchanged():
    rng = np.random.default_rng(9)
    states = [random_density(rng, dim) for dim in (2, 4, 8)]
    states += [ghz_rho(), DensityMatrix(np.eye(8) / 8)]
    for state in states:
        np.testing.assert_allclose(
            _project_density(state.matrix), state.matrix, rtol=0, atol=1e-12
        )


def test_project_density_of_a_diagonal_matrix_is_the_simplex_projection():
    rng = np.random.default_rng(10)
    inputs = [rng.normal(scale=s, size=8) for s in (0.1, 1.0, 5.0)]
    inputs += [np.array([0.5, 0.5, 0.5, -1.0]), np.array([3.0, 3.0]), np.zeros(4)]
    for values in inputs:
        expected = np.diag(simplex_projection(values.tolist()))
        np.testing.assert_allclose(
            _project_density(np.diag(values).astype(complex)), expected, rtol=0, atol=1e-12
        )


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


def test_mle_refuses_an_all_zero_table():
    # Zero counts match a tiny shot total within the table's tolerance.
    rows = tuple(CountRow(s, o, 0.0) for s in "XYZ" for o in "01")
    with pytest.raises(ValidationError, match="counts table is all zeros"):
        reconstruct_mle(CountsTable(rows=rows, shots_per_setting=1e-7))


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


def test_read_counts_applies_the_row_rule_once_per_row(tmp_path, monkeypatch):
    table = simulate_counts(ghz_rho(), shots=50, seed=2)
    path = tmp_path / "counts.txt"
    write_counts(table, path)
    calls = []

    def counted(*row):
        calls.append(row)
        return check_row(*row)

    check_row = tomography._check_row
    monkeypatch.setattr(tomography, "_check_row", counted)
    loaded = read_counts(path)
    assert len(calls) == len(table.rows) == 216
    assert loaded == table and loaded._index == table._index


def test_log_likelihood_refuses_counts_whose_likelihood_overflows():
    # As in reconstruct_mle: the total, 27 * 6e306, is finite, the sum of
    # n_k log p_k is not. The project-wide filterwarnings setting turns a
    # numpy overflow warning into a failure.
    rows = tuple(CountRow("".join(s), f"{o:03b}", 7.5e305)
                 for s in itertools.product("XYZ", repeat=3) for o in range(8))
    table = CountsTable(rows=rows, shots_per_setting=6e306)
    with pytest.raises(ValidationError, match="shots_per_setting 6e[+]306 overflows"):
        log_likelihood(np.eye(8) / 8, table)
    assert log_likelihood(np.eye(8) / 8, exact_counts(ghz_rho(), shots=1e300)) < 0


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


def test_read_counts_refuses_a_file_without_rows(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("# shots_per_setting: 2\n# seed: none\n", encoding="utf-8")
    with pytest.raises(CountsParseError, match="^line 2: file contains no count rows"):
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


@pytest.mark.parametrize("fault", ROW_FAULT_FILES)
def test_read_counts_reports_a_row_fault_at_its_own_line(tmp_path, fault):
    text, line, message = ROW_FAULT_FILES[fault]
    path = tmp_path / "counts.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CountsParseError, match=f"^line {line}: {message}") as caught:
        read_counts(path)
    assert caught.value.line == line
    assert "CountRow" not in str(caught.value)


@pytest.mark.parametrize("old,new,line,message", [
    ("# qubits: 3", "# qubits: 2", 2, "qubits header says 2, the rows have 3 axes"),
    ("# qubits: 3", "# qubits: three", 2, "bad qubits value 'three'"),
    ("# seed: 4", "# seed: 4\n# shots_per_setting: 30", 5, "repeated shots_per_setting header"),
    ("# shots_per_setting: 30", "# shots_per_setting: 0", 3, "shots_per_setting must be positive"),
])
def test_read_counts_checks_the_headers(tmp_path, old, new, line, message):
    path = tmp_path / "counts.txt"
    table = simulate_counts(ghz_rho(), settings=["XXX", "ZZZ"], shots=30, seed=4)
    write_counts(table, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(CountsParseError, match=f"^line {line}: {message}"):
        read_counts(path)
    # The qubits header is optional.
    path.write_text(text.replace("# qubits: 3\n", ""), encoding="utf-8")
    assert read_counts(path).rows == table.rows


def naive_counts(rows: list[CountRow], num_qubits: int) -> dict[str, list[float]]:
    """Per-setting count vectors, settings in first-seen order, each count
    added to its outcome in row order."""
    counts: dict[str, list[float]] = {}
    for setting, outcome, count in rows:
        counts.setdefault(setting, [0.0] * 2**num_qubits)[int(outcome, 2)] += float(count)
    return counts


@pytest.mark.parametrize("seed", range(20))
def test_counts_for_matches_a_naive_accumulation_bit_for_bit(seed):
    # Shuffled rows, repeated (setting, outcome) pairs and float counts.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    shots = float(rng.uniform(1.0, 1000.0))
    chosen = rng.permutation(all_pauli_settings(n))[: rng.integers(1, 3**n + 1)]
    rows = []
    for setting in chosen:
        outcomes = rng.integers(0, 2**n, size=rng.integers(1, 3 * 2**n))
        shares = rng.dirichlet(np.ones(len(outcomes))) * shots
        rows += [CountRow(str(setting), format(o, f"0{n}b"), float(c))
                 for o, c in zip(outcomes, shares)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    table = CountsTable(rows=tuple(rows), shots_per_setting=shots)
    expected = naive_counts(rows, n)
    assert table.settings() == list(expected)
    for setting, counts in expected.items():
        assert table.counts_for(setting).tobytes() == np.array(counts).tobytes()


def test_counts_for_gives_zeros_for_an_absent_setting_and_cannot_change_the_table():
    table = simulate_counts(ghz_rho(), settings=["ZZZ", "XXX"], shots=50, seed=1)
    before = {setting: table.counts_for(setting).copy() for setting in table.settings()}
    np.testing.assert_array_equal(table.counts_for("YYY"), np.zeros(8))
    for setting in ("ZZZ", "XXX", "YYY"):
        vector = table.counts_for(setting)
        with contextlib.suppress(ValueError):
            vector[:] = -1.0
    for setting, counts in before.items():
        np.testing.assert_array_equal(table.counts_for(setting), counts)
    np.testing.assert_array_equal(table.counts_for("YYY"), np.zeros(8))
