from __future__ import annotations

import collections
import contextlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from functools import cache, reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROW_FAULT_FILES, random_density
from identangle import (
    CountRow,
    CountsTable,
    CountsParseError,
    DensityMatrix,
    IncompleteSettingsError,
    ValidationError,
    balanced_tritter_rows,
    density_matrix_from_spec,
    dft_tritter_rows,
    fidelity_pure,
    ghz_preset,
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
from identangle.tomography import (
    _AXIS_STACK,
    _all_pauli_settings,
    _exact_counts,
    _project_density,
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
    assert _all_pauli_settings(1) == ["X", "Y", "Z"]
    two = _all_pauli_settings(2)
    assert len(two) == 9
    assert two[0] == "XX" and two[-1] == "ZZ"
    assert two == sorted(two)
    assert len(_all_pauli_settings(3)) == 27
    with pytest.raises(ValidationError):
        _all_pauli_settings(0)


@pytest.mark.parametrize("axis", "XYZ")
def test_eigenvectors_diagonalize_each_axis(axis):
    plus, minus = _AXIS_STACK[tomography.PAULI_AXES.index(axis)]
    np.testing.assert_allclose(PAULI[axis] @ plus, plus, atol=1e-15)
    np.testing.assert_allclose(PAULI[axis] @ minus, -minus, atol=1e-15)
    assert abs(plus.conj() @ minus) < 1e-15


def test_unknown_axis_rejected():
    with pytest.raises(ValidationError, match="'XQZ' must be a nonempty string over the axes XYZ"):
        simulate_counts(ghz_rho(), settings=["XQZ"])


def born(rho: DensityMatrix, setting: str) -> np.ndarray:
    """The outcome distribution of one setting: its counts at one shot."""
    return _exact_counts(rho, settings=[setting]).counts[0]


def test_born_probabilities_ghz_z_basis():
    probs = born(ghz_rho(), "ZZZ")
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_born_probabilities_ghz_x_basis():
    # GHZ correlations in the X basis: only even-parity outcomes appear.
    probs = born(ghz_rho(), "XXX")
    expected = np.zeros(8)
    expected[[0, 3, 5, 6]] = 0.25
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_born_probabilities_maximally_mixed():
    rho = DensityMatrix(np.eye(8) / 8)
    for setting in ("XXX", "XYZ", "ZZZ"):
        np.testing.assert_allclose(
            born(rho, setting), np.full(8, 1 / 8), atol=1e-12
        )


def test_born_probabilities_rejects_wrong_width():
    with pytest.raises(ValidationError, match="'ZZ' has 2 axes, expected 3"):
        born(ghz_rho(), "ZZ")


def test_counts_of_a_state_with_eigenvalues_just_below_zero():
    # The smallest eigenvalue, -9e-10, is within PSD_TOL, and the trace is 1;
    # the clipped Z-basis probabilities alone sum to 1 + 6.3e-9.
    rho = DensityMatrix(np.diag([1 + 6.3e-9] + [-9e-10] * 7))
    assert born(rho, "ZZZ").tolist() == [1.0] + [0.0] * 7
    table = simulate_counts(rho, shots=100, seed=1)
    assert table.counts[table.settings.index("ZZZ")].tolist() == [100] + [0] * 7
    table = _exact_counts(rho)
    assert table.counts[table.settings.index("ZZZ")].tolist() == [1.0] + [0.0] * 7


def test_simulate_counts_is_deterministic_per_seed():
    rho = ghz_rho()
    a = simulate_counts(rho, shots=200, seed=5)
    b = simulate_counts(rho, shots=200, seed=5)
    assert a.rows == b.rows
    assert a.seed == 5
    c = simulate_counts(rho, shots=200, seed=6)
    assert c.rows != a.rows
    # The defaults are 1000 shots and seed 0.
    default = simulate_counts(rho)
    assert (default.shots_per_setting, default.seed) == (1000, 0)
    assert default.rows == simulate_counts(rho, shots=1000, seed=0).rows


def test_simulate_counts_totals_and_validation():
    table = simulate_counts(ghz_rho(), settings=["ZZZ", "XYZ"], shots=321, seed=1)
    assert table.settings == ("ZZZ", "XYZ")
    for setting in table.settings:
        assert table.counts[table.settings.index(setting)].sum() == 321
    with pytest.raises(ValidationError):
        simulate_counts(ghz_rho(), shots=0)
    with pytest.raises(ValidationError):
        simulate_counts(ghz_rho(), seed=-1)
    with pytest.raises(ValidationError, match="nonempty sequence of settings"):
        simulate_counts(ghz_rho(), settings=[])
    with pytest.raises(ValidationError, match="nonempty sequence of settings, got 'ZZZ'"):
        simulate_counts(ghz_rho(), settings="ZZZ")
    with pytest.raises(ValidationError, match="settings must be distinct"):
        simulate_counts(ghz_rho(), settings=["ZZZ", "XYZ", "ZZZ"])
    # Both ends of the shot range are taken.
    for shots in (1, 2**53):
        table = simulate_counts(ghz_rho(), settings=["ZZZ", "XYZ"], shots=shots)
        assert table.counts.sum(axis=1).tolist() == [shots, shots]


def test_counts_table_takes_totals_within_a_millionth_of_the_shots():
    # The tolerance is 1e-6 times the larger of 1 and shots_per_setting.
    for shots in (0.5, 1, 1000):
        tol = 1e-6 * max(1.0, shots)
        CountsTable(("Z",), [[shots / 2, shots / 2 + 0.9 * tol]], shots)
        with pytest.raises(ValidationError, match="^setting Z: counts sum to "):
            CountsTable(("Z",), [[shots / 2, shots / 2 + 2 * tol]], shots)
    # At 1e6 shots the tolerance is exactly 1.0, and a total exactly 1 off is taken.
    assert CountsTable(("Z",), [[500_000, 500_001]], 1_000_000).counts.sum() == 1_000_001


def test_linear_inversion_inverts_exact_statistics():
    rng = np.random.default_rng(42)
    rho = random_density(rng)
    table = _exact_counts(rho)
    estimate = reconstruct_linear(table)
    np.testing.assert_allclose(estimate, rho.matrix, atol=1e-9)


def pauli_average_estimate(table: CountsTable) -> np.ndarray:
    """rho = (1/d) sum_P <P> P, each <P> averaged over the settings measuring P."""
    n = table.num_qubits
    outcomes = [format(o, f"0{n}b") for o in range(2**n)]
    counts = dict(zip(table.settings, table.counts))
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
    rows = tuple(CountRow(setting, "0", 0.0) for setting in _all_pauli_settings(1))
    table = CountsTable.from_rows(rows, shots_per_setting=1e-7)
    with pytest.raises(ValidationError, match="has no counts"):
        reconstruct_linear(table)


def test_linear_inversion_requires_complete_settings():
    table = _exact_counts(ghz_rho(), settings=["ZZZ"])
    with pytest.raises(IncompleteSettingsError):
        reconstruct_linear(table)
    with pytest.raises(IncompleteSettingsError):
        reconstruct_mle(table)
    # Six missing settings are all listed, with no count of more.
    every = _all_pauli_settings(3)
    table = _exact_counts(ghz_rho(), settings=every[:-6])
    with pytest.raises(IncompleteSettingsError) as caught:
        reconstruct_mle(table)
    assert str(caught.value) == (
        "settings are not informationally complete; missing " + ", ".join(every[-6:])
    )


def test_completeness_check_stays_cheap_on_wide_tables():
    # 3^20 settings could never be listed; the check must not try.
    row = CountRow("Z" * 20, "0" * 20, 1)
    table = CountsTable.from_rows((row,), shots_per_setting=1)
    with pytest.raises(IncompleteSettingsError, match=f"and {3**20 - 7} more"):
        reconstruct_mle(table)


def test_a_table_wider_than_20_qubits_is_refused():
    # Its grid would hold 2^N counts per setting.
    with pytest.raises(ValidationError, match="21 axes, at most 20 are held"):
        CountsTable.from_rows([("Z" * 21, "0" * 21, 1)], shots_per_setting=1)
    with pytest.raises(ValidationError, match="40 axes, at most 20 are held"):
        CountsTable(("Z" * 40,), np.ones((1, 1)), shots_per_setting=1)


def test_mle_on_exact_statistics_recovers_truth():
    rho = ghz_rho()
    estimate = reconstruct_mle(_exact_counts(rho))
    np.testing.assert_allclose(estimate.matrix, rho.matrix, atol=1e-6)


def test_mle_likelihood_never_decreases_with_more_iterations():
    # The crawling table takes the Newton stage after iteration 2, at its
    # rank check, and the stage tries 5 candidates: fits of 1-9 iterations
    # stop before it, inside it and just after it, and the rest on the
    # gradient after it.
    crawling = (*range(1, 15), 20, 60, 65, 66, 67, 68, 100, 200)
    for table, iterations in (
        (simulate_counts(ghz_rho(), shots=500, seed=3), (1, 2, 5, 20, 100, 200)),
        (dirichlet_tables()[0], (1, 2, 5, 20, 100, 200)),
        (crawling_ghz_table(), crawling),
    ):
        values = [
            log_likelihood(reconstruct_mle(table, max_iters=k).matrix, table)
            for k in iterations
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
        for setting in _all_pauli_settings(3):
            counts = rng.multinomial(300, rng.dirichlet(np.ones(8)))
            rows.extend(CountRow(setting, outcomes[o], int(c)) for o, c in enumerate(counts))
        tables.append(CountsTable.from_rows(rows, shots_per_setting=300))
    return tuple(tables)


def w_balanced_with_delays_table() -> CountsTable:
    gram = gram_from_delays((0.0, 0.13, 0.07), 1.0)
    rho, _ = density_matrix_from_spec(w_preset(balanced_tritter_rows()), gram)
    return simulate_counts(rho, shots=10_000, seed=5)


@cache
def crawling_ghz_table() -> CountsTable:
    """A near-pure GHZ-preset state, eigenvalues 0.99998 and 1.6e-5: the
    projected gradient alone takes 2,034 likelihood evaluations on it."""
    gram = gram_from_delays((0.0, 0.002895, 0.00651), 1.0)
    rho, _ = density_matrix_from_spec(ghz_preset(), gram)
    return simulate_counts(rho, shots=10_000, seed=23)


@cache
def full_rank_four_qubit_table() -> CountsTable:
    """200 shots of a random full-rank 4-qubit state, whose fit runs past
    150 likelihood evaluations with a factor above the Newton stage's size cap."""
    return simulate_counts(random_density(np.random.default_rng(4), 16), shots=200, seed=4)


@contextlib.contextmanager
def counted_calls(monkeypatch, name: str):
    """Records the calls of ``tomography.<name>`` made inside the block:
    ``_likelihood`` counts likelihood evaluations, ``_damped_step`` Newton
    steps solved."""
    calls = []
    function = getattr(tomography, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(tomography, name, counted)
    yield calls
    monkeypatch.setattr(tomography, name, function)


def test_mle_finishes_a_crawling_fit_with_the_newton_stage(monkeypatch):
    # The state is near-pure, so the stage starts at the rank check, and
    # the fit ends long before 150 evaluations.
    starts = []
    newton = tomography._low_rank_newton

    def spied(*args):
        starts.append(len(calls))
        return newton(*args)

    monkeypatch.setattr(tomography, "_low_rank_newton", spied)
    with counted_calls(monkeypatch, "_likelihood") as calls:
        reconstruct_mle(crawling_ghz_table())
    assert len(starts) == 1
    assert tomography._MLE_RANK_CHECK <= starts[0] < 150
    assert len(calls) < 80


def test_mle_rank_check_leaves_a_fit_at_the_likelihood_rounding_alone(monkeypatch):
    # These pure-GHZ fits are low-rank and still running at a rank check
    # from 40 evaluations on, but each step there gains a few ulps of the
    # likelihood, its rounding, which no Newton candidate can beat. Without
    # the floor they take it.
    def refused(*args):
        raise AssertionError("the Newton stage was entered")

    tables = [simulate_counts(ghz_rho(), shots=100_000, seed=seed) for seed in (32, 33)]
    with monkeypatch.context() as patched:
        patched.setattr(tomography, "_MLE_RANK_CHECK", 40)
        patched.setattr(tomography, "_low_rank_newton", refused)
        for table in tables:
            with counted_calls(patched, "_likelihood") as calls:
                reconstruct_mle(table)
            assert len(calls) > tomography._MLE_RANK_CHECK
        patched.setattr(tomography, "_MLE_FLOOR", 0.0)
        for table in tables:
            with pytest.raises(AssertionError, match="the Newton stage was entered"):
                reconstruct_mle(table)

    # From the default check on, their gains are still above the rounding:
    # they take the stage and finish sooner, at the likelihood they reach
    # with the stage refused.
    def fit(table):
        with counted_calls(monkeypatch, "_likelihood") as calls:
            rho = reconstruct_mle(table).matrix
        return log_likelihood(rho, table) / table.counts.sum(), len(calls)

    for table in (*tables, simulate_counts(ghz_rho(), shots=100_000, seed=7)):
        staged, staged_evaluations = fit(table)
        with monkeypatch.context() as patched:
            patched.setattr(tomography, "_MLE_RANK_CHECK", math.inf)
            refused_value, refused_evaluations = fit(table)
        assert staged >= refused_value - 1e-12
        assert staged_evaluations < refused_evaluations


def test_mle_resumes_with_a_full_step_after_the_newton_stage(monkeypatch):
    # The step of this fit collapses to the 1e-10 floor before the rank
    # check, and the rank-2 Newton optimum lacks the fit's third eigenvalue,
    # 5e-5. Resumed with that step, the gradient would gain less than
    # _MLE_TOL at once and stop 2.3e-8 nat/shot below the fit without the
    # rank check.
    gram = gram_from_delays((0.0, 0.100463, 0.070791), 1.0)
    rho, _ = density_matrix_from_spec(w_preset(balanced_tritter_rows()), gram)
    table = simulate_counts(rho, shots=10_000, seed=732477250)
    early = log_likelihood(reconstruct_mle(table).matrix, table)
    monkeypatch.setattr(tomography, "_MLE_RANK_CHECK", math.inf)
    late = log_likelihood(reconstruct_mle(table).matrix, table)
    assert early >= late - 1e-12 * table.counts.sum()


def test_mle_stages_a_fit_again_when_its_rank_grows(monkeypatch):
    # This W-balanced fit is rank 2 at first and rank 3 later, its third
    # eigenvalue 5e-5. Staged only at rank 2, it would crawl on the
    # gradient to grow the third.
    stages = []
    newton = tomography._low_rank_newton

    def spied(factor, *args):
        stages.append((factor.shape[1], len(calls)))
        return newton(factor, *args)

    gram = gram_from_delays((0.0, 0.100463, 0.070791), 1.0)
    rho, _ = density_matrix_from_spec(w_preset(balanced_tritter_rows()), gram)
    monkeypatch.setattr(tomography, "_low_rank_newton", spied)
    with counted_calls(monkeypatch, "_likelihood") as calls:
        reconstruct_mle(simulate_counts(rho, shots=10_000, seed=732477250))
    assert [rank for rank, _ in stages] == [2, 3]
    assert all(start < 150 for _, start in stages)


def test_newton_stage_at_the_likelihood_rounding_stops_at_once(monkeypatch):
    # The projected gradient alone takes this fit to the rounding of its
    # likelihood, where no candidate can gain: the stage stops at its first
    # rejected candidate instead of damping it 30 times more.
    table = simulate_counts(ghz_rho(), shots=100_000, seed=32)
    monkeypatch.setattr(tomography, "_MLE_RANK_CHECK", math.inf)
    fit = reconstruct_mle(table).matrix
    values, basis = np.linalg.eigh(fit)
    keep = values > 1e-9 * values[-1]
    counts = table.counts.ravel()
    _, trials = tomography._low_rank_newton(
        basis[:, keep] * np.sqrt(values[keep]), tomography._setting_vectors(table.settings),
        counts, counts > 0, log_likelihood(fit, table), 100,
    )
    assert trials <= 3


def newton_inputs(table: CountsTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The setting vectors, counts and counted mask the fit hands the stage."""
    counts = table.counts.ravel()
    return tomography._setting_vectors(table.settings), counts, counts > 0


def test_newton_stage_refuses_a_factor_that_misses_a_counted_outcome(monkeypatch):
    # GHZ counts fall on |000> and |111> in ZZZ; a factor with amplitude 1e-7
    # on |111> gives that outcome q = 1e-14, under the likelihood's floor,
    # where F is not the likelihood the fit maximises. The stage returns the
    # normalised factor untouched, without a step.
    table = simulate_counts(ghz_rho(), shots=100, seed=1)
    factor = np.zeros((8, 1), dtype=complex)
    factor[0, 0], factor[7, 0] = 1.0, 1e-7
    with counted_calls(monkeypatch, "_damped_step") as steps:
        a, trials = tomography._low_rank_newton(
            factor, *newton_inputs(table), log_likelihood(factor @ factor.conj().T, table), 50
        )
    assert trials == 0 and steps == []
    assert a.tobytes() == (factor / np.linalg.norm(factor)).tobytes()


def test_newton_stage_returns_at_a_stationary_point_without_a_step(monkeypatch):
    # A Z table with every count on the +1 outcome: |0> gives it q = 1 and
    # is the maximum, its gradient exactly zero, so mu = 0 and there is no
    # step to solve.
    table = CountsTable.from_rows([CountRow("Z", "0", 7), CountRow("Z", "1", 0)],
                                  shots_per_setting=7)
    factor = np.array([[1.0], [0.0]], dtype=complex)
    with counted_calls(monkeypatch, "_damped_step") as steps:
        a, trials = tomography._low_rank_newton(factor, *newton_inputs(table), 0.0, 50)
    assert trials == 0 and steps == []
    assert a.tobytes() == factor.tobytes()


def test_newton_stage_ends_on_an_accepted_candidate_below_the_tolerance(monkeypatch):
    # The fit hands the stage the likelihood of its whole state, which the
    # factor's own can fall short of. A candidate that beats it by less than
    # _MLE_TOL ends the stage at once, even one step from a factor far from
    # the optimum, where the next step would gain again.
    rows = [CountRow(axis, outcome, count)
            for axis, pair in zip("XYZ", ((7, 3), (4, 6), (8, 2)))
            for outcome, count in zip("01", pair)]
    table = CountsTable.from_rows(rows, shots_per_setting=10)
    inputs = newton_inputs(table)
    factor = np.array([[0.3 + 0.2j], [0.9 - 0.1j]])
    own = log_likelihood(factor @ factor.conj().T / np.vdot(factor, factor).real, table)
    _, trials = tomography._low_rank_newton(factor, *inputs, own, 50)
    assert trials > 1  # from its own likelihood, the stage takes more steps
    first, _ = tomography._low_rank_newton(factor, *inputs, own, 1)
    value = log_likelihood(first @ first.conj().T, table)
    assert value - own > 1e-3
    with counted_calls(monkeypatch, "_damped_step") as steps:
        a, trials = tomography._low_rank_newton(
            factor, *inputs, value - tomography._MLE_TOL / 2.0, 50
        )
    assert trials == 1 and len(steps) == 1
    assert a.tobytes() == first.tobytes()


def test_damped_step_solves_the_shifted_system():
    rng = np.random.default_rng(30)
    for size in (2, 16, 48):
        a = rng.normal(size=(size, size))
        grad = rng.normal(size=size)
        # Positive definite: the step of the eigen-decomposition, unshifted.
        curvature = a @ a.T + 0.1 * np.eye(size)
        lam, basis = np.linalg.eigh(curvature)
        expected = basis @ ((basis.T @ grad) / (lam + 0.5))
        step, gain = tomography._damped_step(curvature, grad, 0.5)
        np.testing.assert_allclose(step, expected, rtol=1e-10, atol=0)
        assert gain == pytest.approx(grad @ step - step @ curvature @ step / 2.0, rel=1e-10)
        # Indefinite beyond the damping: shifted by -lambda_min, still an ascent.
        basis = np.linalg.qr(a)[0]
        lam = np.linspace(-2.0, 3.0, size)
        curvature = (basis * lam) @ basis.T
        step, gain = tomography._damped_step(curvature, grad, 0.5)
        expected = basis @ ((basis.T @ grad) / (lam - lam[0] + 0.5))
        np.testing.assert_allclose(step, expected, rtol=1e-8, atol=0)
        assert grad @ step > 0 and gain > 0


def run_kind_tables() -> list[CountsTable]:
    """Seeded tables of the kinds ``run`` simulates: GHZ at 300 and 1,000
    shots and W-balanced at 10,000 and W-dft at 3,000, each with two delays
    drawn from [0, 0.2] coherence lengths."""
    rng = np.random.default_rng(27)
    kinds = ((ghz_preset(), 300), (ghz_preset(), 1_000),
             (w_preset(balanced_tritter_rows()), 10_000), (w_preset(dft_tritter_rows()), 3_000))
    tables = []
    for spec, shots in kinds * 3:
        delays = (0.0, *rng.uniform(0.0, 0.2, size=2))
        gram = gram_from_delays(delays, 1.0)
        rho, _ = density_matrix_from_spec(spec, gram)
        tables.append(simulate_counts(rho, shots=shots, seed=int(rng.integers(2**31))))
    return tables


def test_mle_rank_check_takes_fewer_evaluations_and_keeps_the_likelihood(monkeypatch):
    def fits():
        with counted_calls(monkeypatch, "_likelihood") as calls:
            states = [reconstruct_mle(table).matrix for table in tables]
        values = [log_likelihood(rho, t) / t.counts.sum() for rho, t in zip(states, tables)]
        return values, len(calls)

    tables = run_kind_tables()
    early, early_evaluations = fits()
    monkeypatch.setattr(tomography, "_MLE_RANK_CHECK", math.inf)
    late, late_evaluations = fits()
    for with_check, without in zip(early, late):
        assert with_check >= without - 1e-12
    assert early_evaluations < late_evaluations


def test_mle_takes_the_newton_stage_from_the_rank_check_at_new_ranks_within_the_cap(monkeypatch):
    # The Dirichlet tables fit no state: each takes one rank-5 stage just
    # after the rank check and ends within 17-24 evaluations. The 4-qubit
    # fit's factor is above the size cap, so it never takes the stage.
    stages = []
    newton = tomography._low_rank_newton

    def spied(factor, *args):
        stages.append((factor.shape[1], len(calls)))
        return newton(factor, *args)

    monkeypatch.setattr(tomography, "_low_rank_newton", spied)
    for table in dirichlet_tables():
        stages.clear()
        with counted_calls(monkeypatch, "_likelihood") as calls:
            reconstruct_mle(table)
        assert stages and all(start >= tomography._MLE_RANK_CHECK for _, start in stages)
        ranks = [rank for rank, _ in stages]
        assert all(rank != later for rank, later in zip(ranks, ranks[1:]))

    def refused(*args):
        raise AssertionError("the Newton stage was entered")

    monkeypatch.setattr(tomography, "_low_rank_newton", refused)
    with counted_calls(monkeypatch, "_likelihood") as calls:
        reconstruct_mle(full_rank_four_qubit_table())
    assert len(calls) > 150


@pytest.mark.parametrize("noise, seed, ranks, most, margin", [
    # Seven small eigenvalues 1e-5: staged at rank 5, the fit ends in 44
    # evaluations; refused, it takes 2,148 and stops 1e-10 nat/shot lower.
    (8e-5, 5, [5], 200, 1e-12),
    # Eigenvalues 1.5e-5 to 1.3e-4 beside 0.9997: staged at rank 4, then at
    # rank 5 as its rank grows, the fit ends in 65 evaluations; refused, it
    # takes 1,788 and stops 2.3e-12 nat/shot lower.
    (3e-4, 3, [4, 5], 150, 0.0),
])
def test_mle_newton_stage_finishes_a_full_rank_fit(monkeypatch, noise, seed, ranks, most, margin):
    # GHZ with white noise at 100,000 shots is full rank, so the gradient
    # alone crawls.
    stages = []
    newton = tomography._low_rank_newton

    def spied(factor, *args):
        stages.append((factor.shape[1], len(calls)))
        return newton(factor, *args)

    def fit():
        with counted_calls(monkeypatch, "_likelihood") as counted:
            rho = reconstruct_mle(table).matrix
        return log_likelihood(rho, table) / table.counts.sum(), len(counted)

    noisy = (1 - noise) * ghz_rho().matrix + noise * np.eye(8) / 8
    table = simulate_counts(DensityMatrix(noisy), shots=100_000, seed=seed)
    monkeypatch.setattr(tomography, "_low_rank_newton", spied)
    with counted_calls(monkeypatch, "_likelihood") as calls:
        reconstruct_mle(table)
    assert [rank for rank, _ in stages] == ranks
    assert all(start >= tomography._MLE_RANK_CHECK for _, start in stages)
    staged, staged_evaluations = fit()
    monkeypatch.setattr(tomography, "_MLE_RANK_CHECK", math.inf)
    crawled, crawled_evaluations = fit()
    assert staged >= crawled + margin
    assert staged_evaluations < most and crawled_evaluations > 1000


def test_newton_stage_runs_only_on_factors_within_the_size_cap(monkeypatch):
    # The crawling fit's factor is 8 x 2 complex, 32 real entries.
    shapes = []
    newton = tomography._low_rank_newton

    def spied(factor, *args):
        shapes.append(factor.shape)
        return newton(factor, *args)

    table = crawling_ghz_table()
    monkeypatch.setattr(tomography, "_low_rank_newton", spied)
    with monkeypatch.context() as patched:
        patched.setattr(tomography, "_NEWTON_MAX_PARAMS", 0)
        capped = reconstruct_mle(table).matrix
    assert shapes == []
    # Capped, the fit is the projected gradient's alone, as if no trigger fired.
    with monkeypatch.context() as patched:
        patched.setattr(tomography, "_MLE_RANK_CHECK", math.inf)
        untriggered = reconstruct_mle(table).matrix
    assert capped.tobytes() == untriggered.tobytes()
    monkeypatch.setattr(tomography, "_NEWTON_MAX_PARAMS", 32)
    reconstruct_mle(table)
    assert shapes == [(8, 2)]


def stacked_outcomes(table: CountsTable) -> tuple[np.ndarray, np.ndarray]:
    """Outcome eigenvectors of every setting and their counts, one row each."""
    settings = table.settings
    axes = tomography.PAULI_AXES
    vectors = np.vstack(
        [reduce(np.kron, [_AXIS_STACK[axes.index(axis)] for axis in s]) for s in settings]
    )
    return vectors, table.counts.ravel()


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
        crawling_ghz_table(),
    ]
    for index, table in enumerate(tables):
        shots = sum(row.count for row in table.rows)
        fitted = log_likelihood(reconstruct_mle(table).matrix, table) / shots
        reference = log_likelihood(diluted_rrhor(table), table) / shots
        # 1e-9 nat per shot is the benchmark's likelihood tolerance.
        assert fitted >= reference - 1e-9, index


def test_mle_reaches_the_stored_likelihood_of_every_benchmark_fuzz_table():
    # The benchmark draws 3 of these 72 stored 300-shot tables per round and
    # holds each fit to its stored -log L / shot within 1e-9; this fits all.
    pool_path = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "fuzz_pool.json"
    pool = json.loads(pool_path.read_text(encoding="utf-8"))
    every = tuple(_all_pauli_settings(3))
    for index, (counts, stored) in enumerate(zip(pool["tables"], pool["nll_per_shot"])):
        table = CountsTable(every, counts, shots_per_setting=300)
        nll = -log_likelihood(reconstruct_mle(table).matrix, table) / table.counts.sum()
        assert nll <= stored + 1e-9, index


def test_mle_satisfies_the_optimality_condition():
    # rho maximises the likelihood over density matrices iff R(rho) <= I,
    # with equality on the support of rho.
    for index, table in enumerate(
        [
            *dirichlet_tables(),
            simulate_counts(ghz_rho(), shots=100_000, seed=7),
            w_balanced_with_delays_table(),
            crawling_ghz_table(),
        ]
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
            projected, _ = _project_density((a + a.conj().T) / 2.0)
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
            _project_density(state.matrix)[0], state.matrix, rtol=0, atol=1e-12
        )


def test_project_density_of_a_diagonal_matrix_is_the_simplex_projection():
    rng = np.random.default_rng(10)
    inputs = [rng.normal(scale=s, size=8) for s in (0.1, 1.0, 5.0)]
    inputs += [np.array([0.5, 0.5, 0.5, -1.0]), np.array([3.0, 3.0]), np.zeros(4)]
    for values in inputs:
        expected = np.diag(simplex_projection(values.tolist()))
        np.testing.assert_allclose(
            _project_density(np.diag(values).astype(complex))[0], expected, rtol=0, atol=1e-12
        )


def cumsum_projection(matrix: np.ndarray) -> np.ndarray:
    """The simplex projection of _project_density with the shift taken from
    numpy's cumulative sums, as it was first written."""
    values, basis = np.linalg.eigh(matrix)
    descending = values[::-1]
    shifts = (np.cumsum(descending) - 1.0) / np.arange(1, len(values) + 1)
    shift = shifts[np.nonzero(descending > shifts)[0][-1]]
    projected = (basis * np.clip(values - shift, 0.0, None)) @ basis.conj().T
    return (projected + projected.conj().T) / 2.0


def projection_inputs() -> list[np.ndarray]:
    """Seeded Hermitian matrices of dimension 2-32: random at several scales,
    with repeated eigenvalues, rank-1 projectors, multiples of the identity
    and density matrices."""
    rng = np.random.default_rng(24)
    matrices = []
    for dim in (2, 3, 4, 5, 8, 16, 32):
        for scale in (1e-3, 0.1, 1.0, 10.0, 1e3):
            a = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            matrices.append((a + a.conj().T) / 2.0)
        unitary = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        for repeated in (rng.choice([-0.5, 0.1, 0.4], size=dim), np.repeat(rng.normal(), dim)):
            matrices.append((unitary * repeated) @ unitary.conj().T)
        vector = unitary[:, 0]
        matrices += [np.outer(vector, vector.conj()), 3.0 * np.outer(vector, vector.conj())]
        matrices += [c * np.eye(dim, dtype=complex) for c in (0.0, 1.0 / dim, 1.0, -2.0, 7.5)]
        wishart = a @ a.conj().T
        matrices.append(wishart / np.trace(wishart).real)
    return matrices


def test_project_density_is_bit_equal_to_the_cumulative_sum_expression():
    for index, matrix in enumerate(projection_inputs()):
        assert _project_density(matrix)[0].tobytes() == cumsum_projection(matrix).tobytes(), index


def cumsum_kept(matrix: np.ndarray) -> int:
    """The number of eigenvalues above the shift of cumsum_projection."""
    values, _ = np.linalg.eigh(matrix)
    descending = values[::-1]
    shifts = (np.cumsum(descending) - 1.0) / np.arange(1, len(values) + 1)
    return int(np.count_nonzero(values > shifts[np.nonzero(descending > shifts)[0][-1]]))


def test_project_density_returns_the_number_of_eigenvalues_it_keeps():
    rng = np.random.default_rng(30)
    matrices = projection_inputs()
    for dim in (2, 4, 8, 16, 32):
        for rank in sorted({1, 2, 3, dim // 2, dim - 1} - {0}):
            b = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
            for scale, offset in ((1e-3, 0.0), (1.0, 0.0), (1.0, -0.3), (1e3, 0.1)):
                matrices.append(scale * (b @ b.conj().T) + offset * np.eye(dim))
    for index, matrix in enumerate(matrices):
        projected, rank = _project_density(matrix)
        assert projected.tobytes() == cumsum_projection(matrix).tobytes(), index
        assert rank == cumsum_kept(matrix), index


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
    settings = _all_pauli_settings(2)
    outcomes = [format(o, "02b") for o in range(4)]
    for _ in range(10):
        rows = []
        for setting in settings:
            probs = rng.dirichlet(np.ones(4))
            counts = rng.multinomial(400, probs)
            rows.extend(
                CountRow(setting, outcomes[o], int(c)) for o, c in enumerate(counts)
            )
        table = CountsTable.from_rows(rows, shots_per_setting=400)
        estimate = reconstruct_mle(table)
        assert estimate.matrix.shape == (4, 4)
        assert np.trace(estimate.matrix).real == pytest.approx(1.0, abs=1e-9)


def test_mle_refuses_an_all_zero_table():
    # Zero counts match a tiny shot total within the table's tolerance.
    rows = tuple(CountRow(s, o, 0.0) for s in "XYZ" for o in "01")
    with pytest.raises(ValidationError, match="counts table is all zeros"):
        reconstruct_mle(CountsTable.from_rows(rows, shots_per_setting=1e-7))


@pytest.mark.parametrize("max_iters", [-3, float("nan"), 2.5, True, False, "10", None])
def test_mle_refuses_max_iters_that_is_not_a_non_negative_integer(max_iters):
    with pytest.raises(ValidationError, match="^max_iters must be a non-negative integer, got "):
        reconstruct_mle(simulate_counts(ghz_rho(), shots=100, seed=1), max_iters=max_iters)


def test_mle_with_no_iterations_returns_the_projected_start():
    table = simulate_counts(ghz_rho(), shots=100, seed=1)
    start = reconstruct_mle(table, max_iters=0).matrix
    frequencies = table.counts.ravel() / table.counts.sum()
    vectors = tomography._setting_vectors(table.settings)
    expected, _ = _project_density(tomography._inverse_frame(vectors, frequencies * 27, 3))
    assert start.tobytes() == expected.tobytes()
    assert reconstruct_mle(table, max_iters=np.int64(0)).matrix.tobytes() == start.tobytes()


def test_counts_table_validation():
    good = CountRow("ZZ", "00", 5)
    with pytest.raises(ValidationError):
        CountsTable.from_rows((), shots_per_setting=5)
    with pytest.raises(ValidationError):
        CountsTable.from_rows((CountRow("ZZ", "0", 5),), shots_per_setting=5)
    with pytest.raises(ValidationError):
        CountsTable.from_rows((CountRow("ZZ", "02", 5),), shots_per_setting=5)
    with pytest.raises(ValidationError):
        CountsTable.from_rows((CountRow("ZZ", "00", -1),), shots_per_setting=5)
    with pytest.raises(ValidationError):
        # 5 counted, 6 promised.
        CountsTable.from_rows((good,), shots_per_setting=6)
    table = CountsTable.from_rows((good,), shots_per_setting=5)
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
    table = _exact_counts(ghz_rho(), shots=2.5)
    path = tmp_path / "counts.txt"
    write_counts(table, path)
    loaded = read_counts(path)
    assert loaded.rows == table.rows
    assert loaded.seed is None


def spy_row_rule(monkeypatch):
    """The rows that reach ``_add_row``, in order, and the number of
    ``_validate_setting`` calls per setting; both still run."""
    rows, validated = [], collections.Counter()
    add_row, validate_setting = tomography._add_row, tomography._validate_setting

    def counted_row(grid, *row):
        rows.append(row)
        add_row(grid, *row)

    def counted_setting(setting, num_qubits):
        validated[setting] += 1
        validate_setting(setting, num_qubits)

    monkeypatch.setattr(tomography, "_add_row", counted_row)
    monkeypatch.setattr(tomography, "_validate_setting", counted_setting)
    return rows, validated


def test_read_counts_applies_the_row_rule_once_per_row(tmp_path, monkeypatch):
    table = simulate_counts(ghz_rho(), shots=50, seed=2)
    path = tmp_path / "counts.txt"
    write_counts(table, path)
    rows, validated = spy_row_rule(monkeypatch)
    monkeypatch.setattr(tomography, "CountRow", None)  # parsing builds no CountRow
    loaded = read_counts(path)
    assert len(rows) == table.counts.size == 216
    # A setting is checked at its first row and once more as the table is built.
    assert validated == {setting: 2 for setting in table.settings}
    assert loaded.settings == table.settings
    assert loaded.counts.tobytes() == table.counts.tobytes()


def test_log_likelihood_refuses_counts_whose_likelihood_overflows():
    # As in reconstruct_mle: the total, 27 * 6e306, is finite, the sum of
    # n_k log p_k is not. The project-wide filterwarnings setting turns a
    # numpy overflow warning into a failure.
    rows = tuple(CountRow("".join(s), f"{o:03b}", 7.5e305)
                 for s in itertools.product("XYZ", repeat=3) for o in range(8))
    table = CountsTable.from_rows(rows, shots_per_setting=6e306)
    with pytest.raises(ValidationError, match="shots_per_setting 6e[+]306 overflows"):
        log_likelihood(np.eye(8) / 8, table)
    assert log_likelihood(np.eye(8) / 8, _exact_counts(ghz_rho(), shots=1e300)) < 0


def test_log_likelihood_is_bit_equal_to_the_masked_sum_of_clipped_logs():
    # Few shots leave many cells at zero; pure states and matrices that are
    # not positive put probabilities at 0 or below the 1e-12 floor.
    rng = np.random.default_rng(2406)
    for num_qubits in (1, 2, 3):
        dim = 2**num_qubits
        vectors = tomography._setting_vectors(_all_pauli_settings(num_qubits))
        for shots in (3, 20, 1_000):
            table = simulate_counts(random_density(rng, dim), shots=shots, seed=shots)
            c = table.counts.ravel()
            m = c > 0
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            basis = np.eye(dim)[:, :1]
            for matrix in (random_density(rng, dim).matrix, basis @ basis.T, (a + a.conj().T) / 2):
                p = np.einsum("ki,ij,kj->k", vectors.conj(), matrix, vectors).real
                expected = float(np.sum(c[m] * np.log(np.clip(p, 1e-12, None)[m])))
                assert log_likelihood(matrix, table) == expected


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
    # A missing header is reported at the last line, line 1 for an empty file.
    for text in ("ZZZ 000 10\n", ""):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CountsParseError) as caught:
            read_counts(path)
        assert str(caught.value) == "line 1: missing 'shots_per_setting' header"


def test_read_counts_refuses_a_file_without_rows(tmp_path):
    path = tmp_path / "counts.txt"
    for text, line in (("# shots_per_setting: 2\n# seed: none\n", 2), ("# shots_per_setting: 2\n", 1)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CountsParseError, match=f"^line {line}: file contains no count rows$"):
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
    with pytest.raises(CountsParseError) as caught:
        read_counts(path)
    assert str(caught.value) == f"line {line}: {message}"
    assert caught.value.line == line


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
def test_counts_grid_matches_a_naive_accumulation_bit_for_bit(seed):
    # Shuffled rows, repeated (setting, outcome) pairs and float counts.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    shots = float(rng.uniform(1.0, 1000.0))
    chosen = rng.permutation(_all_pauli_settings(n))[: rng.integers(1, 3**n + 1)]
    rows = []
    for setting in chosen:
        outcomes = rng.integers(0, 2**n, size=rng.integers(1, 3 * 2**n))
        shares = rng.dirichlet(np.ones(len(outcomes))) * shots
        rows += [CountRow(str(setting), format(o, f"0{n}b"), float(c))
                 for o, c in zip(outcomes, shares)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    table = CountsTable.from_rows(rows, shots_per_setting=shots)
    expected = naive_counts(rows, n)
    assert table.settings == tuple(expected)
    for setting, counts in expected.items():
        assert table.counts[table.settings.index(setting)].tobytes() == np.array(counts).tobytes()


def test_counts_grid_rows_cannot_change_the_table():
    table = simulate_counts(ghz_rho(), settings=["ZZZ", "XXX"], shots=50, seed=1)
    before = table.counts.copy()
    for vector in table.counts:
        with contextlib.suppress(ValueError):
            vector[:] = -1.0
    np.testing.assert_array_equal(table.counts, before)


def per_setting_born(rho: DensityMatrix, setting: str) -> np.ndarray:
    """One setting's outcome distribution on its own: the Kronecker product of
    its axis eigenbases, one einsum, clipped at zero and renormalized."""
    vectors = reduce(np.kron, [_AXIS_STACK[tomography.PAULI_AXES.index(a)] for a in setting])
    probs = np.einsum("oi,ij,oj->o", vectors.conj(), rho.matrix, vectors).real
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


@pytest.mark.parametrize("num_qubits,states", [(1, 40), (2, 20), (3, 20), (4, 4), (5, 2)])
def test_born_pass_over_all_settings_is_bit_equal_to_one_setting_at_a_time(num_qubits, states):
    rng = np.random.default_rng(100 + num_qubits)
    dim = 2**num_qubits
    for index in range(states):
        if index % 2:
            rho = random_density(rng, dim)
        else:
            vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            rho = DensityMatrix.from_pure(vector / np.linalg.norm(vector))
        expected = np.array([per_setting_born(rho, s) for s in _all_pauli_settings(num_qubits)])
        assert _exact_counts(rho).counts.tobytes() == expected.tobytes(), index
        drawn = [np.random.default_rng((index, k)).multinomial(100, p)
                 for k, p in enumerate(expected)]
        table = simulate_counts(rho, shots=100, seed=index)
        assert table.counts.tobytes() == np.array(drawn, dtype=float).tobytes(), index


def test_a_file_with_shuffled_repeated_and_missing_rows_writes_back_in_grid_order(tmp_path):
    path, back = tmp_path / "counts.txt", tmp_path / "back.txt"
    path.write_text("# shots_per_setting: 4\n# seed: 3\nZ 1 1\nX 1 2.5\nZ 1 2\nX 0 1.5\nZ 1 1\n",
                    encoding="utf-8")
    write_counts(read_counts(path), back)
    # Settings in first-seen order, every outcome listed, repeats summed.
    assert back.read_text(encoding="utf-8") == (
        "# identangle tomography counts\n# qubits: 1\n# shots_per_setting: 4\n# seed: 3\n"
        "# columns: setting outcome count\nZ 0 0\nZ 1 4\nX 0 1.5\nX 1 2.5\n"
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 3),
       table_seed=st.none() | st.integers(-(2**70), 2**70), integral=st.booleans())
def test_every_valid_table_round_trips_through_its_file(
    tmp_path_factory, seed, num_qubits, table_seed, integral
):
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(_all_pauli_settings(num_qubits))[: rng.integers(1, 3**num_qubits + 1)]
    dim = 2**num_qubits
    if integral:
        shots = int(rng.integers(1, 10**6))
        counts = [rng.multinomial(shots, rng.dirichlet(np.ones(dim))) for _ in chosen]
    else:
        shots = float(rng.uniform(1e-3, 1e6))
        counts = [rng.dirichlet(np.ones(dim)) * shots for _ in chosen]
    table = CountsTable(chosen, counts, shots, table_seed)
    path = tmp_path_factory.mktemp("round-trip") / "counts.txt"
    write_counts(table, path)
    loaded = read_counts(path)
    assert loaded.settings == table.settings
    assert loaded.counts.tobytes() == table.counts.tobytes()
    assert loaded.shots_per_setting == table.shots_per_setting
    assert loaded.seed == table.seed


@pytest.mark.parametrize("settings_,counts,seed,message", [
    (("Z",), [[1.0]], None, r"^counts have shape \(1, 1\), expected \(1, 2\)$"),
    (("Z",), [[np.nan, 1.0]], None, "^counts must be finite and non-negative$"),
    (("Z",), [[np.inf, 0.0]], None, "^counts must be finite and non-negative$"),
    (("Z",), [[-1.0, 2.0]], None, "^counts must be finite and non-negative$"),
    (("Z",), [["one", 0.0]], None, "^counts must be an array of numbers$"),
    (("Z", "Z"), [[1.0, 0.0], [0.0, 1.0]], None, "^settings must be distinct$"),
    ("ZX", [[1.0, 0.0, 0.0, 0.0]], None, "^need a nonempty sequence of settings, got 'ZX'$"),
    ((), np.zeros((0, 2)), None, r"^need a nonempty sequence of settings, got \(\)$"),
    (("Z", "XY"), [[1.0, 0.0], [1.0, 0.0]], None, "^setting 'XY' has 2 axes, expected 1$"),
    ((3,), [[1.0, 0.0]], None, "^setting '3' must be a nonempty string over the axes XYZ$"),
    (("Z",), [[1.0, 0.0]], "abc", "^seed must be None or an integer, got 'abc'$"),
    (("Z",), [[1.0, 0.0]], True, "^seed must be None or an integer, got True$"),
    (("Z",), [[1.0, 0.0]], 1.0, "^seed must be None or an integer, got 1.0$"),
    (("Z",), [[0.5, 0.0]], None, "^setting Z: counts sum to 0.5, expected 1$"),
])
def test_counts_table_refuses_a_bad_grid_at_construction(settings_, counts, seed, message):
    with pytest.raises(ValidationError, match=message):
        CountsTable(settings_, counts, 1, seed)


@pytest.mark.parametrize("shots", ["abc", None, "1", True, 1 + 0j, [1]])
def test_counts_table_refuses_shots_that_are_not_a_real_number(shots):
    with pytest.raises(ValidationError, match="^shots_per_setting must be a real number, got "):
        CountsTable(("Z",), [[1, 0]], shots)


def test_counts_table_holds_any_real_shots_as_a_float():
    for shots in (1, 1.0, np.int64(1), np.float32(1.0), Fraction(1)):
        assert CountsTable(("Z",), [[1, 0]], shots).shots_per_setting.hex() == (1.0).hex()
    # An integer beyond float range is infinite shots, not an OverflowError.
    with pytest.raises(ValidationError, match="^shots_per_setting must be finite, got inf$"):
        CountsTable(("Z",), [[1, 0]], 10**400)


def test_counts_table_holds_a_read_only_copy_of_its_grid():
    grid = np.array([[1.0, 0.0], [0.25, 0.75]])
    table = CountsTable(["Z", "X"], grid, 1, seed=-4)
    grid[0, 0] = 7.0
    assert table.settings == ("Z", "X")
    assert table.counts.tolist() == [[1.0, 0.0], [0.25, 0.75]]
    with pytest.raises(ValueError):
        table.counts[0, 0] = 2.0
    assert table.rows == (CountRow("Z", "0", 1.0), CountRow("Z", "1", 0.0),
                          CountRow("X", "0", 0.25), CountRow("X", "1", 0.75))


def test_from_rows_applies_the_row_rule_once_per_row(monkeypatch):
    rows = simulate_counts(ghz_rho(), shots=50, seed=2).rows
    seen, validated = spy_row_rule(monkeypatch)
    table = CountsTable.from_rows(rows, shots_per_setting=50)
    assert len(seen) == len(rows) == 216
    assert validated == {setting: 2 for setting in table.settings}
    assert table.rows == rows


@pytest.mark.parametrize("fault", ROW_FAULT_FILES)
def test_from_rows_refuses_the_rows_of_a_faulty_counts_file_as_read_counts_does(fault):
    text, _, message = ROW_FAULT_FILES[fault]
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    with pytest.raises(ValidationError) as caught:
        CountsTable.from_rows(rows, shots_per_setting=2)
    assert str(caught.value) == message


def test_a_row_that_breaks_the_row_rule_leaves_the_grid_as_it_was():
    grid = {}
    tomography._add_row(grid, "XY", "01", 1)
    for row in [("ZZ", "0", 1), ("ZZ", "00", "inf"), ("ZZ", "00", -1), ("XY", "00", "one"),
                ("XY", "001", 1), ("XYZ", "000", 1), ("XQ", "00", 1)]:
        with pytest.raises(ValidationError):
            tomography._add_row(grid, *row)
        assert list(grid) == ["XY"]
        assert grid["XY"].tolist() == [0.0, 1.0, 0.0, 0.0]


def test_a_setting_wider_than_20_axes_is_refused_before_its_counts_are_made():
    # Its count array would take 2^21 * 8 bytes = 16 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="21 axes, at most 20 are held"):
            tomography._add_row({}, "Z" * 21, "0" * 21, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("matrix", [
    np.eye(4) / 4, np.eye(8)[:, :4], np.full((8, 8), np.nan), np.diag([np.inf] + [0.0] * 7),
    [["a", "b"], ["c", "d"]], [[1, 2], [3]],
])
def test_log_likelihood_refuses_a_matrix_that_is_not_a_finite_state_sized_array(matrix):
    # A list that is not an array of numbers fails its conversion first.
    message = ("^matrix is not an array of complex numbers " if isinstance(matrix, list)
               else "^matrix must be a finite 8 x 8 array$")
    with pytest.raises(ValidationError, match=message):
        log_likelihood(matrix, _exact_counts(ghz_rho()))
