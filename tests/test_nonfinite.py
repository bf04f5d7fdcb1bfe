"""Property tests: a NaN or infinite entry never gets through a validated type.

Each case starts from a valid input, overwrites one entry (for the Gram and
density matrices, one entry and its mirror, so the matrix stays Hermitian in
shape; for a counts table, one count or the shot total) with a non-finite
value, and expects a ValidationError.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_gram, random_row_normalized
from identangle import (
    CountRow,
    CountsParseError,
    CountsTable,
    DensityMatrix,
    GramMatrix,
    TransformSpec,
    ValidationError,
    custom_spec,
    density_matrix_from_spec,
    read_counts,
    simulate_counts,
    write_counts,
)

NON_FINITE = st.sampled_from([
    complex(math.nan, 0.0),
    complex(0.0, math.nan),
    complex(math.inf, 0.0),
    complex(-math.inf, 0.0),
    complex(0.5, math.inf),
    complex(math.nan, math.inf),
])
NON_FINITE_REAL = st.sampled_from([math.nan, math.inf, -math.inf])
PROPERTY = settings(max_examples=40, deadline=None)


def valid_inputs(seed: int, n: int):
    rng = np.random.default_rng(seed)
    t = random_row_normalized(rng, n, n)
    s = rng.integers(0, 2, size=(n, n))
    return t, s, random_gram(rng, n).overlaps.copy()


def poison(matrix, i, j, bad, mirror=False):
    out = np.array(matrix, dtype=complex)
    out[i, j] = bad
    if mirror:
        out[j, i] = np.conj(bad)
    return out


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cell=st.data(), bad=NON_FINITE)
def test_transform_spec_rejects_non_finite_amplitudes(seed, n, cell, bad):
    t, s, _ = valid_inputs(seed, n)
    i, j = cell.draw(st.integers(0, n - 1)), cell.draw(st.integers(0, n - 1))
    with pytest.raises(ValidationError):
        TransformSpec(poison(t, i, j, bad), s)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), cell=st.data(), bad=NON_FINITE)
def test_gram_matrix_rejects_non_finite_overlaps(seed, n, cell, bad):
    _, _, g = valid_inputs(seed, n)
    i, j = cell.draw(st.integers(0, n - 1)), cell.draw(st.integers(0, n - 1))
    with pytest.raises(ValidationError):
        GramMatrix(poison(g, i, j, bad, mirror=True))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), qubits=st.integers(1, 3), cell=st.data(),
       bad=NON_FINITE)
def test_density_matrix_rejects_non_finite_entries(seed, qubits, cell, bad):
    dim = 2**qubits
    rho = random_density(np.random.default_rng(seed), dim).matrix
    i, j = cell.draw(st.integers(0, dim - 1)), cell.draw(st.integers(0, dim - 1))
    with pytest.raises(ValidationError):
        DensityMatrix(poison(rho, i, j, bad, mirror=True))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), cell=st.data(),
       bad=NON_FINITE, target=st.sampled_from(["amplitudes", "gram"]))
def test_solve_from_raw_arrays_rejects_non_finite_entries(seed, n, cell, bad, target):
    # The forward call from raw arrays never hands back a state.
    t, s, g = valid_inputs(seed, n)
    i, j = cell.draw(st.integers(0, n - 1)), cell.draw(st.integers(0, n - 1))
    if target == "amplitudes":
        t = poison(t, i, j, bad)
    else:
        g = poison(g, i, j, bad, mirror=True)
    with pytest.raises(ValidationError):
        density_matrix_from_spec(custom_spec(t, s), GramMatrix(g))


def test_all_nan_density_matrix_is_rejected():
    with pytest.raises(ValidationError, match="finite"):
        DensityMatrix(np.full((2, 2), np.nan))


def valid_table(seed: int, qubits: int) -> CountsTable:
    rho = random_density(np.random.default_rng(seed), 2**qubits)
    return simulate_counts(rho, shots=20, seed=seed)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), qubits=st.integers(1, 3), cell=st.data(),
       bad=NON_FINITE_REAL)
def test_counts_table_rejects_non_finite_counts(seed, qubits, cell, bad):
    table = valid_table(seed, qubits)
    rows = list(table.rows)
    k = cell.draw(st.integers(0, len(rows) - 1))
    rows[k] = CountRow(rows[k].setting, rows[k].outcome, bad)
    with pytest.raises(ValidationError):
        CountsTable.from_rows(rows, shots_per_setting=table.shots_per_setting)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), qubits=st.integers(1, 3), bad=NON_FINITE_REAL)
def test_counts_table_rejects_non_finite_shots(seed, qubits, bad):
    with pytest.raises(ValidationError):
        CountsTable.from_rows(valid_table(seed, qubits).rows, shots_per_setting=bad)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_read_counts_reports_the_line_of_a_non_finite_count(tmp_path, text):
    path = tmp_path / "counts.txt"
    write_counts(valid_table(3, 2), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    setting, outcome, _ = lines[7].split()
    lines[7] = f"{setting} {outcome} {text}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CountsParseError, match=f"line 8: non-finite count '{text}'"):
        read_counts(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_read_counts_rejects_a_non_finite_shot_total(tmp_path, text):
    path = tmp_path / "counts.txt"
    write_counts(valid_table(3, 2), path)
    body = path.read_text(encoding="utf-8").replace(
        "# shots_per_setting: 20", f"# shots_per_setting: {text}"
    )
    path.write_text(body, encoding="utf-8")
    with pytest.raises(CountsParseError, match="line 3: non-finite shots_per_setting"):
        read_counts(path)
