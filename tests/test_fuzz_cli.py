"""Fuzz the CLI with one corrupted input value at a time.

Each example takes a valid preset config (or a valid counts file), replaces
one leaf of the config (or one whitespace-separated token of the file) with
an arbitrary JSON value or string, and runs ``identangle run`` or ``scan``
(or ``reconstruct``) in process. Whatever the input, the exit code must be 0, 2
or 3 and no exception may escape ``main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from identangle import DensityMatrix, write_counts
from identangle.cli import main
from identangle.tomography import _exact_counts

INV_SQRT2 = 1.0 / math.sqrt(2.0)
ONES = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]

PRESETS = [
    {
        "label": "ghz",
        "preset": "ghz",
        "ghz": {"alpha1": 0.6, "alpha2": 0.8, "beta2": [0.0, INV_SQRT2], "beta3": INV_SQRT2,
                "gamma1": INV_SQRT2, "gamma3": -INV_SQRT2},
        "distinguishability": {"delays": [0.0, 0.3, 0.6], "coherence_length": 1.0},
        "tomography": {"shots": 40, "seed": 3},
    },
    {"preset": "w", "w": {"variant": "dft"},
     "distinguishability": {"gram": [[1, 0.9, 0.9], [0.9, 1, 0.9], [0.9, 0.9, 1]]}},
    {"preset": "w", "w": {"rows": [[INV_SQRT2, INV_SQRT2, 0], [0, INV_SQRT2, INV_SQRT2],
                                   [INV_SQRT2, 0, INV_SQRT2]]},
     "distinguishability": {"gram": ONES}},
    {"preset": "custom",
     "custom": {"amplitudes": [[INV_SQRT2, INV_SQRT2, 0], [0, INV_SQRT2, [0, INV_SQRT2]],
                               [INV_SQRT2, 0, -INV_SQRT2]],
                "spins": [["down", "up", None], [None, "down", "up"], ["up", None, "down"]]},
     "distinguishability": {"gram": [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]}},
]

# Surrogates cannot be written to a UTF-8 file, every other character can.
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
# About two seconds in all; the run case gets the most examples, since it
# reaches the most code (tomography included).
FUZZ = settings(derandomize=True, deadline=None, max_examples=50)
QUICK_FUZZ = settings(FUZZ, max_examples=25)


def leaves(node, path=()):
    """Paths to every scalar (or empty container) inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def mutated_config(data, value) -> str:
    config = json.loads(json.dumps(data.draw(st.sampled_from(PRESETS))))
    *parents, last = data.draw(st.sampled_from(list(leaves(config))))
    node = config
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(config)


@FUZZ
@given(data=st.data(), value=JSON_VALUES)
def test_one_bad_config_leaf_exits_cleanly(data, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(mutated_config(data, value), encoding="utf-8")
        rc = run_cli(["run", "--config", str(path), "--out-dir", tmp])
    assert rc in (0, 2, 3)


@QUICK_FUZZ
@given(data=st.data(), value=JSON_VALUES, param=st.sampled_from(["g", "L2", "beta3"]))
def test_one_bad_config_leaf_in_a_scan_exits_cleanly(data, value, param):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(mutated_config(data, value), encoding="utf-8")
        rc = run_cli(["scan", "--config", str(path), "--param", param, "--start", "0.2",
                      "--stop", "0.8", "--steps", "2", "--out-dir", tmp])
    assert rc in (0, 2, 3)


# The maximally mixed state's table: every count is 1, and the MLE stops at once.
COUNTS_TABLE = _exact_counts(DensityMatrix(np.eye(8) / 8), shots=8)


@QUICK_FUZZ
@given(data=st.data(), value=JSON_VALUES.map(json.dumps) | TEXT)
def test_one_bad_counts_token_exits_cleanly(data, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.txt"
        write_counts(COUNTS_TABLE, path)
        lines = [line.split(" ") for line in path.read_text(encoding="utf-8").splitlines()]
        row = data.draw(st.integers(0, len(lines) - 1))
        lines[row][data.draw(st.integers(0, len(lines[row]) - 1))] = value
        path.write_text("\n".join(" ".join(line) for line in lines) + "\n", encoding="utf-8")
        rc = run_cli(["reconstruct", "--counts", str(path), "--out-dir", tmp])
    assert rc in (0, 2, 3)
