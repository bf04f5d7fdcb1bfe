"""Scans solved as one batch: the routing side of a g or delay scan is built
once and every point is traced in one stack, bit for bit as the one-point
kernel traces it, and the scan meets its errors in scan order."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import identangle
from identangle import (
    DelayModel,
    DensityMatrix,
    GramMatrix,
    PostselectionImpossibleError,
    ValidationError,
    balanced_tritter_rows,
    classify,
    density_matrices_from_spec,
    density_matrix_from_spec,
    dft_tritter_rows,
    ghz_preset,
    gram_from_delays,
    w_preset,
)
from identangle import cli, reduction

PRESETS = {
    "ghz": ({"preset": "ghz"}, ghz_preset()),
    "w-balanced": ({"preset": "w", "w": {"variant": "balanced"}},
                   w_preset(balanced_tritter_rows())),
    "w-dft": ({"preset": "w", "w": {"variant": "dft"}}, w_preset(dft_tritter_rows())),
}
DELAYS = [0.0, 0.35, 0.8]
INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Particles 0 and 1 meet on a 50:50 splitter with equal spins; particle 2
# goes straight to detector 2. The coincidence vanishes at g = 1 (HOM).
HOM_PLUS_ONE = {
    "preset": "custom",
    "custom": {
        "amplitudes": [[INV_SQRT2, INV_SQRT2, 0], [INV_SQRT2, -INV_SQRT2, 0], [0, 0, 1]],
        "spins": [["down", "down", None], ["down", "down", None], [None, None, "up"]],
    },
    "distinguishability": {"gram": np.eye(3).tolist()},
}
TWO_PARTICLES = {
    "preset": "custom",
    "custom": {"amplitudes": [[0.6, 0.8], [0.8, -0.6]], "spins": [["down", "up"], ["up", "down"]]},
    "distinguishability": {"gram": [[1, 0], [0, 1]]},
}


def delay_gram(values, index, value):
    delays = list(values)
    delays[index] = value
    return gram_from_delays(DelayModel(coherence_length=1.0, delays=tuple(delays)))


def scan_grams(param, values):
    """The Gram matrices of a scan, each built by the public one-point path."""
    if param == "g":
        return [GramMatrix.uniform(3, float(v)) for v in values]
    return [delay_gram(DELAYS, int(param[1]) - 1, float(v)) for v in values]


def assert_batch_matches_points(spec, grams):
    batch = list(density_matrices_from_spec(spec, grams))
    assert len(batch) == len(grams)
    for (rho, p), gram in zip(batch, grams):
        expected_rho, expected_p = density_matrix_from_spec(spec, gram)
        assert np.array_equal(rho.matrix, expected_rho.matrix)
        assert p == expected_p
        assert isinstance(rho, DensityMatrix) and not rho.matrix.flags.writeable


@pytest.mark.parametrize("param", ["g", "L1", "L2", "L3"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_batched_scan_is_bit_equal_to_per_point_solves(preset, param):
    values = np.linspace(0.0, 1.0, 41) if param == "g" else np.linspace(-1.0, 2.0, 41)
    assert_batch_matches_points(PRESETS[preset][1], scan_grams(param, values))


@pytest.mark.parametrize("block", [1, 40, 100])
def test_batched_scan_split_across_chunks_stays_bit_equal(monkeypatch, block):
    # W presets have 6 outcomes: a block of 40 pairs holds one point per
    # chunk, 100 pairs two (the last chunk of 41 points holding one), and a
    # block below one ket row still takes one row at a time.
    grams = scan_grams("g", np.linspace(0.0, 1.0, 41))
    monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
    for _, spec in PRESETS.values():
        assert_batch_matches_points(spec, grams)


def test_scan_gram_stacks_equal_the_one_point_builders():
    values = np.linspace(-0.5, 1.0, 31)
    stacked, error = GramMatrix._stack(reduction._uniform_overlaps(3, values))
    assert error is None
    for gram, value in zip(stacked, values):
        assert np.array_equal(gram.overlaps, GramMatrix.uniform(3, float(value)).overlaps)
    table = np.tile(DELAYS, (len(values), 1))
    table[:, 1] = values
    stacked, error = GramMatrix._stack(reduction._delay_overlaps(table, 1.0))
    assert error is None
    for gram, value in zip(stacked, values):
        assert np.array_equal(gram.overlaps, delay_gram(DELAYS, 1, float(value)).overlaps)


def test_batch_yields_every_point_before_the_first_failure():
    spec = cli.build_spec(HOM_PLUS_ONE, "config.json")
    grams = [GramMatrix.uniform(3, g) for g in (0.0, 0.5, 1.0, 0.2)]
    solutions = density_matrices_from_spec(spec, grams)
    assert [p for _, p in (next(solutions), next(solutions))] == [
        density_matrix_from_spec(spec, gram)[1] for gram in grams[:2]
    ]
    with pytest.raises(PostselectionImpossibleError, match="probability 0.000e"):
        next(solutions)
    mixed = [GramMatrix.uniform(3, 0.1), GramMatrix.uniform(2, 0.1)]
    solutions = density_matrices_from_spec(ghz_preset(), mixed)
    next(solutions)
    with pytest.raises(ValidationError, match="Gram matrix is 2x2 but the state has 3"):
        next(solutions)
    assert list(density_matrices_from_spec(ghz_preset(), [])) == []


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("param", ["g", "L1", "L2", "L3"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_scan_rows_equal_per_point_library_calls(tmp_path, preset, param):
    config, spec = PRESETS[preset]
    config = dict(config, distinguishability={"delays": DELAYS, "coherence_length": 1.0})
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", write_config(tmp_path, config), "--param", param,
                     "--start", "0", "--stop", "1.2" if param != "g" else "1", "--steps", "7",
                     "--out-dir", str(out)]) == 0
    rows = json.loads((out / "scan.json").read_text(encoding="utf-8"))["rows"]
    values = [row[param] for row in rows]
    for row, gram in zip(rows, scan_grams(param, values), strict=True):
        rho, p = density_matrix_from_spec(spec, gram)
        report = classify(rho)
        assert row["p_success"] == p
        assert row["fidelity_ghz"] == report.fidelity_ghz
        assert row["fidelity_w_max"] == report.fidelity_w_max
        assert row["verdict"] == report.verdict


@pytest.mark.parametrize("data,start,stop,steps,rc,texts", [
    # Uniform overlaps below -1/2 are not positive semidefinite for three
    # particles: -0.75 is the first such point from 1 down to -1.
    ({"preset": "ghz", "distinguishability": {"gram": np.eye(3).tolist()}}, "1", "-1", "9", 2,
     ["invalid input: --param g = -0.75: Gram matrix is not positive semidefinite "
      "(min eigenvalue -5.000e-01)"]),
    (HOM_PLUS_ONE, "0", "1", "3", 3,
     ["numerical failure: --param g = 1.0: the all-detectors coincidence has probability"]),
    # Point 0 fails its witness report before point 2's Gram matrix (g = 1.5
    # is not positive semidefinite for two particles) is reached.
    (TWO_PARTICLES, "0", "1.5", "3", 2,
     ["invalid input: --param g = 0.0: ", ": custom: the witness report needs three particles"]),
], ids=["psd-mid-scan", "hom-mid-scan", "two-particles-first-point"])
# A block of 4 pairs puts every point of these two-outcome routings in a
# chunk of its own, so the failing point sits in a later chunk.
@pytest.mark.parametrize("block", [1 << 14, 4])
def test_a_scan_reports_its_first_failing_point(
    tmp_path, capsys, monkeypatch, data, start, stop, steps, rc, texts, block
):
    monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, data), "--param", "g", "--start", start,
            "--stop", stop, "--steps", steps, "--out-dir", str(out)]
    assert cli.main(argv) == rc
    err = capsys.readouterr().err
    assert all(text in err for text in texts)
    assert err.count("--param") == 1
    assert not out.exists()


def test_a_delay_scan_reports_its_config_errors_at_the_first_point(tmp_path, capsys):
    data = {"preset": "ghz", "distinguishability": {"delays": [0.0, 0.1], "coherence_length": 1}}
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, data), "--param", "L1", "--start", "0",
            "--stop", "1", "--steps", "3", "--out-dir", str(out)]
    assert cli.main(argv) == 2
    assert ("--param L1 = 0.0: " f"{tmp_path / 'config.json'}: distinguishability: "
            "Gram matrix is for 2 particles, preset has 3") in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_does_not_build_its_parser():
    src = str(Path(identangle.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import identangle.cli as cli; "
            "print(cli._build_parser.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                            timeout=120, check=True)
    assert result.stdout.strip() == "0"


def test_main_calls_share_one_parser(tmp_path, capsys):
    cli._build_parser.cache_clear()
    argv = ["scan", "--config", str(tmp_path / "missing.json"), "--param", "g",
            "--start", "0", "--stop", "1", "--steps", "2"]
    assert cli.main(argv) == 2
    assert cli.main(argv) == 2
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert "config file not found" in capsys.readouterr().err
