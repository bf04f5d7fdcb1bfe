from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import HOM_PLUS_ONE, ROW_FAULT_FILES
from identangle import (
    DensityMatrix,
    GramMatrix,
    ValidationError,
    __version__,
    balanced_tritter_rows,
    density_matrix_from_spec,
    ghz_state,
    simulate_counts,
    w_preset,
    write_counts,
)
from identangle import cli
from identangle.cli import main
from identangle.tomography import _exact_counts

INV_SQRT2 = 1.0 / math.sqrt(2.0)

GHZ_CONFIG = {
    "label": "ghz-balanced",
    "preset": "ghz",
    "distinguishability": {"gram": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]},
}

DELAY_CONFIG = {
    "preset": "ghz",
    "distinguishability": {"delays": [0.0, 0.0, 0.0], "coherence_length": 1.0},
}


# The HOM pair and a spectator, all three indistinguishable: the coincidence
# vanishes, so nothing survives postselection.
VANISHING_HOM = dict(HOM_PLUS_ONE, distinguishability={"gram": np.ones((3, 3)).tolist()})


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def read_density_matrix(path) -> np.ndarray:
    """Inverse of ``cli.write_density_matrix``: two stacked real blocks, the
    real part over the imaginary part."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[0] != 2 * data.shape[1]:
        raise ValidationError(
            f"{path}: expected two stacked dim x dim blocks, got shape {data.shape}"
        )
    dim = data.shape[1]
    return data[:dim] + 1j * data[dim:]


def test_run_ghz_balanced(tmp_path, capsys):
    config = write_config(tmp_path, GHZ_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
    report = read_report(out)
    assert report["tool"] == "identangle"
    assert report["label"] == "ghz-balanced"
    assert report["p_success"] == pytest.approx(0.25, abs=1e-12)
    assert report["fidelity_ghz"] == pytest.approx(1.0, abs=1e-12)
    assert report["verdict"] == "genuine-GHZ-witnessed"
    assert report["ghz_witness_passed"] is True

    matrix = read_density_matrix(out / report["density_matrix_file"])
    target = ghz_state().vector
    np.testing.assert_allclose(matrix, np.outer(target, target.conj()), atol=1e-15)
    digest = hashlib.sha256((out / "density_matrix.txt").read_bytes()).hexdigest()
    assert report["density_matrix_sha256"] == digest
    header = (out / "density_matrix.txt").read_text(encoding="utf-8").splitlines()[:4]
    assert header == [
        "# identangle density matrix",
        "# dimension: 8 x 8",
        "# basis: spin patterns, detector-major, detector 0 most significant; down=0, up=1",
        "# blocks: rows 1-8 real part, rows 9-16 imaginary part",
    ]
    assert "wrote" in capsys.readouterr().out


def test_run_w_dft_variant(tmp_path):
    config = write_config(
        tmp_path,
        {
            "preset": "w",
            "w": {"variant": "dft"},
            "distinguishability": {"gram": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]},
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
    report = read_report(out)
    assert report["p_success"] == pytest.approx(1 / 9, abs=1e-12)
    assert report["verdict"] == "genuine-W-witnessed"
    assert report["fidelity_w_max"] == pytest.approx(1.0, abs=1e-9)
    assert report["phi1_pi"] == pytest.approx(0.0, abs=1e-6)
    assert report["phi2_pi"] == pytest.approx(0.0, abs=1e-6)


def test_w_dft_phases_are_reported_in_units_of_pi(tmp_path, monkeypatch):
    # With weak overlaps (g < 1/2) the W-dft phases are near +-2pi/3, not 0,
    # so a report that scaled them by anything but 1/pi would show it.
    reports = []
    classify, classify_states = cli.classify, cli.classify_states

    def classify_each(states):
        states = list(states)
        reports.extend(map(classify, states))
        return classify_states(states)

    monkeypatch.setattr(cli, "classify", lambda rho: reports.append(classify(rho)) or reports[-1])
    monkeypatch.setattr(cli, "classify_states", classify_each)
    config = write_config(tmp_path, {
        "preset": "w", "w": {"variant": "dft"},
        "distinguishability": {"delays": [0.0, 1.0, 2.0], "coherence_length": 1.0},
    })
    assert main(["run", "--config", config, "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["scan", "--config", config, "--param", "g", "--start", "0.1", "--stop", "0.4",
                 "--steps", "5", "--out-dir", str(tmp_path / "scan")]) == 0
    scan = json.loads((tmp_path / "scan" / "scan.json").read_text(encoding="utf-8"))
    rows = [read_report(tmp_path / "run"), *scan["rows"]]
    assert len(rows) == len(reports) == 6
    for row, report in zip(rows, reports):
        assert report.phi1 != 0.0 and report.phi2 != 0.0
        assert row["phi1_pi"] == report.phi1 / math.pi
        assert row["phi2_pi"] == report.phi2 / math.pi


def test_json_reports_are_indented_by_two_with_sorted_keys(tmp_path):
    config = write_config(tmp_path, {**GHZ_CONFIG, "tomography": {"shots": 300, "seed": 7}})
    assert main(["run", "--config", config, "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["scan", "--config", config, "--param", "g", "--start", "0", "--stop", "1",
                 "--steps", "2", "--out-dir", str(tmp_path / "scan")]) == 0
    assert main(["reconstruct", "--counts", str(tmp_path / "run" / "counts.txt"),
                 "--out-dir", str(tmp_path / "rec")]) == 0
    for path in ("run/report.json", "scan/scan.json", "rec/reconstruction_report.json"):
        text = (tmp_path / path).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_a_null_w_section_is_the_balanced_tritter(tmp_path):
    matrices = []
    for name, section in (("absent", {}), ("null", {"w": None})):
        data = dict(GHZ_CONFIG, preset="w", **section)
        out = tmp_path / name
        assert main(["run", "--config", write_config(tmp_path, data), "--out-dir", str(out)]) == 0
        matrices.append((out / "density_matrix.txt").read_bytes())
    assert matrices[0] == matrices[1]


def test_config_hash_ignores_formatting_but_not_values(tmp_path):
    compact = tmp_path / "a.json"
    compact.write_text(json.dumps(GHZ_CONFIG, separators=(",", ":")), encoding="utf-8")
    spaced = tmp_path / "b.json"
    spaced.write_text(
        json.dumps(dict(reversed(list(GHZ_CONFIG.items()))), indent=4), encoding="utf-8"
    )
    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    assert main(["run", "--config", str(compact), "--out-dir", str(out_a)]) == 0
    assert main(["run", "--config", str(spaced), "--out-dir", str(out_b)]) == 0
    assert read_report(out_a)["config_hash"] == read_report(out_b)["config_hash"]

    changed = dict(GHZ_CONFIG, label="other")
    out_c = tmp_path / "out_c"
    assert main(["run", "--config", write_config(tmp_path, changed, "c.json"),
                 "--out-dir", str(out_c)]) == 0
    assert read_report(out_c)["config_hash"] != read_report(out_a)["config_hash"]


def test_an_empty_tomography_section_takes_1000_shots_and_seed_0(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, dict(GHZ_CONFIG, tomography={}))
    assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
    tomo = read_report(out)["tomography"]
    assert (tomo["shots_per_setting"], tomo["seed"]) == (1000, 0)


def test_run_and_scan_take_the_largest_exact_shot_count(tmp_path):
    # 2**53 is the largest count a float64 counts table holds exactly.
    config = write_config(tmp_path, dict(GHZ_CONFIG, tomography={"shots": 2**53}))
    for command in (["run"], SCAN_G):
        out = tmp_path / command[0]
        assert main(command + ["--config", config, "--out-dir", str(out)]) == 0
    assert read_report(tmp_path / "run")["tomography"]["shots_per_setting"] == 2**53


def test_run_outputs_are_byte_identical_across_runs(tmp_path):
    config_data = dict(GHZ_CONFIG, tomography={"shots": 500, "seed": 4})
    config = write_config(tmp_path, config_data)
    out_a, out_b = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--config", config, "--out-dir", str(out_a)]) == 0
    assert main(["run", "--config", config, "--out-dir", str(out_b)]) == 0
    for name in ("density_matrix.txt", "counts.txt", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_with_tomography_section(tmp_path):
    config_data = dict(GHZ_CONFIG, tomography={"shots": 2000, "seed": 0})
    config = write_config(tmp_path, config_data)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
    report = read_report(out)
    tomo = report["tomography"]
    assert tomo["shots_per_setting"] == 2000
    assert tomo["seed"] == 0
    assert tomo["num_settings"] == 27
    assert tomo["mle_fidelity_vs_simulated"] > 0.95
    assert (out / tomo["counts_file"]).exists()


def test_seed_flag_overrides_config_seed(tmp_path):
    config_data = dict(GHZ_CONFIG, tomography={"shots": 400, "seed": 4})
    config = write_config(tmp_path, config_data)
    out_default = tmp_path / "default"
    assert main(["run", "--config", config, "--out-dir", str(out_default)]) == 0
    for seed in (9, 0):  # 0, the least seed, is taken too
        out_seeded = tmp_path / f"seeded{seed}"
        assert main(
            ["run", "--config", config, "--out-dir", str(out_seeded), "--seed", str(seed)]
        ) == 0
        assert read_report(out_seeded)["tomography"]["seed"] == seed
        assert (out_default / "counts.txt").read_bytes() != (out_seeded / "counts.txt").read_bytes()


def test_seed_flag_does_not_excuse_a_malformed_config_seed(tmp_path, capsys):
    config = write_config(tmp_path, dict(GHZ_CONFIG, tomography={"shots": 10, "seed": "abc"}))
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out-dir", str(out), "--seed", "3"]) == 2
    assert "tomography.seed: expected an integer at least 0, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_shots_and_seed_are_reported_as_integers(tmp_path):
    outputs = []
    for number in (int, float):
        tomography = {"shots": number(300), "seed": number(3)}
        config = write_config(tmp_path, dict(GHZ_CONFIG, tomography=tomography))
        out = tmp_path / number.__name__
        assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
        report = read_report(out)
        del report["config_hash"]
        outputs.append((json.dumps(report, sort_keys=True), (out / "counts.txt").read_bytes()))
    assert outputs[0] == outputs[1]


def test_negative_seed_flag_is_refused_before_the_solve(tmp_path, capsys, monkeypatch):
    def never(spec, gram):
        raise AssertionError("solved a run whose --seed is invalid")

    monkeypatch.setattr("identangle.cli.density_matrix_from_spec", never)
    config = write_config(tmp_path, dict(GHZ_CONFIG, tomography={"shots": 10}))
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out-dir", str(out), "--seed", "-1"]) == 2
    assert "--seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_is_refused_outside_run(tmp_path, capsys):
    config = write_config(tmp_path, GHZ_CONFIG)
    counts = tmp_path / "counts.txt"
    write_counts(simulate_counts(DensityMatrix.from_pure(ghz_state(3).vector), shots=10), counts)
    for argv in (
        ["scan", "--config", config, "--param", "g"]
        + ["--start", "0", "--stop", "1", "--steps", "2"],
        ["reconstruct", "--counts", str(counts)],
    ):
        argv += ["--out-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
        assert main(argv) == 0


def test_run_csv_report(tmp_path):
    config = write_config(tmp_path, GHZ_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out-dir", str(out), "--format", "csv"]) == 0
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "key,value"
    values = {}
    for line in lines[1:]:
        key, _, raw = line.partition(",")
        values[key] = json.loads(raw)
    assert values["verdict"] == "genuine-GHZ-witnessed"
    assert values["p_success"] == pytest.approx(0.25)
    assert values["ghz_witness_passed"] is True


def test_a_ghz_state_of_relative_phase_pi_is_witnessed(tmp_path):
    # alpha1 = -1/sqrt(2) with indistinguishable particles gives
    # (|ddd> - |uuu>) / sqrt(2): orthogonal to the phase-0 target, and the
    # GHZ-family member of phase pi itself.
    ghz = dict.fromkeys(cli._GHZ_FIELDS, INV_SQRT2)
    ghz["alpha1"] = [-INV_SQRT2, 0]
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, dict(GHZ_CONFIG, ghz=ghz)),
                 "--out-dir", str(out)]) == 0
    report = read_report(out)
    assert report["fidelity_ghz"] == 0.0
    assert report["fidelity_ghz_max"] == 1.0
    assert report["ghz_phase_pi"] == 1.0
    assert report["ghz_witness_passed"] is True
    assert report["verdict"] == "genuine-GHZ-witnessed"


SCAN_COLUMNS = ["p_success", "fidelity_ghz", "fidelity_w_max", "phi1_pi", "phi2_pi",
                "ghz_witness_passed", "w_witness_passed", "offdiag_norm", "verdict"]


@pytest.mark.parametrize("preset", [{"preset": "ghz"}, {"preset": "w"},
                                    {"preset": "w", "w": {"variant": "dft"}}],
                         ids=["ghz", "w-balanced", "w-dft"])
def test_preset_scans_keep_their_fields_and_append_the_ghz_phase(tmp_path, preset):
    # Scored at phase 0 alone, the GHZ witness passed when fidelity_ghz > 1/2
    # and the verdict followed it. On every preset state rho70 is real and
    # non-negative, so the best phase is 0: the flag and the verdict are
    # those of the phase-0 score, and the two GHZ columns come after the
    # earlier ones.
    config = write_config(tmp_path, {**DELAY_CONFIG, **preset})
    for param, stop in (("g", "1"), ("L1", "2"), ("L2", "2"), ("L3", "2")):
        out = tmp_path / param
        assert main(["scan", "--config", config, "--param", param, "--start", "0", "--stop",
                     stop, "--steps", "25", "--out-dir", str(out), "--format", "csv"]) == 0
        header, *lines = (out / "scan.csv").read_text(encoding="utf-8").splitlines()
        assert header.split(",") == [param, *SCAN_COLUMNS, "fidelity_ghz_max", "ghz_phase_pi"]
        for line in lines:
            row = dict(zip(header.split(","), map(json.loads, line.split(","))))
            ghz_passed = row["fidelity_ghz"] > 0.5
            assert row["ghz_witness_passed"] is ghz_passed
            assert row["verdict"] == ("genuine-GHZ-witnessed" if ghz_passed else
                                      "genuine-W-witnessed" if row["w_witness_passed"] else
                                      "witness-inconclusive")
            assert row["ghz_phase_pi"] == 0.0
            assert abs(row["fidelity_ghz_max"] - row["fidelity_ghz"]) <= 1e-15


def test_scan_uniform_overlap_follows_coherence_law(tmp_path):
    config = write_config(tmp_path, GHZ_CONFIG)
    out = tmp_path / "out"
    rc = main(
        ["scan", "--config", config, "--param", "g", "--start", "0", "--stop", "1",
         "--steps", "6", "--out-dir", str(out), "--format", "csv"]
    )
    assert rc == 0
    with open(out / "scan.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    assert header[0] == "g"
    g_col = header.index("g")
    f_col = header.index("fidelity_ghz")
    p_col = header.index("p_success")
    assert len(data) == 6
    for row in data:
        g = json.loads(row[g_col])
        assert json.loads(row[p_col]) == pytest.approx(0.25, abs=1e-12)
        assert json.loads(row[f_col]) == pytest.approx((1 + g**3) / 2, abs=1e-9)


def test_scan_delay_decoheres_smoothly(tmp_path):
    config = write_config(tmp_path, DELAY_CONFIG)
    out = tmp_path / "out"
    rc = main(
        ["scan", "--config", config, "--param", "L3", "--start", "0", "--stop", "3",
         "--steps", "4", "--out-dir", str(out)]
    )
    assert rc == 0
    payload = json.loads((out / "scan.json").read_text(encoding="utf-8"))
    assert payload["parameter"] == "L3"
    fidelities = [row["fidelity_ghz"] for row in payload["rows"]]
    for value, row in zip((0.0, 1.0, 2.0, 3.0), payload["rows"]):
        overlap = math.exp(-(value**2))
        assert row["p_success"] == pytest.approx(0.25, abs=1e-12)
        assert row["fidelity_ghz"] == pytest.approx((1 + overlap**2) / 2, abs=1e-9)
    assert fidelities[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a >= b for a, b in zip(fidelities, fidelities[1:]))
    assert fidelities[-1] == pytest.approx(0.5, abs=1e-6)


def test_scan_ghz_amplitude_renormalizes_partner(tmp_path):
    config = write_config(tmp_path, GHZ_CONFIG)
    out = tmp_path / "out"
    rc = main(
        ["scan", "--config", config, "--param", "alpha1", "--start", "0.2", "--stop",
         "0.9", "--steps", "3", "--out-dir", str(out)]
    )
    assert rc == 0
    payload = json.loads((out / "scan.json").read_text(encoding="utf-8"))
    for row in payload["rows"]:
        v = row["alpha1"]
        # Keeping the row normalized pins the success probability at 1/4
        # while the two surviving amplitudes trade magnitude.
        assert row["p_success"] == pytest.approx(0.25, abs=1e-12)
        expected = (1 + 2 * v * math.sqrt(1 - v * v)) / 2
        assert row["fidelity_ghz"] == pytest.approx(expected, abs=1e-9)


def test_scan_rejects_bad_requests(tmp_path, capsys):
    config = write_config(tmp_path, GHZ_CONFIG)
    out = str(tmp_path / "out")
    rc = main(["scan", "--config", config, "--param", "g", "--start", "0", "--stop",
               "1", "--steps", "0", "--out-dir", out])
    assert rc == 2
    assert "steps" in capsys.readouterr().err

    rc = main(["scan", "--config", config, "--param", "bogus", "--start", "0",
               "--stop", "1", "--steps", "2", "--out-dir", out])
    assert rc == 2
    assert "not scannable" in capsys.readouterr().err

    rc = main(["scan", "--config", config, "--param", "L1", "--start", "0", "--stop",
               "1", "--steps", "2", "--out-dir", out])
    assert rc == 2
    assert "delay" in capsys.readouterr().err


def test_run_rejects_invalid_gram(tmp_path, capsys):
    bad = {
        "preset": "ghz",
        "distinguishability": {"gram": [[1, 0.5, 0.5], [0.4, 1, 0.5], [0.5, 0.5, 1]]},
    }
    config = write_config(tmp_path, bad)
    rc = main(["run", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "distinguishability" in capsys.readouterr().err


def test_run_rejects_missing_config(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_run_rejects_non_object_config(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    rc = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "object" in capsys.readouterr().err


def test_run_total_destructive_interference_exits_3(tmp_path, capsys):
    config = write_config(tmp_path, VANISHING_HOM)
    rc = main(["run", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_run_rejects_nan_delay(tmp_path, capsys):
    # Python's json reads NaN; the overlap it yields must be refused, not
    # handed to the eigensolver.
    path = tmp_path / "nan.json"
    path.write_text(
        '{"preset": "ghz", "distinguishability": '
        '{"delays": [0.0, NaN, 0.0], "coherence_length": 1.0}}',
        encoding="utf-8",
    )
    rc = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "distinguishability" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["NaN", "-Infinity", '["ghz", [1, NaN]]'])
def test_run_rejects_a_label_json_cannot_hold(tmp_path, capsys, label):
    # Python's json reads NaN and Infinity; echoed into report.json they
    # would make it invalid JSON.
    path = tmp_path / "label.json"
    path.write_text(f'{{"preset": "ghz", "label": {label}, "distinguishability": '
                    '{"gram": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]}}', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    assert f"{path}: label: must hold finite numbers only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [True, False])
def test_run_rejects_boolean_spin(tmp_path, capsys, flag):
    config = {
        "preset": "custom",
        "custom": {
            "amplitudes": [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, INV_SQRT2]],
            "spins": [["down", "up"], ["up", flag]],
        },
        "distinguishability": {"gram": [[1, 1], [1, 1]]},
    }
    rc = main(["run", "--config", write_config(tmp_path, config),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "custom.spins[1][1]" in capsys.readouterr().err


TOMOGRAPHY_CONFIG = dict(GHZ_CONFIG, tomography={"shots": 50, "seed": 0})

AMPLITUDE_CONFIG = dict(
    GHZ_CONFIG,
    ghz={name: INV_SQRT2 for name in ("alpha1", "alpha2", "beta2", "beta3", "gamma1", "gamma3")},
)

CUSTOM_CONFIG = {
    "preset": "custom",
    "custom": {
        "amplitudes": [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]],
        "spins": [["down", "up"], ["up", "down"]],
    },
    "distinguishability": {"gram": [[1, 1], [1, 1]]},
}


@pytest.mark.parametrize("base,field,value", [
    (TOMOGRAPHY_CONFIG, "tomography.shots", "abc"),
    (TOMOGRAPHY_CONFIG, "tomography.shots", 1e30),
    (TOMOGRAPHY_CONFIG, "tomography.shots", True),
    (TOMOGRAPHY_CONFIG, "tomography.shots", 2.5),
    (TOMOGRAPHY_CONFIG, "tomography.seed", "x"),
    (TOMOGRAPHY_CONFIG, "tomography.seed", True),
    (DELAY_CONFIG, "distinguishability.coherence_length", "abc"),
    (DELAY_CONFIG, "distinguishability.coherence_length", [1]),
    (CUSTOM_CONFIG, "custom.spins", [["down", "up"], ["up"]]),
    (CUSTOM_CONFIG, "custom.spins", ["down", "up"]),
])
def test_run_rejects_malformed_values(tmp_path, capsys, base, field, value):
    data = json.loads(json.dumps(base))
    section, key = field.split(".")
    data[section][key] = value
    config = write_config(tmp_path, data)
    rc = main(["run", "--config", config, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert field in capsys.readouterr().err


def test_run_rejects_amplitude_whose_square_overflows(tmp_path, capsys):
    data = json.loads(json.dumps(AMPLITUDE_CONFIG))
    data["ghz"]["alpha1"] = 1.3407807929942597e154
    rc = main(["run", "--config", write_config(tmp_path, data),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha amplitudes have squared norm inf" in err
    assert ": ghz: " in err


def test_run_rejects_integer_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"preset": "ghz", "distinguishability": '
        '{"delays": [0, 1' + "0" * 400 + ', 0], "coherence_length": 1}}',
        encoding="utf-8",
    )
    rc = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_inputs_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(path), "--out-dir", out]) == 2
    assert main(["reconstruct", "--counts", str(path), "--out-dir", out]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("line,text", [
    ("ZZZ 000 nan", "line 3: non-finite count 'nan'"),
    ("ZZZ 000 inf", "line 3: non-finite count 'inf'"),
    ("# shots_per_setting: inf", "line 2: non-finite shots_per_setting"),
])
def test_reconstruct_rejects_non_finite_counts(tmp_path, capsys, line, text):
    counts_path = tmp_path / "counts.txt"
    body = ["# identangle tomography counts", "# shots_per_setting: 10", "ZZZ 000 10"]
    body[1 if line.startswith("#") else 2] = line
    counts_path.write_text("\n".join(body) + "\n", encoding="utf-8")
    rc = main(["reconstruct", "--counts", str(counts_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert text in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reconstruct_ghz_counts(tmp_path):
    truth = DensityMatrix.from_pure(ghz_state().vector)
    table = simulate_counts(truth, shots=20_000, seed=7)
    counts_path = tmp_path / "counts.txt"
    write_counts(table, counts_path)
    out = tmp_path / "out"
    assert main(["reconstruct", "--counts", str(counts_path), "--out-dir", str(out)]) == 0
    report = json.loads((out / "reconstruction_report.json").read_text(encoding="utf-8"))
    assert report["shots_per_setting"] == 20_000
    assert report["num_settings"] == 27
    assert report["fidelity_ghz"] > 0.98
    assert report["fidelity_ghz"] <= report["fidelity_ghz_max"] < report["fidelity_ghz"] + 1e-3
    assert abs(report["ghz_phase_pi"]) < 0.02
    assert report["verdict"] == "genuine-GHZ-witnessed"
    matrix = read_density_matrix(out / report["density_matrix_file"])
    assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-12)


def test_reconstruct_dephased_w_counts(tmp_path):
    rho, _ = density_matrix_from_spec(
        w_preset(balanced_tritter_rows()), GramMatrix.fully_distinguishable(3)
    )
    table = simulate_counts(rho, shots=20_000, seed=5)
    counts_path = tmp_path / "counts.txt"
    write_counts(table, counts_path)
    out = tmp_path / "out"
    assert main(["reconstruct", "--counts", str(counts_path), "--out-dir", str(out)]) == 0
    report = json.loads((out / "reconstruction_report.json").read_text(encoding="utf-8"))
    # Fully dephased single-excitation mixture: W fidelity collapses to 1/3.
    assert report["fidelity_w_max"] == pytest.approx(1 / 3, abs=0.02)
    assert report["verdict"] == "witness-inconclusive"


def test_reconstruct_rejects_truncated_counts(tmp_path, capsys):
    truth = DensityMatrix.from_pure(ghz_state().vector)
    table = simulate_counts(truth, shots=100, seed=1)
    counts_path = tmp_path / "counts.txt"
    write_counts(table, counts_path)
    lines = counts_path.read_text(encoding="utf-8").splitlines()
    counts_path.write_text("\n".join(lines[:-2]) + "\nXXX 00\n", encoding="utf-8")
    rc = main(["reconstruct", "--counts", str(counts_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("identangle") is None, reason="entry point not on PATH")
def test_console_script_reports_version():
    result = subprocess.run(
        ["identangle", "--version"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0
    assert result.stdout.strip().startswith("identangle ")


def test_module_entry_point_reports_version():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-m", "identangle.cli", "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"identangle {__version__}"


def test_reconstruct_csv_report(tmp_path):
    truth = DensityMatrix.from_pure(ghz_state().vector)
    table = simulate_counts(truth, shots=2_000, seed=3)
    counts_path = tmp_path / "counts.txt"
    write_counts(table, counts_path)
    out = tmp_path / "out"
    rc = main(["reconstruct", "--counts", str(counts_path), "--out-dir", str(out),
               "--format", "csv"])
    assert rc == 0
    text = (out / "reconstruction_report.csv").read_text(encoding="utf-8")
    assert text.startswith("key,value")
    assert '"genuine-GHZ-witnessed"' in text


@pytest.mark.parametrize("param", ["g", "L3", "alpha1"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_outputs_are_byte_identical_across_runs(tmp_path, param, fmt):
    config = write_config(tmp_path, DELAY_CONFIG)
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["scan", "--config", config, "--param", param, "--start", "0.1",
                     "--stop", "0.9", "--steps", "4", "--out-dir", str(out),
                     "--format", fmt]) == 0
        outputs.append((out / f"scan.{fmt}").read_bytes())
    assert outputs[0] == outputs[1]


def test_scan_csv_encodes_each_cell_as_its_json_value(tmp_path):
    config = write_config(tmp_path, DELAY_CONFIG)
    for fmt in ("json", "csv"):
        assert main(["scan", "--config", config, "--param", "L2", "--start", "-0.5",
                     "--stop", "1.5", "--steps", "9", "--out-dir", str(tmp_path / fmt),
                     "--format", fmt]) == 0
    rows = json.loads((tmp_path / "json" / "scan.json").read_text(encoding="utf-8"))["rows"]
    header, *lines = (tmp_path / "csv" / "scan.csv").read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    assert lines == [",".join(json.dumps(row[c]) for c in columns) for row in rows]


@pytest.mark.parametrize("command", ["run", "reconstruct"])
def test_stdout_echoes_the_json_report_in_either_format(tmp_path, capsys, command):
    config = write_config(tmp_path, dict(GHZ_CONFIG, tomography={"shots": 200}))
    assert main(["run", "--config", config, "--out-dir", str(tmp_path / "tables")]) == 0
    capsys.readouterr()
    if command == "run":
        argv, name = ["run", "--config", config], "report.json"
    else:
        argv = ["reconstruct", "--counts", str(tmp_path / "tables" / "counts.txt")]
        name = "reconstruction_report.json"
    echoes = []
    for fmt in ("json", "csv"):
        out = tmp_path / fmt
        assert main(argv + ["--out-dir", str(out), "--format", fmt]) == 0
        wrote, echo = capsys.readouterr().out.split("\n", 1)
        assert wrote.startswith("wrote ")
        echoes.append(echo)
        # The digest is taken from the bytes written, not read back: it must
        # be the written file's.
        report = json.loads(echo)
        written = (out / report["density_matrix_file"]).read_bytes()
        assert report["density_matrix_sha256"] == hashlib.sha256(written).hexdigest()
    assert echoes == [(tmp_path / "json" / name).read_text(encoding="utf-8")] * 2


SCAN_G = ["scan", "--param", "g", "--start", "0", "--stop", "1", "--steps", "2"]
SCAN_ALPHA1 = ["scan", "--param", "alpha1", "--start", "0", "--stop", "1", "--steps", "2"]
SCAN_L1 = ["scan", "--param", "L1", "--start", "0", "--stop", "1", "--steps", "2"]


def refusals(tmp_path, capsys, data, *commands):
    """The config's path and each command's stderr; each exits 2 and writes nothing."""
    config = write_config(tmp_path, data)
    errors = []
    for command in commands:
        out = tmp_path / "out"
        assert main(command + ["--config", config, "--out-dir", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    return config, errors


@pytest.mark.parametrize("command,data,rc,text", [
    pytest.param(["run"], dict(GHZ_CONFIG, tomography={"shots": 0}), 2, "tomography.shots",
                 id="run-bad-shots"),
    # Counts are float64, so a count past 2**53 would be rounded in counts.txt.
    pytest.param(["run"], dict(GHZ_CONFIG, tomography={"shots": 2**53 + 1}), 2,
                 "tomography.shots: expected an integer in [1, 9007199254740992], got "
                 "9007199254740993", id="run-shots-past-exact-float"),
    pytest.param(["run"], CUSTOM_CONFIG, 2, ": custom: the witness report needs three",
                 id="run-two-particles"),
    pytest.param(SCAN_G, CUSTOM_CONFIG, 2, ": custom: the witness report needs three",
                 id="scan-two-particles"),
    pytest.param(["run"], VANISHING_HOM, 3, "numerical failure", id="run-hom"),
    pytest.param(["run"], dict(GHZ_CONFIG, ghz=5), 2, "ghz: expected an object",
                 id="run-ghz-not-an-object"),
    pytest.param(["run"], dict(GHZ_CONFIG, ghz={"alpha1": INV_SQRT2}), 2,
                 "ghz: missing amplitudes: alpha2, beta2, beta3, gamma1, gamma3",
                 id="run-ghz-missing-amplitudes"),
    pytest.param(["run"], dict(GHZ_CONFIG, preset="w", w=5), 2, "w: expected an object",
                 id="run-w-not-an-object"),
    # Only a missing or null section is the balanced tritter.
    *(pytest.param(["run"], dict(GHZ_CONFIG, preset="w", w=w), 2, "w: expected an object",
                   id=f"run-w-{name}")
      for name, w in (("zero", 0), ("false", False), ("empty-string", ""), ("empty-list", []))),
    pytest.param(["run"], dict(GHZ_CONFIG, preset="custom", custom=5), 2,
                 "custom: expected an object with amplitudes and spins",
                 id="run-custom-not-an-object"),
    pytest.param(["run"], {"preset": "ghz"}, 2, "distinguishability: section is required",
                 id="run-no-distinguishability"),
    pytest.param(["run"], dict(GHZ_CONFIG, distinguishability=dict(
                     DELAY_CONFIG["distinguishability"], gram=np.eye(3).tolist())), 2,
                 'exactly one of "gram" or "delays" must be present', id="run-gram-and-delays"),
    pytest.param(["run"], dict(GHZ_CONFIG, tomography=5), 2, "tomography: expected an object",
                 id="run-tomography-not-an-object"),
    pytest.param(["scan", "--param", "alpha1", "--start", "0", "--stop", "2", "--steps", "3"],
                 GHZ_CONFIG, 2, "amplitude alpha1 must lie in [0, 1], got 2.0",
                 id="scan-amplitude-past-one"),
    pytest.param(SCAN_ALPHA1, dict(GHZ_CONFIG, ghz=5), 2, "ghz: expected an object",
                 id="scan-ghz-not-an-object"),
    # An empty section is not an absent one: it lacks every amplitude.
    pytest.param(["run"], dict(GHZ_CONFIG, ghz={}), 2,
                 "ghz: missing amplitudes: alpha1, alpha2, beta2, beta3, gamma1, gamma3",
                 id="run-ghz-empty"),
    pytest.param(SCAN_ALPHA1, dict(GHZ_CONFIG, ghz={}), 2,
                 "ghz: missing amplitudes: beta2, beta3, gamma1, gamma3", id="scan-ghz-empty"),
    pytest.param(["scan", "--param", "L3", "--start", "0", "--stop", "1", "--steps", "2"],
                 dict(GHZ_CONFIG, distinguishability={"delays": [0.0, 0.1],
                                                      "coherence_length": 1.0}),
                 2, "L3 is out of range for 2 delays", id="scan-delay-out-of-range"),
])
def test_failed_command_writes_no_file(tmp_path, capsys, command, data, rc, text):
    out = tmp_path / "out"
    argv = command + ["--config", write_config(tmp_path, data), "--out-dir", str(out)]
    assert main(argv) == rc
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", [
    None, {"gram": "nonsense", "delays": 7}, {"gram": "nonsense"},
    {"delays": 7, "coherence_length": 1.0}, {"delays": [0.0, 0.1, 0.2]},
    {"delays": [0.0, 0.1, 0.2], "coherence_length": 0.0}, {"gram": np.eye(2).tolist()},
], ids=["absent", "gram-and-delays", "gram-not-a-matrix", "delays-not-a-list",
        "no-coherence-length", "zero-coherence-length", "gram-for-two"])
def test_a_g_scan_refuses_the_distinguishability_section_as_run_does(tmp_path, capsys, section):
    # A g scan replaces the section's Gram matrix at every point, but a config
    # whose section run refuses is not a valid config to scan either. An
    # amplitude scan refuses it once too, not at its first point.
    data = {"preset": "ghz"} if section is None else {"preset": "ghz", "distinguishability": section}
    config, errors = refusals(tmp_path, capsys, data, ["run"], SCAN_G, SCAN_ALPHA1)
    assert errors == [errors[0]] * 3
    assert errors[0].startswith(f"identangle: invalid input: {config}: distinguishability")


@pytest.mark.parametrize("field,value", [
    ("tomography", 5), ("tomography", {"shots": 0}), ("tomography", {"shots": 2**53 + 1}),
    ("tomography", {"seed": -1}), ("tomography", {"seed": True}),
    ("label", math.nan), ("label", [math.inf]),
], ids=["tomography-not-an-object", "zero-shots", "shots-past-exact-float", "negative-seed",
        "boolean-seed", "label-nan", "label-infinity"])
def test_a_scan_refuses_the_tomography_section_and_label_as_run_does(
    tmp_path, capsys, field, value
):
    # A scan writes neither counts nor a label, but a config that run refuses
    # is not a valid config to scan either.
    config, errors = refusals(
        tmp_path, capsys, dict(DELAY_CONFIG, **{field: value}), ["run"], SCAN_G, SCAN_L1,
        SCAN_ALPHA1,
    )
    assert errors == [errors[0]] * 4
    assert errors[0].startswith(f"identangle: invalid input: {config}: {field}")
    assert errors[0].count("\n") == 1


@pytest.mark.parametrize("gram", [5, "nonsense", [], [1.0, 0.0], [[1.0], 0.0]],
                         ids=["number", "text", "empty", "flat-list", "row-and-number"])
def test_a_gram_that_is_not_a_list_of_rows_is_refused_at_its_field(tmp_path, capsys, gram):
    data = dict(GHZ_CONFIG, distinguishability={"gram": gram})
    config, (error,) = refusals(tmp_path, capsys, data, ["run"])
    assert error == (
        f"identangle: invalid input: {config}: distinguishability.gram: expected a list of rows\n"
    )


UNREADABLE_LENGTH = dict(
    DELAY_CONFIG, distinguishability=dict(DELAY_CONFIG["distinguishability"], coherence_length="x")
)


@pytest.mark.parametrize("data,scan", [
    (UNREADABLE_LENGTH, SCAN_L1),
    (UNREADABLE_LENGTH, SCAN_ALPHA1),
    (dict(AMPLITUDE_CONFIG, ghz=dict(AMPLITUDE_CONFIG["ghz"], beta2="bad")), SCAN_ALPHA1),
], ids=["L1-coherence-length", "alpha1-coherence-length", "alpha1-ghz-beta2"])
def test_a_scan_reports_a_config_fault_as_run_does(tmp_path, capsys, data, scan):
    # The fault is the config's, so no scan point is named.
    _, errors = refusals(tmp_path, capsys, data, ["run"], scan)
    assert errors[0] == errors[1]
    assert "--param" not in errors[1]


RECTANGULAR_CUSTOM = {
    "preset": "custom",
    "custom": {
        "amplitudes": [[INV_SQRT2, INV_SQRT2, 0], [0, INV_SQRT2, INV_SQRT2]],
        "spins": [["down", "up", None], [None, "down", "up"]],
    },
    "distinguishability": {"gram": [[1, 1], [1, 1]]},
}


@pytest.mark.parametrize("command", [["run"], SCAN_G], ids=["run", "scan-g"])
def test_a_rectangular_custom_routing_is_refused_at_its_field(tmp_path, capsys, command):
    # A config fault, so the scan reports it once, not as its first point's.
    out = tmp_path / "out"
    config = write_config(tmp_path, RECTANGULAR_CUSTOM)
    assert main(command + ["--config", config, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"identangle: invalid input: {config}: custom: no-bunching postselection needs as "
        "many detectors as particles, got 2 particles over 3 detectors\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], SCAN_G], ids=["run", "scan-g"])
def test_a_routing_without_three_particles_is_refused_before_any_solve(
    tmp_path, capsys, monkeypatch, command
):
    def never(*args):
        raise AssertionError("solved a routing the witness report cannot take")

    monkeypatch.setattr(cli, "density_matrix_from_spec", never)
    monkeypatch.setattr(cli, "density_matrices_from_spec", never)
    _, (error,) = refusals(tmp_path, capsys, CUSTOM_CONFIG, command)
    assert ": custom: the witness report needs three particles, got 2" in error
    assert "--param" not in error


def test_read_density_matrix_refuses_a_file_that_is_not_two_stacked_blocks(tmp_path):
    path = tmp_path / "rho.txt"
    np.savetxt(path, np.eye(3))
    message = r"rho.txt: expected two stacked dim x dim blocks, got shape \(3, 3\)$"
    with pytest.raises(ValidationError, match=message):
        read_density_matrix(path)


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[-0.0, 5e-324], [1e300, -1e300]]) + 1j * np.array([[2.0, -0.0], [-5e-324, 0.1]]),
        np.array([[1.0, -7.0], [2.2250738585072014e-308 / 3, 3.0]]),
        np.array([[1, -2], [3, 0]]),
    ],
    ids=["complex", "real", "integer"],
)
def test_density_matrix_file_holds_each_numpy_scalar_as_formatted(tmp_path, matrix):
    # The file formats Python floats from each row's list; these bytes are
    # those of formatting every numpy scalar on its own.
    path = tmp_path / "rho.txt"
    cli.write_density_matrix(path, matrix)
    rows = [
        " ".join(f"{value:+.17e}" for value in row)
        for block in (matrix.real, matrix.imag)
        for row in block
    ]
    assert path.read_text(encoding="utf-8").splitlines()[4:] == rows


@pytest.mark.parametrize("steps,expected", [("1", [0.3]), ("2", [0.3, 0.9])],
                         ids=["one-step", "two-steps"])
def test_a_short_scan_has_rows_at_start_and_stop(tmp_path, steps, expected):
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, GHZ_CONFIG), "--param", "g",
            "--start", "0.3", "--stop", "0.9", "--steps", steps, "--out-dir", str(out)]
    assert main(argv) == 0
    rows = json.loads((out / "scan.json").read_text(encoding="utf-8"))["rows"]
    assert [row["g"] for row in rows] == expected


def test_custom_spins_may_be_written_as_integers(tmp_path):
    named = {
        "preset": "custom",
        "custom": {
            "amplitudes": [[INV_SQRT2, INV_SQRT2, 0], [INV_SQRT2, -INV_SQRT2, 0], [0, 0, 1]],
            "spins": [["down", "up", None], ["up", "down", None], [None, None, "up"]],
        },
        "distinguishability": {"gram": np.eye(3).tolist()},
    }
    numbered = dict(named, custom=dict(named["custom"], spins=[[0, 1, -1], [1, 0, -1],
                                                               [-1, -1, 1]]))
    matrices = []
    for name, data in (("named", named), ("numbered", numbered)):
        out = tmp_path / name
        assert main(["run", "--config", write_config(tmp_path, data, f"{name}.json"),
                     "--out-dir", str(out)]) == 0
        matrices.append((out / "density_matrix.txt").read_bytes())
    assert matrices[0] == matrices[1]


def test_a_w_block_of_subnormal_magnitude_is_classified(tmp_path):
    # The W-support routings pass through two paths of amplitude m, so the W
    # block they leave in rho is of order m^4, subnormal: the W search's row
    # margin must not underflow there.
    m = 1.6541578383623047e-81
    config = {
        "preset": "custom",
        "custom": {
            "amplitudes": [[[1, 0], [0, m], [m, 0]], [[-m, 0], [1, 0], [m, 0]],
                           [[m, 0], [0, m], [1, 0]]],
            "spins": [["down", "up", "down"], ["down", "down", "up"], ["up", "down", "down"]],
        },
        "distinguishability": {"gram": np.ones((3, 3)).tolist()},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, config), "--out-dir", str(out)]) == 0
    assert read_report(out)["verdict"] == "witness-inconclusive"


def test_unusable_out_dir_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, GHZ_CONFIG)
    counts = tmp_path / "counts.txt"
    write_counts(simulate_counts(DensityMatrix.from_pure(ghz_state(3).vector), shots=10), counts)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    for argv in (
        ["run", "--config", config],
        SCAN_G + ["--config", config],
        ["reconstruct", "--counts", str(counts)],
    ):
        assert main(argv + ["--out-dir", str(taken)]) == 2
        assert str(taken) in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_out_dir_is_made_with_its_missing_parents(tmp_path):
    config = write_config(tmp_path, GHZ_CONFIG)
    out = tmp_path / "new" / "nested" / "out"
    assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
    assert (out / "report.json").is_file()


SCAN_ARGS = ["--config", "c.json", "--param", "g", "--start", "0", "--stop", "1", "--steps", "2"]


@pytest.mark.parametrize("argv,missing", [
    ([], "command"),
    (["run"], "--config"),
    (["reconstruct"], "--counts"),
    # scan without one of its five flags
    *[(["scan", *SCAN_ARGS[:k], *SCAN_ARGS[k + 2:]], SCAN_ARGS[k]) for k in range(0, 10, 2)],
])
def test_a_missing_required_argument_is_a_usage_error(capsys, argv, missing):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("shots,rc", [(1e300, 0), (1e306, 0), (1e307, 2), (1e308, 2)])
def test_reconstruct_refuses_a_shot_total_that_overflows(tmp_path, capsys, shots, rc):
    # 27 settings of 1e307 shots sum past the largest float; the project-wide
    # filterwarnings setting turns any numpy overflow warning into a failure.
    counts = tmp_path / "counts.txt"
    write_counts(_exact_counts(DensityMatrix.from_pure(ghz_state().vector), shots=shots), counts)
    out = tmp_path / "out"
    assert main(["reconstruct", "--counts", str(counts), "--out-dir", str(out)]) == rc
    if rc == 0:
        report = json.loads((out / "reconstruction_report.json").read_text(encoding="utf-8"))
        assert report["fidelity_ghz"] == pytest.approx(1.0, abs=1e-6)
    else:
        assert "shots_per_setting" in capsys.readouterr().err
        assert not out.exists()


def test_reconstruct_refuses_counts_whose_likelihood_overflows(tmp_path, capsys):
    # The total, 27 * 6e306, is finite; the likelihood sum and the step's
    # sufficient-increase test are not.
    rows = [f"{''.join(s)} {o:03b} 7.5e305"
            for s in itertools.product("XYZ", repeat=3) for o in range(8)]
    counts = tmp_path / "counts.txt"
    counts.write_text("\n".join(["# qubits: 3", "# shots_per_setting: 6e+306", *rows]) + "\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["reconstruct", "--counts", str(counts), "--out-dir", str(out)]) == 2
    assert "shots_per_setting 6e+306 overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shots", ["0", "-2"])
def test_reconstruct_reports_a_non_positive_shot_header_at_its_line(tmp_path, capsys, shots):
    counts = tmp_path / "counts.txt"
    counts.write_text(f"# shots_per_setting: {shots}\nX 0 0\nX 1 0\nY 0 0\nY 1 0\nZ 0 0\nZ 1 0\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["reconstruct", "--counts", str(counts), "--out-dir", str(out)]) == 2
    assert "line 1: shots_per_setting must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_refuses_a_counts_file_wider_than_20_qubits_at_its_line(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text(f"# shots_per_setting: 1\n# seed: none\n{'Z' * 40} {'0' * 40} 1\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["reconstruct", "--counts", str(counts), "--out-dir", str(out)]) == 2
    assert "line 3: settings have 40 axes, at most 20 are held" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_refuses_a_table_that_is_not_three_qubit_before_fitting(
    tmp_path, capsys, monkeypatch
):
    def never(table):
        raise AssertionError("the MLE ran on a table the report cannot classify")

    monkeypatch.setattr("identangle.cli.reconstruct_mle", never)
    counts = tmp_path / "counts.txt"
    write_counts(_exact_counts(DensityMatrix.from_pure(ghz_state(2).vector), shots=100), counts)
    out = tmp_path / "out"
    assert main(["reconstruct", "--counts", str(counts), "--out-dir", str(out)]) == 2
    assert "needs three particles, got 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds,flag", [
    (["--start", "nan", "--stop", "1"], "--start"),
    (["--start", "0", "--stop", "nan"], "--stop"),
    (["--start", "inf", "--stop", "1"], "--start"),
    (["--start", "0", "--stop=-inf"], "--stop"),
    (["--start=-1e308", "--stop", "1e308"], "--start/--stop"),
    (["--start", "1e308", "--stop=-1e308"], "--start/--stop"),
])
def test_scan_refuses_non_finite_or_overflowing_bounds(tmp_path, capsys, bounds, flag):
    # The project-wide filterwarnings setting turns any numpy warning that
    # the bounds could raise inside np.linspace into a failure.
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, GHZ_CONFIG), "--param", "g",
            "--steps", "3", "--out-dir", str(out)] + bounds
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_scan_refuses_a_step_count_that_cannot_be_allocated(tmp_path, capsys):
    # 10**15 float64 values need 7.1 PiB: the allocation is refused at once,
    # without touching memory.
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, GHZ_CONFIG), "--param", "g",
            "--start", "0", "--stop", "1", "--steps", str(10**15), "--out-dir", str(out)]
    assert main(argv) == 2
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()


def test_failed_write_stage_leaves_no_output(tmp_path, capsys):
    config = write_config(tmp_path, dict(GHZ_CONFIG, tomography={"shots": 10}))
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    assert main(["run", "--config", config, "--out-dir", str(out)]) == 2
    assert "report.json" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["report.json"]
    assert not any((out / "report.json").iterdir())

    (out / "scan.csv").mkdir()
    assert main(SCAN_G + ["--config", config, "--out-dir", str(out), "--format", "csv"]) == 2
    assert "scan.csv" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "scan.csv"]

    (out / "report.json").rmdir()
    assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["counts.txt", "density_matrix.txt", "report.json", "scan.csv"]


@pytest.mark.parametrize("fault", ROW_FAULT_FILES)
def test_reconstruct_reports_a_row_fault_at_its_own_line(tmp_path, capsys, fault):
    text, line, message = ROW_FAULT_FILES[fault]
    counts = tmp_path / "counts.txt"
    counts.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["reconstruct", "--counts", str(counts), "--out-dir", str(out)]) == 2
    assert f"line {line}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data,start,stop,rc,text", [
    (GHZ_CONFIG, "0", "1.5", 2,
     "invalid input: --param g = 1.5: Gram matrix is not positive semidefinite"),
    (VANISHING_HOM, "1", "1", 3, "numerical failure: --param g = 1.0: "),
])
def test_a_failing_scan_point_names_the_parameter_and_its_value(
    tmp_path, capsys, data, start, stop, rc, text
):
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, data), "--param", "g", "--start", start,
            "--stop", stop, "--steps", "3", "--out-dir", str(out)]
    assert main(argv) == rc
    assert text in capsys.readouterr().err
    assert not out.exists()
