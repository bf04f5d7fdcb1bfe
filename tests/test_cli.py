from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from conftest import ROW_FAULT_FILES
from identangle import (
    DensityMatrix,
    GramMatrix,
    balanced_tritter_rows,
    density_matrix_from_spec,
    exact_counts,
    ghz_state,
    simulate_counts,
    w_preset,
    write_counts,
)
from identangle.cli import main, read_density_matrix

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


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


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
    config_data = dict(GHZ_CONFIG, tomography={"shots": 400, "seed": 0})
    config = write_config(tmp_path, config_data)
    out_default, out_seeded = tmp_path / "default", tmp_path / "seeded"
    assert main(["run", "--config", config, "--out-dir", str(out_default)]) == 0
    assert main(
        ["run", "--config", config, "--out-dir", str(out_seeded), "--seed", "9"]
    ) == 0
    assert read_report(out_seeded)["tomography"]["seed"] == 9
    assert (out_default / "counts.txt").read_bytes() != (out_seeded / "counts.txt").read_bytes()


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
    hom = {
        "preset": "custom",
        "custom": {
            "amplitudes": [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]],
            "spins": [["down", "down"], ["down", "down"]],
        },
        "distinguishability": {"gram": [[1, 1], [1, 1]]},
    }
    config = write_config(tmp_path, hom)
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


TWO_PARTICLE_HOM = {
    "preset": "custom",
    "custom": {
        "amplitudes": [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]],
        "spins": [["down", "down"], ["down", "down"]],
    },
    "distinguishability": {"gram": [[1, 1], [1, 1]]},
}
SCAN_G = ["scan", "--param", "g", "--start", "0", "--stop", "1", "--steps", "2"]


@pytest.mark.parametrize("command,data,rc,text", [
    pytest.param(["run"], dict(GHZ_CONFIG, tomography={"shots": 0}), 2, "tomography.shots",
                 id="run-bad-shots"),
    pytest.param(["run"], CUSTOM_CONFIG, 2, ": custom: the witness report needs three",
                 id="run-two-particles"),
    pytest.param(SCAN_G, CUSTOM_CONFIG, 2, ": custom: the witness report needs three",
                 id="scan-two-particles"),
    pytest.param(["run"], TWO_PARTICLE_HOM, 3, "numerical failure", id="run-hom"),
])
def test_failed_command_writes_no_file(tmp_path, capsys, command, data, rc, text):
    out = tmp_path / "out"
    argv = command + ["--config", write_config(tmp_path, data), "--out-dir", str(out)]
    assert main(argv) == rc
    assert text in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("shots,rc", [(1e300, 0), (1e306, 0), (1e307, 2), (1e308, 2)])
def test_reconstruct_refuses_a_shot_total_that_overflows(tmp_path, capsys, shots, rc):
    # 27 settings of 1e307 shots sum past the largest float; the project-wide
    # filterwarnings setting turns any numpy overflow warning into a failure.
    counts = tmp_path / "counts.txt"
    write_counts(exact_counts(DensityMatrix.from_pure(ghz_state().vector), shots=shots), counts)
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


def test_reconstruct_refuses_a_table_that_is_not_three_qubit_before_fitting(
    tmp_path, capsys, monkeypatch
):
    def never(table):
        raise AssertionError("the MLE ran on a table the report cannot classify")

    monkeypatch.setattr("identangle.cli.reconstruct_mle", never)
    counts = tmp_path / "counts.txt"
    write_counts(exact_counts(DensityMatrix.from_pure(ghz_state(2).vector), shots=100), counts)
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
    (TWO_PARTICLE_HOM, "1", "1", 3, "numerical failure: --param g = 1.0: "),
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
