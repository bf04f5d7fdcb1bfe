"""Self-tests of the benchmark: tiny runs, metric names, and output checks
that must reject injected wrong answers.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run

run.import_source()

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Every metric the benchmark's definition names, end to end and per layer.
NAMED_END_TO_END = ["setup_s", "wall_s", "op_p50_s", "op_tail_s", "ops_failed_ratio",
                    "peak_rss_mb", "mle_nll_per_shot"]
NAMED_PER_LAYER = [
    "transform.validate_s", "expansion.apply_transform_s", "expansion.terms",
    "reduction.postselect_s", "reduction.survivors", "reduction.survivor_ratio",
    "reduction.trace_s", "reduction.pairs", "reduction.gram_validate_s",
    "reduction.solve_self_s", "density.validate_s", "density.validate_calls",
    "entanglement.classify_s", "entanglement.optimize_w_phases_s",
    "entanglement.classify_calls", "entanglement.fidelity_mixed_s",
    "tomography.reconstruct_mle_s", "tomography.mle_calls", "tomography.mle_s.fuzz",
    "tomography.mle_s.near_pure", "tomography.simulate_counts_s",
    "tomography.write_counts_s", "tomography.read_counts_s", "tomography.counts_validate_s",
    "tomography.counts_rows", "cli.main_s", "cli.self_s", "cli.build_spec_s",
    "cli.build_gram_s", "cli.write_density_matrix_s", "cli.commands",
    "trace.overhead_ratio",
] + [
    f"{layer}.n{n}"
    for layer in ("expansion.apply_transform_s", "reduction.postselect_s",
                  "reduction.trace_s", "density.validate_s")
    for n in (3, 4, 5, 6, 7)
]
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        (name, trace): run.measure(name, 5, 0.01, trace, tiny=True)
        for name in WORKLOAD_NAMES
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_the_declared_metrics(tiny_runs, name, trace):
    result, details = tiny_runs[(name, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    json.dumps(result)


def test_every_metric_the_definition_names_is_reported(tiny_runs):
    for name in WORKLOAD_NAMES:
        plain = tiny_runs[(name, False)]
        traced = tiny_runs[(name, True)]
        reported = set(plain[0]["metrics"]) | set(plain[1]) | set(traced[0]["metrics"])
        missing = [m for m in NAMED_END_TO_END + NAMED_PER_LAYER if m not in reported]
        if name != "tomography":
            missing.remove("mle_nll_per_shot")
        assert not missing, (name, missing)


def test_layer_self_times_add_up_to_traced_op_time(tiny_runs):
    for name in WORKLOAD_NAMES:
        metrics = {k: v["value"] for k, v in tiny_runs[(name, True)][0]["metrics"].items()}
        total = sum(metrics[m] for m in run.LAYER_SELF)
        assert total == pytest.approx(metrics["trace.op_s"], rel=1e-9)
        assert metrics["cli.main_s"] <= metrics["trace.op_s"]


def test_traced_layers_land_on_the_workloads_that_drive_them(tiny_runs):
    forward = {k: v["value"] for k, v in tiny_runs[("forward", True)][0]["metrics"].items()}
    assert forward["expansion.terms"] == 3**3 + 4**4 + 5**5 + 3**7
    assert forward["reduction.survivors"] > 0 and 0 < forward["reduction.survivor_ratio"] < 1
    assert forward["reduction.pairs"] >= forward["reduction.survivors"]
    for n in (3, 4, 5, 7):
        assert forward[f"reduction.trace_s.n{n}"] > 0
    assert forward["cli.commands"] == 0 and forward["tomography.mle_calls"] == 0
    sweep = {k: v["value"] for k, v in tiny_runs[("sweep", True)][0]["metrics"].items()}
    assert sweep["cli.commands"] == 2 and sweep["entanglement.classify_calls"] == 18
    tomo = {k: v["value"] for k, v in tiny_runs[("tomography", True)][0]["metrics"].items()}
    assert tomo["tomography.mle_calls"] == 3
    assert tomo["tomography.mle_s.fuzz"] > 0 and tomo["tomography.mle_s.near_pure"] > 0
    assert tomo["tomography.mle_nll_per_shot"] > 0
    assert tomo["tomography.counts_rows"] >= 3 * 27 * 8


def test_recorder_skips_missing_targets_and_restores_originals():
    import identangle.reduction as reduction

    original = reduction.postselect_no_bunching
    recorder = spans.Recorder()
    installed = recorder.install([
        ("identangle.no_such_module", "f", "x", None, None),
        ("identangle.reduction", "no_such_function", "y", None, None),
        ("identangle.reduction", "NoSuchType.__post_init__", "z", None, None),
        ("identangle.reduction", "postselect_no_bunching", "reduction.postselect", None, None),
    ])
    assert installed == ["reduction.postselect"]
    assert reduction.postselect_no_bunching is not original
    recorder.uninstall()
    assert reduction.postselect_no_bunching is original


def test_tail_is_the_value_with_ten_samples_above_it():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


def test_a_slower_program_reports_the_same_tail_percentile(monkeypatch):
    seconds = 12 * workloads.Sweep.ROUND_SECONDS
    before = run.measure("sweep", 5, seconds, False, tiny=True)[1]
    honest = workloads.run_cli

    def slower(argv):
        time.sleep(0.02)
        return honest(argv)

    monkeypatch.setattr(workloads, "run_cli", slower)
    after = run.measure("sweep", 5, seconds, False, tiny=True)[1]
    assert before["op_samples"] == after["op_samples"] == 24
    assert before["op_tail_percentile"] == after["op_tail_percentile"]
    assert not before["failures"] and not after["failures"]


@pytest.mark.parametrize("name", ["forward", "sweep", "tomography"])
def test_a_full_run_draws_no_stored_input_twice(tmp_path, name):
    bench = workloads.WORKLOADS[name](11, False, tmp_path)
    rounds = run.round_count(name, BENCHMARK["run_seconds"], False)
    sources = [op.source for r in range(rounds) for op in bench.round(r) if op.source]
    assert sources and len(set(sources)) == len(sources)


def test_a_scan_reaches_no_point_another_scan_of_its_pair_reaches(tmp_path):
    bench = workloads.Sweep(11, False, tmp_path)
    rounds = run.round_count("sweep", BENCHMARK["run_seconds"], False)
    points = []
    for r in range(rounds):
        for op in bench.round(r):
            combo, first = op.source
            steps, offsets = workloads.SCAN_SHAPE[combo.split("/")[1]]
            points += [(combo, first + k * offsets) for k in range(steps)]
    assert len(set(points)) == len(points)
    for combo, index in points:
        assert index < workloads.grid_points(combo.split("/")[1])


@pytest.mark.parametrize("change", ["gc_off", "threshold", "trace_hook"])
def test_an_operation_that_changes_process_state_fails(tmp_path, monkeypatch, change):
    import gc

    threshold = gc.get_threshold()

    def meddle():
        if change == "gc_off":
            gc.disable()
        elif change == "threshold":
            gc.set_threshold(threshold[0] * 2)
        else:
            sys.setprofile(lambda *args: None)
        return 0

    op = workloads.Op("meddle", meddle, lambda output: None)
    baseline = run.process_state()
    try:
        _, errors, _, _, _ = run.execute([op], None, 0, run.interpreter_probe, baseline)
    finally:
        gc.enable()
        gc.set_threshold(*threshold)
        sys.setprofile(None)
    assert errors[0] and "process state" in errors[0]


# --- output checks reject injected wrong answers ------------------------------


def _op(bench, kind):
    return next(op for op in bench.round(0) if op.kind == kind)


def _perturbed(output, drho=0.0, dp=0.0):
    rho, p = output
    rho = np.array(rho)
    rho[0, 0] += drho
    return rho, p + dp


@pytest.mark.parametrize("kind", ["dense3", "dense5", "band7"])
def test_forward_checks_reject_a_perturbed_state(tmp_path, kind):
    op = _op(workloads.Forward(7, True, tmp_path), kind)
    output = op.run()
    assert op.check(output) is None
    assert op.check(_perturbed(output, drho=1e-8)) is not None
    assert op.check(_perturbed(output, dp=1e-8)) is not None


def test_distinguishable_limit_rejects_a_wrong_success_probability(monkeypatch):
    t, s = workloads.dense_arrays(np.random.default_rng(1), 4)
    assert workloads.check_distinguishable_limit(t, s) is None
    honest = workloads.solve
    monkeypatch.setattr(workloads, "solve", lambda *a: _perturbed(honest(*a), dp=1e-8))
    assert workloads.check_distinguishable_limit(t, s) is not None


def _edit_scan_output(out_dir, fmt, edit):
    """Rewrite a scan file, applying ``edit`` to its second row."""
    rows = workloads.read_scan_rows(out_dir, fmt)
    edit(rows[1])
    if fmt == "json":
        payload = json.loads((out_dir / "scan.json").read_text())
        payload["rows"] = rows
        (out_dir / "scan.json").write_text(json.dumps(payload))
    else:
        lines = [",".join(rows[0])] + [",".join(json.dumps(v) for v in r.values()) for r in rows]
        (out_dir / "scan.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("field", ["fidelity_w_max", "phi1_pi", "verdict", "g"])
def test_sweep_check_rejects_a_wrong_field(tmp_path, field):
    bench = workloads.Sweep(3, True, tmp_path)
    for slot, (op, (_, param, fmt)) in enumerate(zip(bench.round(0), bench.template)):
        if field == "g" and param != "g":
            continue
        rc = op.run()
        assert op.check(rc) is None
        assert op.check(2) is not None

        def edit(row):
            row[field] = "other" if field == "verdict" else row[field] + 1e-7
        _edit_scan_output(tmp_path / f"scan{slot}", fmt, edit)
        assert op.check(rc) is not None


def test_sweep_check_enforces_the_ghz_coherence_law():
    refs = workloads.load_sweep_grid()["ghz/g"]
    indices = list(range(0, workloads.grid_points("g"), 127))

    def rows(columns):
        step = workloads.GRID_STEP["g"]
        return [{"g": i * step, **{f: v[i] for f, v in columns.items()}} for i in indices]

    assert workloads.check_scan_rows(rows(refs), "g", indices, refs, True) is None
    wrong = {field: list(column) for field, column in refs.items()}
    for index in indices:
        wrong["fidelity_ghz"][index] += 1e-6
    assert "(1 + g^3)/2" in workloads.check_scan_rows(rows(wrong), "g", indices, wrong, True)


def _write_matrix(out_dir, matrix):
    np.savetxt(out_dir / "reconstructed_density_matrix.txt", np.vstack([matrix.real, matrix.imag]))


def test_tomography_checks_reject_wrong_answers(tmp_path):
    bench = workloads.Tomography(4, True, tmp_path)
    ops = bench.round(0)
    for op in ops:
        rc = op.run()
        assert op.check(rc) is None, op.kind
        assert op.check(1) is not None
    run_op, fuzz_op, near_pure_op = ops
    mixed = np.eye(8, dtype=complex) / 8
    not_psd = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    for op in (fuzz_op, near_pure_op):
        out_dir = tmp_path / f"op{ops.index(op)}"
        _write_matrix(out_dir, not_psd)
        assert "not a density matrix" in op.check(0)
        _write_matrix(out_dir, mixed)
        assert op.check(0) is not None


def test_tomography_run_check_rejects_low_fidelity(tmp_path):
    bench = workloads.Tomography(4, False, tmp_path)
    bench.template = [("run", "ghz", 100_000)]
    (op,) = bench.round(0)
    assert op.check(op.run()) is None
    report_path = tmp_path / "op0" / "report.json"
    report = json.loads(report_path.read_text())
    report["tomography"]["mle_fidelity_vs_simulated"] = 0.98
    report_path.write_text(json.dumps(report))
    assert "fidelity" in op.check(0)


def test_benchmark_exits_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, *BENCHMARK["command"][1:], "--workload", "forward",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
