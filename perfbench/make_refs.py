"""Write the stored references the benchmark's output checks compare against.

    python3 perfbench/make_refs.py

Run from the root of a checkout. The references record what the package at
that commit computes, so they are written once, when the benchmark is
defined; a change that claims a gain must leave them alone.

* ``forward_pool.npz``: dense N=6 and banded and wide N=7 inputs with their
  density matrices and success probabilities (no oracle reaches N >= 6).
* ``sweep_grid.npz``: every scan field of every (preset, parameter) pair at
  each grid value the sweep workload scans.
* ``fuzz_pool.json``: 300-shot Dirichlet counts tables and the -log L / shot
  their reconstructions reach.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import numpy as np

from run import WORK, import_source

REF_SEED = 20240817
# A run at run_seconds 27 draws 6 dense6, 36 band7 and 12 wide7 entries and
# 54 fuzz tables; the pools are larger, so no run repeats an input.
POOL_SIZES = {"dense6": 10, "band7": 48, "wide7": 16}
FUZZ_TABLES = 72


def forward_pool(workloads) -> dict[str, np.ndarray]:
    arrays = {}
    for key, (name, size) in enumerate(POOL_SIZES.items()):
        maker, n = workloads.POOLS[name]
        entries = []
        for index in range(size):
            rng = np.random.default_rng([REF_SEED, key, index])
            t, s = maker(rng, n)
            g = workloads.gram_array(rng, n)
            rho, p = workloads.solve(t, s, g)
            entries.append((t, s, g, rho, p))
        for field, column in zip("tsgrp", zip(*entries)):
            arrays[f"{name}/{field}"] = np.array(column)
    return arrays


def sweep_grid(workloads, work_dir) -> dict[str, np.ndarray]:
    refs = {}
    for preset, param in workloads.SWEEP_COMBOS:
        last = workloads.grid_points(param) - 1
        config_path = work_dir / f"{preset}.json"
        config_path.write_text(json.dumps(workloads.sweep_config(preset)), encoding="utf-8")
        out_dir = work_dir / "scan"
        argv = workloads.scan_argv(config_path, param, 0, last, last + 1, out_dir, "json")
        with contextlib.redirect_stdout(io.StringIO()):
            if workloads.run_cli(argv) != 0:
                raise SystemExit(f"scan {preset}/{param} failed")
        rows = workloads.read_scan_rows(out_dir, "json")
        for field in rows[0]:
            if field != param:
                column = np.array([row[field] for row in rows])
                if column.dtype == object:
                    raise SystemExit(f"scan {preset}/{param}: field {field} is not one type")
                refs[f"{preset}/{param}/{field}"] = column
    return refs


def fuzz_pool(workloads, work_dir) -> dict[str, list]:
    tables, nll = [], []
    for index in range(FUZZ_TABLES):
        counts = workloads.dirichlet_counts(
            np.random.default_rng([REF_SEED, 4, index]), workloads.FUZZ_SHOTS
        )
        counts_path = work_dir / "fuzz.txt"
        workloads.write_counts_file(counts_path, counts, workloads.FUZZ_SHOTS, index)
        argv = ["reconstruct", "--counts", str(counts_path), "--out-dir", str(work_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            if workloads.run_cli(argv) != 0:
                raise SystemExit(f"reconstruct of fuzz table {index} failed")
        matrix, message = workloads.check_reconstruction(work_dir)
        if message:
            raise SystemExit(message)
        tables.append(counts.tolist())
        nll.append(workloads.nll_per_shot(matrix, counts_path))
    return {"tables": tables, "nll_per_shot": nll}


def main() -> None:
    import_source()
    import workloads

    work_dir = WORK / "refs"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        workloads.REFS.mkdir(exist_ok=True)
        np.savez_compressed(workloads.FORWARD_POOL, **forward_pool(workloads))
        np.savez_compressed(workloads.SWEEP_GRID, **sweep_grid(workloads, work_dir))
        workloads.FUZZ_POOL.write_text(
            json.dumps(fuzz_pool(workloads, work_dir)) + "\n", encoding="utf-8"
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
