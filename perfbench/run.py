"""identangle benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload forward|sweep|tomography \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
The workload's round of operations is repeated with fresh seeded inputs a
fixed number of times, S seconds over the round's nominal cost, and every
output is checked after its round. The last line printed is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it holds the details (tail percentile and sample count,
measured times before speed scaling, failure messages, environment).

The process pins itself to the fastest usable CPU, and the end-to-end times
are scaled by a speed probe run between operations (see PROBES).
"""

from __future__ import annotations

import os

# Pinned before numpy loads: every run is one single-threaded process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
TAIL_BEYOND = 10
PIN_PROBES = 5
# Machine speed on shared hardware drifts by tens of percent over tens of
# seconds. A speed probe runs after every operation, outside its timing; each
# operation's latency is scaled by the probe's nominal time over the median
# of the probes after it and after the SPEED_WINDOW operations on each side
# of it in its round, so the end-to-end times read as seconds on a CPU where
# the probe takes its nominal time. Code of different kinds slows down
# differently, so each workload names the probe shaped like its own work.
SPEED_WINDOW = 2
SETUP_SPEED_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer self times: metric name -> span name (see spans.TARGETS).
LAYER_SELF = {
    "transform.validate_s": "transform.validate",
    "expansion.apply_transform_s": "expansion.apply_transform",
    "reduction.postselect_s": "reduction.postselect",
    "reduction.trace_s": "reduction.trace",
    "reduction.gram_validate_s": "reduction.gram_validate",
    "reduction.solve_self_s": "reduction.solve",
    "density.validate_s": "density.validate",
    "entanglement.classify_s": "entanglement.classify",
    "entanglement.optimize_w_phases_s": "entanglement.optimize_w_phases",
    "entanglement.fidelity_mixed_s": "entanglement.fidelity_mixed",
    "tomography.reconstruct_mle_s": "tomography.reconstruct_mle",
    "tomography.simulate_counts_s": "tomography.simulate_counts",
    "tomography.write_counts_s": "tomography.write_counts",
    "tomography.read_counts_s": "tomography.read_counts",
    "tomography.counts_validate_s": "tomography.counts_validate",
    "cli.self_s": "cli.main",
    "cli.build_spec_s": "cli.build_spec",
    "cli.build_gram_s": "cli.build_gram",
    "cli.write_density_matrix_s": "cli.write_density_matrix",
    "bench.unattributed_s": "bench.op",
}
LAYER_CALLS = {
    "density.validate_calls": "density.validate",
    "entanglement.classify_calls": "entanglement.classify",
    "tomography.mle_calls": "tomography.reconstruct_mle",
    "cli.commands": "cli.main",
}
LAYER_COUNTS = ("expansion.terms", "reduction.survivors", "reduction.pairs",
                "tomography.counts_rows")
LADDER_SPANS = {
    "expansion.apply_transform_s": "expansion.apply_transform",
    "reduction.postselect_s": "reduction.postselect",
    "reduction.trace_s": "reduction.trace",
    "density.validate_s": "density.validate",
}
LADDER_SIZES = (3, 4, 5, 6, 7)
MLE_KINDS = ("fuzz", "near_pure")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {name: "s" for name in LAYER_SELF}
    units.update({name: "count" for name in LAYER_CALLS})
    units.update({name: "count" for name in LAYER_COUNTS})
    units["reduction.survivor_ratio"] = "ratio"
    units["cli.main_s"] = "s"
    units.update({f"tomography.mle_s.{kind}": "s" for kind in MLE_KINDS})
    units["tomography.mle_nll_per_shot"] = "nat"
    units.update({f"{name}.n{n}": "s" for name in LADDER_SPANS for n in LADDER_SIZES})
    units["trace.op_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def import_source():
    """Import ``identangle`` from the checkout's ``src/``, or exit with an error."""
    if not (SRC / "identangle" / "__init__.py").is_file():
        sys.exit(f"perfbench: no {SRC / 'identangle'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import identangle

    if SRC not in Path(identangle.__file__).resolve().parents:
        sys.exit(f"perfbench: identangle was imported from {identangle.__file__}, not {SRC}")
    return identangle


def setup_times(count: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing identangle and identangle.cli,
    with interpreter-probe times taken between them. Whatever the workload's
    probe, an import follows this one more closely: twelve interleaved
    medians of 7 imports spread 0.07 scaled by it, 0.15 by the object probe."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import identangle, identangle.cli"]
    times, probes = [], []
    for _ in range(count):
        start = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
        probes.extend(interpreter_probe() for _ in range(SETUP_SPEED_PROBES))
    return times, probes


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def process_state() -> tuple:
    """Process-wide state that would change the speed probe as much as the
    operations, and so be divided out of the scaled times."""
    return gc.isenabled(), gc.get_threshold(), sys.gettrace(), sys.getprofile()


def execute(ops, recorder, first_op_id: int, probe, baseline: tuple):
    """Run one round; returns outputs, errors, latencies, speed-probe times
    (one after each operation, untimed) and the span names installed. An
    operation after which the process state differs from ``baseline`` fails."""
    outputs, errors, latencies, probes = [], [], [], []
    installed = recorder.install() if recorder is not None else None
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for index, op in enumerate(ops):
                start = perf_counter()
                try:
                    if recorder is None:
                        output = op.run()
                    else:
                        output = recorder.op(first_op_id + index, op.run)
                    error = None
                # A raising operation is a failed operation, not a failed benchmark.
                except (Exception, SystemExit) as exc:
                    output, error = None, f"{type(exc).__name__}: {exc}"
                latencies.append(perf_counter() - start)
                state = process_state()
                if error is None and state != baseline:
                    error = f"process state {state} differs from {baseline} at the start"
                outputs.append(output)
                errors.append(error)
                probes.append(probe())
    finally:
        if recorder is not None:
            recorder.uninstall()
    return outputs, errors, latencies, probes, installed


def check(ops, outputs, errors) -> list[str]:
    failures = []
    for op, output, error in zip(ops, outputs, errors):
        if error is None:
            try:
                error = op.check(output)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.kind}: {error}")
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def layer_metrics(recorder, op_kinds: dict[int, str], rounds: int) -> dict[str, float]:
    """Per-round layer metrics from the recorded spans of ``rounds`` rounds."""
    from spans import self_times

    spans = recorder.spans
    selfs = self_times(spans)
    self_by, inclusive_by, calls_by = defaultdict(float), defaultdict(float), defaultdict(int)
    ladder_sum, ladder_calls = defaultdict(float), defaultdict(int)
    kind_self = defaultdict(float)
    for span, own in zip(spans, selfs):
        self_by[span.name] += own
        inclusive_by[span.name] += span.end - span.start
        calls_by[span.name] += 1
        kind_self[(span.name, op_kinds[span.op])] += own
        if span.size:
            ladder_sum[(span.name, span.size)] += own
            ladder_calls[(span.name, span.size)] += 1

    metrics = {name: self_by[span] / rounds for name, span in LAYER_SELF.items()}
    metrics.update({name: calls_by[span] / rounds for name, span in LAYER_CALLS.items()})
    metrics.update({name: recorder.counts[name] / rounds for name in LAYER_COUNTS})
    terms = recorder.counts["expansion.terms"]
    metrics["reduction.survivor_ratio"] = (
        recorder.counts["reduction.survivors"] / terms if terms else 0.0
    )
    metrics["cli.main_s"] = inclusive_by["cli.main"] / rounds
    for kind in MLE_KINDS:
        metrics[f"tomography.mle_s.{kind}"] = (
            kind_self[("tomography.reconstruct_mle", kind)] / rounds
        )
    for name, span in LADDER_SPANS.items():
        for n in LADDER_SIZES:
            calls = ladder_calls[(span, n)]
            metrics[f"{name}.n{n}"] = ladder_sum[(span, n)] / calls if calls else 0.0
    metrics["trace.op_s"] = inclusive_by["bench.op"] / rounds
    return metrics


def interpreter_probe() -> float:
    """Seconds a pure-interpreter float loop takes now. It allocates nothing
    but floats from the free list, so the package's heap cannot colour it;
    its time follows small-array numpy code (classify, the MLE)."""
    start = perf_counter()
    x = 0.0
    for i in range(30000):
        x = x * 0.999 + i
    return perf_counter() - start


def object_probe() -> float:
    """Seconds a loop of tuple-keyed dict updates with complex values takes
    now; its time follows object-heavy Python code (expansion, the trace).
    The collector is off while it runs, so the package's heap cannot colour it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for k in range(6000):
            key = (k & 255, k >> 8)
            table[key] = table.get(key, 0j) + complex(k, 1.0)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# Probe name -> (probe, nominal seconds on the machine that defined the benchmark).
PROBES = {"interpreter": (interpreter_probe, 0.002), "objects": (object_probe, 0.0025)}


def pin_to_fastest_cpu(probe) -> int | None:
    """Pin this process, and so its children, to the usable CPU that runs the
    speed probe fastest. Virtual CPUs of a shared machine can differ in speed
    by tens of percent, and a process the scheduler moves between them would
    mix both speeds into one run."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    times = {cpu: [] for cpu in cpus}
    try:
        for _ in range(PIN_PROBES):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu].append(probe())
        best = min(cpus, key=lambda cpu: statistics.median(times[cpu]))
        os.sched_setaffinity(0, {best})
    except OSError:
        # Affinity may be fixed from outside; run wherever the scheduler puts us.
        os.sched_setaffinity(0, set(cpus))
        return None
    return best


def speed_factors(probes: list[float], nominal: float) -> list[float]:
    """Speed factor of each operation of a round, from the probes around it."""
    return [
        nominal / statistics.median(probes[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        for i in range(len(probes))
    ]


def round_count(workload: str, seconds: float, trace: bool) -> int:
    """Rounds in a run: a fixed count from the round's nominal cost, so the
    number of operations, and with it the tail percentile, does not follow
    the program's speed. A traced run spends them in traced/untraced pairs."""
    from workloads import WORKLOADS

    rounds = max(1, round(seconds / WORKLOADS[workload].ROUND_SECONDS))
    return max(1, rounds // 2) if trace else rounds


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the details."""
    from spans import Recorder
    from workloads import WORKLOADS

    probe, nominal = PROBES[WORKLOADS[workload].PROBE]
    baseline = process_state()
    cpu = pin_to_fastest_cpu(probe)
    setup, setup_probes_s = ([], []) if trace else setup_times(SETUP_PROBES)
    work_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    recorder = Recorder() if trace else None
    latencies, walls, traced_walls, raw_walls, speeds, failures = [], [], [], [], [], []
    kind_latencies = defaultdict(list)
    op_kinds: dict[int, str] = {}
    installed = []
    try:
        bench = WORKLOADS[workload](seed, tiny, work_dir)
        rounds = round_count(workload, seconds, trace)
        for r in range(rounds):
            # Traced runs alternate which of the pair runs first.
            modes = (False,) if not trace else ((False, True) if r % 2 == 0 else (True, False))
            for traced in modes:
                ops = bench.round(r)
                first = len(op_kinds)
                op_kinds.update({first + i: op.kind for i, op in enumerate(ops)})
                outputs, errors, lats, probes, names = execute(
                    ops, recorder if traced else None, first, probe, baseline
                )
                failures.extend(check(ops, outputs, errors))
                factors = speed_factors(probes, nominal)
                speeds.append(statistics.median(factors))
                scaled = [latency * factor for latency, factor in zip(lats, factors)]
                if traced:
                    traced_walls.append(sum(scaled))
                    installed = names
                else:
                    raw_walls.append(sum(lats))
                    walls.append(sum(scaled))
                    latencies.extend(scaled)
                    for op, latency in zip(ops, scaled):
                        kind_latencies[op.kind].append(latency)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len(op_kinds)
    details = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "ops_per_round": attempted // (rounds * (2 if trace else 1)),
        "op_samples": len(latencies),
        "ops_failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "cpu": cpu,
        "speed_per_round": speeds,
        "environment": environment(),
    }
    if trace:
        metrics = layer_metrics(recorder, op_kinds, len(traced_walls))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        units = per_layer_units()
        details["spans_installed"] = sorted(set(installed))
    else:
        tail_value, tail_percentile = tail(latencies)
        setup_speed = PROBES["interpreter"][1] / statistics.median(setup_probes_s)
        metrics = {
            "setup_s": statistics.median(setup) * setup_speed,
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        details.update({
            "op_tail_percentile": tail_percentile,
            "op_tail_beyond": TAIL_BEYOND,
            "setup_speed": setup_speed,
            "setup_measured_s": setup,
            "wall_measured_s": raw_walls,
            "op_p50_s_by_kind": {
                kind: statistics.median(values) for kind, values in kind_latencies.items()
            },
        })
    nll = getattr(bench, "mle_nll_per_shot", None)
    if nll is not None:
        details["mle_nll_per_shot"] = nll()
    if trace:
        metrics["tomography.mle_nll_per_shot"] = details.get("mle_nll_per_shot", 0.0)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("forward", "sweep", "tomography"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_source()
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in details["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
