"""The three workloads: seeded inputs, timed operations and output checks.

A workload is a fixed list of operation templates, one "round". The seed and
the round number fill the templates with values, so no two rounds share an
input while every round costs about the same. Building a round (writing
configs and counts files, clearing output directories) happens before it is
timed; each operation's check runs after the round, outside the timing.

Where no independent oracle reaches (N >= 6, CLI scan fields, the MLE
likelihood on fuzz tables), checks compare against references stored in
``refs/`` by ``make_refs.py``. Those inputs are drawn from a stored pool, or
from a grid the references cover, in a seeded order without replacement, so
a run at the benchmark's ``run_seconds`` never hands the program an input
twice.

A run is a fixed number of rounds, ``seconds / ROUND_SECONDS``, where
``ROUND_SECONDS`` is a round's cost at the commit that defined the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import identangle
from identangle import cli

REFS = Path(__file__).resolve().parent / "refs"
FORWARD_POOL = REFS / "forward_pool.npz"
SWEEP_GRID = REFS / "sweep_grid.npz"
FUZZ_POOL = REFS / "fuzz_pool.json"

STATE_TOL = 1e-10
SCAN_TOL = 1e-9
GHZ_FIDELITY_FLOOR = 0.99
NLL_TOL = 1e-9


@dataclass
class Op:
    """One timed call. ``check`` maps its output to a failure message or None."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # The stored input drawn, as (pool, index), or None for a fresh input.
    source: tuple[str, int] | None = None


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def draw_order(seed: int, key: int, size: int) -> np.ndarray:
    """Seeded order in which a run draws a stored pool of ``size`` entries."""
    return _rng(seed, 9, key).permutation(size)


def drawn(order: np.ndarray, r: int, per_round: int, k: int) -> int:
    """Pool index of the k-th draw of round r: a run repeats no entry until
    it has drawn every one."""
    return int(order[(r * per_round + k) % len(order)])


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- input generators, shared with make_refs.py -----------------------------


def dense_arrays(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random n x n routing with every path open and random spins."""
    t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    return t, rng.integers(0, 2, size=(n, n))


def banded_arrays(rng: np.random.Generator, n: int, width: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic band: particle i reaches detectors i-1 .. i+width-2 (mod n) only."""
    t = np.zeros((n, n), dtype=complex)
    s = np.full((n, n), -1)
    for i in range(n):
        for j in ((i + d - 1) % n for d in range(width)):
            t[i, j] = rng.normal() + 1j * rng.normal()
            s[i, j] = rng.integers(0, 2)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    return t, s


def wide_arrays(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic band of 4 nonzeros per row."""
    return banded_arrays(rng, n, width=4)


# Stored pools of the forward workload: name -> (routing generator, N).
POOLS = {"dense6": (dense_arrays, 6), "band7": (banded_arrays, 7), "wide7": (wide_arrays, 7)}


def gram_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """Overlaps of n random unit vectors in C^2: Hermitian, PSD, unit diagonal."""
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    g = v.conj() @ v.T
    g = (g + g.conj().T) / 2.0
    np.fill_diagonal(g, 1.0)
    return g


def dirichlet_counts(rng: np.random.Generator, shots: int) -> np.ndarray:
    """27 x 8 fuzz table: per setting, multinomial counts of a Dirichlet draw."""
    return np.array(
        [rng.multinomial(shots, rng.dirichlet(np.ones(8))) for _ in range(27)]
    )


_AXES = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "Y": np.array([[1, 1j], [1, -1j]], dtype=complex) / math.sqrt(2.0),
    "Z": np.eye(2, dtype=complex),
}
SETTINGS = [a + b + c for a in "XYZ" for b in "XYZ" for c in "XYZ"]


def born_counts(rng: np.random.Generator, rho: np.ndarray, shots: int) -> np.ndarray:
    """27 x 8 table of multinomial counts of Pauli measurements on ``rho``."""
    rows = []
    for setting in SETTINGS:
        vectors = np.kron(np.kron(_AXES[setting[0]], _AXES[setting[1]]), _AXES[setting[2]])
        probs = np.clip(np.einsum("oi,ij,oj->o", vectors.conj(), rho, vectors).real, 0, None)
        rows.append(rng.multinomial(shots, probs / probs.sum()))
    return np.array(rows)


def write_counts_file(path: Path, counts: np.ndarray, shots: int, seed: int) -> None:
    """Counts file in the documented format, written independently of the library."""
    lines = [
        "# identangle tomography counts",
        "# qubits: 3",
        f"# shots_per_setting: {shots}",
        f"# seed: {seed}",
        "# columns: setting outcome count",
    ]
    for setting, row in zip(SETTINGS, counts):
        lines.extend(f"{setting} {o:03b} {int(c)}" for o, c in enumerate(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_file(path: Path) -> np.ndarray:
    """Density-matrix file: real block stacked over imaginary block."""
    data = np.loadtxt(path)
    dim = data.shape[1]
    return data[:dim] + 1j * data[dim:]


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    vals, vecs = np.linalg.eigh(a)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = root @ b @ root
    eigs = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0), 0.0, None)
    return float(np.sqrt(eigs).sum() ** 2)


def nll_per_shot(matrix: np.ndarray, counts_path: Path) -> float:
    """-log L / shots with the library's public log_likelihood and read_counts."""
    table = identangle.read_counts(counts_path)
    shots = sum(row.count for row in table.rows)
    return -identangle.log_likelihood(matrix, table) / shots


def compare_state(rho, p, ref_rho, ref_p, tol: float, what: str) -> str | None:
    rho = np.asarray(rho)
    if rho.shape != np.shape(ref_rho):
        return f"density matrix shape {rho.shape} differs from {what} {np.shape(ref_rho)}"
    defect = float(np.max(np.abs(rho - ref_rho)))
    if not defect <= tol:
        return f"density matrix differs from {what} by {defect:.3e}"
    if not abs(p - ref_p) <= tol:
        return f"p_success {p!r} differs from {what} {ref_p!r}"
    return None


# --- forward: library solves from raw arrays --------------------------------


def solve(t, s, g):
    """The timed forward call, looked up through the package on every call."""
    spec = identangle.custom_spec(t, s)
    gram = identangle.GramMatrix(g)
    rho, p = identangle.density_matrix_from_spec(spec, gram)
    return rho.matrix, p


def check_against_brute(t, s, g) -> Callable[[object], str | None]:
    def check(output):
        ref_rho, ref_p = identangle.brute_density_matrix(
            identangle.custom_spec(t, s), identangle.GramMatrix(g)
        )
        return compare_state(*output, ref_rho.matrix, ref_p, STATE_TOL, "brute_density_matrix")

    return check


def check_distinguishable_limit(t, s) -> str | None:
    """The G = I solve of a spec has p_success = permanent(|t|^2)."""
    n = t.shape[0]
    _, p = solve(t, s, np.eye(n))
    classical = identangle.permanent(np.abs(t) ** 2).real
    if not abs(p - classical) <= STATE_TOL:
        return f"G = I p_success {p!r} differs from permanent(|t|^2) {classical!r}"
    return None


class Forward:
    """Mostly dense N=5, with one dense N=3, N=4 and N=6, six banded and two
    wide N=7 solves per round.

    Dense N <= 5 inputs are fresh from the seed and checked against the brute
    oracle. N = 6 and 7 inputs come from the stored pools, checked against the
    stored solution and, for the first of each pool in a run, by the G = I
    limit.
    """

    PROBE = "objects"
    ROUND_SECONDS = 4.5
    # A round has 8 operations faster than N=5 and 3 slower, so the median
    # falls inside the N=5 solves. Per run, the 6 dense N=6 and 12 wide N=7
    # solves are the 18 slowest, so the tail (the value with ten above it) is
    # a wide N=7 latency, not an outlier among the N=5 solves.
    ROUND = ["dense3", "dense4"] + ["dense5"] * 20 + ["dense6"] + ["band7"] * 6 + ["wide7"] * 2
    TINY = ["dense3", "dense4", "dense5", "band7"]

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.seed = seed
        self.template = self.TINY if tiny else self.ROUND
        with np.load(FORWARD_POOL) as data:
            self.pool = {name: {k: data[f"{name}/{k}"] for k in "tsgrp"} for name in POOLS}
        self.order = {
            name: draw_order(seed, key, len(self.pool[name]["p"]))
            for key, name in enumerate(POOLS)
        }
        self.per_round = {name: self.template.count(name) for name in POOLS}
        self.limit_checked: dict[str, str | None] = {}

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 1, r)
        draws = dict.fromkeys(POOLS, 0)
        ops = []
        for kind in self.template:
            source = None
            if kind in POOLS:
                index = drawn(self.order[kind], r, self.per_round[kind], draws[kind])
                draws[kind] += 1
                source = (kind, index)
                entry = {k: v[index] for k, v in self.pool[kind].items()}
                t, s, g = entry["t"], entry["s"], entry["g"]
                check = self._pool_check(kind, entry)
            else:
                n = int(kind.removeprefix("dense"))
                t, s = dense_arrays(rng, n)
                g = gram_array(rng, n)
                check = check_against_brute(t, s, g)
            ops.append(Op(kind, lambda t=t, s=s, g=g: solve(t, s, g), check, source))
        return ops

    def _pool_check(self, kind, entry):
        def check(output):
            message = compare_state(*output, entry["r"], entry["p"], STATE_TOL, "stored reference")
            if message is None and kind not in self.limit_checked:
                # One G = I solve per pool and run: for dense6 it costs a whole op.
                self.limit_checked[kind] = check_distinguishable_limit(entry["t"], entry["s"])
                return self.limit_checked[kind]
            return message

        return check


# --- sweep: CLI scans over the N=3 presets ----------------------------------

SWEEP_PRESETS = {
    "ghz": {"preset": "ghz"},
    "w-balanced": {"preset": "w", "w": {"variant": "balanced"}},
    "w-dft": {"preset": "w", "w": {"variant": "dft"}},
}
BASE_DELAYS = [0.0, 0.25, 0.5]
# Scanned values lie on a grid of dyadic points, so every scan point is
# exactly a grid point the stored references cover. A scan of a parameter
# takes `steps` points, every `offsets`-th grid point from an offset below
# `offsets`, so the scans of one (preset, parameter) pair with distinct
# offsets share no point. The alpha1 scans are the long ones.
GRID_STEP = {"g": 1 / 1024, "L1": 1 / 512, "L2": 1 / 512, "L3": 1 / 512, "alpha1": 1 / 1024}
SCAN_SHAPE = {"g": (9, 113), "L1": (9, 113), "L2": (9, 113), "L3": (9, 113), "alpha1": (25, 41)}


def grid_points(param: str) -> int:
    steps, offsets = SCAN_SHAPE[param]
    return steps * offsets

SWEEP_COMBOS = [
    (preset, param) for preset in SWEEP_PRESETS for param in ("g", "L1", "L2", "L3")
] + [("ghz", "alpha1")]
PHASE_FIELDS = ("phi1_pi", "phi2_pi")


def sweep_config(preset: str) -> dict:
    config = {"label": f"sweep-{preset}", **SWEEP_PRESETS[preset]}
    config["distinguishability"] = {"delays": BASE_DELAYS, "coherence_length": 1.0}
    return config


def scan_argv(config_path, param, first, last, steps, out_dir, fmt) -> list[str]:
    step = GRID_STEP[param]
    return [
        "scan", "--config", str(config_path), "--param", param,
        "--start", repr(first * step), "--stop", repr(last * step),
        "--steps", str(steps), "--out-dir", str(out_dir), "--format", fmt,
    ]


def read_scan_rows(out_dir: Path, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads((out_dir / "scan.json").read_text(encoding="utf-8"))["rows"]
    lines = (out_dir / "scan.csv").read_text(encoding="utf-8").splitlines()
    columns = lines[0].split(",")
    return [dict(zip(columns, map(json.loads, line.split(",")))) for line in lines[1:]]


def load_sweep_grid() -> dict[str, dict[str, list]]:
    """Stored scan fields: "preset/param" -> field -> value at each grid point."""
    refs: dict[str, dict[str, list]] = {}
    with np.load(SWEEP_GRID) as data:
        for key in data.files:
            combo, field = key.rsplit("/", 1)
            refs.setdefault(combo, {})[field] = data[key].tolist()
    return refs


def check_scan_rows(rows, param, indices, refs, ghz_law: bool) -> str | None:
    if len(rows) != len(indices):
        return f"scan wrote {len(rows)} rows, expected {len(indices)}"
    for row, index in zip(rows, indices):
        value = index * GRID_STEP[param]
        if not abs(row[param] - value) <= 1e-12:
            return f"scan point {row[param]!r} is not grid value {value!r}"
        for field, column in refs.items():
            expected = column[index]
            got = row.get(field)
            if isinstance(expected, (bool, str)):
                if got != expected:
                    return f"{param}={value}: {field} is {got!r}, stored {expected!r}"
                continue
            defect = got - expected
            if field in PHASE_FIELDS:
                defect = (defect + 1.0) % 2.0 - 1.0
            if not abs(defect) <= SCAN_TOL:
                return f"{param}={value}: {field} is {got!r}, stored {expected!r}"
        if ghz_law and not abs(row["fidelity_ghz"] - (1 + value**3) / 2) <= SCAN_TOL:
            return f"g={value}: fidelity_ghz {row['fidelity_ghz']!r} breaks (1 + g^3)/2"
    return None


def run_cli(argv: list[str]) -> int:
    """The timed CLI call, looked up through the module on every call."""
    return cli.main(argv)


class Sweep:
    """Every (preset, parameter) scan of the CLI, in json and in csv."""

    PROBE = "interpreter"
    ROUND_SECONDS = 1.25
    # 48 short scans, each (preset, parameter, format) twice, and one long
    # alpha1 scan, in json and csv on alternate rounds (format None). The 22
    # long scans of a run are its slowest operations, so the tail (the value
    # with ten above it) is a middle long-scan latency, not an outlier among
    # the short scans that hold the median.
    ROUND = [
        (preset, param, fmt)
        for preset, param in SWEEP_COMBOS if param != "alpha1" for fmt in ("json", "csv")
    ] * 2 + [("ghz", "alpha1", None)]
    TINY = [("ghz", "g", "json"), ("w-dft", "L2", "csv")]

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.seed = seed
        self.template = self.TINY if tiny else self.ROUND
        self.work_dir = work_dir
        self.refs = load_sweep_grid()
        self.configs = {}
        for preset in SWEEP_PRESETS:
            path = work_dir / f"{preset}.json"
            path.write_text(json.dumps(sweep_config(preset)), encoding="utf-8")
            self.configs[preset] = path
        combos = [f"{preset}/{param}" for preset, param, _ in self.template]
        self.order = {
            f"{preset}/{param}": draw_order(seed, key, SCAN_SHAPE[param][1])
            for key, (preset, param) in enumerate(SWEEP_COMBOS)
        }
        self.per_round = {combo: combos.count(combo) for combo in combos}

    def round(self, r: int) -> list[Op]:
        draws = dict.fromkeys(self.per_round, 0)
        ops = []
        for slot, (preset, param, fmt) in enumerate(self.template):
            combo = f"{preset}/{param}"
            fmt = fmt or ("json", "csv")[r % 2]
            steps, offsets = SCAN_SHAPE[param]
            first = drawn(self.order[combo], r, self.per_round[combo], draws[combo])
            draws[combo] += 1
            last = first + (steps - 1) * offsets
            indices = list(range(first, last + 1, offsets))
            out_dir = _fresh_dir(self.work_dir / f"scan{slot}")
            argv = scan_argv(self.configs[preset], param, first, last, steps, out_dir, fmt)
            refs = self.refs[combo]
            ghz_law = preset == "ghz" and param == "g"

            def check(rc, out_dir=out_dir, fmt=fmt, param=param, indices=indices,
                      refs=refs, ghz_law=ghz_law):
                if rc != 0:
                    return f"scan exited with {rc}"
                return check_scan_rows(read_scan_rows(out_dir, fmt), param, indices, refs, ghz_law)

            ops.append(Op(f"scan-{param}", lambda argv=argv: run_cli(argv), check, (combo, first)))
        return ops


# --- tomography: CLI run with tomography, CLI reconstruct -------------------

GHZ_VECTOR = np.zeros(8)
GHZ_VECTOR[[0, 7]] = 1 / math.sqrt(2.0)
NEAR_PURE_SHOTS = 100_000
FUZZ_SHOTS = 300


def tomography_config(preset: str, delays: list[float], shots: int, seed: int) -> dict:
    return {
        "label": f"tomography-{preset}",
        **SWEEP_PRESETS[preset],
        "distinguishability": {"delays": delays, "coherence_length": 1.0},
        "tomography": {"shots": shots, "seed": seed},
    }


def check_reconstruction(out_dir: Path) -> tuple[np.ndarray | None, str | None]:
    matrix = read_matrix_file(out_dir / "reconstructed_density_matrix.txt")
    try:
        identangle.DensityMatrix(matrix)
    except identangle.ValidationError as exc:
        return None, f"reconstruction is not a density matrix: {exc}"
    return matrix, None


class Tomography:
    """CLI ``run`` with tomography beside CLI ``reconstruct`` on counts files.

    Fuzz tables come from the stored pool, whose likelihoods this commit
    reached; a reconstruction may not end at a lower likelihood. Near-pure
    GHZ tables are drawn fresh and must be reconstructed to fidelity 0.99.
    """

    PROBE = "interpreter"
    ROUND_SECONDS = 1.5
    # Nine fast operations (GHZ runs and near-pure tables, where the MLE
    # converges) and five slow ones (fuzz tables and W runs, where it runs to
    # max_iters): the median falls among the fast, the tail among the slow.
    ROUND = [
        ("run", "ghz", 300), ("run", "ghz", 1_000), ("run", "ghz", 10_000),
        ("run", "ghz", 100_000), ("run", "w-balanced", 10_000), ("run", "w-dft", 3_000),
        *[("fuzz", None, FUZZ_SHOTS)] * 3,
        *[("near_pure", None, NEAR_PURE_SHOTS)] * 5,
    ]
    TINY = [("run", "ghz", 300), ("fuzz", None, FUZZ_SHOTS), ("near_pure", None, NEAR_PURE_SHOTS)]

    def __init__(self, seed: int, tiny: bool, work_dir: Path):
        self.seed = seed
        self.template = self.TINY if tiny else self.ROUND
        self.work_dir = work_dir
        pool = json.loads(FUZZ_POOL.read_text(encoding="utf-8"))
        self.fuzz_tables = np.array(pool["tables"])
        self.fuzz_nll = pool["nll_per_shot"]
        self.fuzz_order = draw_order(seed, 3, len(self.fuzz_nll))
        self.fuzz_per_round = sum(kind == "fuzz" for kind, _, _ in self.template)
        self.nll: dict[int, list[float]] = {}

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 3, r)
        self.nll[r] = []
        fuzz_draws = 0
        ops = []
        for slot, (kind, preset, shots) in enumerate(self.template):
            source = None
            out_dir = _fresh_dir(self.work_dir / f"op{slot}")
            if kind == "run":
                delays = [0.0, *np.round(rng.uniform(0.0, 0.2, size=2), 6).tolist()]
                config = tomography_config(preset, delays, shots, int(rng.integers(2**31)))
                config_path = out_dir / "config.json"
                config_path.write_text(json.dumps(config), encoding="utf-8")
                argv = ["run", "--config", str(config_path), "--out-dir", str(out_dir)]
                check = self._run_check(out_dir, preset, shots)
            else:
                counts_path = out_dir / "counts.txt"
                if kind == "fuzz":
                    index = drawn(self.fuzz_order, r, self.fuzz_per_round, fuzz_draws)
                    fuzz_draws += 1
                    source = ("fuzz", index)
                    write_counts_file(counts_path, self.fuzz_tables[index], shots, index)
                    check = self._fuzz_check(r, out_dir, counts_path, self.fuzz_nll[index])
                else:
                    truth = np.outer(GHZ_VECTOR, GHZ_VECTOR)
                    counts = born_counts(rng, truth, shots)
                    write_counts_file(counts_path, counts, shots, r)
                    check = self._near_pure_check(r, out_dir, counts_path, truth)
                argv = ["reconstruct", "--counts", str(counts_path), "--out-dir", str(out_dir)]
            label = f"run-{preset}-{shots}" if kind == "run" else kind
            ops.append(Op(label, lambda argv=argv: run_cli(argv), check, source))
        return ops

    def _run_check(self, out_dir, preset, shots):
        def check(rc):
            if rc != 0:
                return f"run exited with {rc}"
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            fidelity = report["tomography"]["mle_fidelity_vs_simulated"]
            if preset == "ghz" and shots >= NEAR_PURE_SHOTS and not fidelity >= GHZ_FIDELITY_FLOOR:
                return f"1e5-shot GHZ run reached fidelity {fidelity!r} < {GHZ_FIDELITY_FLOOR}"
            return None

        return check

    def _fuzz_check(self, r, out_dir, counts_path, ref_nll):
        def check(rc):
            if rc != 0:
                return f"reconstruct exited with {rc}"
            matrix, message = check_reconstruction(out_dir)
            if message:
                return message
            nll = nll_per_shot(matrix, counts_path)
            self.nll[r].append(nll)
            if not nll <= ref_nll + NLL_TOL:
                return f"fuzz reconstruction -log L/shot {nll!r} is worse than stored {ref_nll!r}"
            return None

        return check

    def _near_pure_check(self, r, out_dir, counts_path, truth):
        def check(rc):
            if rc != 0:
                return f"reconstruct exited with {rc}"
            matrix, message = check_reconstruction(out_dir)
            if message:
                return message
            self.nll[r].append(nll_per_shot(matrix, counts_path))
            fidelity = uhlmann_fidelity(matrix, truth)
            if not fidelity >= GHZ_FIDELITY_FLOOR:
                return f"1e5-shot GHZ reconstruction fidelity {fidelity!r} < {GHZ_FIDELITY_FLOOR}"
            return None

        return check

    def mle_nll_per_shot(self) -> float:
        """Mean -log L / shot over the first round's reconstructions."""
        values = self.nll.get(0, [])
        return float(np.mean(values)) if values else 0.0


WORKLOADS = {"forward": Forward, "sweep": Sweep, "tomography": Tomography}
