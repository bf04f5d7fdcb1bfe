"""Command-line front end: run, scan and reconstruct.

Every number in a report is reproducible by calling the library directly;
this module only parses configs, wires the pipeline together and persists
results. Reports are JSON (or flat CSV with ``--format csv``), density
matrices go to text files with the real and imaginary parts stacked as two
blocks, and all angles are reported in units of pi.

Each command runs in three stages: parse, compute, then write. Parsing
validates all of the input, the witness report's three particles included,
before the first solve, so a config fault is reported once and only a
failing scan point carries ``--param NAME = VALUE``. A command refused
before its write stage (exit 2 or 3) writes no file. The write stage writes
every output under a temporary name in the output directory and renames
them into place only once all are written, so a failed write (exit 2)
leaves no output file either.

Exit codes: 0 on success, 2 for validation and configuration errors
(including an output directory that cannot be written), 3 when the
simulation is numerically impossible (nothing survives postselection).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import ClassificationReport, classify, classify_states, fidelity_mixed
from .errors import ConfigError, PostselectionImpossibleError, ValidationError
from .reduction import (
    GramMatrix,
    _delay_overlaps,
    _uniform_overlaps,
    density_matrices_from_spec,
    density_matrix_from_spec,
    gram_from_delays,
)
from .tomography import (
    _MAX_SHOTS,
    CountsTable,
    read_counts,
    reconstruct_mle,
    simulate_counts,
    write_counts,
)
from .transform import (
    UNUSED,
    GHZParams,
    Spin,
    TransformSpec,
    _ghz_rings,
    balanced_ghz_params,
    balanced_tritter_rows,
    custom_spec,
    dft_tritter_rows,
    ghz_preset,
    w_preset,
)

TOOL_NAME = "identangle"

# Adjacent fields share a routing row: scanning one GHZ amplitude rescales its
# partner (index ^ 1) to keep the row normalized.
_GHZ_FIELDS = tuple(field.name for field in dataclasses.fields(GHZParams))


def config_hash(config: dict) -> str:
    """Hash of the parsed config; unaffected by formatting or key order."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _json_int(text: str) -> int:
    """JSON integer literal; one beyond float range cannot be used as a number."""
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"integer literal {text[:12]}... is out of range") from None
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle, parse_int=_json_int)
    except FileNotFoundError:
        raise ConfigError(path, "<file>", "config file not found") from None
    except OSError as exc:
        raise ConfigError(path, "<file>", f"cannot read config file ({exc})") from None
    except ValueError as exc:
        raise ConfigError(path, "<json>", f"not valid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise ConfigError(path, "<json>", "top level must be an object")
    return config


def _is_number(value) -> bool:
    # JSON true/false are bools, which Python counts as integers.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_complex(value, path: str, field: str) -> complex:
    if _is_number(value):
        return complex(float(value))
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(path, field, f"expected a number or [re, im] pair, got {value!r}")


def _parse_matrix(value, path: str, field: str, parse_entry) -> list[list]:
    """Nonempty list of equal-length rows, each entry read by ``parse_entry``."""
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ConfigError(path, field, "expected a list of rows")
    rows = [
        [parse_entry(entry, path, f"{field}[{i}][{j}]") for j, entry in enumerate(row)]
        for i, row in enumerate(value)
    ]
    if len({len(row) for row in rows}) != 1:
        raise ConfigError(path, field, "rows have inconsistent lengths")
    return rows


def _parse_integer(value, path: str, field: str, minimum: int, maximum: int | None = None) -> int:
    """A JSON integer, or an integral float read as one, in range; booleans
    are refused."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if (
        integral
        and not isinstance(value, bool)
        and minimum <= value
        and (maximum is None or value <= maximum)
    ):
        return int(value)
    bound = f"at least {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    raise ConfigError(path, field, f"expected an integer {bound}, got {value!r}")


def _parse_spin(value, path: str, field: str) -> int:
    if value is None:
        return UNUSED
    if value == "down":
        return int(Spin.DOWN)
    if value == "up":
        return int(Spin.UP)
    # JSON true/false are bools, which compare equal to 1/0.
    if value in (0, 1, -1) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(path, field, f'expected "down", "up" or null, got {value!r}')


def _ghz_section(config: dict, path: str) -> dict:
    """The config's ``ghz`` amplitudes; the balanced ones when it has none."""
    section = config.get("ghz")
    if section is None:
        return vars(balanced_ghz_params())  # a fresh instance's fields, cheaper than asdict
    if not isinstance(section, dict):
        raise ConfigError(path, "ghz", "expected an object")
    return section


def _ghz_params(config: dict, path: str) -> GHZParams:
    """The config's ``ghz`` amplitudes, parsed and checked."""
    section = _ghz_section(config, path)
    missing = [k for k in _GHZ_FIELDS if k not in section]
    if missing:
        raise ConfigError(path, "ghz", f"missing amplitudes: {', '.join(missing)}")
    amplitudes = {k: _parse_complex(section[k], path, f"ghz.{k}") for k in _GHZ_FIELDS}
    try:
        return GHZParams(**amplitudes)
    except ValidationError as exc:
        raise ConfigError(path, "ghz", str(exc)) from exc


def build_spec(config: dict, path: str) -> TransformSpec:
    """Transformation described by the config's preset section."""
    preset = config.get("preset")
    if preset not in ("ghz", "w", "custom"):
        raise ConfigError(path, "preset", 'must be one of "ghz", "w", "custom"')
    try:
        if preset == "ghz":
            return ghz_preset(_ghz_params(config, path))
        if preset == "w":
            section = config.get("w")
            if section is None:
                section = {"variant": "balanced"}
            elif not isinstance(section, dict):
                raise ConfigError(path, "w", "expected an object")
            if "rows" in section:
                return w_preset(_parse_matrix(section["rows"], path, "w.rows", _parse_complex))
            variant = section.get("variant", "balanced")
            if variant == "balanced":
                return w_preset(balanced_tritter_rows())
            if variant == "dft":
                return w_preset(dft_tritter_rows())
            raise ConfigError(path, "w.variant", f'unknown variant {variant!r}')
        section = config.get("custom")
        if not isinstance(section, dict):
            raise ConfigError(path, "custom", "expected an object with amplitudes and spins")
        amplitudes = _parse_matrix(
            section.get("amplitudes"), path, "custom.amplitudes", _parse_complex
        )
        spins = _parse_matrix(section.get("spins"), path, "custom.spins", _parse_spin)
        return custom_spec(amplitudes, spins)
    except ConfigError:
        raise
    except ValidationError as exc:
        raise ConfigError(path, preset, str(exc)) from exc


def build_gram(config: dict, path: str, num_particles: int) -> GramMatrix:
    """Distinguishability section: exactly one of explicit Gram or delays."""
    section = config.get("distinguishability")
    if not isinstance(section, dict):
        raise ConfigError(path, "distinguishability", "section is required")
    has_gram = "gram" in section
    has_delays = "delays" in section
    if has_gram == has_delays:
        raise ConfigError(
            path,
            "distinguishability",
            'exactly one of "gram" or "delays" must be present',
        )
    try:
        if has_gram:
            gram = GramMatrix(
                _parse_matrix(section["gram"], path, "distinguishability.gram", _parse_complex)
            )
        else:
            delays = section["delays"]
            if not isinstance(delays, list) or not all(map(_is_number, delays)):
                raise ConfigError(path, "distinguishability.delays", "expected a list of numbers")
            length = section.get("coherence_length")
            if not _is_number(length):
                raise ConfigError(
                    path,
                    "distinguishability.coherence_length",
                    f"a number is required together with delays, got {length!r}",
                )
            gram = gram_from_delays(delays, length)
    except ConfigError:
        raise
    except ValidationError as exc:
        raise ConfigError(path, "distinguishability", str(exc)) from exc
    if gram.num_particles != num_particles:
        raise ConfigError(
            path,
            "distinguishability",
            f"Gram matrix is for {gram.num_particles} particles, preset has {num_particles}",
        )
    return gram


def write_density_matrix(path, matrix: np.ndarray) -> bytes:
    """Two stacked real-valued blocks: real part then imaginary part. Returns
    the bytes written."""
    dim = matrix.shape[0]
    lines = [
        "# identangle density matrix",
        f"# dimension: {dim} x {dim}",
        "# basis: spin patterns, detector-major, detector 0 most significant; down=0, up=1",
        f"# blocks: rows 1-{dim} real part, rows {dim + 1}-{2 * dim} imaginary part",
    ]
    for block in (matrix.real, matrix.imag):
        for row in block.tolist():
            lines.append(" ".join(f"{value:+.17e}" for value in row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return data


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            items.extend(_flatten(obj[key], f"{prefix}{key}."))
    else:
        items.append((prefix[:-1], obj))
    return items


def _report_text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = ["key,value"]
    for key, value in _flatten(report):
        lines.append(f"{key},{json.dumps(value)}")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _output_files(out_dir: str):
    """Write stage: yields ``stage(name)``, the temporary path in ``out_dir``
    that output ``name`` is written to. Once the block has written them all,
    each is renamed into place; the temporary files are removed on any
    failure. A directory that cannot be written is invalid input."""
    staged: dict[Path, Path] = {}
    try:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)

        def stage(name: str) -> Path:
            temp = directory / f".{name}.{os.getpid()}.tmp"
            staged[temp] = directory / name
            return temp

        yield stage
        for final in staged.values():
            # A directory in the way is what makes a rename within a writable
            # directory fail; refuse it before any output is moved.
            if final.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(final))
        for temp, final in staged.items():
            os.replace(temp, final)
        staged.clear()  # every file is in place: none is left to remove
    except OSError as exc:
        raise ValidationError(f"{out_dir}: cannot write output files ({exc})") from None
    finally:
        for temp in staged:
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)


def _write_results(args, report: dict, matrix_name: str, matrix: np.ndarray,
                   report_stem: str, counts: CountsTable | None = None) -> None:
    """Write stage of run and reconstruct: the matrix (named and hashed in the
    report), the counts if any, then the report, which is echoed to stdout."""
    report_name = f"{report_stem}.{args.format}"
    with _output_files(args.out_dir) as stage:
        data = write_density_matrix(stage(matrix_name), matrix)
        report["density_matrix_file"] = matrix_name
        report["density_matrix_sha256"] = hashlib.sha256(data).hexdigest()
        if counts is not None:
            write_counts(counts, stage(report["tomography"]["counts_file"]))
        text = _report_text(report, args.format)
        stage(report_name).write_text(text, encoding="utf-8")
    print(f"wrote {Path(args.out_dir) / report_name}")
    # The echo is the JSON report, which a JSON run has just written.
    print(text if args.format == "json" else _report_text(report, "json"), end="")


def _scan_values(start: float, stop: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValidationError(f"steps must be at least 1, got {steps}")
    for flag, value in (("--start", start), ("--stop", stop)):
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value}")
    if not math.isfinite(stop - start):
        raise ValidationError(f"--start/--stop span {start:g} to {stop:g} overflows")
    if steps == 1:
        return np.array([start], dtype=float)
    try:
        return np.linspace(start, stop, steps)
    except MemoryError:
        raise ValidationError(f"--steps {steps} asks for more points than fit in memory") from None


def _require_three_particles(count: int, where: str) -> None:
    """The report's GHZ and W witnesses are defined for three particles only."""
    if count != 3:
        raise ValidationError(f"{where}: the witness report needs three particles, got {count}")


def _classification_fields(report: ClassificationReport) -> dict:
    return {
        "fidelity_ghz": report.fidelity_ghz,
        "fidelity_w_max": report.fidelity_w_max,
        "phi1_pi": report.phi1 / math.pi,
        "phi2_pi": report.phi2 / math.pi,
        "ghz_witness_passed": report.ghz_witness_passed,
        "w_witness_passed": report.w_witness_passed,
        "offdiag_norm": report.offdiag_norm,
        "verdict": report.verdict,
        "fidelity_ghz_max": report.fidelity_ghz_max,
        "ghz_phase_pi": report.ghz_phase / math.pi,
    }


def cmd_run(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValidationError(f"--seed must be a nonnegative integer, got {args.seed}")
    path = args.config
    config = _load_config(path)
    spec = build_spec(config, path)
    gram = build_gram(config, path, spec.num_particles)
    tomography = config.get("tomography")
    if tomography is not None:
        if not isinstance(tomography, dict):
            raise ConfigError(path, "tomography", "expected an object")
        shots = _parse_integer(
            tomography.get("shots", 1000), path, "tomography.shots", 1, _MAX_SHOTS
        )
        seed = _parse_integer(tomography.get("seed", 0), path, "tomography.seed", 0)
        if args.seed is not None:
            seed = args.seed
    # The label is echoed into the report, where NaN or Infinity is not JSON.
    label = config.get("label")
    try:
        json.dumps(label, allow_nan=False)
    except ValueError:
        raise ConfigError(path, "label", f"must hold finite numbers only, got {label!r}") from None
    _require_three_particles(spec.num_particles, f"{path}: {config['preset']}")

    rho, p_success = density_matrix_from_spec(spec, gram)
    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "config_hash": config_hash(config),
        "label": label,
        "p_success": p_success,
        **_classification_fields(classify(rho)),
    }
    table = None
    if tomography is not None:
        table = simulate_counts(rho, shots=shots, seed=seed)
        report["tomography"] = {
            "shots_per_setting": shots,
            "seed": seed,
            "num_settings": len(table.settings),
            "counts_file": "counts.txt",
            "mle_fidelity_vs_simulated": fidelity_mixed(reconstruct_mle(table), rho),
        }

    _write_results(args, report, "density_matrix.txt", rho.matrix, "report", counts=table)
    return 0


def cmd_scan(args) -> int:
    """Sweep one parameter and classify the state at every point.

    The config is parsed and checked as ``run`` checks it before any point
    is solved, so a fault there is reported once, without a point. Each
    parameter kind then has one ``solve(values)``, which writes the scanned
    values into stacks built from the parsed GHZ amplitudes, Gram matrix or
    delay list, never reading the config's own entry at the scanned place, and
    gives the solution of each value in order from one
    :func:`density_matrices_from_spec` call. A ``g`` or ``L1``-``L3`` scan
    keeps the routing fixed, so it validates its Gram matrices as one stack
    and the batch enumerates the outcomes once. An amplitude scan keeps the
    Gram matrix and writes each point's pair into a table of the six GHZ
    amplitudes, which ``ghz_preset``'s ring builder turns into routings
    validated as one stack; the batch traces them in runs of points with
    the same outcomes. If the batch fails, every point is solved again with
    ``solve([value])``, one by one, so the first point that fails, in scan
    order, ends the scan with its own error prefixed by
    ``--param NAME = VALUE``; no file is written then. The states of all
    points are classified in one :func:`classify_states` call, each as
    ``classify`` would classify it alone.
    """
    path, parameter = args.config, args.param
    config = _load_config(path)
    values = _scan_values(args.start, args.stop, args.steps)
    if parameter not in {"g", "L1", "L2", "L3", *_GHZ_FIELDS}:
        raise ValidationError(
            f"parameter {parameter!r} is not scannable; use g, L1/L2/L3 or one of "
            f"{sorted(_GHZ_FIELDS)}"
        )
    if parameter in _GHZ_FIELDS:
        if config.get("preset") != "ghz":
            raise ValidationError(f"amplitude parameter {parameter!r} needs the ghz preset")
        outside = [float(v) for v in values if not 0.0 <= v <= 1.0]
        if outside:
            raise ValidationError(f"amplitude {parameter} must lie in [0, 1], got {outside[0]}")
        index = _GHZ_FIELDS.index(parameter)
        # The scanned pair is parsed as (1, 0); each point writes its own.
        ghz = {**_ghz_section(config, path), parameter: 1.0, _GHZ_FIELDS[index ^ 1]: 0.0}
        table = np.array([list(vars(_ghz_params(dict(config, ghz=ghz), path)).values())])
        gram = build_gram(config, path, 3)

        def solve(values):
            stack = np.repeat(table, len(values), axis=0)
            stack[:, [index, index ^ 1]] = np.stack([values, np.sqrt(1.0 - np.square(values))], 1)
            return density_matrices_from_spec(_ghz_rings(stack), [gram])
    else:
        parsed = config
        if parameter != "g":
            section = config.get("distinguishability")
            delays = section.get("delays") if isinstance(section, dict) else None
            if not isinstance(delays, list):
                raise ConfigError(
                    path,
                    "distinguishability.delays",
                    f"scanning {parameter} needs a delay model in the config",
                )
            index = int(parameter[1]) - 1
            if index >= len(delays):
                raise ConfigError(
                    path,
                    "distinguishability.delays",
                    f"{parameter} is out of range for {len(delays)} delays",
                )
            # The section is parsed with the first value as the scanned delay;
            # each point moves only that delay.
            first = [*delays[:index], float(values[0]), *delays[index + 1:]]
            parsed = {"distinguishability": dict(section, delays=first)}
        spec = build_spec(config, path)
        # Checked as run checks it, though each point replaces it or one delay.
        build_gram(parsed, path, spec.num_particles)

        def solve(values):
            if parameter == "g":
                overlaps = _uniform_overlaps(spec.num_particles, values)
            else:
                table = np.tile(np.array(first, dtype=float), (len(values), 1))
                table[:, index] = values
                overlaps = _delay_overlaps(table, float(section["coherence_length"]))
            return density_matrices_from_spec(spec, GramMatrix._stack(overlaps))
        _require_three_particles(spec.num_particles, f"{path}: {config['preset']}")

    try:
        solutions = list(solve(values))
    except MemoryError:  # a scan too large for this host's memory
        message = f"--steps {args.steps} asks for more points than fit in memory"
        raise ValidationError(message) from None
    except (ValidationError, PostselectionImpossibleError):
        solutions = []
        for value in map(float, values):
            where = f"--param {parameter} = {value!r}"
            try:
                solutions += solve([value])
            except PostselectionImpossibleError as exc:
                raise PostselectionImpossibleError(f"{where}: {exc}") from None
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from None
    rows = [
        {parameter: value, "p_success": p_success, **_classification_fields(report)}
        for value, (_, p_success), report in zip(
            map(float, values), solutions, classify_states(rho for rho, _ in solutions)
        )
    ]
    del solutions  # the states are not held while the report is encoded

    if args.format == "json":
        payload = {
            "tool": TOOL_NAME,
            "version": __version__,
            "config_hash": config_hash(config),
            "parameter": parameter,
            "rows": rows,
        }
        text = _report_text(payload, "json")
    else:
        columns = list(rows[0].keys())
        lines = [",".join(columns)]
        for row in rows:
            # One encoding per row: a JSON list's items, joined by bare commas.
            lines.append(json.dumps([row[c] for c in columns], separators=(",", ":"))[1:-1])
        text = "\n".join(lines) + "\n"
    name = f"scan.{args.format}"
    with _output_files(args.out_dir) as stage:
        stage(name).write_text(text, encoding="utf-8")
    print(f"wrote {Path(args.out_dir) / name}")
    for row in rows:
        print(
            f"{parameter}={row[parameter]:.6g} p_success={row['p_success']:.6g} "
            f"fidelity_ghz={row['fidelity_ghz']:.6g} fidelity_w_max={row['fidelity_w_max']:.6g}"
        )
    return 0


def cmd_reconstruct(args) -> int:
    try:
        table = read_counts(args.counts)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{args.counts}: cannot read counts file ({exc})") from None
    _require_three_particles(table.num_qubits, args.counts)

    estimate = reconstruct_mle(table)
    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "counts_file": str(args.counts),
        "shots_per_setting": table.shots_per_setting,
        "num_settings": len(table.settings),
        **_classification_fields(classify(estimate)),
    }

    _write_results(
        args, report, "reconstructed_density_matrix.txt", estimate.matrix, "reconstruction_report"
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description=(
            "Simulate entanglement generation among partially distinguishable "
            "identical particles that spatially overlap at an array of detectors."
        ),
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )

    p_run = sub.add_parser(
        "run", parents=[common], help="simulate one configuration end to end"
    )
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the config's tomography seed"
    )
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser(
        "scan", parents=[common], help="sweep one parameter of a configuration"
    )
    p_scan.add_argument("--config", required=True, help="path to a JSON config")
    p_scan.add_argument(
        "--param",
        required=True,
        help="g (uniform overlap), L1/L2/L3 (a delay) or a GHZ amplitude name",
    )
    p_scan.add_argument("--start", type=float, required=True)
    p_scan.add_argument("--stop", type=float, required=True)
    p_scan.add_argument("--steps", type=int, required=True, help="number of points")
    p_scan.set_defaults(func=cmd_scan)

    p_rec = sub.add_parser(
        "reconstruct", parents=[common], help="fit a density matrix to a counts file"
    )
    p_rec.add_argument("--counts", required=True, help="path to a counts file")
    p_rec.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PostselectionImpossibleError as exc:
        print(f"{TOOL_NAME}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"{TOOL_NAME}: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
