"""Command-line front end: run, scan and reconstruct.

Every number in a report is reproducible by calling the library directly;
this module only parses configs, wires the pipeline together and persists
results. Reports are JSON (or flat CSV with ``--format csv``), density
matrices go to text files with the real and imaginary parts stacked as two
blocks, and all angles are reported in units of pi.

Exit codes: 0 on success, 2 for validation and configuration errors, 3 when
the simulation is numerically impossible (nothing survives postselection).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .density import DensityMatrix
from .entanglement import classify, fidelity_mixed
from .errors import ConfigError, PostselectionImpossibleError, ValidationError
from .reduction import (
    DelayModel,
    GramMatrix,
    density_matrix_from_spec,
    gram_from_delays,
)
from .tomography import (
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
    balanced_tritter_rows,
    custom_spec,
    dft_tritter_rows,
    ghz_preset,
    w_preset,
)

TOOL_NAME = "identangle"

_GHZ_FIELDS = ("alpha1", "alpha2", "beta2", "beta3", "gamma1", "gamma3")
# Scanning one GHZ amplitude rescales its row partner to keep the row normalized.
_GHZ_PARTNERS = {
    "alpha1": "alpha2",
    "alpha2": "alpha1",
    "beta2": "beta3",
    "beta3": "beta2",
    "gamma1": "gamma3",
    "gamma3": "gamma1",
}


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


def _parse_complex(value, path: str, field: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value))
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(path, field, f"expected a number or [re, im] pair, got {value!r}")


def _parse_complex_matrix(value, path: str, field: str) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ConfigError(path, field, "expected a list of rows")
    rows = [
        [_parse_complex(entry, path, f"{field}[{i}][{j}]") for j, entry in enumerate(row)]
        for i, row in enumerate(value)
    ]
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ConfigError(path, field, "rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def _parse_integer(value, path: str, field: str, minimum: int, maximum: int | None = None):
    """A JSON integer (or integral float) in range; booleans are refused."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if (
        integral
        and not isinstance(value, bool)
        and minimum <= value
        and (maximum is None or value <= maximum)
    ):
        return value
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


def build_spec(config: dict, path: str) -> TransformSpec:
    """Transformation described by the config's preset section."""
    preset = config.get("preset")
    if preset not in ("ghz", "w", "custom"):
        raise ConfigError(path, "preset", 'must be one of "ghz", "w", "custom"')
    try:
        if preset == "ghz":
            section = config.get("ghz")
            if section is None:
                return ghz_preset()
            if not isinstance(section, dict):
                raise ConfigError(path, "ghz", "expected an object")
            missing = [k for k in _GHZ_FIELDS if k not in section]
            if missing:
                raise ConfigError(path, "ghz", f"missing amplitudes: {', '.join(missing)}")
            params = GHZParams(
                **{k: _parse_complex(section[k], path, f"ghz.{k}") for k in _GHZ_FIELDS}
            )
            return ghz_preset(params)
        if preset == "w":
            section = config.get("w") or {"variant": "balanced"}
            if not isinstance(section, dict):
                raise ConfigError(path, "w", "expected an object")
            if "rows" in section:
                return w_preset(_parse_complex_matrix(section["rows"], path, "w.rows"))
            variant = section.get("variant", "balanced")
            if variant == "balanced":
                return w_preset(balanced_tritter_rows())
            if variant == "dft":
                return w_preset(dft_tritter_rows())
            raise ConfigError(path, "w.variant", f'unknown variant {variant!r}')
        section = config.get("custom")
        if not isinstance(section, dict):
            raise ConfigError(path, "custom", "expected an object with amplitudes and spins")
        amplitudes = _parse_complex_matrix(section.get("amplitudes"), path, "custom.amplitudes")
        spins_raw = section.get("spins")
        if not isinstance(spins_raw, list) or not all(isinstance(r, list) for r in spins_raw):
            raise ConfigError(path, "custom.spins", "expected a list of rows")
        spins = [
            [_parse_spin(entry, path, f"custom.spins[{i}][{j}]") for j, entry in enumerate(row)]
            for i, row in enumerate(spins_raw)
        ]
        if len({len(row) for row in spins}) > 1:
            raise ConfigError(path, "custom.spins", "rows have inconsistent lengths")
        return custom_spec(amplitudes, spins)
    except ValidationError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, "preset", str(exc)) from exc


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
            matrix = _parse_complex_matrix(section["gram"], path, "distinguishability.gram")
            gram = GramMatrix(matrix)
        else:
            delays = section["delays"]
            if not isinstance(delays, list) or not all(
                isinstance(d, (int, float)) and not isinstance(d, bool) for d in delays
            ):
                raise ConfigError(
                    path, "distinguishability.delays", "expected a list of numbers"
                )
            length = section.get("coherence_length")
            if isinstance(length, bool) or not isinstance(length, (int, float)):
                raise ConfigError(
                    path,
                    "distinguishability.coherence_length",
                    f"a number is required together with delays, got {length!r}",
                )
            model = DelayModel(
                coherence_length=float(length),
                delays=tuple(float(d) for d in delays),
            )
            gram = gram_from_delays(model)
    except ValidationError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, "distinguishability", str(exc)) from exc
    if gram.num_particles != num_particles:
        raise ConfigError(
            path,
            "distinguishability",
            f"Gram matrix is for {gram.num_particles} particles, preset has {num_particles}",
        )
    return gram


def write_density_matrix(path, matrix: np.ndarray) -> None:
    """Two stacked real-valued blocks: real part then imaginary part."""
    dim = matrix.shape[0]
    lines = [
        "# identangle density matrix",
        f"# dimension: {dim} x {dim}",
        "# basis: spin patterns, detector-major, detector 0 most significant; down=0, up=1",
        f"# blocks: rows 1-{dim} real part, rows {dim + 1}-{2 * dim} imaginary part",
    ]
    for block in (matrix.real, matrix.imag):
        for row in block:
            lines.append(" ".join(f"{value:+.17e}" for value in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def read_density_matrix(path) -> np.ndarray:
    """Inverse of :func:`write_density_matrix`."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[0] != 2 * data.shape[1]:
        raise ValidationError(
            f"{path}: expected two stacked dim x dim blocks, got shape {data.shape}"
        )
    dim = data.shape[1]
    return data[:dim] + 1j * data[dim:]


def _sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            items.extend(_flatten(obj[key], f"{prefix}{key}."))
    else:
        items.append((prefix[:-1], obj))
    return items


def _write_report(report: dict, out_path: Path, fmt: str) -> Path:
    if fmt == "json":
        path = out_path.with_suffix(".json")
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        path = out_path.with_suffix(".csv")
        lines = ["key,value"]
        for key, value in _flatten(report):
            lines.append(f"{key},{json.dumps(value)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _scan_values(start: float, stop: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValidationError(f"steps must be at least 1, got {steps}")
    if steps == 1:
        return np.array([start], dtype=float)
    return np.linspace(start, stop, steps)


def _classification_fields(rho: DensityMatrix) -> dict:
    report = classify(rho)
    return {
        "fidelity_ghz": report.fidelity_ghz,
        "fidelity_w_max": report.fidelity_w_max,
        "phi1_pi": report.phi1 / math.pi,
        "phi2_pi": report.phi2 / math.pi,
        "ghz_witness_passed": report.ghz_witness_passed,
        "w_witness_passed": report.w_witness_passed,
        "offdiag_norm": report.offdiag_norm,
        "verdict": report.verdict,
    }


def cmd_run(args) -> int:
    config = _load_config(args.config)
    spec = build_spec(config, args.config)
    gram = build_gram(config, args.config, spec.num_particles)
    rho, p_success = density_matrix_from_spec(spec, gram)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix_path = out_dir / "density_matrix.txt"
    write_density_matrix(matrix_path, rho.matrix)

    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "config_hash": config_hash(config),
        "label": config.get("label"),
        "p_success": p_success,
        "density_matrix_file": matrix_path.name,
        "density_matrix_sha256": _sha256_of(matrix_path),
    }
    report.update(_classification_fields(rho))

    tomo_section = config.get("tomography")
    if tomo_section is not None:
        if not isinstance(tomo_section, dict):
            raise ConfigError(args.config, "tomography", "expected an object")
        # numpy's multinomial sampler takes at most a signed 64-bit count.
        shots = _parse_integer(
            tomo_section.get("shots", 1000), args.config, "tomography.shots", 1, 2**63 - 1
        )
        seed = args.seed
        if seed is None:
            seed = _parse_integer(tomo_section.get("seed", 0), args.config, "tomography.seed", 0)
        table = simulate_counts(rho, shots=shots, seed=seed)
        counts_path = out_dir / "counts.txt"
        write_counts(table, counts_path)
        estimate = reconstruct_mle(table)
        report["tomography"] = {
            "shots_per_setting": shots,
            "seed": seed,
            "num_settings": len(table.settings()),
            "counts_file": counts_path.name,
            "mle_fidelity_vs_simulated": fidelity_mixed(estimate, rho),
        }

    report_path = _write_report(report, out_dir / "report", args.format)
    print(f"wrote {report_path}")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_scan(args) -> int:
    config = _load_config(args.config)
    parameter = args.param
    values = _scan_values(args.start, args.stop, args.steps)

    known_amplitudes = set(_GHZ_FIELDS)
    if parameter not in {"g", "L1", "L2", "L3"} | known_amplitudes:
        raise ValidationError(
            f"parameter {parameter!r} is not scannable; use g, L1/L2/L3 or one of "
            f"{sorted(known_amplitudes)}"
        )

    rows = []
    for value in values:
        point = json.loads(json.dumps(config))
        if parameter == "g":
            spec = build_spec(point, args.config)
            gram = GramMatrix.uniform(spec.num_particles, float(value))
        elif parameter in ("L1", "L2", "L3"):
            section = point.get("distinguishability")
            delays = section.get("delays") if isinstance(section, dict) else None
            if not isinstance(delays, list):
                raise ConfigError(
                    args.config,
                    "distinguishability.delays",
                    f"scanning {parameter} needs a delay model in the config",
                )
            index = int(parameter[1]) - 1
            if index >= len(delays):
                raise ConfigError(
                    args.config,
                    "distinguishability.delays",
                    f"{parameter} is out of range for {len(delays)} delays",
                )
            delays[index] = float(value)
            spec = build_spec(point, args.config)
            gram = build_gram(point, args.config, spec.num_particles)
        else:
            if point.get("preset") != "ghz":
                raise ValidationError(
                    f"amplitude parameter {parameter!r} needs the ghz preset"
                )
            magnitude = float(value)
            if not 0.0 <= magnitude <= 1.0:
                raise ValidationError(
                    f"amplitude {parameter} must lie in [0, 1], got {magnitude}"
                )
            section = point.get("ghz")
            if section is None:
                section = {name: 1.0 / math.sqrt(2.0) for name in _GHZ_FIELDS}
            if not isinstance(section, dict):
                raise ConfigError(args.config, "ghz", "expected an object")
            section[parameter] = magnitude
            section[_GHZ_PARTNERS[parameter]] = math.sqrt(1.0 - magnitude * magnitude)
            point["ghz"] = section
            spec = build_spec(point, args.config)
            gram = build_gram(point, args.config, spec.num_particles)
        rho, p_success = density_matrix_from_spec(spec, gram)
        row = {parameter: float(value), "p_success": p_success}
        row.update(_classification_fields(rho))
        rows.append(row)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        payload = {
            "tool": TOOL_NAME,
            "version": __version__,
            "config_hash": config_hash(config),
            "parameter": parameter,
            "rows": rows,
        }
        out_path = _write_report(payload, out_dir / "scan", "json")
    else:
        out_path = out_dir / "scan.csv"
        columns = list(rows[0].keys())
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(json.dumps(row[c]) for c in columns))
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
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
    estimate = reconstruct_mle(table)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix_path = out_dir / "reconstructed_density_matrix.txt"
    write_density_matrix(matrix_path, estimate.matrix)

    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "counts_file": str(args.counts),
        "shots_per_setting": table.shots_per_setting,
        "num_settings": len(table.settings()),
        "density_matrix_file": matrix_path.name,
        "density_matrix_sha256": _sha256_of(matrix_path),
    }
    report.update(_classification_fields(estimate))
    report_path = _write_report(report, out_dir / "reconstruction_report", args.format)
    print(f"wrote {report_path}")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    common.add_argument(
        "--seed", type=int, default=None, help="override the config's tomography seed"
    )

    p_run = sub.add_parser(
        "run", parents=[common], help="simulate one configuration end to end"
    )
    p_run.add_argument("--config", required=True, help="path to a JSON config")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
