"""Scans solved as one batch: the routing side of a g or delay scan is built
once, an amplitude scan traces a stack of amplitude rows per run of points
with one zero pattern and one spin pattern, and every point comes out bit
for bit as the one-point kernel traces it. The batch only saves time: a
scan whose batch fails is solved again point by point, by the same solver
on one value at a time, and meets its errors in scan order."""

from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import identangle
from conftest import (
    HOM_PLUS_ONE,
    INV_SQRT2,
    random_banded_spec,
    random_gram,
    random_row_normalized,
)
from identangle import (
    DensityMatrix,
    GHZParams,
    GramMatrix,
    PostselectionImpossibleError,
    UNUSED,
    ValidationError,
    balanced_ghz_params,
    balanced_tritter_rows,
    brute_density_matrix,
    classify,
    custom_spec,
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
DROP = object()  # marks a config entry to leave out
TWO_PARTICLES = {
    "preset": "custom",
    "custom": {"amplitudes": [[0.6, 0.8], [0.8, -0.6]], "spins": [["down", "up"], ["up", "down"]]},
    "distinguishability": {"gram": [[1, 0], [0, 1]]},
}


def delay_gram(values, index, value):
    delays = list(values)
    delays[index] = value
    return gram_from_delays(tuple(delays), 1.0)


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


@pytest.mark.parametrize("block", [1, 40, 100, 500, 1000])
def test_batched_scan_traced_in_blocks_stays_bit_equal(monkeypatch, block):
    # A step traces max(1, block // 246) whole ket rows of every point: 41
    # points of 6 W outcomes give 246 pairs per ket row. Blocks 1 to 100 take
    # one row per step, 500 two rows (three steps), 1000 four rows and then
    # two. GHZ's 2 outcomes give 82 pairs per row: one row per step up to 100,
    # both rows in one step from 500.
    grams = scan_grams("g", np.linspace(0.0, 1.0, 41))
    monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
    for _, spec in PRESETS.values():
        assert_batch_matches_points(spec, grams)


def ghz_specs(field, values):
    """The GHZ routings of an amplitude scan, each built by the public path."""
    partner = cli._GHZ_FIELDS[cli._GHZ_FIELDS.index(field) ^ 1]
    params = dataclasses.asdict(balanced_ghz_params())
    specs = []
    for value in map(float, values):
        params.update({field: value, partner: math.sqrt(1.0 - value * value)})
        specs.append(ghz_preset(GHZParams(**params)))
    return specs


@pytest.mark.parametrize("block", [1 << 14, 40, 1])
@pytest.mark.parametrize("field", cli._GHZ_FIELDS)
def test_an_amplitude_batch_is_bit_equal_to_per_point_solves(monkeypatch, field, block):
    # 33 points over [0, 1]: each endpoint drops one of the two GHZ outcomes,
    # so the batch traces three runs, of 1, 31 and 1 points.
    monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
    specs = ghz_specs(field, np.linspace(0.0, 1.0, 33))
    assert [len(reduction.no_bunching_outcomes(s)) for s in specs[:2] + specs[-1:]] == [1, 2, 1]
    gram = delay_gram(DELAYS, 1, 0.2)
    for grams in ([gram], scan_grams("g", np.linspace(0.0, 1.0, 33))):
        batch = density_matrices_from_spec(specs, grams)
        assert len(batch) == len(specs)
        for (rho, p), spec, point_gram in zip(batch, specs, itertools.cycle(grams)):
            expected_rho, expected_p = density_matrix_from_spec(spec, point_gram)
            assert rho.matrix.tobytes() == expected_rho.matrix.tobytes()
            assert p.hex() == expected_p.hex()


def shared_support(rng, n, width, points, real=False):
    """``points`` seeded complex routings with the zero pattern and spins of
    one routing in which row i reaches detectors i to i + width - 1 (mod n);
    ``real`` ones hold -0.0 imaginary parts."""
    base = random_banded_spec(rng, n, width)
    specs = []
    for _ in range(points):
        t = random_row_normalized(rng, n, n) * (base.amplitudes != 0)
        t = np.conj(t.real + 0j) if real else t
        t /= np.sqrt(np.sum(np.abs(t) ** 2, axis=1))[:, None]
        specs.append(custom_spec(t, base.spins))
    return specs


def assert_points_match_the_oracle(specs, grams):
    """Every point of one batch is byte-equal to its one-point solve and to
    the oracle."""
    batch = density_matrices_from_spec(specs, grams)
    assert len(batch) == max(len(specs), len(grams))
    for (rho, p), spec, gram in zip(batch, itertools.cycle(specs), itertools.cycle(grams)):
        for expected_rho, expected_p in (density_matrix_from_spec(spec, gram),
                                         brute_density_matrix(spec, gram)):
            assert rho.matrix.tobytes() == expected_rho.matrix.tobytes()
            assert p.hex() == expected_p.hex()


# A dense routing has width n. Each point takes its own Gram matrix, or one
# serves them all; the oracle makes dense N = 6 the slow case.
@pytest.mark.parametrize("n,width,points,each,real", [
    (3, 3, 9, True, False), (3, 2, 7, False, True), (3, 3, 1, True, False),
    (4, 4, 6, True, True), (4, 2, 9, False, False), (5, 5, 3, True, False),
    (5, 3, 8, False, True), (5, 5, 1, False, False), (6, 2, 9, True, True),
    (6, 3, 4, True, False), (6, 6, 2, False, False), (7, 3, 3, True, False),
])
def test_routings_that_share_a_support_match_the_oracle_point_by_point(
    monkeypatch, n, width, points, each, real
):
    rng = np.random.default_rng(2600 + 10 * n + width)
    specs = shared_support(rng, n, width, points, real)
    grams = [random_gram(rng, n) for _ in range(points if each else 1)]
    traced = []
    trace = reduction._trace

    def spy(labels, indices, amplitudes, overlaps, out):
        traced.append(amplitudes.copy())
        trace(labels, indices, amplitudes, overlaps, out)

    monkeypatch.setattr(reduction, "_trace", spy)
    assert_points_match_the_oracle(specs, grams)
    # One run, traced in one call: every point's amplitudes are the ones
    # no_bunching_outcomes gives it, bit for bit.
    (batch, *_) = traced
    assert len(batch) == points
    for row, spec in zip(batch, specs):
        assert row.tobytes() == reduction.no_bunching_outcomes(spec).amplitudes.tobytes()


def test_exact_zero_and_one_amplitudes_split_the_runs_of_a_batch():
    rng = np.random.default_rng(2641)
    specs = shared_support(rng, 4, 3, 7)
    # Point 2 closes a path of particle 0, point 4 flips a spin on the
    # shared support, and point 5 sends particle 1 to one detector with
    # amplitude exactly 1, so the batch traces runs of 2, 1, 1, 1, 1 and 1.
    t, s = np.array(specs[2].amplitudes), np.array(specs[2].spins)
    closed = np.flatnonzero(t[0])[0]
    t[0, closed], s[0, closed] = 0.0, UNUSED
    specs[2] = custom_spec(t / np.sqrt(np.sum(np.abs(t) ** 2, axis=1))[:, None], s)
    s = np.array(specs[4].spins)
    s[2, np.flatnonzero(specs[4].amplitudes[2])[0]] ^= 1
    specs[4] = custom_spec(specs[4].amplitudes, s)
    t, s = np.array(specs[5].amplitudes), np.array(specs[5].spins)
    support = np.flatnonzero(t[1])
    t[1], s[1, support[1:]] = np.eye(4)[support[0]], UNUSED
    specs[5] = custom_spec(t, s)
    traced = []
    trace = reduction._trace

    def spy(labels, indices, amplitudes, overlaps, out):
        traced.append(len(amplitudes))
        trace(labels, indices, amplitudes, overlaps, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_trace", spy)
        assert_points_match_the_oracle(specs, [random_gram(rng, 4)])
    assert traced[:6] == [2, 1, 1, 1, 1, 1]


def test_a_point_whose_amplitude_underflows_traces_that_outcome_as_zero():
    # A GHZ ring whose second and third rows put 1e-200 on the paths of the
    # first outcome at point 2: its amplitude underflows to 0 there, and
    # no_bunching_outcomes holds it as an exact 0, while the other points'
    # outcomes are nonzero. The batch keeps it too; its pairs add nothing.
    values = [0.3, 0.5, 0.6, 0.7, 0.9]
    specs = ghz_specs("alpha1", values)
    tiny = dict(dataclasses.asdict(balanced_ghz_params()), alpha1=0.6, alpha2=0.8,
                beta2=1e-200, beta3=1.0, gamma1=1.0, gamma3=1e-200)
    specs[2] = ghz_preset(GHZParams(**tiny))
    zeros = [(reduction.no_bunching_outcomes(s).amplitudes == 0).tolist() for s in specs]
    assert zeros == [[False, False]] * 2 + [[True, False]] + [[False, False]] * 2
    traced = []
    trace = reduction._trace

    def spy(labels, indices, amplitudes, overlaps, out):
        traced.append((indices.tolist(), amplitudes.copy()))
        trace(labels, indices, amplitudes, overlaps, out)

    gram = GramMatrix.uniform(3, 0.7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_trace", spy)
        assert_points_match_the_oracle(specs, [gram])
        alone = reduction.no_bunching_outcomes(specs[2])
    # The batch traces all five points in one call; point 2's row is the
    # one no_bunching_outcomes gives it, its exact 0 included.
    indices, amplitudes = traced[0]
    assert amplitudes.shape == (5, 2)
    assert amplitudes[2].tobytes() == alone.amplitudes.tobytes()
    assert indices == alone.indices.tolist()


@pytest.mark.parametrize("field", cli._GHZ_FIELDS)
def test_an_amplitude_scan_equals_per_point_library_solves(tmp_path, field):
    # Complex amplitudes, so a pair written to the wrong entry of the routing
    # changes the state.
    ghz = {"alpha1": [0.6, 0], "alpha2": [0, 0.8], "beta2": [0.36, 0.48], "beta3": [0, 0.8],
           "gamma1": [0, -0.6], "gamma3": 0.8}
    config = {"preset": "ghz", "ghz": ghz,
              "distinguishability": {"delays": DELAYS, "coherence_length": 1.0}}
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", write_config(tmp_path, config), "--param", field,
                     "--start", "0", "--stop", "1", "--steps", "9", "--out-dir", str(out)]) == 0
    rows = json.loads((out / "scan.json").read_text(encoding="utf-8"))["rows"]
    partner = cli._GHZ_FIELDS[cli._GHZ_FIELDS.index(field) ^ 1]
    gram = gram_from_delays(tuple(DELAYS), 1.0)
    for row in rows:
        value = row[field]
        params = {k: complex(*v) if isinstance(v, list) else v for k, v in ghz.items()}
        params.update({field: value, partner: math.sqrt(1.0 - value * value)})
        rho, p = density_matrix_from_spec(ghz_preset(GHZParams(**params)), gram)
        report = classify(rho)
        assert row["p_success"] == p
        assert row["fidelity_ghz"] == report.fidelity_ghz
        assert row["fidelity_w_max"] == report.fidelity_w_max


def test_a_long_scan_whose_points_all_underflow_equals_per_point_solves(tmp_path):
    # beta2 = gamma3 = 1e-200: the alpha1 * beta2 * gamma3 outcome underflows
    # to 0 at every one of the 1,500 points, each of which holds it as an
    # exact 0 beside one nonzero outcome.
    ghz = dict(dataclasses.asdict(balanced_ghz_params()), beta2=1e-200, beta3=1.0,
               gamma1=1.0, gamma3=1e-200)
    config = {"preset": "ghz", "ghz": ghz,
              "distinguishability": {"delays": DELAYS, "coherence_length": 1.0}}
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", write_config(tmp_path, config), "--param", "alpha1",
                     "--start", "0.01", "--stop", "0.99", "--steps", "1500",
                     "--out-dir", str(out)]) == 0
    rows = json.loads((out / "scan.json").read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 1500
    gram = gram_from_delays(tuple(DELAYS), 1.0)
    specs = []
    for row in rows:
        value = row["alpha1"]
        params = dict(ghz, alpha1=value, alpha2=math.sqrt(1.0 - value * value))
        specs.append(ghz_preset(GHZParams(**params)))
        assert (reduction.no_bunching_outcomes(specs[-1]).amplitudes == 0).tolist() == [True, False]
    for row, spec, (rho, p) in zip(rows, specs, density_matrices_from_spec(specs, [gram])):
        expected_rho, expected_p = density_matrix_from_spec(spec, gram)
        assert rho.matrix.tobytes() == expected_rho.matrix.tobytes()
        assert p.hex() == expected_p.hex() == row["p_success"].hex()
        report = classify(expected_rho)
        assert row["fidelity_ghz"] == report.fidelity_ghz
        assert row["fidelity_w_max"] == report.fidelity_w_max


def test_a_batch_takes_one_or_p_routings_and_grams_of_one_particle_count():
    specs = ghz_specs("alpha1", [0.2, 0.4])
    grams = [GramMatrix.uniform(3, g) for g in (0.1, 0.2, 0.3)]
    with pytest.raises(ValidationError, match="^a batch takes 1 or P routings and Gram "
                       "matrices, got 2 and 3$"):
        density_matrices_from_spec(specs, grams)
    two = cli.build_spec(TWO_PARTICLES, "config.json")
    with pytest.raises(ValidationError, match="^the routings of a batch have 3 and 2 particles$"):
        density_matrices_from_spec([specs[0], two], grams[:1])
    assert density_matrices_from_spec([], grams) == []


def test_scan_gram_stacks_equal_the_one_point_builders():
    values = np.linspace(-0.5, 1.0, 31)
    stacked = GramMatrix._stack(reduction._uniform_overlaps(3, values))
    assert len(stacked) == len(values)
    for gram, value in zip(stacked, values):
        assert np.array_equal(gram.overlaps, GramMatrix.uniform(3, float(value)).overlaps)
    table = np.tile(DELAYS, (len(values), 1))
    table[:, 1] = values
    stacked = GramMatrix._stack(reduction._delay_overlaps(table, 1.0))
    assert len(stacked) == len(values)
    for gram, value in zip(stacked, values):
        assert np.array_equal(gram.overlaps, delay_gram(DELAYS, 1, float(value)).overlaps)


# A block of 8 pairs traces one ket row of all four HOM points per step; a
# block of 1 does the same for the routing with no outcomes.
@pytest.mark.parametrize("block", [1 << 14, 8, 1])
def test_a_batch_is_all_or_nothing(monkeypatch, block):
    monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
    spec = cli.build_spec(HOM_PLUS_ONE, "config.json")
    # g = 1 fails after three points that succeed on their own; the batch
    # returns none of them and raises the one-point call's error.
    grams = [GramMatrix.uniform(3, g) for g in (0.0, 0.5, 0.2, 1.0)]
    with pytest.raises(PostselectionImpossibleError, match="probability 0.000e") as raised:
        density_matrices_from_spec(spec, grams)
    alone = pytest.raises(PostselectionImpossibleError, density_matrix_from_spec, spec, grams[3])
    assert str(raised.value) == str(alone.value)
    mixed = [GramMatrix.uniform(3, 0.1), GramMatrix.uniform(2, 0.1)]
    with pytest.raises(ValidationError, match="^Gram matrix is 2x2 but the state has 3 particles"):
        density_matrices_from_spec(spec, mixed)
    assert density_matrices_from_spec(ghz_preset(), []) == []
    # Both particles reach detector 0 only: no bijection survives (K = 0).
    dark = custom_spec([[1, 0], [1, 0]], [[0, -1], [0, -1]])
    pair = GramMatrix.uniform(2, 0.5)
    alone = pytest.raises(PostselectionImpossibleError, density_matrix_from_spec, dark, pair)
    with pytest.raises(PostselectionImpossibleError) as raised:
        density_matrices_from_spec(dark, [pair, GramMatrix.fully_distinguishable(2)])
    assert str(raised.value) == str(alone.value)


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


@pytest.mark.parametrize("data,param,start,stop,steps,rc,texts", [
    # Uniform overlaps below -1/2 are not positive semidefinite for three
    # particles: -0.75 is the first such point from 1 down to -1.
    ({"preset": "ghz", "distinguishability": {"gram": np.eye(3).tolist()}}, "g", "1", "-1", "9",
     2, ["invalid input: --param g = -0.75: Gram matrix is not positive semidefinite "
         "(min eigenvalue -5.000e-01)"]),
    (HOM_PLUS_ONE, "g", "0", "1", "3", 3,
     ["numerical failure: --param g = 1.0: the all-detectors coincidence has probability"]),
    # Particle 1's delay meets particle 0's at L2 = 0, the third point, where
    # the HOM coincidence vanishes.
    (dict(HOM_PLUS_ONE, distinguishability={"delays": [0, 1, 0.5], "coherence_length": 1}),
     "L2", "1", "-1", "5", 3,
     ["numerical failure: --param L2 = 0.0: the all-detectors coincidence has probability"]),
    # Two particles are a config fault, refused once before any point is
    # solved, point 2's Gram matrix (g = 1.5 is not positive semidefinite for
    # two particles) included.
    (TWO_PARTICLES, "g", "0", "1.5", "3", 2,
     ["invalid input: ", "config.json: custom: the witness report needs three particles"]),
    # With gamma1 = 0, alpha1 = 0 sends particles 0 and 2 to detectors 1 and
    # 2, leaving detector 0 dark: the last point has no coincidence at all.
    ({"preset": "ghz", "ghz": dict(dict.fromkeys(cli._GHZ_FIELDS, INV_SQRT2), gamma1=0, gamma3=1),
      "distinguishability": {"gram": np.eye(3).tolist()}}, "alpha1", "1", "0", "5", 3,
     ["numerical failure: --param alpha1 = 0.0: the all-detectors coincidence"]),
], ids=["psd-mid-scan", "hom-mid-scan", "hom-delay-mid-scan", "two-particles-first-point",
        "ghz-amplitude-mid-scan"])
# A block of 4 pairs traces a call of two or more points of these two-outcome
# routings one ket row at a time.
@pytest.mark.parametrize("block", [1 << 14, 4])
def test_a_scan_reports_its_first_failing_point(
    tmp_path, capsys, monkeypatch, data, param, start, stop, steps, rc, texts, block
):
    monkeypatch.setattr(reduction, "PAIR_BLOCK", block)
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, data), "--param", param, "--start", start,
            "--stop", stop, "--steps", steps, "--out-dir", str(out)]
    assert cli.main(argv) == rc
    err = capsys.readouterr().err
    assert all(text in err for text in texts)
    # A failing point names itself once; a config fault names no point.
    assert err.count("--param") == sum("--param" in text for text in texts)
    assert not out.exists()


@pytest.mark.parametrize("fail_after", [0, 3])
@pytest.mark.parametrize("preset,param", [
    *itertools.product(sorted(PRESETS), ["g", "L1", "L2", "L3"]),
    ("ghz", "alpha1"), ("ghz", "gamma3"),
])
def test_a_scan_whose_batch_fails_is_solved_point_by_point(
    tmp_path, monkeypatch, preset, param, fail_after
):
    config = dict(PRESETS[preset][0],
                  distinguishability={"delays": DELAYS, "coherence_length": 1.0})
    path = write_config(tmp_path, config)

    def scan(out):
        assert cli.main(["scan", "--config", path, "--param", param, "--start", "0",
                         "--stop", "1", "--steps", "7", "--out-dir", str(out)]) == 0
        return (out / "scan.json").read_bytes()

    expected = scan(tmp_path / "batched")
    fail_batches(monkeypatch, fail_after)
    assert scan(tmp_path / "point-by-point") == expected


def fail_batches(monkeypatch, fail_after):
    """Make every batch of more than one point fail after ``fail_after`` of
    them; returns the list of each call's point count."""
    batched = cli.density_matrices_from_spec
    sizes = []

    def failing(spec, grams):
        # The retry solves one point per call, with the same function.
        solved = batched(spec, grams)
        sizes.append(len(solved))
        if len(solved) == 1:
            yield from solved
            return
        yield from solved[:fail_after]
        raise ValidationError("the batch failed")

    monkeypatch.setattr(cli, "density_matrices_from_spec", failing)
    return sizes


@pytest.mark.parametrize("retry", [False, True], ids=["batch", "retry"])
@pytest.mark.parametrize("param", ["g", "L2", "alpha1"])
def test_a_scan_parses_its_config_once(tmp_path, monkeypatch, param, retry):
    calls = collections.Counter()
    for name in ("build_spec", "build_gram", "_ghz_params"):
        def counted(*args, name=name, build=getattr(cli, name)):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(cli, name, counted)
    sizes = fail_batches(monkeypatch, 3) if retry else []
    config = dict(PRESETS["ghz"][0], distinguishability={"delays": DELAYS, "coherence_length": 1.0})
    assert cli.main(["scan", "--config", write_config(tmp_path, config), "--param", param,
                     "--start", "0", "--stop", "1", "--steps", "7",
                     "--out-dir", str(tmp_path / "out")]) == 0
    # A g or delay scan builds the routing, the ghz section's parse within;
    # an amplitude scan parses the ghz section alone.
    parses = {"_ghz_params": 1, "build_gram": 1}
    assert calls == (parses if param == "alpha1" else dict(parses, build_spec=1))
    assert sizes == ([7] + [1] * 7 if retry else [])


@pytest.mark.parametrize("param,builder", [
    ("g", "np.linspace"), ("g", "_uniform_overlaps"), ("L1", "_delay_overlaps"),
    # An amplitude scan's largest stack is the batch's own.
    ("alpha1", "density_matrices_from_spec"), ("gamma3", "density_matrices_from_spec"),
])
def test_a_scan_too_large_for_its_gram_stack_is_refused(
    tmp_path, capsys, monkeypatch, param, builder
):
    # Stands in for a stack of 10^8 points, which fails to allocate.
    def too_large(*args):
        raise MemoryError

    monkeypatch.setattr(f"identangle.cli.{builder}", too_large)
    data = {"preset": "ghz", "distinguishability": {"delays": DELAYS, "coherence_length": 1.0}}
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, data), "--param", param, "--start", "0",
            "--stop", "1", "--steps", "7", "--out-dir", str(out)]
    assert cli.main(argv) == 2
    assert ("invalid input: --steps 7 asks for more points than fit in memory"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_delay_scan_reports_its_config_errors_once(tmp_path, capsys):
    data = {"preset": "ghz", "distinguishability": {"delays": [0.0, 0.1], "coherence_length": 1}}
    out = tmp_path / "out"
    argv = ["scan", "--config", write_config(tmp_path, data), "--param", "L1", "--start", "0",
            "--stop", "1", "--steps", "3", "--out-dir", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"identangle: invalid input: {tmp_path / 'config.json'}: distinguishability: "
        "Gram matrix is for 2 particles, preset has 3\n"
    )
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


def scan_csv(tmp_path, name, data, param):
    """Exit code, stdout and scan.csv bytes of one scan; the CSV, unlike the
    JSON report, holds no hash of the config."""
    out = tmp_path / name
    argv = ["scan", "--config", write_config(tmp_path, data), "--param", param, "--start", "0",
            "--stop", "1", "--steps", "5", "--format", "csv", "--out-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        rc = cli.main(argv)
    return rc, stdout.getvalue().replace(str(out), "<out>"), (out / "scan.csv").read_bytes()


@pytest.mark.parametrize("param", ["alpha1", "alpha2"])
@pytest.mark.parametrize("scanned", [
    {"alpha1": "x"}, {"alpha2": [1, 2, 3]}, {"alpha1": None, "alpha2": "y"},
    {"alpha1": DROP}, {"alpha1": DROP, "alpha2": DROP},
], ids=["alpha1-string", "alpha2-triple", "both-malformed", "alpha1-missing", "both-missing"])
def test_an_amplitude_scan_never_reads_the_scanned_pair(tmp_path, param, scanned):
    ghz = dataclasses.asdict(balanced_ghz_params())
    well_formed = {"preset": "ghz", "ghz": ghz, "distinguishability": {"gram": np.eye(3).tolist()}}
    section = {k: v for k, v in {**ghz, **scanned}.items() if v is not DROP}
    expected = scan_csv(tmp_path, "well-formed", well_formed, param)
    assert expected[0] == 0
    assert scan_csv(tmp_path, "malformed", dict(well_formed, ghz=section), param) == expected


@pytest.mark.parametrize("entry", ["x", None, [0.35], True])
def test_a_delay_scan_ignores_the_entry_it_scans(tmp_path, entry):
    well_formed = {"preset": "ghz", "distinguishability": {"delays": DELAYS, "coherence_length": 1}}
    malformed = [DELAYS[0], entry, DELAYS[2]]
    expected = scan_csv(tmp_path, "well-formed", well_formed, "L2")
    assert expected[0] == 0
    config = dict(well_formed, distinguishability={"delays": malformed, "coherence_length": 1})
    assert scan_csv(tmp_path, "malformed", config, "L2") == expected


@pytest.mark.parametrize("data,param,rc", [
    ({"preset": "ghz", "distinguishability": {"delays": DELAYS, "coherence_length": 1}}, "g", 0),
    ({"preset": "w", "distinguishability": {"delays": DELAYS, "coherence_length": 1}}, "L3", 0),
    ({"preset": "ghz", "distinguishability": {"gram": np.eye(3).tolist()}}, "alpha1", 0),
    ({"preset": "ghz", "ghz": dataclasses.asdict(balanced_ghz_params()),
      "distinguishability": {"gram": np.eye(3).tolist()}}, "gamma3", 0),
    # Fails mid-scan, so the points are solved again one by one.
    ({"preset": "ghz", "ghz": dict(dict.fromkeys(cli._GHZ_FIELDS, INV_SQRT2), gamma1=0, gamma3=1),
      "distinguishability": {"gram": np.eye(3).tolist()}}, "alpha1", 3),
    ({"preset": "ghz", "distinguishability": {"delays": [0, "x", 1], "coherence_length": 1}},
     "L1", 2),
], ids=["g", "delay", "amplitude-default", "amplitude-section", "amplitude-retry", "delay-error"])
def test_a_scan_leaves_the_loaded_config_unchanged(tmp_path, monkeypatch, data, param, rc):
    loaded = []
    load = cli._load_config

    def keep(path):
        config = load(path)
        loaded.append((config, copy.deepcopy(config)))
        return config

    monkeypatch.setattr(cli, "_load_config", keep)
    argv = ["scan", "--config", write_config(tmp_path, data), "--param", param, "--start", "1",
            "--stop", "0", "--steps", "5", "--out-dir", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == rc
    ((config, before),) = loaded
    assert config == before
