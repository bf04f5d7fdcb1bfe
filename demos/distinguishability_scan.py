#!/usr/bin/env python3
"""Sweep a temporal delay and watch GHZ entanglement melt away.

Delaying the third particle by L against a Gaussian coherence envelope
tunes its overlap h = exp(-(L/Lc)^2) with the other two, and the GHZ
fidelity follows (1 + h^2)/2: from 1 at zero delay down to the classical
plateau at 1/2. Writes a CSV, plots if matplotlib is importable.

Usage: python demos/distinguishability_scan.py [--steps N] [--max-delay L]
"""

import argparse
import csv
import sys

import numpy as np

from identangle import (
    density_matrix_from_spec,
    fidelity_pure,
    ghz_preset,
    ghz_state,
    gram_from_delays,
)


def run(steps: int, max_delay: float, coherence_length: float, out_csv: str) -> None:
    spec = ghz_preset()
    delays = np.linspace(0.0, max_delay, steps)
    rows = []
    for delay in delays:
        gram = gram_from_delays((0.0, 0.0, delay), coherence_length)
        rho, p = density_matrix_from_spec(spec, gram)
        fidelity = fidelity_pure(rho, ghz_state())
        overlap = np.exp(-((delay / coherence_length) ** 2))
        rows.append((delay, overlap, p, fidelity, (1 + overlap**2) / 2))

    with open(out_csv, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["delay", "overlap", "p_success", "fidelity_ghz", "theory"])
        writer.writerows(rows)
    print(f"wrote {out_csv}")

    print(f"{'delay':>8s} {'overlap':>8s} {'fidelity':>9s} {'theory':>8s}")
    for delay, overlap, _, fidelity, theory in rows[:: max(1, steps // 10)]:
        print(f"{delay:8.3f} {overlap:8.4f} {fidelity:9.5f} {theory:8.5f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the plot", file=sys.stderr)
        return
    data = np.array(rows)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(data[:, 0], data[:, 3], "o", label="simulated")
    ax.plot(data[:, 0], data[:, 4], "-", label="(1 + h$^2$)/2")
    ax.axhline(0.5, color="gray", lw=0.8, ls=":")
    ax.set_xlabel("delay of particle 3 (units of coherence length)")
    ax.set_ylabel("GHZ fidelity")
    ax.legend()
    fig.tight_layout()
    fig.savefig("distinguishability_scan.png", dpi=150)
    print("wrote distinguishability_scan.png")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=41)
    parser.add_argument("--max-delay", type=float, default=3.0)
    parser.add_argument("--coherence-length", type=float, default=1.0)
    parser.add_argument("--out-csv", default="distinguishability_scan.csv")
    args = parser.parse_args()
    run(args.steps, args.max_delay, args.coherence_length, args.out_csv)
