#!/usr/bin/env python3
"""Walk through GHZ generation step by step.

Three spin-down particles enter a three-way splitter whose routing also
flips spins in a staggered pattern. Keeping only the runs where all three
detectors fire leaves two indistinguishable routings, and their
superposition is a GHZ state at 25% postselection success.
"""

import numpy as np

from identangle import (
    GramMatrix,
    classify,
    density_matrix_from_spec,
    fidelity_pure,
    ghz_preset,
    ghz_state,
    no_bunching_outcomes,
)

np.set_printoptions(precision=3, suppress=True, linewidth=120)

spec = ghz_preset()
print("routing amplitudes (rows = particles, columns = detectors):")
print(spec.amplitudes)
print("spins attached to each path (-1 marks a path with zero amplitude):")
print(spec.spins)
print()

outcomes = no_bunching_outcomes(spec)
print(f"{len(outcomes)} routings put one particle on every detector:")
for amplitude, index, labels in zip(outcomes.amplitudes, outcomes.indices, outcomes.labels):
    # Detector 0 is the most significant bit of the basis index, down = 0.
    pattern = format(index, "03b").translate(str.maketrans("01", "du"))
    print(f"  amplitude {amplitude:+.4f}  spins |{pattern}>  particle order {tuple(labels.tolist())}")
print()

# Fully indistinguishable particles first: the two routings interfere.
rho, p = density_matrix_from_spec(spec, GramMatrix.fully_indistinguishable(3))
print(f"success probability: {p:.4f}")
print(f"fidelity with the GHZ target: {fidelity_pure(rho, ghz_state()):.6f}")
print(f"verdict: {classify(rho).verdict}")
print()

# Now make the particles fully distinguishable. The which-path information
# kills the coherence and only the diagonal survives.
rho2, p2 = density_matrix_from_spec(spec, GramMatrix.uniform(3, 0.0))
print("same routings, fully distinguishable particles:")
print(f"success probability: {p2:.4f} (unchanged)")
print(f"fidelity drops to {fidelity_pure(rho2, ghz_state()):.6f}")
print(f"verdict: {classify(rho2).verdict}")
