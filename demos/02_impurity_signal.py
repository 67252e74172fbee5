#!/usr/bin/env python3
"""Simulating the one-bath-site impurity model on three qubits.

Builds the sector Hamiltonians, prepares the closed-form ground state,
evaluates interferometry expectations exactly and with the second-order
product formula, and compares the assembled signal against the exact pole
table obtained by diagonalization.
"""

import numpy as np

from greenspec import (
    ModelParams,
    ShotConfig,
    StateVector,
    build_hamiltonians,
    exact_evolve,
    green_general,
    green_sym,
    prepare_ground_state,
    spectral_oracle,
    trotter2_evolve,
)

params = ModelParams(u=4.0, v=0.745)
h_gs, h_ex, h_eff = build_hamiltonians(params)
print("conditioned Hamiltonian terms:", [(c, str(s)) for c, s in h_eff.terms])

gs = prepare_ground_state(params)
print(f"ground state amplitudes: {np.round(gs.amplitudes, 4)}")

# The exact pole table: weights |a_l|^2 and excitation energies.
oracle = spectral_oracle(params)
print("\nexact pole table:")
for p in oracle.poles:
    print(f"  weight {abs(p.amplitude):.6f} at omega = {p.frequency:.6f}  (<Z> = {p.z_expect:+.1e})")

# One-sided signal: weights sum to one at t = 0; the two-sided assembly
# carries both frequency signs and starts at two.
print(f"\ng_sym(0)     = {green_sym(h_eff, gs, 0.0)[0]:.6f}")
print(f"g_general(0) = {green_general(h_eff, gs, 0.0)[0]:.6f}")

print("\nexact vs product-formula samples (2 steps):")
times = np.array([0.25, 0.5, 1.0, 2.0])
exact_row = green_sym(h_eff, gs, times, evolver="exact")
trotter_row = green_sym(h_eff, gs, times, evolver="trotter2", trotter_steps=2)
for t, exact, trotter in zip(times, exact_row, trotter_row):
    model = sum(p.amplitude * np.exp(1j * p.frequency * t) for p in oracle.poles)
    print(
        f"  t={t:4.2f}  exact vs poles {abs(exact - model):.2e}   "
        f"trotter deviation {abs(trotter - exact):.2e}"
    )

# Product formula order: halving the step size quarters the error.
rng = np.random.default_rng(0)
v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
psi = StateVector(v / np.linalg.norm(v))
reference = exact_evolve(h_eff, 1.0, psi).amplitudes
print("\nproduct-formula error at t = 1:")
for steps in (1, 2, 4, 8):
    err = np.linalg.norm(trotter2_evolve(h_eff, 1.0, steps, psi).amplitudes - reference)
    print(f"  steps = {steps:2d}: {err:.3e}")

# Finite shots: each expectation becomes a mean of +/-1 readouts.
shot = ShotConfig(shots=100000, seed=7)
val = green_sym(h_eff, gs, 0.8, shot=shot)[0]
ref = green_sym(h_eff, gs, 0.8)[0]
print(f"\n10^5-shot estimate at t = 0.8 deviates by {abs(val - ref):.2e} (expected ~{np.sqrt(2/1e5):.0e})")
