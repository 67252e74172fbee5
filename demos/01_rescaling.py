#!/usr/bin/env python3
"""Mapping physical signals onto the canonical unit-frequency circle.

The atomic-norm machinery wants samples x_j = sum_l c_l exp(i 2 pi f_l j)
with f_l in [0, 1).  Physical data lives on a time grid with angular
frequencies somewhere in an energy window.  This script walks through the
bookkeeping: bound the window from the Hamiltonian, pad it by a gap
estimate, build the bijection, and check that it round-trips.
"""

import numpy as np

from greenspec import (
    LineSpectrum,
    ModelParams,
    Pole,
    SamplingGrid,
    build_hamiltonians,
    build_rescale_map,
    energy_bounds,
    from_canonical,
    synthesize_signal,
    to_canonical,
    to_canonical_spectrum,
)

# Energy window from the Hamiltonian one-norm: every transition energy of
# the three-qubit impurity Hamiltonian lies within +/- 2 sum|h_k| = +/- 4.98.
_, _, h_eff = build_hamiltonians(ModelParams(u=4.0, v=0.745))
omega_a, omega_b = energy_bounds(h_eff)
print(f"energy window from coefficients: [{omega_a}, {omega_b}]")

# Assume at least four spectral lines; the widest they can spread gives the
# gap estimate, and half a gap of padding on each side prevents wraparound
# collisions on the frequency circle.
rmap = build_rescale_map(omega_a, omega_b, n_peaks_min=4)
print(f"gap estimate   : {rmap.delta_omega:.4f}")
print(f"bandwidth      : {rmap.omega_max:.4f} cycles/time  (dt = {rmap.dt:.4f})")
print(f"phase shift    : {rmap.phi:+.4f}   (-1/2 marks a symmetric window)")
print(f"shift for [-1/2,1/2) readout: {rmap.phi + 0.5:+.4f}")

# A toy four-line spectrum within the window.
spectrum = LineSpectrum(
    (
        Pole(0.525, 0.548),
        Pole(0.525, -0.548),
        Pole(0.475, 3.042),
        Pole(0.475, -3.042),
    ),
)
canonical = to_canonical_spectrum(spectrum, rmap)
print("\nphysical -> canonical frequencies:")
for p, c in zip(spectrum.poles, canonical.poles):
    print(f"  omega = {p.frequency:+.3f}  ->  f = {c.frequency:.6f}")

# Demodulating the sampled signal is the same as mapping the poles.
grid = SamplingGrid(t0=0.0, n=16, dt=rmap.dt)
via_signal = to_canonical(synthesize_signal(spectrum, grid), rmap)
direct = synthesize_signal(canonical, SamplingGrid(0.0, 16, 1.0))
print(f"\nsignal/pole-map consistency: {np.max(np.abs(via_signal.samples - direct.samples)):.2e}")

# And the inverse map restores the physical table exactly.
restored = from_canonical(canonical, rmap)
worst = max(
    max(abs(a.frequency - b.frequency), abs(a.amplitude - b.amplitude))
    for a, b in zip(spectrum.poles, restored.poles)
)
print(f"round-trip error: {worst:.2e}")
