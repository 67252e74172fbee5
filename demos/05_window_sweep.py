#!/usr/bin/env python3
"""End-to-end pipeline: reconstruction error versus window length.

Runs the full chain (simulate, rescale, reconstruct, score) for both
methods over a few window lengths with the two-step product formula and no
sampling noise, then reproduces the headline short-window result with the
exact evolver.  Expect the atomic-norm error to dip well below the
baseline's at windows far shorter than the theory-guaranteed one.

Takes a few seconds.
"""

import numpy as np

from greenspec import (
    AnmConfig,
    ExperimentConfig,
    SignalConfig,
    theory_threshold_t_max,
    reconstruct,
    run_sweep,
    simulate_signal,
)

config = ExperimentConfig(
    signal=SignalConfig(evolver="trotter2", trotter_steps=2, t_max=0.27, n=8),
    anm=AnmConfig(tau="ladder"),
)

grid = [0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 1.5]
cells = run_sweep(config, grid, seeds=[0], methods=("anm", "dft"), variants=("trotter2_noiseless",))

print("window  n    anm eps     dft eps")
for t in grid:
    anm_eps = next(c.epsilon for c in cells if c.t_max == t and c.method == "anm")
    dft_eps = next(c.epsilon for c in cells if c.t_max == t and c.method == "dft")
    n = next(c.n for c in cells if c.t_max == t)
    print(f"{t:5.2f}  {n:3d}   {anm_eps:9.2e}  {dft_eps:9.2e}")

print(f"\nguaranteed-recovery window: t_max >= {theory_threshold_t_max(config):.2f}")

# The headline operating point: a perfect simulator, a window twenty times
# shorter than the guarantee, and a sharp reconstruction anyway.
best = ExperimentConfig(
    signal=SignalConfig(evolver="exact", t_max=0.27, n=24),
    anm=AnmConfig(tau="path"),
)
signal = simulate_signal(best)
out = reconstruct(signal, best, "anm")
print(f"\nexact evolver at t_max = 0.27: eps = {out.epsilon:.2e}")
for p in out.spectrum.poles:
    print(f"  weight {abs(p.amplitude):.4f} at omega = {p.frequency:+.4f}")
