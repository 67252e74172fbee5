"""Sparse spectral reconstruction from short-time Green's function samples.

The package simulates the real-time Green's function of a one-bath-site
impurity model on a small qubit register, and recovers its line spectrum
from few, short-time, noisy samples by atomic norm minimization, benchmarked
against a zero-padded-DFT peak-subtraction baseline.
"""

from .anm import (
    AnmConfig,
    DenoisedSolution,
    atomic_denoise,
    atomic_norm,
    dual_polynomial_grid,
    locate_peaks,
    recover_amplitudes,
    select_tau,
)
from .dft import extract_peaks_clean
from .metrics import MatchReport, match_poles
from .pipeline import (
    ExperimentConfig,
    SignalConfig,
    theory_threshold_t_max,
    oracle_spectrum,
    reconstruct,
    run_sweep,
    simulate_signal,
)
from .qsim import (
    ModelParams,
    PauliHamiltonian,
    PauliString,
    ShotConfig,
    StateVector,
    build_hamiltonians,
    exact_evolve,
    green_general,
    green_sym,
    hadamard_test,
    mitigate_gate_error,
    prepare_ground_state,
    spectral_oracle,
    trotter2_evolve,
)
from .spectrum import (
    LineSpectrum,
    Pole,
    RescaleMap,
    SamplingGrid,
    TimeSignal,
    build_rescale_map,
    energy_bounds,
    from_canonical,
    synthesize_signal,
    to_canonical,
    to_canonical_spectrum,
)

__version__ = "0.1.0"
