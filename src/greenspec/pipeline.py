"""End-to-end experiment pipeline: simulate, rescale, reconstruct, score.

An experiment is described by a plain-dict/JSON configuration with four
sections (model, signal, rescale, method).  The pipeline builds the model
Hamiltonians, samples the Green's function on the uniform grid implied by
the rescale map, demodulates to canonical coordinates, reconstructs the line
spectrum with atomic-norm minimization and/or the DFT baseline, maps back to
physical coordinates, and scores against the exact pole table.

The time grid follows the spacing rule dt = 1/omega_max over the window
[t0, t_max].  Giving ``t_max`` alone derives n = floor(span * omega_max) + 1;
giving ``n`` alone derives t_max; giving both oversamples: the map is rebuilt
with the gap padding enlarged so that 1/omega_max = span/(n - 1) exactly,
keeping every rescale invariant intact.  A negative ``t0`` samples the
two-sided signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import anm, dft, metrics, qsim
from .spectrum import (
    CANONICAL,
    PHYSICAL,
    LineSpectrum,
    Pole,
    RescaleMap,
    SamplingGrid,
    TimeSignal,
    _golden_min,
    add_noise,
    build_rescale_map,
    energy_bounds,
    from_canonical,
    to_canonical,
)

# Auto regularization keeps tau at or above this fraction of ||y||, so that
# deterministic model bias (e.g. product-formula error) does not drive the
# solver into the degenerate tiny-tau regime on nominally noiseless data.
TAU_FLOOR_REL = 2e-3

# Relative ladder scanned by the "path" tau policy before local refinement.
TAU_PATH_LADDER = (0.003, 0.007, 0.015, 0.03, 0.06, 0.12)


@dataclass(frozen=True)
class SignalConfig:
    evolver: str = "exact"
    trotter_steps: int = 2
    shots: int | None = None
    seed: int = 0
    sigma: float = 0.0
    t0: float = 0.0
    t_max: float | None = None
    n: int | None = None
    use_sym: bool = True

    def __post_init__(self) -> None:
        if self.evolver not in ("exact", "trotter2"):
            raise ValueError(f"unknown evolver {self.evolver!r}")

    def require_extent(self) -> None:
        if self.t_max is None and self.n is None:
            raise ValueError("signal config needs t_max, n, or both")


@dataclass(frozen=True)
class RescaleConfig:
    omega_a: float | None = None  # None = derive from the Hamiltonian one-norm
    omega_b: float | None = None
    k_min: int = 4
    delta_omega_override: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    model: qsim.ModelParams = field(default_factory=lambda: qsim.ModelParams(4.0, 0.745))
    signal: SignalConfig = field(default_factory=SignalConfig)
    rescale: RescaleConfig = field(default_factory=RescaleConfig)
    anm: anm.AnmConfig = field(default_factory=anm.AnmConfig)
    dft: dft.DftConfig = field(default_factory=dft.DftConfig)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        model = qsim.ModelParams(**data.get("model", {"u": 4.0, "v": 0.745}))
        signal = SignalConfig(**data.get("signal", {}))
        rescale = RescaleConfig(**data.get("rescale", {}))
        anm_cfg = anm.AnmConfig(**data.get("method", {}).get("anm", {}))
        dft_cfg = dft.DftConfig(**data.get("method", {}).get("dft", {}))
        return ExperimentConfig(model, signal, rescale, anm_cfg, dft_cfg)


def _energy_window(config: ExperimentConfig) -> tuple[float, float]:
    if config.rescale.omega_a is None or config.rescale.omega_b is None:
        _, _, h_eff = qsim.build_hamiltonians(config.model)
        return energy_bounds(h_eff)
    return config.rescale.omega_a, config.rescale.omega_b


def resolve_rescale_map(config: ExperimentConfig) -> RescaleMap:
    """Rescale map honoring energy bounds, gap override, and oversampling."""
    config.signal.require_extent()
    return _rescale_map(config)


def _rescale_map(config: ExperimentConfig) -> RescaleMap:
    # needs no extent: a config without both t_max and n gets the unpadded map
    sig = config.signal
    if sig.t_max is not None and sig.n is not None:
        # oversampled grid: enlarge the padding so dt = span/(n-1) exactly
        if sig.n < 2:
            raise ValueError("oversampled grid needs n >= 2")
        return _map_with_bandwidth(config, (sig.n - 1) / (sig.t_max - sig.t0), sig.t0)
    omega_a, omega_b = _energy_window(config)
    return build_rescale_map(
        omega_a, omega_b, config.rescale.k_min, sig.t0, config.rescale.delta_omega_override
    )


def rescale_map_for_grid(config: ExperimentConfig, grid: SamplingGrid) -> RescaleMap:
    """Rescale map matching an existing sampling grid exactly.

    The bandwidth is pinned to 1/dt by enlarging the gap padding, so signals
    read back from files demodulate consistently whatever grid produced them.
    """
    return _map_with_bandwidth(config, 1.0 / grid.dt, grid.t0)


def _map_with_bandwidth(config: ExperimentConfig, omega_max: float, t0: float) -> RescaleMap:
    # the gap padding that makes the padded energy window span 2 pi omega_max
    omega_a, omega_b = _energy_window(config)
    delta = 2.0 * math.pi * omega_max - (omega_b - omega_a)
    if delta <= 0:
        raise ValueError("sample spacing too coarse for the configured energy range")
    return build_rescale_map(omega_a, omega_b, config.rescale.k_min, t0, delta)


def resolve_grid(config: ExperimentConfig, rmap: RescaleMap) -> SamplingGrid:
    sig = config.signal
    if sig.n is not None:
        n = sig.n
    else:
        n = int(math.floor((sig.t_max - sig.t0) * rmap.omega_max)) + 1
    return SamplingGrid(t0=sig.t0, n=n, dt=1.0 / rmap.omega_max)


def simulate_signal(config: ExperimentConfig) -> TimeSignal:
    """Sample the Green's function on the configured grid (physical domain)."""
    rmap = resolve_rescale_map(config)
    grid = resolve_grid(config, rmap)
    sig = config.signal
    _, _, h_eff = qsim.build_hamiltonians(config.model)
    gs = qsim.prepare_ground_state(config.model)
    shot = qsim.ShotConfig(shots=sig.shots, seed=sig.seed)
    green = qsim.green_sym if sig.use_sym else qsim.green_general
    samples = green(h_eff, gs, grid.times(), sig.evolver, sig.trotter_steps, shot)
    signal = TimeSignal(grid, samples, PHYSICAL)
    if sig.sigma > 0:
        signal = add_noise(signal, sig.sigma, seed=sig.seed + 0x5EED)
    return signal


def oracle_spectrum(config: ExperimentConfig) -> LineSpectrum:
    """Exact pole table the pipeline is scored against.

    One-sided (positive-frequency) poles for the symmetric assembly; the
    mirrored two-sided table, with each weight kept per signed line, for the
    general one.
    """
    table = qsim.spectral_oracle(config.model)
    if config.signal.use_sym:
        return table
    poles = []
    for p in table.poles:
        w = abs(p.amplitude)
        z = p.z_expect or 0.0
        poles.append(Pole(complex(w * (1.0 + z)), -p.frequency, p.z_expect))
        poles.append(Pole(complex(w * (1.0 - z)), p.frequency, p.z_expect))
    return LineSpectrum(tuple(sorted(poles, key=lambda p: p.frequency)), PHYSICAL)


def noise_scale_estimate(config: ExperimentConfig) -> float:
    """Per-sample complex noise std implied by the signal configuration."""
    sig = config.signal
    var = sig.sigma**2
    if sig.shots is not None:
        var += (2.0 if sig.use_sym else 4.0) / sig.shots
    return math.sqrt(var)


def _peaks_and_fit(y: TimeSignal, sol: anm.DenoisedSolution) -> tuple[float, tuple[Pole, ...]]:
    """Misfit of the solve's fitted atoms against ``y``, and those atoms."""
    freqs = anm.locate_peaks(sol)
    if not freqs:
        return float(np.linalg.norm(y.samples)), ()
    try:
        coeffs = anm.recover_amplitudes(y, freqs)
    except ValueError:
        return float(np.linalg.norm(y.samples)), ()
    atoms = np.exp(2j * np.pi * np.outer(np.arange(y.grid.n), freqs))
    resid = float(np.linalg.norm(y.samples - atoms @ coeffs))
    return resid, tuple(Pole(c, f) for f, c in zip(freqs, coeffs))


def anm_reconstruct_canonical(
    y: TimeSignal, cfg: anm.AnmConfig, sigma_est: float = 0.0
) -> tuple[LineSpectrum, anm.DenoisedSolution]:
    """Denoise, locate the atoms of T(u), and fit amplitudes.

    This is the one place the tau policies are resolved into the numbers
    :func:`anm.atomic_denoise` needs, and the one place that decides which
    solve is reported.  Every policy becomes a list of candidate weights
    run through the same descend, select and refine loop.  A numeric
    ``cfg.tau`` is its own single candidate, and "auto" is
    :func:`anm.select_tau` of the noise estimate, floored at
    TAU_FLOOR_REL * ||y||.  "ladder" and "path" scan a geometric grid of
    weights (or fall back to "auto" when y = 0), scoring each candidate by
    the least-squares misfit of its fitted atoms against the data; "path"
    additionally sharpens the best bracket by golden section.  Both are
    data-driven realizations of a "suitably chosen" regularization weight
    and need no knowledge of the truth.

    Returns the canonical spectrum and the chosen solve.
    """
    norm_y = float(np.linalg.norm(y.samples))
    scan = cfg.tau in ("ladder", "path") and norm_y > 0
    if scan:
        candidates = [rel * norm_y for rel in TAU_PATH_LADDER]
        noise_tau = anm.select_tau(sigma_est, y.grid.n) if sigma_est > 0 else 0.0
        if noise_tau > 0:
            candidates = sorted(set(candidates) | {noise_tau, 2.0 * noise_tau})
    elif isinstance(cfg.tau, str):
        candidates = [max(anm.select_tau(sigma_est, y.grid.n), TAU_FLOOR_REL * norm_y)]
    else:
        candidates = [cfg.tau]

    # memo of visited weights: tau -> (misfit, fitted poles, solve), in solve order
    fits: dict[float, tuple[float, tuple[Pole, ...], anm.DenoisedSolution]] = {}

    def evaluate(tau: float) -> float:
        if tau not in fits:
            # warm start from the previous solve, the newest memo entry
            warm = next(reversed(fits.values()))[2] if fits else None
            sol = anm.atomic_denoise(y, replace(cfg, tau=tau), warm=warm)
            fits[tau] = (*_peaks_and_fit(y, sol), sol)
        return fits[tau][0]

    # descend the path: strongly regularized solves are cheap and make good
    # warm starts for the weakly regularized ones; stop once the fit turns
    # sour, since smaller weights only fragment the support further
    worse = 0
    for tau in sorted(candidates, reverse=True):
        resid = evaluate(tau)
        best_so_far = min(fit[0] for fit in fits.values())
        worse = worse + 1 if resid > 1.5 * best_so_far else 0
        if worse >= 2:
            break
    candidates = [t for t in candidates if t in fits]

    def select(taus) -> float:
        # converged solves first; the rest only count when none converged.
        # Discrepancy rule: any fit that reaches the noise floor is as good
        # as one below it, so among those keep the strongest regularization;
        # without noise this degenerates to (nearly) the best-fit candidate
        taus = [t for t in taus if fits[t][2].converged] or list(taus)
        best = min(fits[t][0] for t in taus)
        floor = max(1.1 * best, 1.1 * sigma_est * math.sqrt(y.grid.n))
        return max(t for t in taus if fits[t][0] <= floor)

    tau_best = select(candidates)
    if scan and cfg.tau == "path":
        below = max([t for t in candidates if t < tau_best], default=tau_best / 2.0)
        above = min([t for t in candidates if t > tau_best], default=tau_best * 2.0)
        # golden section in log tau; every visited tau lands in the memo
        _golden_min(lambda x: evaluate(math.exp(x)), math.log(below), math.log(above), 12)
        tau_best = select(list(fits))
    _, poles, sol = fits[tau_best]
    return LineSpectrum(poles, CANONICAL), sol


@dataclass(frozen=True)
class ReconstructionOutput:
    method: str
    spectrum: LineSpectrum  # physical domain
    report: metrics.MatchReport
    epsilon: float
    tau: float | None = None
    q_max: float | None = None
    dual_solution: anm.DenoisedSolution | None = None


AMPLITUDE_PRUNE = 5e-3  # relative to the largest recovered amplitude


def _prune_small(spectrum: LineSpectrum) -> LineSpectrum:
    if not spectrum.poles:
        return spectrum
    top = max(abs(p.amplitude) for p in spectrum.poles)
    kept = tuple(p for p in spectrum.poles if abs(p.amplitude) >= AMPLITUDE_PRUNE * top)
    return LineSpectrum(kept, spectrum.domain)


def _project_physical(spectrum: LineSpectrum) -> LineSpectrum:
    # a physical spectral function carries non-negative real weights; the
    # estimated phases are residual fitting error and are dropped
    poles = tuple(Pole(complex(abs(p.amplitude)), p.frequency, p.z_expect) for p in spectrum.poles)
    return LineSpectrum(poles, spectrum.domain)


def reconstruct(
    signal: TimeSignal,
    config: ExperimentConfig,
    method: str,
    mitigate: bool = False,
) -> ReconstructionOutput:
    """Run one reconstruction method on a physical-domain signal and score it."""
    if mitigate:
        reference = 1.0 if config.signal.use_sym else 2.0
        signal, _ = qsim.mitigate_gate_error(signal, n_fit=1, reference=reference)
    rmap = rescale_map_for_grid(config, signal.grid)
    y = to_canonical(signal, rmap)
    truth = oracle_spectrum(config)
    sol = tau = q_max = None
    if method == "anm":
        canon, sol = anm_reconstruct_canonical(y, config.anm, noise_scale_estimate(config))
        tau = sol.tau
        q_max = float(np.max(anm.dual_polynomial_grid(sol)))
    elif method == "dft":
        canon = dft.extract_peaks_clean(y, config.dft)
    else:
        raise ValueError(f"unknown method {method!r}")
    est = _project_physical(_prune_small(from_canonical(canon, rmap)))
    report = metrics.match_poles(truth, est)
    return ReconstructionOutput(
        method, est, report, report.epsilon, tau=tau, q_max=q_max, dual_solution=sol
    )


def theory_threshold_t_max(config: ExperimentConfig) -> float:
    """Smallest t_max for which the sample-count bound n >= 2.5/gap holds.

    Uses the true minimal wraparound gap of the oracle spectrum in canonical
    units together with the grid rule n = floor(t_max omega_max) + 1.  The
    signal config needs no extent.
    """
    rmap = _rescale_map(config)
    truth = oracle_spectrum(config)
    freqs = sorted(rmap.frequency_to_canonical(p.frequency) for p in truth.poles)
    if len(freqs) < 2:
        raise ValueError("threshold undefined for fewer than two poles")
    gaps = [b - a for a, b in zip(freqs, freqs[1:])]
    gaps.append(1.0 - (freqs[-1] - freqs[0]))
    delta_f = min(gaps)
    n_needed = math.ceil(2.5 / delta_f)
    return (n_needed - 1) / rmap.omega_max


VARIANTS = {
    "exact_noiseless": {"evolver": "exact", "shots": None},
    "trotter2_noiseless": {"evolver": "trotter2", "shots": None},
    "trotter2_shots": {"evolver": "trotter2", "shots": 100000},
}


@dataclass(frozen=True)
class SweepCell:
    t_max: float
    method: str
    variant: str
    n: int
    seed: int
    epsilon: float
    tau: float | None
    q_max: float | None
    converged: bool | None = None
    error: str | None = None


def _run_cell(
    config: ExperimentConfig, t_max: float, variant: str, method: str, seed: int
) -> SweepCell:
    overrides = VARIANTS.get(variant, {})
    # windows with t0 < 0 slide with t_max (two-sided sampling)
    t0 = -t_max if config.signal.t0 < 0 else config.signal.t0
    sig = replace(config.signal, t_max=t_max, t0=t0, seed=seed, **overrides)
    if config.signal.n is not None and config.signal.t_max is not None:
        # keep the configured sampling rate: rescale n with the window
        base_span = config.signal.t_max - config.signal.t0
        rate = (config.signal.n - 1) / base_span
        span = t_max - t0
        sig = replace(sig, n=max(2, int(math.floor(span * rate)) + 1))
    cell_cfg = replace(config, signal=sig)
    try:
        signal = simulate_signal(cell_cfg)
        out = reconstruct(signal, cell_cfg, method)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return SweepCell(
            t_max=t_max,
            method=method,
            variant=variant,
            n=-1,
            seed=seed,
            epsilon=float("nan"),
            tau=None,
            q_max=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    return SweepCell(
        t_max=t_max,
        method=method,
        variant=variant,
        n=signal.grid.n,
        seed=seed,
        epsilon=out.epsilon,
        tau=out.tau,
        q_max=out.q_max,
        converged=out.dual_solution.converged if out.dual_solution is not None else None,
    )


def run_sweep(
    config: ExperimentConfig,
    t_max_list: list[float],
    seeds: list[int],
    methods: tuple[str, ...] = ("anm", "dft"),
    variants: tuple[str, ...] | None = None,
) -> list[SweepCell]:
    """Full pipeline for each (t_max, variant, method, seed) combination.

    Cells run one after another in this process and come back in that order:
    t_max outermost, then variant, method and seed.  Each cell derives its
    own deterministic shot substream from (t, seed), so a cell's result does
    not depend on which cells ran before it.  Numeric failures (ValueError,
    ArithmeticError, LinAlgError) are recorded per cell and the sweep
    continues; any other exception propagates.
    """
    if not t_max_list or not seeds:
        raise ValueError("t_max_list and seeds must be non-empty")
    if variants is None:
        variants = (_variant_name(config),)
    return [
        _run_cell(config, t_max, variant, method, seed)
        for t_max in t_max_list
        for variant in variants
        for method in methods
        for seed in seeds
    ]


def _variant_name(config: ExperimentConfig) -> str:
    sig = config.signal
    if sig.evolver == "exact":
        return "exact_noiseless" if sig.shots is None else "exact_shots"
    return "trotter2_noiseless" if sig.shots is None else "trotter2_shots"


def sweep_to_csv_rows(cells: list[SweepCell]) -> list[str]:
    rows = ["t_max,method,variant,n,seed,epsilon"]
    for c in cells:
        eps = "nan" if math.isnan(c.epsilon) else f"{c.epsilon:.12g}"
        rows.append(f"{c.t_max:.12g},{c.method},{c.variant},{c.n},{c.seed},{eps}")
    return rows
