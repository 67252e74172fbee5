"""End-to-end experiment pipeline: simulate, rescale, reconstruct, score.

An experiment is described by a plain-dict/JSON configuration with three
sections (model, signal, method).  The pipeline builds the model
Hamiltonians, samples the Green's function on the uniform grid implied by
the rescale map, demodulates to canonical coordinates, reconstructs the line
spectrum with atomic-norm minimization and/or the DFT baseline, maps back to
physical coordinates, and scores against the exact pole table.

The time grid follows the spacing rule dt = 1/omega_max over the window
[t0, t_max].  Giving ``t_max`` alone derives n = floor(span * omega_max) + 1;
giving ``n`` alone derives t_max; giving both oversamples: the map is rebuilt
with the gap padding enlarged so that 1/omega_max = span/(n - 1) exactly,
keeping every rescale invariant intact.  A negative ``t0`` samples the
two-sided signal.  A grid needs at least two samples.
"""

from __future__ import annotations

import math
import typing
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

# A grid set by t_max or n alone is padded by the widest gap of this many lines.
GAP_LINES = 4


@dataclass(frozen=True)
class SignalConfig:
    evolver: str = "exact"
    trotter_steps: int = 2
    shots: int | None = None
    seed: int = 0
    t0: float = 0.0
    t_max: float | None = None
    n: int | None = None
    use_sym: bool = True

    def __post_init__(self) -> None:
        if self.evolver not in ("exact", "trotter2"):
            raise ValueError(f"unknown evolver {self.evolver!r}")
        if self.t_max is not None and not self.t_max > self.t0:
            raise ValueError(f"window needs t_max > t0, got t_max={self.t_max}, t0={self.t0}")
        for key, bound, ok in (
            ("shots", ">= 1 when given", self.shots is None or self.shots >= 1),
            ("trotter_steps", ">= 1", self.trotter_steps >= 1),
            ("seed", ">= 0", self.seed >= 0),  # numpy takes no negative seed
            ("n", ">= 2", self.n is None or self.n >= 2),
        ):
            if not ok:
                raise ValueError(f"{key} must be {bound}, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: qsim.ModelParams = field(default_factory=lambda: qsim.ModelParams(4.0, 0.745))
    signal: SignalConfig = field(default_factory=SignalConfig)
    anm: anm.AnmConfig = field(default_factory=anm.AnmConfig)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be an object, got {type(data).__name__}")
        methods = data.get("method", {})
        if not isinstance(methods, dict):
            raise ValueError(f"method section must be an object, got {type(methods).__name__}")
        # a misspelled section or method would otherwise run on the defaults
        unknown = sorted(set(data) - {"model", "signal", "method"})
        unknown += [f"method.{name}" for name in sorted(set(methods) - {"anm"})]
        if unknown:
            raise ValueError(f"unknown config section(s) {unknown}")
        model = _section(qsim.ModelParams, "model", data.get("model", {"u": 4.0, "v": 0.745}))
        signal = _section(SignalConfig, "signal", data.get("signal", {}))
        anm_cfg = _section(anm.AnmConfig, "method.anm", methods.get("anm", {}))
        return ExperimentConfig(model, signal, anm_cfg)


# an int passes for a float field; values are checked by exact type, so a bool
# (an int in Python) passes only for a bool field
_ACCEPTS = {float: {int, float}}


def _section(cls, section: str, values):
    """``cls(**values)``, with a ``ValueError`` naming any value of the wrong type.

    A float must be finite: Python's json reads NaN and Infinity.
    """
    if not isinstance(values, dict):
        raise ValueError(f"{section} section must be an object, got {type(values).__name__}")
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        if key not in hints:
            continue  # cls(**values) rejects an unknown key
        annotated = typing.get_args(hints[key]) or (hints[key],)
        if type(value) not in set().union(*(_ACCEPTS.get(a, {a}) for a in annotated)):
            expected = " or ".join("null" if a is type(None) else a.__name__ for a in annotated)
            raise ValueError(f"{section}.{key} must be {expected}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"{section}.{key} must be a finite number, got {value!r}")
    return cls(**values)


def _energy_window(config: ExperimentConfig) -> tuple[float, float]:
    _, _, h_eff = qsim.build_hamiltonians(config.model)
    return energy_bounds(h_eff)


def resolve_rescale_map(config: ExperimentConfig) -> RescaleMap:
    """Rescale map over the energy bounds; the signal config needs no extent."""
    sig = config.signal
    if sig.t_max is not None and sig.n is not None:
        # oversampled grid: enlarge the padding so dt = span/(n-1) exactly
        return _map_with_bandwidth(config, (sig.n - 1) / (sig.t_max - sig.t0), sig.t0)
    omega_a, omega_b = _energy_window(config)
    return build_rescale_map(omega_a, omega_b, GAP_LINES, sig.t0)


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
    return RescaleMap(omega_a, omega_b, delta, t0)


def resolve_grid(config: ExperimentConfig, rmap: RescaleMap) -> SamplingGrid:
    sig = config.signal
    if sig.n is not None:
        n = sig.n
    elif sig.t_max is not None:
        n = int(math.floor((sig.t_max - sig.t0) * rmap.omega_max)) + 1
    else:
        raise ValueError("signal config needs t_max, n, or both")
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
    return TimeSignal(grid, samples, PHYSICAL)


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
    """Per-sample complex shot-noise std implied by the signal configuration."""
    sig = config.signal
    if sig.shots is None:
        return 0.0
    return math.sqrt((2.0 if sig.use_sym else 4.0) / sig.shots)


def _peaks_and_fit(y: TimeSignal, sol: anm.DenoisedSolution) -> tuple[float, tuple[Pole, ...]]:
    """Misfit of the solve's fitted atoms against ``y``, and those atoms."""
    freqs = anm.locate_peaks(sol)
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
    the least-squares misfit of its fitted atoms against the data.  The
    descent runs from the largest weight down until the fit turns sour.
    "ladder" also stops at the first converged candidate whose misfit
    reaches the noise floor, as select would keep no smaller weight;
    "path" descends in full, then sharpens the best bracket by golden
    section, whose warm starts depend on every visited weight.  Both are
    data-driven realizations of a "suitably chosen" regularization weight
    and need no knowledge of the truth.

    Returns the canonical spectrum and the chosen solve.
    """
    norm_y = float(np.linalg.norm(y.samples))
    scan = cfg.tau in ("ladder", "path") and norm_y > 0
    if scan:
        candidates = [rel * norm_y for rel in TAU_PATH_LADDER]
        if sigma_est > 0:
            noise_tau = anm.select_tau(sigma_est, y.grid.n)
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
    # sour, since smaller weights only fragment the support further.  A
    # "ladder" also stops at the first converged fit at the noise floor:
    # select's floor is then the noise term whatever follows, so no smaller
    # weight can be chosen (the same float expressions keep this exact)
    noise_floor = 1.1 * sigma_est * math.sqrt(y.grid.n)
    worse = 0
    for tau in sorted(candidates, reverse=True):
        resid = evaluate(tau)
        best_so_far = min(fit[0] for fit in fits.values())
        worse = worse + 1 if resid > 1.5 * best_so_far else 0
        if worse >= 2:
            break
        if cfg.tau == "ladder" and fits[tau][2].converged and 1.1 * resid <= noise_floor:
            break

    def select(taus) -> float:
        # converged solves first; the rest only count when none converged.
        # Discrepancy rule: any fit that reaches the noise floor is as good
        # as one below it, so among those keep the strongest regularization;
        # without noise this degenerates to (nearly) the best-fit candidate
        taus = [t for t in taus if fits[t][2].converged] or list(taus)
        best = min(fits[t][0] for t in taus)
        floor = max(1.1 * best, noise_floor)
        return max(t for t in taus if fits[t][0] <= floor)

    tau_best = select(fits)
    if scan and cfg.tau == "path":
        below = max([t for t in fits if t < tau_best], default=tau_best / 2.0)
        above = min([t for t in fits if t > tau_best], default=tau_best * 2.0)
        # golden section in log tau; every visited tau lands in the memo
        _golden_min(lambda x: evaluate(math.exp(x)), math.log(below), math.log(above), 12)
        tau_best = select(fits)
    _, poles, sol = fits[tau_best]
    return LineSpectrum(poles, CANONICAL), sol


@dataclass(frozen=True)
class ReconstructionOutput:
    method: str
    spectrum: LineSpectrum  # physical domain
    report: metrics.MatchReport
    epsilon: float
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
        signal, _ = qsim.mitigate_gate_error(signal, reference=reference)
    rmap = rescale_map_for_grid(config, signal.grid)
    y = to_canonical(signal, rmap)
    truth = oracle_spectrum(config)
    sol = q_max = None
    if method == "anm":
        canon, sol = anm_reconstruct_canonical(y, config.anm, noise_scale_estimate(config))
        q_max = float(np.max(anm.dual_polynomial_grid(sol)))
    elif method == "dft":
        canon = dft.extract_peaks_clean(y)
    else:
        raise ValueError(f"unknown method {method!r}")
    est = _project_physical(_prune_small(from_canonical(canon, rmap)))
    report = metrics.match_poles(truth, est)
    return ReconstructionOutput(method, est, report, report.epsilon, q_max=q_max, dual_solution=sol)


def theory_threshold_t_max(config: ExperimentConfig) -> float:
    """Smallest t_max for which the sample-count bound n >= 2.5/gap holds.

    Uses the true minimal wraparound gap of the oracle spectrum in canonical
    units together with the grid rule n = floor(t_max omega_max) + 1.  The
    signal config needs no extent.
    """
    rmap = resolve_rescale_map(config)
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
    # windows with t0 < 0 slide with t_max (two-sided sampling)
    t0 = -t_max if config.signal.t0 < 0 else config.signal.t0
    cell = SweepCell(
        t_max, method, variant, n=-1, seed=seed, epsilon=math.nan, tau=None, q_max=None
    )
    try:
        sig = replace(config.signal, t_max=t_max, t0=t0, seed=seed)
        if config.signal.n is not None and config.signal.t_max is not None:
            # keep the configured sample density: n = floor(span * rate) + 1
            # samples spread over the whole window, so the spacing is
            # span / (n - 1), not 1 / rate
            base_span = config.signal.t_max - config.signal.t0
            rate = (config.signal.n - 1) / base_span
            span = t_max - t0
            sig = replace(sig, n=int(math.floor(span * rate)) + 1)
        cell_cfg = replace(config, signal=sig)
        signal = simulate_signal(cell_cfg)
        out = reconstruct(signal, cell_cfg, method)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return replace(cell, error=f"{type(exc).__name__}: {exc}")
    sol = out.dual_solution
    if sol is not None:
        cell = replace(cell, tau=sol.tau, converged=sol.converged)
    return replace(cell, n=signal.grid.n, epsilon=out.epsilon, q_max=out.q_max)


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
    not depend on which cells ran before it.  A named variant overrides the
    configured evolver and shots as ``VARIANTS`` lists, and a name not in
    ``VARIANTS`` is a ValueError; without ``variants`` the config runs as
    given, labelled by the variant it matches.  Numeric failures
    (ValueError, ArithmeticError, LinAlgError) are recorded per cell and the
    sweep continues; any other exception propagates.
    """
    if not t_max_list or not seeds:
        raise ValueError("t_max_list and seeds must be non-empty")
    if variants is None:
        runs = [(_variant_name(config), config)]
    else:
        unknown = [variant for variant in variants if variant not in VARIANTS]
        if unknown:
            raise ValueError(f"unknown variant(s) {unknown}; known: {sorted(VARIANTS)}")
        runs = [
            (variant, replace(config, signal=replace(config.signal, **VARIANTS[variant])))
            for variant in variants
        ]
    return [
        _run_cell(variant_cfg, t_max, variant, method, seed)
        for t_max in t_max_list
        for variant, variant_cfg in runs
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
