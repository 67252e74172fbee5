"""Line spectra, sampled time signals, and physical/canonical rescaling.

A line spectrum is a finite set of poles (complex amplitude, real
frequency).  In the physical domain frequencies are angular (rad per time
unit); in the canonical domain they are cyclic and live in [0, 1), which is
the form the atomic-norm machinery consumes.  This module owns the bijection
between the two pictures: a uniform time grid with spacing 1/omega_max maps
to integer sample indices, and the energy window [omega_a, omega_b], padded
by half a gap estimate on each side, maps to the unit frequency circle.

The factor 2*pi between angular and cyclic frequencies is confined to this
module; everything downstream works with whichever domain tag it is handed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PHYSICAL = "physical"
CANONICAL = "canonical"

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Pole:
    """One spectral line: weight, position, and optional Z-expectation.

    ``amplitude`` is dimensionless; physical spectral functions carry
    non-negative real amplitudes.  ``frequency`` is angular in the physical
    domain and lies in [0, 1) in the canonical domain.  ``z_expect``, when
    present, is the per-line Z expectation in [-1, 1] used by the two-sided
    signal assembly.
    """

    amplitude: complex
    frequency: float
    z_expect: float | None = None

    def __post_init__(self) -> None:
        if self.z_expect is not None and not -1.0 - 1e-12 <= self.z_expect <= 1.0 + 1e-12:
            raise ValueError(f"z_expect must lie in [-1, 1], got {self.z_expect}")


@dataclass(frozen=True)
class LineSpectrum:
    """An ordered collection of poles with a domain tag."""

    poles: tuple[Pole, ...]
    domain: str = PHYSICAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "poles", tuple(self.poles))
        if self.domain not in (PHYSICAL, CANONICAL):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        freqs = self.frequencies()
        if len(np.unique(freqs)) != len(freqs):
            raise ValueError("pole frequencies must be pairwise distinct")
        if self.domain == CANONICAL and len(freqs) and (freqs.min() < 0.0 or freqs.max() >= 1.0):
            raise ValueError("canonical frequencies must lie in [0, 1)")

    def frequencies(self) -> np.ndarray:
        return np.array([p.frequency for p in self.poles], dtype=float)

    def sorted_by_frequency(self) -> "LineSpectrum":
        return LineSpectrum(tuple(sorted(self.poles, key=lambda p: p.frequency)), self.domain)


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform time grid: sample j sits at t0 + j*dt for j in 0..n-1, n >= 2.

    Every signal lives on one, so code that takes a signal need not check its
    length again.
    """

    t0: float
    n: int
    dt: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two samples")
        if not (math.isfinite(self.t0) and math.isfinite(self.dt)):
            raise ValueError(f"grid needs a finite t0 and dt, got t0={self.t0}, dt={self.dt}")
        if self.dt <= 0:
            raise ValueError("sample spacing must be positive")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


@dataclass(frozen=True)
class TimeSignal:
    """Complex samples on a uniform grid with a domain tag."""

    grid: SamplingGrid
    samples: np.ndarray
    domain: str = PHYSICAL

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.domain not in (PHYSICAL, CANONICAL):
            raise ValueError(f"unknown domain tag {self.domain!r}")


@dataclass(frozen=True)
class RescaleMap:
    """Bijection between physical (time, angular frequency) and canonical
    (sample index, cyclic frequency in [0, 1)) coordinates.

    ``omega_max`` is the total bandwidth in cycles per time unit; sampling at
    spacing 1/omega_max makes the padded window [omega_a - delta_omega/2,
    omega_b + delta_omega/2] wrap exactly once around the unit circle.
    ``phi`` is the phase shift that rotates the window start to frequency 0.
    """

    omega_a: float
    omega_b: float
    delta_omega: float
    t0: float

    def __post_init__(self) -> None:
        if self.omega_b <= self.omega_a:
            raise ValueError("need omega_b > omega_a")
        if self.delta_omega <= 0:
            raise ValueError("delta_omega must be positive")

    @property
    def omega_max(self) -> float:
        return (self.omega_b - self.omega_a + self.delta_omega) / _TWO_PI

    @property
    def phi(self) -> float:
        return (self.omega_a - self.delta_omega / 2.0) / (_TWO_PI * self.omega_max)

    @property
    def dt(self) -> float:
        return 1.0 / self.omega_max

    def frequency_to_canonical(self, omega: float) -> float:
        return omega / (_TWO_PI * self.omega_max) - self.phi

    def frequency_from_canonical(self, f: float) -> float:
        return _TWO_PI * self.omega_max * (f + self.phi)


def energy_bounds(hamiltonian) -> tuple[float, float]:
    """Default spectral-support bounds from the Hamiltonian one-norm.

    Eigenvalues of a weighted Pauli sum lie within +/- sum|h_k|, so every
    eigenvalue difference lies within twice that.  Callers with a tighter
    estimate should pass their own bounds to :func:`build_rescale_map`.
    """
    coeffs = [abs(c) for c, _ in hamiltonian.terms]
    if not coeffs:
        raise ValueError("Hamiltonian has no terms")
    total = float(sum(coeffs))
    return -2.0 * total, 2.0 * total


def build_rescale_map(
    omega_a: float, omega_b: float, n_peaks_min: int, t0: float = 0.0
) -> RescaleMap:
    """Rescale map for [omega_a, omega_b], padded by the gap estimate
    (omega_b - omega_a)/(n_peaks_min - 1), the widest spacing of n_peaks_min lines."""
    if n_peaks_min < 2:
        raise ValueError("gap estimate undefined for fewer than 2 peaks")
    return RescaleMap(omega_a, omega_b, (omega_b - omega_a) / (n_peaks_min - 1), t0)


def to_canonical(signal: TimeSignal, rmap: RescaleMap) -> TimeSignal:
    """Demodulate a physical signal onto the canonical integer grid.

    Requires the signal to be sampled at spacing 1/omega_max.  Sample j of
    the result is x_j * exp(-i 2 pi phi omega_max t_j); a physical pole
    (c, omega) becomes (c * exp(i 2 pi f omega_max t0), f) with
    f = omega/(2 pi omega_max) - phi.
    """
    if signal.domain != PHYSICAL:
        raise ValueError("to_canonical expects a physical-domain signal")
    if abs(signal.grid.dt * rmap.omega_max - 1.0) > 1e-9:
        raise ValueError(
            f"grid spacing {signal.grid.dt} does not match 1/omega_max = {rmap.dt}"
        )
    t = signal.grid.times()
    rotated = signal.samples * np.exp(-1j * _TWO_PI * rmap.phi * rmap.omega_max * t)
    return TimeSignal(SamplingGrid(t0=0.0, n=signal.grid.n, dt=1.0), rotated, CANONICAL)


def to_canonical_spectrum(spectrum: LineSpectrum, rmap: RescaleMap) -> LineSpectrum:
    """Map a physical spectrum to canonical coordinates (pole-wise)."""
    if spectrum.domain != PHYSICAL:
        raise ValueError("expected a physical-domain spectrum")
    poles = []
    for p in spectrum.poles:
        f = rmap.frequency_to_canonical(p.frequency)
        if not 0.0 <= f < 1.0:
            raise ValueError(
                f"frequency {p.frequency} maps to {f}, outside [0, 1); "
                "widen the energy range or the gap estimate"
            )
        amp = p.amplitude * np.exp(1j * _TWO_PI * f * rmap.omega_max * rmap.t0)
        poles.append(Pole(amp, f, p.z_expect))
    return LineSpectrum(tuple(poles), CANONICAL)


def from_canonical(spectrum: LineSpectrum, rmap: RescaleMap) -> LineSpectrum:
    """Map a canonical spectrum back to physical coordinates.

    Inverse of :func:`to_canonical_spectrum`: amplitudes pick up the phase
    exp(-i 2 pi f omega_max t0) and frequencies become
    2 pi omega_max (f + phi).
    """
    if spectrum.domain != CANONICAL:
        raise ValueError("expected a canonical-domain spectrum")
    poles = []
    for p in spectrum.poles:
        amp = p.amplitude * np.exp(-1j * _TWO_PI * p.frequency * rmap.omega_max * rmap.t0)
        poles.append(Pole(amp, rmap.frequency_from_canonical(p.frequency), p.z_expect))
    return LineSpectrum(tuple(poles), PHYSICAL)


def synthesize_signal(spectrum: LineSpectrum, grid: SamplingGrid) -> TimeSignal:
    """Exact noiseless samples of the exponential sum defined by ``spectrum``.

    Physical domain: x_j = sum_l c_l exp(i omega_l t_j) with omega angular.
    Canonical domain: x_j = sum_l c_l exp(i 2 pi f_l t_j).
    """
    t = grid.times()
    scale = 1.0 if spectrum.domain == PHYSICAL else _TWO_PI
    samples = np.zeros(grid.n, dtype=complex)
    for p in spectrum.poles:
        samples += p.amplitude * np.exp(1j * scale * p.frequency * t)
    return TimeSignal(grid, samples, spectrum.domain)


def _golden_min(f, a: float, b: float, iters: int) -> float:
    """Golden-section search for a minimum of ``f`` on [a, b].

    Evaluates f at the two interior points, then once per iteration, and
    returns the midpoint of the final bracket.  Maximize by passing -f.
    """
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _wrap_distance(f1: float, f2: float) -> float:
    """Distance between two frequencies on the unit circle [0, 1)."""
    d = abs(f1 - f2) % 1.0
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def spectrum_to_json(spectrum: LineSpectrum) -> list[dict]:
    """Spectrum as a list of {re, im, freq, z} objects (physical freq = angular)."""
    return [
        {
            "re": float(np.real(p.amplitude)),
            "im": float(np.imag(p.amplitude)),
            "freq": float(p.frequency),
            "z": None if p.z_expect is None else float(p.z_expect),
        }
        for p in spectrum.poles
    ]


def signal_to_json(signal: TimeSignal) -> dict:
    return {
        "t0": float(signal.grid.t0),
        "dt": float(signal.grid.dt),
        "n": int(signal.grid.n),
        "samples": [[float(z.real), float(z.imag)] for z in signal.samples],
    }


def signal_from_json(data: dict) -> TimeSignal:
    """The signal of a :func:`signal_to_json` record.

    A record of the wrong shape raises TypeError: ``t0`` or ``dt`` that is not
    a number, ``n`` that is not an integer or not the number of samples, or a
    sample that is not an ``[re, im]`` pair of numbers.  A JSON boolean is not
    a number here.  The grid and the signal check the values and raise
    ValueError, for instance on fewer than two samples, or on a non-finite
    value, which includes an integer too large for a float.
    """
    def number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def real(value) -> float:
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            return math.inf if value > 0 else -math.inf

    for key in ("t0", "dt"):
        if not number(data[key]):
            raise TypeError(f"{key} must be a number, got {data[key]!r}")
    n, samples = data["n"], data["samples"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"n must be an integer, got {n!r}")
    if len(samples) != n:
        raise TypeError(f"n is {n}, but it holds {len(samples)} samples")
    for sample in samples:
        if not (isinstance(sample, list) and len(sample) == 2 and all(map(number, sample))):
            raise TypeError(f"a sample must be an [re, im] pair of numbers, got {sample!r}")
    grid = SamplingGrid(t0=real(data["t0"]), n=n, dt=real(data["dt"]))
    return TimeSignal(grid, np.array([complex(real(re), real(im)) for re, im in samples]), PHYSICAL)


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
