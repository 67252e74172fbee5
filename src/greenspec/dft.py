"""Zero-padded DFT baseline with iterative peak fitting and subtraction.

The comparison method against which super-resolution is judged: transform
the n samples onto a pad_factor-times-finer frequency grid, then repeatedly
take the strongest remaining bin, fit a periodic-sinc (Dirichlet) kernel to
a few bins around it to pull the peak off the grid, and subtract the fitted
atom's full padded spectrum from the residual.  Zero padding refines peak
localization but adds no resolution; closely spaced lines stay merged, which
is precisely the failure mode the atomic-norm route avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import CANONICAL, LineSpectrum, Pole, TimeSignal, _golden_min, _wrap_distance

_FIT_HALFWIDTH = 3  # bins on either side of the argmax that a peak's kernel is fitted to
_REFIT_ROUNDS = 6  # coordinate re-fit sweeps after the greedy pass


@dataclass(frozen=True)
class DftConfig:
    """Padding and stopping settings for the peak extractor.

    The samples are zero-padded to ``pad_factor`` times their length; at
    most ``max_peaks`` peaks are extracted, and extraction stops once the
    strongest remaining bin falls below ``stop_fraction`` of the first.
    """

    pad_factor: int = 16
    max_peaks: int = 8
    stop_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.pad_factor < 1:
            raise ValueError("pad_factor must be >= 1")
        if self.max_peaks < 1:
            raise ValueError("max_peaks must be >= 1")
        if not 0.0 < self.stop_fraction < 1.0:
            raise ValueError("stop_fraction must lie in (0, 1)")


def dirichlet_kernel(delta: np.ndarray, n: int) -> np.ndarray:
    """Padded spectrum of one atom: sum_j exp(i 2 pi delta j) for j < n.

    Equals exp(i pi delta (n-1)) sin(pi n delta)/sin(pi delta), the periodic
    counterpart of the sinc shape, and exactly n at delta = 0 (mod 1).
    """
    delta = np.asarray(delta, dtype=float)
    num = np.sin(np.pi * n * delta)
    den = np.sin(np.pi * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.where(np.abs(den) < 1e-15, float(n), num / den)
    return np.exp(1j * np.pi * delta * (n - 1)) * mag


def padded_spectrum(y: TimeSignal, config: DftConfig) -> tuple[np.ndarray, np.ndarray]:
    """DFT of the samples zero-padded to pad_factor * n points.

    Returns (freqs, values) with frequencies in cycles per sample, centered
    on [-1/2, 1/2) and sorted ascending.
    """
    if y.domain != CANONICAL:
        raise ValueError("padded_spectrum expects a canonical-domain signal")
    n = y.grid.n
    total = config.pad_factor * n
    values = np.fft.fft(y.samples, total)
    freqs = np.fft.fftfreq(total)
    order = np.argsort(freqs, kind="stable")
    return freqs[order], values[order]


def _fit_peak(residual: np.ndarray, k_max: int, n: int, total: int) -> tuple[complex, float]:
    """Least-squares (amplitude, frequency) of one kernel near bin k_max.

    The frequency is searched within one padded bin of the argmax; for each
    candidate the best amplitude is the closed-form projection onto the
    kernel restricted to the _FIT_HALFWIDTH bins on either side.
    """
    window = (k_max + np.arange(-_FIT_HALFWIDTH, _FIT_HALFWIDTH + 1)) % total
    data = residual[window]
    grid_f = window / total

    def score(f: float) -> tuple[float, complex]:
        kernel = dirichlet_kernel(f - grid_f, n)
        denom = float(np.real(np.vdot(kernel, kernel)))
        amp = np.vdot(kernel, data) / denom
        resid = float(np.linalg.norm(data - amp * kernel) ** 2)
        return resid, amp

    lo = (k_max - 1.0) / total
    hi = (k_max + 1.0) / total
    # coarse scan then golden-section polish on the windowed fit residual
    coarse = np.linspace(lo, hi, 33)
    best_f = float(coarse[int(np.argmin([score(f)[0] for f in coarse]))])
    span = (hi - lo) / 32.0
    f_hat = _golden_min(lambda f: score(f)[0], best_f - span, best_f + span, 60)
    amp = score(f_hat)[1]
    return amp, f_hat % 1.0


def extract_peaks_clean(y: TimeSignal, config: DftConfig) -> LineSpectrum:
    """Iterative highest-first peak extraction from the padded spectrum.

    Loop: locate the strongest residual bin, fit (amplitude, frequency) of a
    Dirichlet kernel over the bins around it, subtract the fitted atom's
    full padded spectrum, and repeat until max_peaks are found or the next
    peak falls below stop_fraction of the first.  Amplitudes are kept
    complex; positivity of a physical spectrum is checked downstream.
    """
    if y.domain != CANONICAL:
        raise ValueError("extract_peaks_clean expects a canonical-domain signal")
    n = y.grid.n
    total = config.pad_factor * n
    residual = np.fft.fft(y.samples, total)
    all_k = np.arange(total)
    first_peak = float(np.max(np.abs(residual)))
    if first_peak == 0.0:
        return LineSpectrum((), CANONICAL)

    def atom(peak: tuple[complex, float]) -> np.ndarray:
        return peak[0] * dirichlet_kernel(peak[1] - all_k / total, n)

    def peel(residual: np.ndarray) -> tuple[np.ndarray, tuple[complex, float]]:
        peak = _fit_peak(residual, int(np.argmax(np.abs(residual))), n, total)
        return residual - atom(peak), peak

    found: list[tuple[complex, float]] = []
    for _ in range(config.max_peaks):
        if np.max(np.abs(residual)) < config.stop_fraction * first_peak:
            break
        residual, peak = peel(residual)
        found.append(peak)
    # coordinate re-fits: each pass corrects one peak for the sidelobe
    # leakage of the others still present in the greedy residual
    for _ in range(_REFIT_ROUNDS):
        for i, peak in enumerate(found):
            residual, found[i] = peel(residual + atom(peak))
    # merge duplicate fits of the same line before building the spectrum
    merged: list[tuple[complex, float]] = []
    for amp, f in found:
        for i, (amp_0, f_0) in enumerate(merged):
            if _wrap_distance(f, f_0) < 1.0 / (2.0 * total):
                merged[i] = (amp_0 + amp, f_0)
                break
        else:
            merged.append((amp, f))
    poles = tuple(Pole(amp, f) for amp, f in sorted(merged, key=lambda p: p[1]))
    return LineSpectrum(poles, CANONICAL)
