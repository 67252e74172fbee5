"""Zero-padded DFT baseline with iterative peak fitting and subtraction.

The comparison method against which super-resolution is judged: transform
the n samples onto a 16-times-finer frequency grid, then repeatedly take the
strongest remaining bin, fit a periodic-sinc (Dirichlet) kernel to a few
bins around it to pull the peak off the grid, and subtract the fitted atom's
full padded spectrum from the residual.  Zero padding refines peak
localization but adds no resolution; closely spaced lines stay merged, which
is precisely the failure mode the atomic-norm route avoids.
"""

from __future__ import annotations

import numpy as np

from .spectrum import CANONICAL, LineSpectrum, Pole, TimeSignal, _wrap_distance

_PAD_FACTOR = 16  # the samples are zero-padded to this many times their length
_MAX_PEAKS = 8  # at most this many peaks are extracted
_STOP_FRACTION = 0.05  # extraction stops once the strongest bin falls below this share of the first
_FIT_HALFWIDTH = 3  # bins on either side of the argmax that a peak's kernel is fitted to
_REFIT_ROUNDS = 6  # coordinate re-fit sweeps after the greedy pass
_ZOOM = np.linspace(-1.0, 1.0, 33)  # a fit level's candidates, spaced 1/16 of its half-width
_ZOOM_LEVELS = 9  # the last level's candidates lie 16**-9 of a padded bin apart


def dirichlet_kernel(delta: np.ndarray, n: int) -> np.ndarray:
    """Padded spectrum of one atom: sum_j exp(i 2 pi delta j) for j < n.

    Equals exp(i pi delta (n-1)) sin(pi n delta)/sin(pi delta), the periodic
    counterpart of the sinc shape, and exactly n at delta = 0 (mod 1).
    """
    delta = np.asarray(delta, dtype=float)
    return np.exp(1j * np.pi * delta * (n - 1)) * _dirichlet_ratio(delta, n)


def _dirichlet_ratio(delta: np.ndarray, n: int) -> np.ndarray:
    """The real factor sin(pi n delta)/sin(pi delta) of the kernel, and its limit where it is 0/0.

    At integer delta the limit n cos(pi n delta)/cos(pi delta) is n (-1)^(delta (n-1)):
    -n at odd delta when n is even, and n otherwise.
    """
    num = np.sin(np.pi * n * delta)
    den = np.sin(np.pi * delta)
    ok = np.abs(den) >= 1e-15
    ratio = np.divide(num, den, out=np.full(np.shape(num), float(n)), where=ok)
    if n % 2 == 0:
        ratio[~ok & (np.rint(delta) % 2 == 1)] = -n
    return ratio


def _fit_peak(residual: np.ndarray, k_max: int, n: int, total: int) -> tuple[complex, float]:
    """Least-squares (amplitude, frequency) of one kernel near bin k_max.

    The frequency is searched within one padded bin of the argmax; for each
    candidate the best amplitude is the closed-form projection onto the
    kernel restricted to the _FIT_HALFWIDTH bins on either side.  Each zoom
    level scores its 33 candidates in one array and centres the next, 16
    times narrower, level on the best of them.
    """
    offsets = np.arange(-_FIT_HALFWIDTH, _FIT_HALFWIDTH + 1)
    bins = offsets / total  # the kernel is 1-periodic, so these need no wrapping
    # with f = k_max/total + u, the kernel at bin offset b is
    # exp(i pi (n-1) (u - b)) times the real _dirichlet_ratio(u - b); its
    # phase splits into one per bin, taken off the data here, and one per
    # candidate, which the amplitude absorbs
    data = residual[(k_max + offsets) % total] * np.exp(1j * np.pi * (n - 1) * bins)
    data = data.view(float).reshape(-1, 2)  # (bin, [re, im])
    u, half = 0.0, 1.0 / total
    for _ in range(_ZOOM_LEVELS):
        cands = u + half * _ZOOM
        kernel = _dirichlet_ratio(cands[:, None] - bins, n)
        amp = (kernel @ data) / np.einsum("ij,ij->i", kernel, kernel)[:, None]
        err = data - amp[:, None, :] * kernel[:, :, None]
        best = np.einsum("ijk,ijk->i", err, err).argmin()
        u, half = cands[best], half / 16.0
    amp_best = complex(amp[best, 0], amp[best, 1]) * np.exp(-1j * np.pi * (n - 1) * u)
    return amp_best, (k_max / total + u) % 1.0


def _atom(peak: tuple[complex, float], n: int, turn: np.ndarray) -> np.ndarray:
    """amp * dirichlet_kernel(f - k/total, n) for every padded bin k, from the table turn.

    With turn_k = exp(i pi k/total), x = f - k/total, k = q pad + r and theta_r = pi n f - pi r/pad,
    sin(pi n x) = (-1)^q sin(theta_r) and exp(i pi (n-1) x) =
    (-1)^q exp(i (theta_r - pi f)) turn_k.  The signs cancel, so the kernel
    is a pad-long row times turn_k over sin(pi x) = sin(pi f) Re turn_k -
    cos(pi f) Im turn_k, with no sine or exponential per bin.
    """
    amp, f = peak
    total = len(turn)
    pad = total // n
    k0 = round(f * total)
    # theta_r = pi n (f - k0/total) + pi (k0 - r)/pad, with k0 - r reduced mod 2 pad
    theta = np.pi * (((k0 - np.arange(pad)) % (2 * pad)) / pad + n * (f - k0 / total))
    row = amp * np.exp(1j * (theta - np.pi * f)) * np.sin(theta)
    den = np.sin(np.pi * f) * turn.real
    den -= np.cos(np.pi * f) * turn.imag
    # within pad bins of f the expanded denominator loses digits to
    # cancellation (and vanishes on grid), so those bins are evaluated directly
    close = (k0 + np.arange(-pad, pad + 1)) % total
    den[close] = 1.0
    out = (turn.reshape(n, pad) * row).reshape(total)
    out /= den
    out[close] = amp * dirichlet_kernel(f - close / total, n)
    return out


def extract_peaks_clean(y: TimeSignal) -> LineSpectrum:
    """Iterative highest-first peak extraction from the padded spectrum.

    Loop: locate the strongest residual bin, fit (amplitude, frequency) of a
    Dirichlet kernel over the bins around it, subtract the fitted atom's
    full padded spectrum, and repeat until _MAX_PEAKS are found or the next
    peak falls below _STOP_FRACTION of the first.  Amplitudes are kept
    complex; positivity of a physical spectrum is checked downstream.
    """
    if y.domain != CANONICAL:
        raise ValueError("extract_peaks_clean expects a canonical-domain signal")
    n = y.grid.n
    if n < 2:
        raise ValueError("need at least two samples")
    total = _PAD_FACTOR * n
    residual = np.fft.fft(y.samples, total)
    first_peak = float(np.max(np.abs(residual)))
    if first_peak == 0.0:
        return LineSpectrum((), CANONICAL)
    turn = np.exp(1j * np.pi * np.arange(total) / total)  # the table _atom builds atoms from

    def peel() -> tuple[complex, float]:
        peak = _fit_peak(residual, int(np.argmax(np.abs(residual))), n, total)
        residual[:] -= _atom(peak, n, turn)
        return peak

    found: list[tuple[complex, float]] = []
    for _ in range(_MAX_PEAKS):
        if np.max(np.abs(residual)) < _STOP_FRACTION * first_peak:
            break
        found.append(peel())
    # coordinate re-fits: each pass corrects one peak for the sidelobe
    # leakage of the others still present in the greedy residual
    for _ in range(_REFIT_ROUNDS):
        for i, peak in enumerate(found):
            residual += _atom(peak, n, turn)
            found[i] = peel()
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
