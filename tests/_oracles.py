"""Independent reference computations shared by the test suite."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from greenspec.dft import (
    _FIT_HALFWIDTH,
    _MAX_PEAKS,
    _PAD_FACTOR,
    _REFIT_ROUNDS,
    _STOP_FRACTION,
    _ZOOM,
    _ZOOM_LEVELS,
    _dirichlet_ratio,
    dirichlet_kernel,
)
from greenspec.spectrum import _golden_min, _wrap_distance


def lasso_objective_oracle(y, tau, grid_size=4096, iters=4000):
    """Gridded l1 denoising (FISTA) as an independent upper bound.

    Solves min_c 0.5 ||A c - y||^2 + tau ||c||_1 over a fixed dictionary of
    ``grid_size`` on-grid atoms and returns the objective value.  The uniform
    Fourier dictionary has A A^H = grid_size I, so the step size is exact.
    Restricting atoms to the grid can only increase the optimum, which makes
    this an upper bound for the continuous-dictionary program.  With
    A[j, k] = exp(2 pi i j k / grid_size), A c is grid_size times the first
    n entries of the inverse FFT of c, and A^H r the FFT of r zero-padded to
    grid_size, so no dense A is formed.
    """
    n = len(y)
    step = 1.0 / grid_size

    def synthesize(c):  # A c
        return grid_size * np.fft.ifft(c)[:n]

    c = np.zeros(grid_size, dtype=complex)
    z = c.copy()
    t_acc = 1.0
    for _ in range(iters):
        r = synthesize(z) - y
        g = np.fft.fft(r, grid_size)  # A^H r
        w = z - step * g
        mag = np.abs(w)
        c_new = np.where(
            mag > 0, w * np.maximum(0.0, 1.0 - tau * step / np.maximum(mag, 1e-300)), 0.0
        )
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2)) / 2.0
        z = c_new + ((t_acc - 1.0) / t_new) * (c_new - c)
        c, t_acc = c_new, t_new
    return 0.5 * np.linalg.norm(synthesize(c) - y) ** 2 + tau * np.sum(np.abs(c))


def windowed_misfit(residual, k_max, n, total, f, halfwidth=3):
    """Least-squares misfit of one Dirichlet kernel at frequency f to the
    2*halfwidth + 1 padded bins around k_max, and its best amplitude."""
    window = (k_max + np.arange(-halfwidth, halfwidth + 1)) % total
    data = residual[window]
    kernel = dirichlet_kernel(f - window / total, n)
    amp = np.vdot(kernel, data) / np.real(np.vdot(kernel, kernel))
    return float(np.linalg.norm(data - amp * kernel) ** 2), amp


def golden_peak_fit(residual, k_max, n, total):
    """Scalar reference for the DFT peak fit: a 33-point scan of the misfit
    over one padded bin either side of k_max, then 60 golden-section steps
    around the best point.  Returns (amplitude, frequency mod 1)."""
    def misfit(f):
        return windowed_misfit(residual, k_max, n, total, f)[0]

    coarse = np.linspace((k_max - 1.0) / total, (k_max + 1.0) / total, 33)
    best = float(coarse[int(np.argmin([misfit(f) for f in coarse]))])
    span = 2.0 / (32.0 * total)
    f_hat = _golden_min(misfit, best - span, best + span, 60)
    return windowed_misfit(residual, k_max, n, total, f_hat)[1], f_hat % 1.0


def gated_assignment_oracle(wt, we):
    """Pole pairs from a general assignment solver on the gated cost matrix.

    Pairs farther apart than a quarter of the joint frequency span cost more
    than all in-gate pairs together, so the assignment keeps the most in-gate
    pairs and then the least total distance; the out-of-gate pairs it still
    makes are dropped.  Returns (truth index, estimate index) pairs.
    """
    allfreq = np.concatenate([wt, we])
    span = float(allfreq.max() - allfreq.min())
    max_distance = np.inf if span == 0.0 else span / 4.0
    cost = np.abs(wt[:, None] - we[None, :])
    in_gate = cost <= max_distance
    rows, cols = linear_sum_assignment(np.where(in_gate, cost, 1.0 + cost[in_gate].sum()))
    return tuple((int(r), int(c)) for r, c in zip(rows, cols) if in_gate[r, c])


def _reference_fit_peak(residual, k_max, n, total):
    # one fit with every table rebuilt per call and fresh arrays per zoom level
    offsets = np.arange(-_FIT_HALFWIDTH, _FIT_HALFWIDTH + 1)
    bins = offsets / total
    data = residual[(k_max + offsets) % total] * np.exp(1j * np.pi * (n - 1) * bins)
    data = data.view(float).reshape(-1, 2)
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


def _reference_atom(peak, n, turn):
    # one full-length atom in a fresh array, from the table turn_k = exp(i pi k/total)
    amp, f = peak
    total = len(turn)
    pad = total // n
    k0 = round(f * total)
    theta = np.pi * (((k0 - np.arange(pad)) % (2 * pad)) / pad + n * (f - k0 / total))
    row = amp * np.exp(1j * (theta - np.pi * f)) * np.sin(theta)
    den = np.sin(np.pi * f) * turn.real
    den -= np.cos(np.pi * f) * turn.imag
    close = (k0 + np.arange(-pad, pad + 1)) % total
    den[close] = 1.0
    out = (turn.reshape(n, pad) * row).reshape(total)
    out /= den
    out[close] = amp * dirichlet_kernel(f - close / total, n)
    return out


def reference_extract_peaks_clean(y):
    """The DFT peak extraction loop in its per-call form: every fit rebuilds
    its tables, every atom is built afresh (a refit rebuilds the atom it adds
    back), and the stop test and the argmax each take |residual|.  Returns
    the sorted, merged (amplitude, frequency) pairs, which extract_peaks_clean's
    poles must equal bit for bit, and the fits before the merge."""
    n = y.grid.n
    total = _PAD_FACTOR * n
    residual = np.fft.fft(y.samples, total)
    first_peak = float(np.max(np.abs(residual)))
    if first_peak == 0.0:
        return [], []
    turn = np.exp(1j * np.pi * np.arange(total) / total)

    def peel():
        peak = _reference_fit_peak(residual, int(np.argmax(np.abs(residual))), n, total)
        residual[:] -= _reference_atom(peak, n, turn)
        return peak

    found = []
    for _ in range(_MAX_PEAKS):
        if np.max(np.abs(residual)) < _STOP_FRACTION * first_peak:
            break
        found.append(peel())
    for _ in range(_REFIT_ROUNDS):
        for i, peak in enumerate(found):
            residual += _reference_atom(peak, n, turn)
            found[i] = peel()
    merged = []
    for amp, f in found:
        for i, (amp_0, f_0) in enumerate(merged):
            if _wrap_distance(f, f_0) < 1.0 / (2.0 * total):
                merged[i] = (amp_0 + amp, f_0)
                break
        else:
            merged.append((amp, f))
    return sorted(merged, key=lambda p: p[1]), found
