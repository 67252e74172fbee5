"""Independent reference computations shared by the test suite."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from greenspec.dft import dirichlet_kernel
from greenspec.spectrum import _golden_min


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
