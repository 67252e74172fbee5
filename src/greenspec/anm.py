"""Atomic norm minimization for line-spectral denoising.

The atoms are the unit-modulus exponentials a(f)_j = exp(i 2 pi f j) on the
integer sample grid, f in [0, 1).  The atomic norm ||x||_A is the gauge of
their convex hull and admits the semidefinite characterization

    ||x||_A = min (t + Re u_0) / 2   over Hermitian-Toeplitz T(u), t
              s.t.  [[T(u), x], [x*, t]] >> 0,

with u the first column of T(u).  Denoising solves

    min_x  1/2 ||y - x||^2 + tau ||x||_A,

which in SDP form adds the quadratic to the objective and frees x.  Both
programs are solved by a first-order splitting: an auxiliary PSD matrix
variable is kept equal to the structured block matrix by dual ascent, and
each iteration performs one closed-form update of (x, u, t), one projection
onto the PSD cone (Hermitian eigendecomposition with negative eigenvalues
clipped), and one multiplier step.

Frequencies are read off the dual polynomial Q(f) = |<a(f), (y - x_hat)/tau>|,
which is bounded by one and touches it at the support of the solution's
atomic decomposition; amplitudes then come from least squares against the
raw measurements.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .spectrum import TimeSignal, _golden_min


@dataclass(frozen=True)
class AnmConfig:
    """Solver and peak-extraction settings.

    ``tau`` is the regularization weight: a number, or one of the policies
    "auto", "ladder" and "path", which the pipeline resolves to numbers
    (see :func:`greenspec.pipeline.anm_reconstruct_canonical`);
    :func:`atomic_denoise` itself needs a number.  ``grid_points`` of None
    resolves to max(4096, 64 n) at solve time.
    """

    tau: float | str = "auto"
    admm_rho: float = 2.0
    max_iters: int = 10000
    primal_tol: float = 1e-7
    dual_tol: float = 1e-7
    grid_points: int | None = None
    peak_threshold: float = 0.99
    refine_iters: int = 50

    def __post_init__(self) -> None:
        if isinstance(self.tau, str):
            if self.tau not in ("auto", "path", "ladder"):
                raise ValueError("tau must be a number, 'auto', 'path', or 'ladder'")
        elif self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.peak_threshold < 1.0:
            raise ValueError("peak_threshold must lie in (0, 1)")
        if self.refine_iters < 1 or self.max_iters < 1:
            raise ValueError("iteration counts must be positive")

    def resolve_grid(self, n: int) -> int:
        return self.grid_points if self.grid_points is not None else max(4096, 64 * n)


@dataclass(frozen=True)
class DenoisedSolution:
    """Output of :func:`atomic_denoise`.

    ``dual`` is (y - x_hat)/tau, the vector whose correlation with the atoms
    gives the dual polynomial.  ``toeplitz_vec`` and ``t_scalar`` are the
    certificate variables of the SDP; ``converged`` is False when the
    iteration budget ran out before both residuals met their tolerances.
    """

    x_hat: np.ndarray
    dual: np.ndarray
    toeplitz_vec: np.ndarray
    t_scalar: float
    tau: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    objective: float
    atomic_norm_value: float
    # internal state enabling warm restarts along a regularization path
    z_state: np.ndarray | None = None
    lambda_state: np.ndarray | None = None
    rho_state: float | None = None


def select_tau(sigma: float, n: int) -> float:
    """Noise-scaled regularization weight sigma sqrt(n log n) (1 + 1/log n).

    For sigma = 0 a floor of 1e-8 sqrt(n) keeps the program well posed.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return 1e-8 * np.sqrt(n)
    ln = np.log(n)
    return float(sigma * np.sqrt(n * ln) * (1.0 + 1.0 / ln))


@lru_cache(maxsize=32)
def _offset_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    # lower-triangle entries grouped by diagonal offset i - j, addressed in the
    # float64 view of a flattened complex block: real part at 2k, imaginary
    # part at 2k + 1, binned to 2 * offset and 2 * offset + 1
    i, j = np.tril_indices(n)
    flat = 2 * (i * n + j)
    offsets = 2 * (i - j)
    return (
        np.stack((offsets, offsets + 1), axis=1).reshape(-1),
        np.stack((flat, flat + 1), axis=1).reshape(-1),
    )


@lru_cache(maxsize=32)
def _toeplitz_index(n: int) -> np.ndarray:
    # T(u)[i, j] = w[(n - 1) + i - j] with w = (conj(u[n-1]), ..., conj(u[1]), u[0], ..., u[n-1])
    i, j = np.indices((n, n))
    return (n - 1) + i - j


def _diag_sums(m: np.ndarray, n: int) -> np.ndarray:
    """Sums over each subdiagonal of an n x n block (offset 0..n-1)."""
    offsets, flat = _offset_index(n)
    vals = m.reshape(-1).view(np.float64)[flat]
    return np.bincount(offsets, weights=vals, minlength=2 * n).view(complex)


def _assemble(u: np.ndarray, x: np.ndarray, t: float, q: np.ndarray) -> np.ndarray:
    """Write [[T(u), x], [x*, t]] into the (n+1) x (n+1) buffer ``q``."""
    n = len(u)
    q[:n, :n] = np.concatenate((np.conj(u[:0:-1]), u))[_toeplitz_index(n)]
    q[:n, n] = x
    q[n, :n] = np.conj(x)
    q[n, n] = t
    return q


def _psd_project(s: np.ndarray) -> np.ndarray:
    """Project onto the PSD cone; symmetrizes ``s`` in place first."""
    s += s.conj().T
    s *= 0.5
    w, v = np.linalg.eigh(s)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def _frobenius(m: np.ndarray) -> float:
    # the sum np.linalg.norm forms for a complex array, without its dispatch
    flat = m.reshape(-1)
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


# a solve only counts as converged when the dual polynomial respects its
# unit bound on a fine grid; residual-small but certificate-violating points
# are still short of the optimum on ill-conditioned instances
_CERT_GRID = 8192
_CERT_SLACK = 5e-4


def _admm(
    y: np.ndarray,
    tau: float,
    config: AnmConfig,
    fix_x: bool,
    warm: DenoisedSolution | None = None,
) -> DenoisedSolution:
    n = len(y)
    denom = n - np.arange(n)
    q = np.empty((n + 1, n + 1), dtype=complex)  # the structured block, refilled each iteration
    if warm is not None and warm.z_state is not None and warm.z_state.shape == (n + 1, n + 1):
        x = warm.x_hat.copy()
        u = warm.toeplitz_vec.copy()
        t = warm.t_scalar
        big_z = warm.z_state.copy()
        big_l = warm.lambda_state.copy()
        rho = warm.rho_state if warm.rho_state else config.admm_rho
    else:
        x = y.copy()
        # autocorrelation-scaled Toeplitz start keeps the first projections tame
        u = _diag_sums(np.outer(y, np.conj(y)), n) / denom
        u[0] = np.real(u[0])
        t = float(np.linalg.norm(y))
        big_z = _psd_project(_assemble(u, x, t, q))
        big_l = np.zeros((n + 1, n + 1), dtype=complex)
        rho = config.admm_rho

    r_primal = np.inf
    r_dual = np.inf
    it = 0
    residual_pass_iter: int | None = None
    for it in range(1, config.max_iters + 1):
        l_rho = big_l / rho
        if not fix_x:
            x = (y + 2.0 * big_l[:n, n] + 2.0 * rho * big_z[:n, n]) / (1.0 + 2.0 * rho)
        t = float(np.real(big_z[n, n] + l_rho[n, n])) - tau / (2.0 * rho)
        m0 = big_z[:n, :n] + l_rho[:n, :n]
        u = _diag_sums(m0, n) / denom
        u[0] = (m0.trace().real - tau / (2.0 * rho)) / n

        _assemble(u, x, t, q)
        z_new = _psd_project(q - l_rho)
        step = z_new - q
        r_primal = _frobenius(step)
        r_dual = rho * _frobenius(z_new - big_z)
        big_z = z_new
        step *= rho
        big_l += step

        residuals_ok = r_primal < config.primal_tol and r_dual < config.dual_tol
        if residuals_ok:
            if fix_x:
                break
            q_max = float(np.max(np.abs(np.fft.fft((y - x) / tau, _CERT_GRID))))
            if q_max <= 1.0 + _CERT_SLACK:
                break
            if residual_pass_iter is None:
                residual_pass_iter = it
            elif it - residual_pass_iter > 3000:
                break  # certificate is not closing; report non-convergence
        if it % 25 == 0:
            if r_primal > 10.0 * r_dual:
                rho = min(rho * 2.0, 1e8)
            elif r_dual > 10.0 * r_primal:
                rho = max(rho * 0.5, 1e-6)

    # q_max is set on every iteration whose residuals pass, the last included
    converged = residuals_ok and (fix_x or q_max <= 1.0 + _CERT_SLACK)
    norm_value = 0.5 * (t + float(np.real(u[0])))
    objective = 0.5 * float(np.linalg.norm(y - x) ** 2) + tau * norm_value
    return DenoisedSolution(
        x_hat=x,
        dual=(y - x) / tau,
        toeplitz_vec=u,
        t_scalar=t,
        tau=tau,
        iterations=it,
        primal_residual=r_primal,
        dual_residual=r_dual,
        converged=converged,
        objective=objective,
        atomic_norm_value=norm_value,
        z_state=big_z,
        lambda_state=big_l,
        rho_state=rho,
    )


def atomic_denoise(
    y: TimeSignal,
    config: AnmConfig,
    warm: DenoisedSolution | None = None,
) -> DenoisedSolution:
    """Solve the regularized denoising program for a canonical signal.

    ``config.tau`` must be a number; the string policies are resolved by the
    pipeline, and passing one here raises ValueError.  The problem is solved
    in units of ||y|| and rescaled back, so tolerances behave uniformly
    across signal magnitudes.  A prior solution for the same data at a
    nearby tau can be passed as ``warm`` to shortcut convergence.
    """
    if y.domain != "canonical":
        raise ValueError("atomic_denoise expects a canonical-domain signal")
    if isinstance(config.tau, str):
        raise ValueError(f"atomic_denoise needs a numeric tau, not {config.tau!r}")
    samples = np.asarray(y.samples, dtype=complex)
    n = len(samples)
    if n < 2:
        raise ValueError("need at least two samples")
    if n < 4:
        warnings.warn(
            f"n = {n}: separation guarantees are vacuous for so few samples",
            stacklevel=2,
        )
    tau = float(config.tau)

    scale = float(np.linalg.norm(samples))
    if scale == 0.0:
        zeros = np.zeros(n, dtype=complex)
        return DenoisedSolution(
            x_hat=zeros,
            dual=zeros.copy(),
            toeplitz_vec=zeros.copy(),
            t_scalar=0.0,
            tau=tau,
            iterations=0,
            primal_residual=0.0,
            dual_residual=0.0,
            converged=True,
            objective=0.0,
            atomic_norm_value=0.0,
        )
    scaled_warm = None
    if warm is not None and warm.z_state is not None:
        scaled_warm = replace(
            warm,
            x_hat=warm.x_hat / scale,
            toeplitz_vec=warm.toeplitz_vec / scale,
            t_scalar=warm.t_scalar / scale,
            z_state=warm.z_state / scale,
            lambda_state=warm.lambda_state / scale,
        )
    sol = _admm(samples / scale, tau / scale, config, fix_x=False, warm=scaled_warm)
    return replace(
        sol,
        x_hat=sol.x_hat * scale,
        dual=sol.dual,  # (y - x)/tau is scale invariant
        toeplitz_vec=sol.toeplitz_vec * scale,
        t_scalar=sol.t_scalar * scale,
        tau=tau,
        objective=sol.objective * scale**2,
        atomic_norm_value=sol.atomic_norm_value * scale,
        z_state=sol.z_state * scale,
        lambda_state=sol.lambda_state * scale,
    )


def atomic_norm(x: TimeSignal, config: AnmConfig | None = None) -> float:
    """Value of the semidefinite characterization of ||x||_A."""
    if x.domain != "canonical":
        raise ValueError("atomic_norm expects a canonical-domain signal")
    samples = np.asarray(x.samples, dtype=complex)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    config = config or AnmConfig()
    scale = float(np.linalg.norm(samples))
    if scale == 0.0:
        return 0.0
    sol = _admm(samples / scale, 1.0, config, fix_x=True)
    return sol.atomic_norm_value * scale


def dual_polynomial(solution: DenoisedSolution, f: float) -> float:
    """|<a(f), dual>| at a single frequency."""
    j = np.arange(len(solution.dual))
    return float(np.abs(np.sum(solution.dual * np.exp(-2j * np.pi * f * j))))


def dual_polynomial_grid(solution: DenoisedSolution, grid_points: int) -> np.ndarray:
    """|Q| on a uniform frequency grid k/grid_points, evaluated by FFT."""
    return np.abs(np.fft.fft(solution.dual, grid_points))


def _wrap_distance(f1: float, f2: float) -> float:
    d = abs(f1 - f2) % 1.0
    return min(d, 1.0 - d)


def locate_peaks(solution: DenoisedSolution, config: AnmConfig) -> list[float]:
    """Frequencies of the dual-polynomial peaks at or above the threshold.

    Scans a uniform grid, keeps wraparound-local maxima with |Q| at or above
    ``peak_threshold``, sharpens each by golden-section ascent within one
    grid cell, and merges refined peaks closer than a quarter grid step.
    An empty list is a valid outcome (over-regularized or pure noise).
    """
    n = len(solution.dual)
    grid = config.resolve_grid(n)
    qg = dual_polynomial_grid(solution, grid)
    left = np.roll(qg, 1)
    right = np.roll(qg, -1)
    candidates = np.nonzero((qg >= config.peak_threshold) & (qg >= left) & (qg > right))[0]
    refined: list[tuple[float, float]] = []
    for k in candidates:
        f = _golden_min(
            lambda f: -dual_polynomial(solution, f),
            (k - 1.0) / grid,
            (k + 1.0) / grid,
            config.refine_iters,
        )
        refined.append((f % 1.0, dual_polynomial(solution, f)))
    refined.sort(key=lambda fq: -fq[1])
    kept: list[tuple[float, float]] = []
    for f, qv in refined:
        if all(_wrap_distance(f, g) >= 1.0 / (4.0 * grid) for g, _ in kept):
            kept.append((f, qv))
    return sorted(f for f, _ in kept)


def recover_amplitudes(y: TimeSignal, freqs: list[float]) -> np.ndarray:
    """Least-squares amplitudes of the atoms at ``freqs`` against ``y``.

    Raises when the atom matrix is numerically rank deficient, reporting the
    closest pair of frequencies as the likely culprit.
    """
    samples = np.asarray(y.samples, dtype=complex)
    n = len(samples)
    if len(freqs) == 0:
        return np.zeros(0, dtype=complex)
    if len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be distinct")
    if len(freqs) > n:
        raise ValueError("more frequencies than samples")
    v = np.exp(2j * np.pi * np.outer(np.arange(n), freqs))
    rank = np.linalg.matrix_rank(v, tol=1e-10 * n)
    if rank < len(freqs):
        worst = min(
            ((f1, f2) for i, f1 in enumerate(freqs) for f2 in freqs[i + 1 :]),
            key=lambda p: _wrap_distance(p[0], p[1]),
        )
        raise ValueError(
            f"atom matrix is rank deficient; frequencies {worst[0]} and {worst[1]} "
            "are too close to separate"
        )
    coeffs, *_ = np.linalg.lstsq(v, samples, rcond=None)
    return coeffs
