"""Atomic norm minimization for line-spectral denoising.

The atoms are the unit-modulus exponentials a(f)_j = exp(i 2 pi f j) on the
integer sample grid, f in [0, 1).  The atomic norm ||x||_A is the gauge of
their convex hull and admits the semidefinite characterization

    ||x||_A = min (t + Re u_0) / 2   over Hermitian-Toeplitz T(u), t
              s.t.  [[T(u), x], [x*, t]] >> 0,

with u the first column of T(u).  Denoising solves

    min_x  1/2 ||y - x||^2 + tau ||x||_A,

which in SDP form adds the quadratic to the objective and frees x.  Both
programs are solved by a first-order splitting (ADMM): an auxiliary PSD
matrix variable is kept equal to the structured block matrix by dual ascent,
and each plain step performs one closed-form update of (x, u, t), one
projection onto the PSD cone (rebuilt from the positive eigenpairs alone,
which LAPACK's zheevr finds by bisection and inverse iteration without the
rest of the spectrum), and one multiplier step.  The solver's state is
w = (Z | Lambda/rho), the two Hermitian blocks packed into 2 (n+1)^2 reals
by their lower triangles; the update reads (x, u, t) straight off the packed
sum, and only the projection unpacks one block.  A cold solve starts from
w = 0, a warm one from a prior solve's final w and rho.  The plain step is a
fixed-point map w -> g(w), and type-II Anderson acceleration (Walker & Ni,
SIAM J. Numer. Anal. 2011) extrapolates it from the last twenty residual
differences, as SCS 3.0 does for its ADMM, with inner products weighted so
that they are the Frobenius ones of the full blocks.  The stop tests
always run on the plain step; the memory restarts whenever rho changes or the
residual grows past twice its best since the last restart.

Frequencies are read off the primal certificate T(u) by its Vandermonde
(Caratheodory) decomposition T(u) = sum_k c_k a(f_k) a(f_k)^H (Tang, Bhaskar,
Shah & Recht, IEEE TIT 2013): the rank r of T(u), capped at n - 1, counts
the atoms, and its r leading eigenvectors span them.  That signal subspace
is invariant under a one-sample shift, which rotates each atom by
exp(2 pi i f_k), so the eigenvalues of the rotation fitted between its first
and last n - 1 rows give the frequencies (ESPRIT; Roy & Kailath, IEEE TASSP
1989).  Amplitudes then come from least squares against the raw
measurements.  The dual polynomial Q(f) = |<a(f), (y - x_hat)/tau>|, bounded
by one on the support, serves as the optimality certificate.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy

from .spectrum import TimeSignal, _wrap_distance


def _load_flapack():
    """scipy's f2py LAPACK extension ``_flapack``, loaded without ``scipy.linalg``.

    The solver takes two routines from it, ``zheevr`` and ``dposv``.  The
    ``scipy.linalg`` package, which re-exports the same routines, would add
    about 160 ms and 24 MB to ``import greenspec``.  A missing extension
    raises ImportError naming the directory searched.
    """
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [directory])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dposv, zheevr = _flapack.dposv, _flapack.zheevr


@dataclass(frozen=True)
class AnmConfig:
    """Solver settings: the regularization weight ``tau`` alone.

    ``tau`` is a positive number, or one of the policies "ladder" (the
    default) and "path", which the pipeline resolves to numbers (see
    :func:`greenspec.pipeline.anm_reconstruct_canonical`);
    :func:`atomic_denoise` itself needs a number.  Every solve stops on the
    fixed tolerance ``_TOL`` or the fixed cap ``max_iters``, a class constant.
    """

    tau: float | str = "ladder"
    max_iters: ClassVar[int] = 10_000

    def __post_init__(self) -> None:
        numeric = not isinstance(self.tau, str) and 0.0 < self.tau < math.inf
        if not numeric and self.tau not in ("ladder", "path"):
            raise ValueError("tau must be a positive finite number, 'ladder' or 'path'")


@dataclass(frozen=True)
class DenoisedSolution:
    """Output of :func:`atomic_denoise`.

    ``dual`` is (y - x_hat)/tau, the vector whose correlation with the atoms
    gives the dual polynomial, and ``toeplitz_vec`` the first column u of
    the primal T(u).  The residuals, in units of ||y||, are the final plain
    step's; ``converged`` is False when the iteration budget ran out before
    both met the tolerance with the dual polynomial inside its unit bound.
    """

    x_hat: np.ndarray
    dual: np.ndarray
    toeplitz_vec: np.ndarray
    tau: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    objective: float
    atomic_norm_value: float
    # solver state for warm restarts on the same data along a regularization
    # path: the final iterate w = (Z | Lambda/rho), the 2 (n+1)^2 reals of the
    # two blocks' packed lower triangles in the solver's units of ||y||, and
    # its rho; None for the zero signal, which is not iterated
    w_state: np.ndarray | None = None
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


def _packed_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # _admm's (n+1)^2 reals of a Hermitian (n+1) x (n+1) block, addressed in its
    # flattened float64 view: its lower triangle row by row, real and imaginary
    # parts, less the imaginary part of the diagonal.  The leading n x n part
    # fills the first n^2, then come the 2n of the border row and the corner.
    # Also their weights, 2 below the diagonal, under which a packed dot
    # product is the Frobenius one of the full block; for the leading part the
    # bins 2 (i - j), plus 1 for an imaginary part, which gather T(u) from u
    # (T(u)[i, j] = u[i - j] for i >= j) and sum it back by bincount; and the
    # places of its real diagonal, the last of each row
    i, j = np.tril_indices(n + 1)
    below = i > j
    re = 2 * (i * (n + 1) + j)
    keep = np.stack((np.ones_like(below), below), axis=1).reshape(-1)
    index = np.stack((re, re + 1), axis=1).reshape(-1)[keep]
    weight = np.repeat(np.where(below, 2.0, 1.0), 2)[keep]
    offset = 2 * (i - j)
    bins = np.stack((offset, offset + 1), axis=1).reshape(-1)[keep][: n * n]
    diag = np.arange(1, n + 1) ** 2 - 1
    return index, weight, bins, diag


def _psd_project(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Project the Hermitian block ``s``, read from its lower triangle, into ``out``.

    Only the m eigenpairs above zero are computed, by LAPACK ``zheevr`` from
    scipy's ``_flapack`` extension (see :func:`_load_flapack`).  For
    a value range it finds them by bisection and inverse iteration (its MRRR
    path runs only for the whole spectrum), so the cost grows with m: on one
    47 x 47 block about 130, 320, 480 and 900 us at m = 2, 12, 20 and 40,
    against about 330 us for the whole spectrum.  The solver's blocks keep a
    median m of 2 at n = 46, and 4 to 12 (median 8) at n = 39.  A driver
    failure takes the full decomposition instead.  A block that is not
    finite raises LinAlgError: ``zheevr`` would report success on it, often
    with no eigenvalue and so a zero projection.
    """
    if not np.isfinite(s).all():
        raise np.linalg.LinAlgError("PSD projection of a non-finite block")
    w, v, m, _, info = zheevr(s, range="V", vl=0.0, vu=np.inf, lower=1)
    if info == 0:
        v = v[:, :m]
        return np.matmul(v * w[:m], v.conj().T, out=out)
    w, v = np.linalg.eigh(s)
    return np.matmul(v * np.maximum(w, 0.0), v.conj().T, out=out)


# a solve only counts as converged when the dual polynomial respects its unit
# bound on the grid of _dual_modulus; residual-small but certificate-violating
# points are still short of the optimum on ill-conditioned instances
_CERT_SLACK = 5e-4

_RHO = 2.0  # initial ADMM penalty; rebalanced every 25 iterations

# both residuals must fall below this, in units of ||y||.  The tau selection
# compares misfits within 10%, so a looser solve can pick another tau, and
# report another error, depending on where inside the tolerance it stopped:
# the n = 3 criterion-04 window reports 0.1740 at 1e-7 and 0.0920 at 1e-10
_TOL = 1e-10

# type-II Anderson acceleration of the plain ADMM step: the number of past
# differences kept, and the ridge on their Gram system relative to its trace.
# The memory was picked by a sweep over 5-30 (BENCH_19.json): 20 needs a
# seventh of the iterations of 5 on the two_sided_shots cells.  The ring
# buffers hold 2 m 2(n+1)^2 doubles, 1.41 MB at n = 46; with them a memory of
# 30 ran window_curve about 18% faster and two_sided_shots about 12% slower
# (BENCH_23.json)
_AA_MEMORY = 20
_AA_RIDGE = 1e-10
_EYE = np.eye(_AA_MEMORY)


def _admm(
    samples: np.ndarray,
    tau: float,
    fix_x: bool,
    warm: DenoisedSolution | None = None,
) -> DenoisedSolution:
    n = len(samples)
    scale = float(np.linalg.norm(samples))
    if scale == 0.0:
        zeros = np.zeros(n, dtype=complex)
        return DenoisedSolution(
            x_hat=zeros,
            dual=zeros.copy(),
            toeplitz_vec=zeros.copy(),
            tau=tau,
            iterations=0,
            primal_residual=0.0,
            dual_residual=0.0,
            converged=True,
            objective=0.0,
            atomic_norm_value=0.0,
        )
    # the solve runs in units of ||y||, so its tolerances hold at any magnitude
    y, tau_y = samples / scale, tau / scale
    lead = n * n
    denom = n - np.arange(n)
    index, weight, bins, diag = _packed_index(n)
    h = len(index)  # (n+1)^2 reals per block
    # the iterate w = (Z | Lambda/rho), two blocks packed by _packed_index; the
    # plain step's image g(w), the residual f = g(w) - w, and the previous g and
    # f, which swap buffers with the current ones every iteration
    w, g, g_prev, f, f_prev, scratch = np.empty((6, 2 * h))
    weight = np.tile(weight, 2)
    d_f = np.empty((_AA_MEMORY, 2 * h))  # ring buffers of successive differences
    d_g = np.empty((_AA_MEMORY, 2 * h))
    gram = np.empty((_AA_MEMORY, _AA_MEMORY))
    rhs = np.zeros(_AA_MEMORY)  # dF f: the stored differences against the current residual
    q = np.empty(h)  # the structured block [[T(u), x], [x*, t]], packed
    block = np.zeros((n + 1, n + 1), dtype=complex)  # q - Lambda/rho in the lower triangle
    proj = np.empty_like(block)
    block_flat, proj_flat = block.reshape(-1).view(np.float64), proj.reshape(-1).view(np.float64)

    x = y  # the atomic norm's x stays fixed; denoising updates it every iteration
    if warm is not None and warm.w_state is not None:
        if len(warm.w_state) != 2 * h:
            raise ValueError(
                f"warm start has {math.isqrt(len(warm.w_state) // 2) - 1} samples, the data {n}"
            )
        w[:] = warm.w_state
        rho = warm.rho_state
    else:
        # the zero state; a start from the data's autocorrelation took more
        # iterations (BENCH_26.json)
        w[:] = 0.0
        rho = _RHO

    stored = -1  # differences stored since the memory restarted; -1 forces a restart
    f_min = math.inf
    converged = False
    for it in range(1, AnmConfig.max_iters + 1):
        s = w[:h] + w[h:]
        if not fix_x:
            x = (y + 2.0 * rho * np.conj(s[lead:-1].view(complex))) / (1.0 + 2.0 * rho)
        t = float(s[-1]) - tau_y / (2.0 * rho)
        u = np.bincount(bins, weights=s[:lead], minlength=2 * n).view(complex) / denom
        # the trace, summed as a complex array in np.trace's order
        u[0] = (s[diag].astype(complex).sum().real - tau_y / (2.0 * rho)) / n

        # pack q from (u, x, t), project q - Lambda/rho and pack the result into g
        q[:lead] = u.view(np.float64)[bins]
        np.conjugate(x, out=q[lead:-1].view(complex))
        q[-1] = t
        block_flat[index] = q - w[h:]
        _psd_project(block, out=proj)
        g[:h] = proj_flat[index]
        np.subtract(g[:h], q, out=g[h:])
        g[h:] += w[h:]
        np.subtract(g, w, out=f)
        np.multiply(f, weight, out=scratch)
        r_primal = math.sqrt(f[h:] @ scratch[h:])
        r_dual = rho * math.sqrt(f[:h] @ scratch[:h])

        if r_primal < _TOL and r_dual < _TOL:
            if fix_x:
                converged = True
                break
            q_max = float(np.max(_dual_modulus((y - x) / tau_y)))
            if q_max <= 1.0 + _CERT_SLACK:
                converged = True
                break

        f_norm = math.hypot(r_primal, r_dual / rho)
        if stored < 0 or f_norm > 2.0 * f_min:
            # (re)start the memory from this image: first, after a change of
            # rho, or when the residual grows past twice its best since then
            stored, f_min = 0, f_norm
        else:
            f_min = min(f_min, f_norm)
            slot = stored % _AA_MEMORY
            stored += 1
            np.subtract(f, f_prev, out=d_f[slot])
            np.subtract(g, g_prev, out=d_g[slot])
            np.multiply(d_f[slot], weight, out=scratch)
            m = min(stored, _AA_MEMORY)
            gram[slot, :m] = gram[:m, slot] = d_f[:m] @ scratch
            # f = f_prev + dF_slot, so each older dF_j f is its previous value
            # plus the new Gram entry; only the new difference needs a product
            rhs[:m] += gram[:m, slot]
            rhs[slot] = scratch @ f
        m = min(stored, _AA_MEMORY)
        ridge = _AA_RIDGE * gram[:m, :m].trace()
        info = 1
        if ridge > 0.0:
            _, gamma, info = dposv(gram[:m, :m] + ridge * _EYE[:m, :m], rhs[:m])
        if info == 0:
            # the extrapolated point g(w) - dG gamma
            np.matmul(gamma, d_g[:m], out=w)
            np.subtract(g, w, out=w)
        else:
            w[...] = g
        g, g_prev = g_prev, g
        f, f_prev = f_prev, f

        if it % 25 == 0:
            new_rho = rho
            if r_primal > 10.0 * r_dual:
                new_rho = min(rho * 2.0, 1e8)
            elif r_dual > 10.0 * r_primal:
                new_rho = max(rho * 0.5, 1e-6)
            if new_rho != rho:
                # Lambda carries over; its scaled copy changes and the memory is stale
                w[h:] *= rho / new_rho
                rho = new_rho
                stored = -1

    if converged:
        w = g
    norm_value = 0.5 * (t + float(np.real(u[0])))
    objective = 0.5 * float(np.linalg.norm(y - x) ** 2) + tau_y * norm_value
    return DenoisedSolution(
        x_hat=x * scale,
        dual=(y - x) / tau_y,  # (y - x)/tau is scale invariant
        toeplitz_vec=u * scale,
        tau=tau,
        iterations=it,
        primal_residual=r_primal,
        dual_residual=r_dual,
        converged=converged,
        objective=objective * scale**2,
        atomic_norm_value=norm_value * scale,
        w_state=w.copy(),
        rho_state=rho,
    )


def atomic_denoise(
    y: TimeSignal,
    config: AnmConfig,
    warm: DenoisedSolution | None = None,
) -> DenoisedSolution:
    """Solve the regularized denoising program for a canonical signal.

    ``config.tau`` must be a number; the string policies are resolved by the
    pipeline, and passing one here raises ValueError.  The solve runs in
    units of ||y|| and rescales its result back, so tolerances behave
    uniformly across signal magnitudes; the zero signal returns the zero
    solution without iterating.  A ``warm`` prior solve of the same data at
    a nearby tau starts from its final iterate and rho, which shortcuts
    convergence; one of another length raises ValueError.
    """
    if y.domain != "canonical":
        raise ValueError("atomic_denoise expects a canonical-domain signal")
    if isinstance(config.tau, str):
        raise ValueError(f"atomic_denoise needs a numeric tau, not {config.tau!r}")
    samples = np.asarray(y.samples, dtype=complex)
    n = len(samples)
    if n < 4:
        warnings.warn(
            f"n = {n}: separation guarantees are vacuous for so few samples",
            stacklevel=2,
        )
    return _admm(samples, float(config.tau), fix_x=False, warm=warm)


def atomic_norm(x: TimeSignal) -> float:
    """Value of the semidefinite characterization of ||x||_A."""
    if x.domain != "canonical":
        raise ValueError("atomic_norm expects a canonical-domain signal")
    samples = np.asarray(x.samples, dtype=complex)
    # tau = ||x|| is the weight 1 in the solve's units of ||x||
    sol = _admm(samples, float(np.linalg.norm(samples)), fix_x=True)
    return sol.atomic_norm_value


def _dual_modulus(dual: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.fft(dual, max(4096, 64 * len(dual))))


def dual_polynomial_grid(solution: DenoisedSolution) -> np.ndarray:
    """|Q| on the certificate grid, k/m for m = max(4096, 64 n) points, evaluated by FFT."""
    return _dual_modulus(solution.dual)


# eigenvalues of T(u) at or below this share (or the solve's larger residual,
# which sets its solver noise) of max(lambda_max, sqrt(n) ||y||) count as zero;
# sqrt(n) ||y|| is lambda_max of an unshrunk one-atom T(u), so a solve shrunk
# to nothing has rank zero.  At _TOL the sweeps of criteria 03-05 leave solver
# noise at most 2.8e-11 of that scale and no atom below 3.9e-8
_RANK_CUT = 1e-8


def locate_peaks(solution: DenoisedSolution) -> list[float]:
    """Frequencies of the atoms in the Vandermonde decomposition of T(u).

    The rank r of T(u) is the number of atoms, capped at n - 1 (a solve
    stopped short of the optimum can leave T(u) with full rank or
    indefinite, and the optimum for pure noise at a weak tau with full
    rank); negative eigenvalues count as no atom.  The eigenvectors U of
    its r largest eigenvalues span the atoms a(f_k), and a shift by one
    sample multiplies each atom by exp(2 pi i f_k), so the eigenvalues of
    the least-squares rotation U[:-1]^+ U[1:] sit at the atoms' frequencies
    (ESPRIT).  Returns
    the distinct frequencies in [0, 1), sorted; an empty list is a valid
    outcome (over-regularized or pure noise).
    """
    u = solution.toeplitz_vec
    n = len(u)
    j = np.arange(n)
    # T(u)[i, j] = u[i - j] for i >= j; eigh reads only that triangle and the
    # real part of the diagonal, not the wrapped u[i - j + n] above it
    w, v = np.linalg.eigh(u[j[:, None] - j])
    y_norm = float(np.linalg.norm(solution.x_hat + solution.tau * solution.dual))
    cut = max(_RANK_CUT, solution.primal_residual, solution.dual_residual)
    r = min(n - 1, int(np.count_nonzero(w > cut * max(w[-1], math.sqrt(n) * y_norm))))
    if r == 0:
        return []
    sig = v[:, n - r :]
    rotation = np.linalg.lstsq(sig[:-1], sig[1:], rcond=None)[0]
    freqs = (np.angle(np.linalg.eigvals(rotation)) / (2.0 * np.pi)) % 1.0
    freqs[freqs == 1.0] = 0.0  # a tiny negative angle rounds up to 1
    return sorted(set(freqs.tolist()))


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
    coeffs, _, _, singular = np.linalg.lstsq(v, samples, rcond=None)
    if np.count_nonzero(singular > 1e-10 * n) < len(freqs):
        worst = min(
            ((f1, f2) for i, f1 in enumerate(freqs) for f2 in freqs[i + 1 :]),
            key=lambda p: _wrap_distance(p[0], p[1]),
        )
        raise ValueError(
            f"atom matrix is rank deficient; frequencies {worst[0]} and {worst[1]} "
            "are too close to separate"
        )
    return coeffs
