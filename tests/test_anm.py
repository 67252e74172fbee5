import re
from dataclasses import replace

import numpy as np
import pytest
from _oracles import lasso_objective_oracle
from scipy.linalg import lapack, toeplitz

from greenspec import anm
from greenspec.anm import (
    AnmConfig,
    _packed_index,
    _psd_project,
    atomic_denoise,
    atomic_norm,
    dual_polynomial_grid,
    locate_peaks,
    recover_amplitudes,
    select_tau,
)
from greenspec.pipeline import (
    ExperimentConfig,
    SignalConfig,
    rescale_map_for_grid,
    run_sweep,
    simulate_signal,
)
from greenspec.spectrum import CANONICAL, SamplingGrid, TimeSignal, _wrap_distance, to_canonical


def atoms(n, freqs):
    return np.exp(2j * np.pi * np.outer(np.arange(n), freqs))


def make_signal(n, freqs, coeffs):
    samples = atoms(n, freqs) @ np.asarray(coeffs, dtype=complex)
    return TimeSignal(SamplingGrid(0.0, n, 1.0), samples, CANONICAL)


class TestSelectTau:
    def test_noiseless_floor(self):
        assert select_tau(0.0, 64) == pytest.approx(1e-8 * np.sqrt(64))

    def test_noise_scaled_value(self):
        assert select_tau(0.01, 64) == pytest.approx(0.202375, abs=1e-4)

    def test_homogeneous_in_sigma(self):
        assert select_tau(0.02, 64) == pytest.approx(2 * select_tau(0.01, 64), rel=1e-12)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            select_tau(0.1, 1)


class TestAnmConfig:
    @pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf")])
    def test_tau_must_be_positive_finite(self, tau):
        with pytest.raises(ValueError, match="tau"):
            AnmConfig(tau=tau)


BLOCK_SIZES = (1, 2, 3, 8, 24, 47)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def pack(block):
    """The packed lower triangle of one complex (n+1) x (n+1) block."""
    index = _packed_index(block.shape[-1] - 1)[0]
    return block.reshape(-1).view(np.float64)[index]


class TestBlockHelpers:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_bin_gather_matches_toeplitz_reference(self, n):
        rng = np.random.default_rng(n)
        u = random_complex(rng, n)
        _, _, bins, _ = _packed_index(n)
        block = np.zeros((n + 1, n + 1), dtype=complex)
        block[:n, :n] = toeplitz(u, np.conj(u))
        assert np.array_equal(u.view(np.float64)[bins], pack(block)[: n * n])

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_bincount_matches_trace(self, n):
        rng = np.random.default_rng(100 + n)
        m = random_complex(rng, n + 1, n + 1)
        _, _, bins, _ = _packed_index(n)
        sums = np.bincount(bins, weights=pack(m)[: n * n], minlength=2 * n).view(complex)
        assert sums.shape == (n,)
        # the imaginary part of the diagonal is not packed
        assert sums[0] == pytest.approx(np.trace(m[:n, :n]).real, rel=1e-13, abs=1e-13)
        for k in range(1, n):
            assert sums[k] == pytest.approx(np.trace(m[:n, :n], offset=-k), rel=1e-13, abs=1e-13)

    def test_bincount_exact_on_integer_blocks(self):
        # integer-valued entries sum exactly in any order
        rng = np.random.default_rng(7)
        m = rng.integers(-50, 50, (25, 25)) + 1j * rng.integers(-50, 50, (25, 25))
        _, _, bins, _ = _packed_index(24)
        sums = np.bincount(bins, weights=pack(m.astype(complex))[: 24 * 24], minlength=48)
        expected = [np.trace(m[:24, :24], offset=-k) for k in range(24)]
        expected[0] = expected[0].real
        assert np.array_equal(sums.view(complex), expected)

    def test_diagonal_sums_as_trace(self):
        # the solver sums the packed real diagonal to the bit of np.trace
        rng = np.random.default_rng(8)
        for n in range(1, 64):
            m = random_complex(rng, n + 1, n + 1)
            _, _, _, diag = _packed_index(n)
            assert np.array_equal(np.diagonal(m)[:n].real, pack(m)[diag])
            assert pack(m)[diag].astype(complex).sum().real == np.trace(m[:n, :n]).real


def eigh_clip(s):
    """Reference PSD projection: the full `eigh` of the lower triangle, clipped at zero."""
    w, v = np.linalg.eigh(s)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def with_spectrum(rng, eigenvalues):
    """A Hermitian matrix with the given eigenvalues and random eigenvectors."""
    v, _ = np.linalg.qr(random_complex(rng, len(eigenvalues), len(eigenvalues)))
    return (v * np.asarray(eigenvalues)) @ v.conj().T


def project(s):
    return _psd_project(s, np.full(s.shape, np.nan, dtype=complex))


def relative_error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestPsdProject:
    @pytest.mark.parametrize("n", (3, 9, 25, 47))
    def test_matches_full_eigh_clip(self, n):
        rng = np.random.default_rng(200 + n)
        s = random_complex(rng, n, n)  # not Hermitian: the projection reads its lower triangle
        assert relative_error(project(s), eigh_clip(s)) < 1e-12

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(6)
        s = with_spectrum(rng, [2.0, 0.5] + [-1.0] * 10)
        scrambled = s.copy()
        upper = np.triu_indices(12, 1)
        scrambled[upper] = random_complex(rng, len(upper[0]))
        kept = scrambled.copy()
        assert np.array_equal(project(scrambled), project(s))
        assert np.array_equal(scrambled, kept)  # the argument is not written

    def test_no_positive_eigenvalue_gives_zero(self):
        s = with_spectrum(np.random.default_rng(1), -np.linspace(0.1, 3.0, 25))
        assert np.array_equal(project(s), np.zeros_like(s))

    def test_two_positive_eigenvalues(self):
        s = with_spectrum(np.random.default_rng(2), [2.0, 0.5] + [-1.0] * 45)
        p = project(s)
        assert relative_error(p, eigh_clip(s)) < 1e-12
        assert np.count_nonzero(np.linalg.eigvalsh(p) > 1e-12) == 2

    def test_all_positive_is_identity(self):
        s = with_spectrum(np.random.default_rng(3), np.linspace(0.1, 3.0, 25))
        assert relative_error(project(s), s) < 1e-12

    def test_driver_failure_takes_full_decomposition(self, monkeypatch):
        def failed(a, **kwargs):
            n = len(a)
            return np.zeros(n), np.zeros((n, n), dtype=complex), 0, np.zeros(2 * n), 1

        monkeypatch.setattr(anm, "zheevr", failed)
        s = with_spectrum(np.random.default_rng(4), [2.0, 0.5] + [-1.0] * 7)
        assert relative_error(project(s), eigh_clip(s)) < 1e-12

    @pytest.mark.parametrize("entry, value", [((1, 2), np.nan), ((0, 0), np.inf)])
    def test_non_finite_block_is_not_projected_to_zero(self, entry, value):
        # (1, 2) lies in the unread upper triangle; the block is refused anyway
        s = with_spectrum(np.random.default_rng(5), [-1.0] * 9)
        s[entry] = value
        with pytest.raises(np.linalg.LinAlgError):
            project(s)


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLapackExtension:
    """anm loads scipy's _flapack itself; its routines are scipy.linalg.lapack's."""

    @pytest.mark.parametrize("n", (9, 40, 47))
    def test_zheevr_matches_scipy_linalg(self, n):
        rng = np.random.default_rng(700 + n)
        a = random_complex(rng, n, n)
        s = (a + a.conj().T) / 2
        ours = anm.zheevr(s, range="V", vl=0.0, vu=np.inf, lower=1)
        theirs = lapack.zheevr(s, range="V", vl=0.0, vu=np.inf, lower=1)
        (w, v, m, isuppz, info), (w_ref, v_ref, m_ref, isuppz_ref, info_ref) = ours, theirs
        assert (m, info) == (m_ref, info_ref) and info == 0 and 0 < m < n
        # only the first m eigenpairs and 2m support indices are outputs
        assert bitwise_equal(w[:m], w_ref[:m])
        assert bitwise_equal(v[:, :m], v_ref[:, :m])
        assert bitwise_equal(isuppz[: 2 * m], isuppz_ref[: 2 * m])

    def test_dposv_matches_scipy_linalg(self):
        rng = np.random.default_rng(8)
        d = rng.standard_normal((12, 40))
        gram = d @ d.T + 1e-10 * np.eye(12)
        rhs = rng.standard_normal(12)
        ours = anm.dposv(gram, rhs)
        theirs = lapack.dposv(gram, rhs)
        assert ours[2] == theirs[2] == 0
        assert all(bitwise_equal(a, b) for a, b in zip(ours, theirs))

    def test_missing_extension_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(anm.scipy, "__file__", str(tmp_path / "__init__.py"))
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            anm._load_flapack()


class TestAtomicNorm:
    def test_unit_atoms(self):
        rng = np.random.default_rng(21)
        n = 20
        for f in rng.uniform(0.0, 1.0, 8):
            x = make_signal(n, [f], [1.0])
            assert atomic_norm(x) == pytest.approx(1.0, abs=1e-4)

    def test_homogeneity(self):
        n = 16
        x1 = make_signal(n, [0.31], [1.0])
        xc = make_signal(n, [0.31], [-2.3 + 1.1j])
        scale = abs(-2.3 + 1.1j)
        assert atomic_norm(xc) == pytest.approx(scale * atomic_norm(x1), rel=1e-4)

    def test_two_separated_atoms_sum(self):
        n = 32
        x = make_signal(n, [0.15, 0.6], [1.2, 0.8])
        assert atomic_norm(x) == pytest.approx(2.0, rel=0.01)

    def test_zero_signal(self):
        x = make_signal(8, [0.2], [0.0])
        assert atomic_norm(x) == 0.0


class TestAtomicDenoise:
    def test_zero_signal(self):
        # returned as is, without iterating and so with no warm state
        y = make_signal(8, [0.1], [0.0])
        sol = atomic_denoise(y, AnmConfig(tau=0.1))
        for vec in (sol.x_hat, sol.dual, sol.toeplitz_vec):
            np.testing.assert_array_equal(vec, np.zeros(8))
        assert (sol.iterations, sol.converged, sol.tau) == (0, True, 0.1)
        assert sol.primal_residual == sol.dual_residual == 0.0
        assert sol.objective == sol.atomic_norm_value == 0.0
        assert sol.w_state is None and sol.rho_state is None

    @pytest.mark.filterwarnings("ignore:n = .*separation guarantees")
    @pytest.mark.parametrize("n", (3, 8, 24, 47))
    def test_solve_runs_in_units_of_the_signal_norm(self, n):
        # scaling y and tau by a power of two scales y / ||y|| and tau / ||y||
        # by exactly one, so the iterates are the same and x_hat scales exactly
        rng = np.random.default_rng(600 + n)
        samples = atoms(n, rng.uniform(0, 1, 3)) @ random_complex(rng, 3)
        samples = samples + 0.05 * random_complex(rng, n)
        tau = 0.05 * float(np.linalg.norm(samples))
        grid = SamplingGrid(0.0, n, 1.0)
        sol = atomic_denoise(TimeSignal(grid, samples, CANONICAL), AnmConfig(tau=tau))
        big = atomic_denoise(TimeSignal(grid, 4.0 * samples, CANONICAL), AnmConfig(tau=4.0 * tau))
        assert sol.converged and big.converged
        np.testing.assert_array_equal(big.x_hat, 4.0 * sol.x_hat)
        np.testing.assert_array_equal(big.dual, sol.dual)
        assert big.iterations == sol.iterations

    @pytest.mark.filterwarnings("ignore:n = .*separation guarantees")
    @pytest.mark.parametrize("n", (3, 8, 24, 47))
    def test_warm_start_from_own_solution_stops_at_once(self, n):
        # the warm state is the converged iterate and its rho, so the first
        # plain step from it already meets every stop test
        rng = np.random.default_rng(700 + n)
        samples = atoms(n, rng.uniform(0, 1, 3)) @ random_complex(rng, 3)
        samples = samples + 0.05 * random_complex(rng, n)
        y = TimeSignal(SamplingGrid(0.0, n, 1.0), samples, CANONICAL)
        cfg = AnmConfig(tau=0.05 * float(np.linalg.norm(samples)))
        cold = atomic_denoise(y, cfg)
        again = atomic_denoise(y, cfg, warm=cold)
        assert cold.converged and cold.iterations > 1
        assert again.converged and again.iterations == 1

    def test_single_atom_shrinkage(self):
        # closed form: x_hat = (1 - tau/(n|c|)) c a(f)
        n, f, c = 16, 0.42, 2.0
        y = make_signal(n, [f], [c])
        tau = 0.5
        sol = atomic_denoise(y, AnmConfig(tau=tau))
        expected = (1.0 - tau / (n * c)) * y.samples
        np.testing.assert_allclose(sol.x_hat, expected, atol=1e-5)
        peaks = locate_peaks(sol)
        assert len(peaks) == 1
        assert peaks[0] == pytest.approx(f, abs=1e-6)

    def test_noiseless_atom_norm_reduction(self):
        y = make_signal(24, [0.3], [1.5])
        sol = atomic_denoise(y, AnmConfig(tau=0.2))
        assert np.linalg.norm(y.samples - sol.x_hat) <= 0.2 / np.sqrt(24) * 10

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="need at least two samples"):
            y = TimeSignal(SamplingGrid(0.0, 1, 1.0), np.ones(1), CANONICAL)
            atomic_denoise(y, AnmConfig(tau=0.1))

    def test_degenerate_sample_counts_warn_but_run(self):
        y = make_signal(3, [0.3], [1.0])
        with pytest.warns(UserWarning, match="separation guarantees"):
            sol = atomic_denoise(y, AnmConfig(tau=0.1))
        assert sol.x_hat.shape == (3,)

    def test_physical_domain_rejected(self):
        y = TimeSignal(SamplingGrid(0.0, 4, 1.0), np.ones(4), "physical")
        with pytest.raises(ValueError):
            atomic_denoise(y, AnmConfig(tau=0.1))

    def test_tau_policy_rejected(self):
        # the pipeline resolves "ladder" and "path"; the solver needs a number
        with pytest.raises(ValueError, match="numeric tau"):
            atomic_denoise(make_signal(8, [0.3], [1.0]), AnmConfig(tau="ladder"))

    def test_objective_below_trivial_points(self):
        rng = np.random.default_rng(3)
        n = 24
        y_samples = atoms(n, [0.2, 0.5]) @ np.array([1.0, 0.7]) + 0.05 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        y = TimeSignal(SamplingGrid(0.0, n, 1.0), y_samples, CANONICAL)
        tau = select_tau(0.05, n)
        sol = atomic_denoise(y, AnmConfig(tau=tau))
        assert np.isfinite(sol.objective)
        obj_at_y = tau * atomic_norm(y)
        obj_at_zero = 0.5 * np.linalg.norm(y.samples) ** 2
        assert sol.objective <= obj_at_y * (1 + 1e-3)
        assert sol.objective <= obj_at_zero

    def test_shrinkage_never_increases_atomic_norm(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            n = 20
            freqs = rng.uniform(0, 1, 2)
            coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y_samples = atoms(n, freqs) @ coeffs + 0.1 * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            y = TimeSignal(SamplingGrid(0.0, n, 1.0), y_samples, CANONICAL)
            sol = atomic_denoise(y, AnmConfig(tau=0.5))
            x_hat = TimeSignal(SamplingGrid(0.0, n, 1.0), sol.x_hat, CANONICAL)
            assert atomic_norm(x_hat) <= atomic_norm(y) * (1 + 1e-3)


def relative_duality_gap(y: TimeSignal, sol) -> float:
    # the dual vector scaled into the dual-norm ball gives a feasible point
    # of max_z tau Re<z, y> - tau^2 ||z||^2 / 2 s.t. sup_f |<a(f), z>| <= 1
    z = sol.dual / max(1.0, float(np.max(np.abs(np.fft.fft(sol.dual, 65536)))))
    dual_value = sol.tau * np.real(np.vdot(z, y.samples)) - 0.5 * sol.tau**2 * np.vdot(z, z).real
    return abs(sol.objective - dual_value) / sol.objective


class TestDualityGap:
    @pytest.mark.filterwarnings("ignore:n = .*separation guarantees")
    @pytest.mark.parametrize("warm", (False, True))
    @pytest.mark.parametrize("n", (2, 3, 8, 24, 47))
    def test_default_tolerance_closes_gap(self, n, warm):
        rng = np.random.default_rng(900 + n)
        samples = atoms(n, rng.uniform(0, 1, 3)) @ random_complex(rng, 3)
        samples = samples + 0.05 * random_complex(rng, n)
        y = TimeSignal(SamplingGrid(0.0, n, 1.0), samples, CANONICAL)
        tau = 0.05 * float(np.linalg.norm(samples))
        prior = atomic_denoise(y, AnmConfig(tau=2.0 * tau)) if warm else None
        sol = atomic_denoise(y, AnmConfig(tau=tau), warm=prior)
        assert sol.converged
        assert relative_duality_gap(y, sol) <= 1e-6

    def test_warm_start_of_another_size_raises(self):
        cfg = AnmConfig(tau=0.1)
        prior = atomic_denoise(make_signal(12, [0.3], [1.0]), cfg)
        with pytest.raises(ValueError, match="12 samples, the data 8"):
            atomic_denoise(make_signal(8, [0.3], [1.0]), cfg, warm=prior)


def hermitian(rng, size):
    a = random_complex(rng, size, size)
    return a + a.conj().T


class TestAcceleration:
    @pytest.mark.parametrize("size", (2, 3, 9, 48))
    def test_packed_products_are_frobenius(self, size):
        rng = np.random.default_rng(300 + size)
        a, b = hermitian(rng, size), hermitian(rng, size)
        _, weight, _, _ = _packed_index(size - 1)
        assert len(weight) == size**2
        # Re tr(A^H B)
        expected = np.vdot(a, b).real
        assert pack(a) @ (weight * pack(b)) == pytest.approx(expected, rel=1e-13)
        assert pack(a) @ (weight * pack(a)) == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-13)

    @pytest.mark.parametrize("size", (2, 3, 9, 48))
    def test_pack_then_unpack_keeps_lower_triangle(self, size):
        rng = np.random.default_rng(400 + size)
        a = random_complex(rng, size, size)  # not Hermitian: only the lower triangle is packed
        index = _packed_index(size - 1)[0]
        assert len(np.unique(index)) == len(index) == size**2
        back = np.zeros_like(a)
        back.reshape(-1).view(np.float64)[index] = pack(a)
        below = np.tril_indices(size, -1)
        assert np.array_equal(back[below], a[below])
        assert np.array_equal(np.diagonal(back), np.diagonal(a).real)
        assert not np.triu(back, 1).any()

    def test_failed_gram_solve_takes_plain_step(self, monkeypatch):
        # with every Gram factorization failing, each iteration is the plain
        # ADMM step, which must reach the accelerated solve's optimum
        n = 12
        rng = np.random.default_rng(900 + n)
        samples = atoms(n, rng.uniform(0, 1, 3)) @ random_complex(rng, 3)
        samples = samples + 0.05 * random_complex(rng, n)
        y = TimeSignal(SamplingGrid(0.0, n, 1.0), samples, CANONICAL)
        cfg = AnmConfig(tau=0.05 * float(np.linalg.norm(samples)))
        accelerated = atomic_denoise(y, cfg)
        calls = []

        def failed(a, b):
            calls.append(len(b))
            return a, b, 1

        monkeypatch.setattr(anm, "dposv", failed)
        plain = atomic_denoise(y, cfg)
        assert calls
        assert accelerated.converged and plain.converged
        assert plain.iterations > accelerated.iterations
        bound = 100 * anm._TOL * float(np.linalg.norm(samples))
        np.testing.assert_allclose(plain.x_hat, accelerated.x_hat, rtol=0, atol=bound)
        assert plain.objective == pytest.approx(accelerated.objective, rel=1e-9)

    def test_cold_solve_iteration_budget(self):
        # the two_sided_shots cell at t_max = 0.45 (n = 46), shot seed 0, at
        # the ladder's top rung: a memory of 25 differences converges in 128
        # iterations (20 took 113), and the budget allows about twice that; a
        # memory of 5 needed 552.  Counted, not timed, so machine load cannot
        # trip it
        signal_cfg = SignalConfig(
            evolver="trotter2", trotter_steps=2, t_max=0.45, t0=-0.45, n=46, shots=100000, seed=0
        )
        cfg = ExperimentConfig(signal=signal_cfg)
        signal = simulate_signal(cfg)
        y = to_canonical(signal, rescale_map_for_grid(cfg, signal.grid))
        sol = atomic_denoise(y, AnmConfig(tau=0.12 * float(np.linalg.norm(y.samples))))
        assert sol.converged
        assert sol.iterations <= 240

    def test_ladder_iteration_budget(self, monkeypatch):
        # every solve of the criterion-04 cell at t_max = 1.5 (trotter2, two
        # steps, noiseless, n = 39), the one window_curve spends most on: its
        # tau ladder needs 1,900 iterations with a memory of 25 differences
        # and 2,495 with 20, and the budget sits about 10% above 1,900.
        # Counted, not timed
        iterations = []
        solve = anm.atomic_denoise

        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(anm, "atomic_denoise", counted)
        config = ExperimentConfig(
            signal=SignalConfig(evolver="trotter2", trotter_steps=2, t_max=0.27, n=8),
            anm=AnmConfig(tau="ladder"),
        )
        (cell,) = run_sweep(config, [1.5], [0], ("anm",), ("trotter2_noiseless",))
        assert cell.n == 39 and cell.converged and cell.error is None
        assert sum(iterations) <= 2100


class TestDualPolynomial:
    def test_huge_tau_zeroes_dual(self):
        y = make_signal(12, [0.3], [1.0])
        sol = atomic_denoise(y, AnmConfig(tau=1e6))
        grid = dual_polynomial_grid(sol)
        assert np.max(grid) < 1e-4

    def test_certificate_bound_on_fine_grid(self):
        rng = np.random.default_rng(5)
        n = 24
        y_samples = atoms(n, [0.22, 0.61]) @ np.array([1.0, 0.9]) + 0.02 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        y = TimeSignal(SamplingGrid(0.0, n, 1.0), y_samples, CANONICAL)
        sol = atomic_denoise(y, AnmConfig(tau=select_tau(0.02, n)))
        assert sol.converged
        assert np.max(np.abs(np.fft.fft(sol.dual, 2**14))) <= 1.0 + 1e-3

    def test_peaks_at_true_frequencies(self):
        n = 32
        f1, f2 = 0.2, 0.55
        y = make_signal(n, [f1, f2], [1.0, 0.8])
        cfg = AnmConfig(tau=0.02 * np.sqrt(n))
        sol = atomic_denoise(y, cfg)
        peaks = locate_peaks(sol)
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(f1, abs=1e-3)
        assert peaks[1] == pytest.approx(f2, abs=1e-3)


class TestTranslationCovariance:
    def test_modulation_shifts_peaks(self):
        n = 24
        f1, f2 = 0.18, 0.52
        g = 0.31
        y = make_signal(n, [f1, f2], [1.0, 0.7])
        cfg = AnmConfig(tau=0.05 * np.sqrt(n))
        shifted_samples = y.samples * np.exp(2j * np.pi * g * np.arange(n))
        y_shift = TimeSignal(y.grid, shifted_samples, CANONICAL)
        peaks = locate_peaks(atomic_denoise(y, cfg))
        peaks_shift = locate_peaks(atomic_denoise(y_shift, cfg))
        assert len(peaks) == len(peaks_shift) == 2
        for f in peaks:
            target = (f + g) % 1.0
            assert min(abs(target - fs) % 1.0 for fs in peaks_shift) < 1e-4


class TestLocatePeaks:
    def test_empty_for_pure_shrinkage(self):
        # tau far above n |c| shrinks the signal to zero: no peaks
        y = make_signal(8, [0.3], [0.01])
        cfg = AnmConfig(tau=10.0)
        sol = atomic_denoise(y, cfg)
        assert locate_peaks(sol) == []

    def test_one_atom_gives_one_peak(self):
        n = 16
        y = make_signal(n, [0.5], [1.0])
        sol = atomic_denoise(y, AnmConfig(tau=0.05))
        peaks = locate_peaks(sol)
        assert len(peaks) == 1

    def test_reads_only_the_lower_triangle_and_real_diagonal(self):
        # T(u) is gathered as u[i - j] over the whole square, so its upper
        # triangle holds wrapped entries of u; the atoms must come from the
        # lower triangle and the real diagonal alone, which an imaginary part
        # of u[0], one no Hermitian T(u) can carry, must not move
        y = make_signal(16, [0.2, 0.55], [1.0, 0.6])
        sol = atomic_denoise(y, AnmConfig(tau=0.05))
        peaks = locate_peaks(sol)
        assert len(peaks) == 2
        u = sol.toeplitz_vec.copy()
        u[0] += 0.5j * abs(u[0])
        assert locate_peaks(replace(sol, toeplitz_vec=u)) == peaks

    @pytest.mark.filterwarnings("ignore:n = .*separation guarantees")
    def test_stable_across_solver_tolerances(self, monkeypatch):
        # criterion 04 configuration at t_max = 0.1 (n = 3) and its chosen tau:
        # the atoms of T(u) must not move with where inside its tolerance a
        # solve stopped
        cfg = ExperimentConfig(signal=SignalConfig(evolver="trotter2", t_max=0.1, n=3))
        signal = simulate_signal(cfg)
        y = to_canonical(signal, rescale_map_for_grid(cfg, signal.grid))
        runs = []
        for tol in (1e-7, 1e-9, 1e-11):
            monkeypatch.setattr(anm, "_TOL", tol)
            runs.append(locate_peaks(atomic_denoise(y, AnmConfig(tau=0.0051794))))
        assert len(runs[0]) > 0
        for peaks in runs[1:]:
            assert len(peaks) == len(runs[0])
            np.testing.assert_allclose(peaks, runs[0], rtol=0, atol=1e-5)

    def test_stable_under_toeplitz_perturbation(self):
        # criterion 04 configuration at t_max = 1.15 (n = 30), a 7-atom T(u):
        # a change of u at solver round-off must not move the atoms
        cfg = ExperimentConfig(signal=SignalConfig(evolver="trotter2", t_max=1.15, n=30))
        signal = simulate_signal(cfg)
        y = to_canonical(signal, rescale_map_for_grid(cfg, signal.grid))
        sol = atomic_denoise(y, AnmConfig(tau=0.0121407))
        assert sol.converged
        peaks = locate_peaks(sol)
        assert len(peaks) == 7
        u = sol.toeplitz_vec
        rng = np.random.default_rng(0)
        for _ in range(3):
            d = random_complex(rng, len(u))
            d *= 1e-10 * np.linalg.norm(u) / np.linalg.norm(d)
            moved = locate_peaks(replace(sol, toeplitz_vec=u + d))
            assert len(moved) == len(peaks)
            assert max(map(_wrap_distance, moved, peaks)) <= 1e-6

    def test_count_independent_of_solver_tolerance(self, monkeypatch):
        # criterion 10 instance (gap 0.1, n = 25, 20 dB SNR, seed 0): the rank
        # cut follows the solve's residual, so solver noise in a loose solve's
        # T(u) does not count as atoms
        n = 25
        rng = np.random.default_rng(1000)
        f1 = rng.uniform(0.0, 1.0)
        c = rng.uniform(0.5, 1.5, 2)
        x = atoms(n, [f1, (f1 + 0.1) % 1.0]) @ c
        sigma = np.sqrt(np.mean(np.abs(x) ** 2) / 100.0)
        noise = random_complex(rng, n) * sigma / np.sqrt(2)
        y = TimeSignal(SamplingGrid(0.0, n, 1.0), x + noise, CANONICAL)
        cfg = AnmConfig(tau=select_tau(sigma, n))
        counts = []
        for tol in (1e-6, 1e-10):
            monkeypatch.setattr(anm, "_TOL", tol)
            counts.append(len(locate_peaks(atomic_denoise(y, cfg))))
        assert counts == [2, 2]

    def test_full_rank_toeplitz_of_capped_solve(self, monkeypatch):
        # a solve stopped short of the optimum can leave T(u) full rank or
        # indefinite.  Three iterations from the zero state leave it
        # indefinite; the samples' biased autocorrelation, put in its place, is
        # a u whose T(u) is positive definite for any nonzero data
        n = 8
        rng = np.random.default_rng(0)
        samples = atoms(n, [0.2, 0.5]) @ np.array([1.0, 0.7]) + 0.05 * random_complex(rng, n)
        y = TimeSignal(SamplingGrid(0.0, n, 1.0), samples, CANONICAL)
        monkeypatch.setattr(AnmConfig, "max_iters", 3)
        capped = atomic_denoise(y, AnmConfig(tau=0.3))
        assert not capped.converged
        autocorr = np.array([samples[k:] @ np.conj(samples[: n - k]) for k in range(n)]) / n
        full = replace(capped, toeplitz_vec=autocorr)
        full_eig, capped_eig = (
            np.linalg.eigvalsh(toeplitz(sol.toeplitz_vec, np.conj(sol.toeplitz_vec)))
            for sol in (full, capped)
        )
        assert full_eig[0] > 1e-8 * full_eig[-1]  # rank n
        assert capped_eig[0] < 0.0 < capped_eig[-1]  # indefinite
        for sol in (full, capped):
            peaks = locate_peaks(sol)
            assert len(peaks) <= n - 1
            assert len(set(peaks)) == len(peaks)
            assert all(0.0 <= f < 1.0 for f in peaks)
        assert len(locate_peaks(full)) > 0

    def test_full_rank_toeplitz_of_converged_solve(self):
        # pure noise at a weak tau: the optimal T(u) itself has rank n, and the
        # rank cap leaves n - 1 leading eigenvectors, so n - 1 frequencies
        n = 4
        rng = np.random.default_rng(7)
        y = TimeSignal(SamplingGrid(0.0, n, 1.0), random_complex(rng, n), CANONICAL)
        sol = atomic_denoise(y, AnmConfig(tau=1e-3))
        assert sol.converged
        eig = np.linalg.eigvalsh(toeplitz(sol.toeplitz_vec, np.conj(sol.toeplitz_vec)))
        assert eig[0] > 1e-2 * eig[-1]
        peaks = locate_peaks(sol)
        assert len(peaks) == n - 1
        assert all(0.0 <= f < 1.0 for f in peaks)


class TestRecoverAmplitudes:
    def test_exact_single_atom(self):
        y = make_signal(16, [0.3], [2.0])
        coeffs = recover_amplitudes(y, [0.3])
        assert coeffs[0] == pytest.approx(2.0, abs=1e-12)

    def test_spurious_frequency_gets_zero_weight(self):
        y = make_signal(32, [0.2, 0.6], [1.0, 0.5])
        coeffs = recover_amplitudes(y, [0.2, 0.6, 0.83])
        assert abs(coeffs[2]) < 1e-6

    def test_near_coincident_frequencies_reported(self):
        y = make_signal(16, [0.3], [1.0])
        with pytest.raises(ValueError, match="0.3"):
            recover_amplitudes(y, [0.3, 0.3 + 1e-14])

    def test_more_atoms_than_samples_rejected(self):
        y = make_signal(4, [0.3], [1.0])
        with pytest.raises(ValueError):
            recover_amplitudes(y, [0.1, 0.2, 0.3, 0.4, 0.5])


class TestGridOracleAgreement:
    def test_sdp_objective_matches_gridded_l1(self):
        # the grid restricts the dictionary, so its objective upper-bounds
        # the continuous one; agreement within half a percent
        rng = np.random.default_rng(77)
        n = 24
        for trial in range(3):
            freqs = rng.uniform(0, 1, 2)
            while min(abs(freqs[0] - freqs[1]) % 1, 1 - abs(freqs[0] - freqs[1]) % 1) < 0.1:
                freqs = rng.uniform(0, 1, 2)
            coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            noise = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            y_samples = atoms(n, freqs) @ coeffs + noise
            y = TimeSignal(SamplingGrid(0.0, n, 1.0), y_samples, CANONICAL)
            tau = select_tau(0.05, n)
            sol = atomic_denoise(y, AnmConfig(tau=tau))
            grid_obj = lasso_objective_oracle(y.samples, tau)
            assert sol.objective <= grid_obj * (1 + 1e-4)
            assert grid_obj - sol.objective <= 0.005 * grid_obj

    def test_fft_oracle_matches_dense_dictionary(self):
        # the oracle applies A and A^H by FFT; the same FISTA on the dense
        # Fourier matrix, kept here as the reference, reaches the same objective
        rng = np.random.default_rng(5)
        n, grid_size, iters, tau = 12, 64, 300, 0.3
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a_mat = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(grid_size) / grid_size))
        c = z = np.zeros(grid_size, dtype=complex)
        t_acc = 1.0
        for _ in range(iters):
            w = z - a_mat.conj().T @ (a_mat @ z - y) / grid_size
            mag = np.maximum(np.abs(w), 1e-300)
            c_new = w * np.maximum(0.0, 1.0 - tau / grid_size / mag)
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2)) / 2.0
            z = c_new + ((t_acc - 1.0) / t_new) * (c_new - c)
            c, t_acc = c_new, t_new
        dense = 0.5 * np.linalg.norm(a_mat @ c - y) ** 2 + tau * np.sum(np.abs(c))
        assert lasso_objective_oracle(y, tau, grid_size, iters) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: select_tau(-1.0, 8), "sigma must be non-negative"),
        (lambda: atomic_norm(TimeSignal(SamplingGrid(t0=0.0, n=4, dt=1.0), np.ones(4))),
         "atomic_norm expects a canonical-domain signal"),
        (lambda: recover_amplitudes(make_signal(8, [0.1], [1.0]), [0.1, 0.1]),
         "frequencies must be distinct"),
    ],
    ids=["negative-sigma", "physical-signal", "repeated-frequency"],
)
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
