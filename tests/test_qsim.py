import numpy as np
import pytest
from scipy.linalg import expm

from greenspec import qsim
from greenspec.qsim import (
    ModelParams,
    PauliHamiltonian,
    PauliString,
    ShotConfig,
    StateVector,
    build_hamiltonians,
    exact_evolve,
    green_general,
    green_sym,
    hadamard_test,
    mitigate_gate_error,
    prepare_ground_state,
    spectral_oracle,
    trotter2_evolve,
)
from greenspec.spectrum import SamplingGrid, TimeSignal, synthesize_signal

PARAMS = ModelParams(4.0, 0.745)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def kron(*ops):
    out = np.array([[1.0 + 0j]])
    for o in ops:
        out = np.kron(out, o)
    return out


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v))


class TestPauliAlgebra:
    def test_string_matrix_matches_kron(self):
        s = PauliString(("Z", "X", "Y"))
        np.testing.assert_allclose(s.matrix(), kron(SZ, SX, SY), atol=1e-15)

    def test_controlled_gates_match_kron_blocks(self):
        # ancilla (MSB) |1><1| selects sigma on site 1, |0><0| leaves the row alone
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        rng = np.random.default_rng(0)
        rows = np.array([random_state(rng, 8).amplitudes for _ in range(3)])
        for letter, sigma in (("X", SX), ("Y", SY)):
            c = kron(p0, I2, I2) + kron(p1, sigma, I2)
            got = rows @ qsim._CONTROLLED_SITE1_T[letter]
            np.testing.assert_allclose(got, (c @ rows.T).T, atol=1e-15)

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            PauliString(("Q",))

    def test_hamiltonian_is_hermitian(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        m = h_eff.matrix()
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)


class TestBuildHamiltonians:
    def test_effective_coefficients(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        assert {str(s): c for c, s in h_eff.terms} == {
            "IZZ": 1.0,
            "IIX": 0.745,
            "IXI": 0.3725,
            "ZXI": 0.3725,
        }

    def test_zero_parameters_give_zero_hamiltonians(self):
        h_gs, h_ex, h_eff = build_hamiltonians(ModelParams(0.0, 0.0))
        for h in (h_gs, h_ex, h_eff):
            np.testing.assert_allclose(h.matrix(), 0.0, atol=1e-15)

    def test_ancilla_blocks_select_sector_hamiltonians(self):
        # independently constructed matrices: ancilla |0> block must equal the
        # ground-sector Hamiltonian, ancilla |1> block the excited-sector one
        u, v = PARAMS.u, PARAMS.v
        m_gs = u / 4 * kron(SZ, SZ) + v * (kron(SX, I2) + kron(I2, SX))
        m_ex = u / 4 * kron(SZ, SZ) + v * kron(I2, SX)
        _, _, h_eff = build_hamiltonians(PARAMS)
        m_eff = h_eff.matrix()
        np.testing.assert_allclose(m_eff[:4, :4], m_gs, atol=1e-14)
        np.testing.assert_allclose(m_eff[4:, 4:], m_ex, atol=1e-14)
        np.testing.assert_allclose(m_eff[:4, 4:], 0.0, atol=1e-14)


class TestGroundState:
    def test_matches_exact_diagonalization(self):
        h_gs, _, _ = build_hamiltonians(PARAMS)
        w, v = np.linalg.eigh(h_gs.matrix())
        gs = prepare_ground_state(PARAMS)
        fidelity = abs(np.vdot(v[:, 0], gs.amplitudes)) ** 2
        assert fidelity >= 1.0 - 1e-10

    def test_zero_interaction_angle(self):
        gs = prepare_ground_state(ModelParams(0.0, 1.0))
        # a = 1 and theta = -pi/2: amplitudes (c, s, s, c)/sqrt2
        c = np.cos(-np.pi / 4) / np.sqrt(2)
        s = np.sin(-np.pi / 4) / np.sqrt(2)
        np.testing.assert_allclose(gs.amplitudes, [c, s, s, c], atol=1e-12)

    def test_unit_norm(self):
        gs = prepare_ground_state(PARAMS)
        assert np.linalg.norm(gs.amplitudes) == pytest.approx(1.0, abs=1e-13)

    def test_zero_hopping_rejected(self):
        with pytest.raises(ValueError):
            prepare_ground_state(ModelParams(1.0, 0.0))


class TestEvolvers:
    def test_zero_time_is_identity(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        rng = np.random.default_rng(3)
        psi = random_state(rng, 8)
        for out in (exact_evolve(h_eff, 0.0, psi), trotter2_evolve(h_eff, 0.0, 2, psi)):
            np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-13)

    def test_exact_evolution_reverses(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        rng = np.random.default_rng(4)
        psi = random_state(rng, 8)
        back = exact_evolve(h_eff, -1.3, exact_evolve(h_eff, 1.3, psi))
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-12)

    def test_exact_matches_expm_oracle(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        rng = np.random.default_rng(5)
        psi = random_state(rng, 8)
        expected = expm(-1j * h_eff.matrix() * 0.77) @ psi.amplitudes
        np.testing.assert_allclose(
            exact_evolve(h_eff, 0.77, psi).amplitudes, expected, atol=1e-12
        )

    def test_eigenstate_acquires_phase_only(self):
        h_gs, _, _ = build_hamiltonians(PARAMS)
        w, v = np.linalg.eigh(h_gs.matrix())
        psi = StateVector(v[:, 1])
        out = exact_evolve(h_gs, 0.9, psi)
        np.testing.assert_allclose(
            out.amplitudes, np.exp(-1j * w[1] * 0.9) * psi.amplitudes, atol=1e-12
        )

    def test_unitarity(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        rng = np.random.default_rng(6)
        psi = random_state(rng, 8)
        for t in (0.1, 0.7, 2.3):
            for out in (
                exact_evolve(h_eff, t, psi),
                trotter2_evolve(h_eff, t, 2, psi),
            ):
                assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_terms_are_exact(self):
        h = PauliHamiltonian(
            terms=(
                (0.7, PauliString(("Z", "I"))),
                (0.4, PauliString(("Z", "Z"))),
                (0.2, PauliString(("I", "Z"))),
            ),
            qubit_count=2,
        )
        rng = np.random.default_rng(7)
        psi = random_state(rng, 4)
        exact = exact_evolve(h, 1.9, psi)
        trotter = trotter2_evolve(h, 1.9, 1, psi)
        np.testing.assert_allclose(trotter.amplitudes, exact.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_trotter2_matches_expm_product(self, steps):
        # per step: each term's exponential at half the step in term order,
        # then again in reversed order
        _, _, h_eff = build_hamiltonians(PARAMS)
        rng = np.random.default_rng(9)
        psi = random_state(rng, 8)
        times = np.array([0.3, -0.7, 1.9])
        got = trotter2_evolve(h_eff, times, steps, psi).amplitudes
        for t, row in zip(times, got):
            half = [expm(-1j * c * s.matrix() * t / steps / 2) for c, s in h_eff.terms]
            step = np.eye(8)
            for factor in half + half[::-1]:
                step = factor @ step
            expected = np.linalg.matrix_power(step, steps) @ psi.amplitudes
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-13)

    def test_second_order_scaling(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        rng = np.random.default_rng(8)
        psi = random_state(rng, 8)
        exact = exact_evolve(h_eff, 1.0, psi).amplitudes
        steps = np.array([1, 2, 4, 8, 16])
        errs = [
            np.linalg.norm(trotter2_evolve(h_eff, 1.0, int(r), psi).amplitudes - exact)
            for r in steps
        ]
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.3)


class TestHadamardTest:
    def test_time_zero_xx(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        (e_z,), (e_my,) = hadamard_test(h_eff, gs, "X", "X", 0.0)
        assert e_z == pytest.approx(1.0, abs=1e-12)
        assert e_my == pytest.approx(0.0, abs=1e-12)

    def test_expectations_in_unit_disc(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        e_z, e_my = hadamard_test(h_eff, gs, "X", "Y", np.linspace(-2.0, 2.0, 11))
        assert np.all(e_z**2 + e_my**2 <= 1.0 + 1e-12)

    def test_matches_ancilla_free_statevector_oracle(self):
        # <GS| e^{+i H_gs t} sigma_beta e^{-i H_ex t} sigma_alpha |GS>
        # computed directly with expm on the two-qubit register
        h_gs, h_ex, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        mats = {"X": kron(SX, I2), "Y": kron(SY, I2)}
        for alpha, beta in (("X", "X"), ("X", "Y"), ("Y", "X"), ("Y", "Y")):
            for t in (0.3, 1.1):
                # vdot conjugates its first argument, so the bra evolves forward
                bra = expm(-1j * h_gs.matrix() * t) @ gs.amplitudes
                ket = mats[beta] @ expm(-1j * h_ex.matrix() * t) @ mats[alpha] @ gs.amplitudes
                expected = np.vdot(bra, ket)
                (e_z,), (e_my,) = hadamard_test(h_eff, gs, alpha, beta, t)
                got = complex(e_z, e_my)
                assert got == pytest.approx(expected, abs=1e-10)

    def test_invalid_pauli_rejected(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        with pytest.raises(ValueError):
            hadamard_test(h_eff, gs, "Z", "X", 0.1)

    def test_shot_estimates_deterministic_per_seed(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        shot = ShotConfig(shots=500, seed=9)
        a = np.concatenate(hadamard_test(h_eff, gs, "X", "X", 0.4, shot=shot))
        b = np.concatenate(hadamard_test(h_eff, gs, "X", "X", 0.4, shot=shot))
        assert np.array_equal(a, b)
        other = ShotConfig(shots=500, seed=10)
        c = np.concatenate(hadamard_test(h_eff, gs, "X", "X", 0.4, shot=other))
        assert not np.array_equal(c, a)

    def test_shot_estimator_is_unbiased(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        t = 0.6
        (exact,), _ = hadamard_test(h_eff, gs, "X", "X", t)
        shots = 400
        n_seeds = 300
        draws = [
            hadamard_test(h_eff, gs, "X", "X", t, shot=ShotConfig(shots, seed=s))[0][0]
            for s in range(n_seeds)
        ]
        std_err = np.sqrt((1 - exact**2) / shots / n_seeds)
        assert abs(np.mean(draws) - exact) <= 3.0 * std_err


class TestGreenFunctions:
    def test_sym_at_time_zero(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        assert green_sym(h_eff, gs, 0.0)[0] == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_sym_matches_printed_pole_table(self):
        # two positive poles with three-decimal weights (0.525, 0.548) and
        # (0.475, 3.042)
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        t = np.array([0.1, 0.5, 1.0])
        ref = 0.525 * np.exp(1j * 0.548 * t) + 0.475 * np.exp(1j * 3.042 * t)
        assert green_sym(h_eff, gs, t) == pytest.approx(ref, abs=2e-3)

    def test_sym_conjugation_symmetry(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        t = np.array([0.2, 0.9, 1.7])
        assert np.conj(green_sym(h_eff, gs, t)) == pytest.approx(green_sym(h_eff, gs, -t), abs=1e-12)

    def test_sym_equals_oracle_synthesis(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        spec = spectral_oracle(PARAMS)
        grid = SamplingGrid(t0=0.0, n=24, dt=0.21)
        reference = synthesize_signal(spec, grid)
        assert green_sym(h_eff, gs, grid.times()) == pytest.approx(reference.samples, abs=1e-10)

    def test_general_at_time_zero(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        assert green_general(h_eff, gs, 0.0)[0] == pytest.approx(2.0 + 0j, abs=1e-12)

    def test_general_two_sided_symmetry(self):
        # vanishing per-line Z expectation makes the two-sided signal even
        # up to conjugation
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        t = np.array([0.3, 1.2])
        fwd = green_general(h_eff, gs, t)
        bwd = green_general(h_eff, gs, -t)
        assert fwd == pytest.approx(np.conj(bwd), abs=1e-10)

    def test_general_matches_eigendecomposition_oracle(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        spec = spectral_oracle(PARAMS)
        t = np.array([-1.1, 0.4, 0.9])
        expected = sum(
            abs(p.amplitude)
            * (
                (1 + p.z_expect) * np.exp(-1j * p.frequency * t)
                + (1 - p.z_expect) * np.exp(1j * p.frequency * t)
            )
            for p in spec.poles
        )
        assert green_general(h_eff, gs, t) == pytest.approx(expected, abs=1e-10)

    def test_cross_term_antisymmetry(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        t = np.array([0.4, 1.3])
        yx_z, yx_my = hadamard_test(h_eff, gs, "X", "Y", t)
        xy_z, xy_my = hadamard_test(h_eff, gs, "Y", "X", t)
        assert yx_z + 1j * yx_my == pytest.approx(-(xy_z + 1j * xy_my), abs=1e-10)


# (t0, t_max, n) grids: one-sided from t = 0, two-sided through t = 0, n = 2
BATCH_GRIDS = [(0.0, 0.5, 13), (-0.4, 0.4, 21), (0.0, 0.3, 2), (-0.3, 0.3, 2)]


class TestBatchedTimes:
    @pytest.fixture(params=["exact", "trotter2"])
    def evolver(self, request):
        return request.param

    @pytest.fixture(params=[None, 100000])
    def shot(self, request):
        return ShotConfig(shots=request.param, seed=7)

    @pytest.fixture(params=BATCH_GRIDS, ids=lambda g: f"t0={g[0]}-n={g[2]}")
    def times(self, request):
        t0, t_max, n = request.param
        return SamplingGrid(t0, n, (t_max - t0) / (n - 1)).times()

    def test_hadamard_test_rows_match_scalar_calls(self, evolver, shot, times):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        for alpha, beta in (("X", "X"), ("Y", "Y"), ("X", "Y"), ("Y", "X")):
            e_z, e_my = hadamard_test(h_eff, gs, alpha, beta, times, evolver, 2, shot)
            scalar = [hadamard_test(h_eff, gs, alpha, beta, [t], evolver, 2, shot) for t in times]
            assert e_z.tobytes() == np.concatenate([z for z, _ in scalar]).tobytes()
            assert e_my.tobytes() == np.concatenate([my for _, my in scalar]).tobytes()

    @pytest.mark.parametrize("green", [green_sym, green_general])
    def test_green_rows_match_scalar_calls(self, green, evolver, shot, times):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        batched = green(h_eff, gs, times, evolver, 2, shot)
        scalar = np.concatenate([green(h_eff, gs, [t], evolver, 2, shot) for t in times])
        assert batched.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize(
        "green, expected", [(green_sym, 1), (green_general, 2)], ids=["sym", "general"]
    )
    def test_one_evolution_per_prepared_pauli(self, monkeypatch, evolver, green, expected):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        calls = []
        for name in ("exact_evolve", "trotter2_evolve"):
            original = getattr(qsim, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(qsim, name, counted)
        green(h_eff, gs, np.linspace(-0.5, 0.5, 41), evolver)
        assert len(calls) == expected

    def test_non_unit_row_rejected(self):
        rows = np.zeros((3, 4), dtype=complex)
        rows[:, 0] = [1.0, 1.0 + 1e-9, 1.0]
        with pytest.raises(ValueError):
            StateVector(rows)

    def test_evolved_rows_keep_unit_norm_check(self, monkeypatch):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        w, v = qsim._eigendecomposition(h_eff)
        # a basis that is not unitary stretches every evolved row
        monkeypatch.setattr(qsim, "_eigendecomposition", lambda h: (w, 1.001 * v))
        with pytest.raises(ValueError):
            green_sym(h_eff, gs, np.linspace(0.0, 0.5, 9))

    def test_multidimensional_times_rejected(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        with pytest.raises(ValueError):
            green_sym(h_eff, gs, np.zeros((2, 3)))


class TestSpectralOracle:
    def test_pole_table_matches_printed_values(self):
        spec = spectral_oracle(PARAMS)
        assert len(spec.poles) == 2
        table = [(abs(p.amplitude), p.frequency) for p in spec.poles]
        assert table[0][0] == pytest.approx(0.525, abs=5e-4)
        assert table[0][1] == pytest.approx(0.548, abs=1e-3)
        assert table[1][0] == pytest.approx(0.475, abs=5e-4)
        assert table[1][1] == pytest.approx(3.042, abs=1e-3)

    def test_weights_sum_to_one(self):
        spec = spectral_oracle(PARAMS)
        assert sum(abs(p.amplitude) for p in spec.poles) == pytest.approx(1.0, abs=1e-12)

    def test_frequencies_non_negative(self):
        for params in (PARAMS, ModelParams(1.0, 0.5), ModelParams(0.0, 0.3)):
            spec = spectral_oracle(params)
            assert all(p.frequency >= -1e-12 for p in spec.poles)

    def test_z_expectations_vanish(self):
        spec = spectral_oracle(PARAMS)
        assert all(abs(p.z_expect) < 1e-10 for p in spec.poles)


class TestGateErrorMitigation:
    def _signal(self, scale=1.0, n=16):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        ts = np.linspace(0.0, 0.5, n)
        samples = scale * green_sym(h_eff, gs, ts)
        return TimeSignal(SamplingGrid(0.0, n, ts[1] - ts[0]), samples, "physical")

    def test_unscaled_signal_untouched(self):
        signal = self._signal()
        out, alpha = mitigate_gate_error(signal)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.samples, signal.samples, atol=1e-12)

    def test_recovers_damping_factor(self):
        signal = self._signal(scale=0.8)
        out, alpha = mitigate_gate_error(signal)
        assert alpha == pytest.approx(0.8, abs=1e-10)
        np.testing.assert_allclose(out.samples, self._signal().samples, atol=1e-10)

    def test_shot_noise_only_alpha_near_one(self):
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        ts = np.linspace(0.0, 0.5, 16)
        shot = ShotConfig(shots=100000, seed=12)
        samples = green_sym(h_eff, gs, ts, shot=shot)
        signal = TimeSignal(SamplingGrid(0.0, 16, ts[1] - ts[0]), samples, "physical")
        _, alpha = mitigate_gate_error(signal)
        assert abs(alpha - 1.0) < 0.03

    def test_amplifying_estimate_clamped(self):
        signal = self._signal(scale=1.2)
        _, alpha = mitigate_gate_error(signal)
        assert alpha == 1.0

    def test_dead_signal_rejected(self):
        grid = SamplingGrid(0.0, 4, 0.1)
        signal = TimeSignal(grid, np.zeros(4), "physical")
        with pytest.raises(ValueError, match="not usable"):
            mitigate_gate_error(signal)

    def test_two_sided_grid_reads_sample_at_time_zero(self):
        # t = 0 is sample 20 of 41; the first sample, at t = -0.5, has |G| < 2
        _, _, h_eff = build_hamiltonians(PARAMS)
        gs = prepare_ground_state(PARAMS)
        grid = SamplingGrid(-0.5, 41, 0.025)
        signal = TimeSignal(grid, 0.7 * green_general(h_eff, gs, grid.times()), "physical")
        out, alpha = mitigate_gate_error(signal, reference=2.0)
        assert alpha == pytest.approx(0.7, abs=1e-12)
        np.testing.assert_allclose(out.samples, signal.samples / 0.7, atol=1e-12)

    @pytest.mark.parametrize("t0", [0.2, -0.51])
    def test_grid_without_time_zero_rejected(self, t0):
        grid = SamplingGrid(t0, 41, 0.025)
        signal = TimeSignal(grid, np.ones(41), "physical")
        with pytest.raises(ValueError, match="sample at t = 0"):
            mitigate_gate_error(signal)
