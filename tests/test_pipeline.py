import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from greenspec import anm, pipeline
from greenspec.anm import AnmConfig, atomic_denoise, select_tau
from greenspec.pipeline import (
    TAU_PATH_LADDER,
    ExperimentConfig,
    SignalConfig,
    anm_reconstruct_canonical,
    theory_threshold_t_max,
    noise_scale_estimate,
    oracle_spectrum,
    reconstruct,
    resolve_grid,
    resolve_rescale_map,
    run_sweep,
    simulate_signal,
    sweep_to_csv_rows,
)
from greenspec.qsim import (
    ModelParams,
    ShotConfig,
    build_hamiltonians,
    green_general,
    green_sym,
    mitigate_gate_error,
    prepare_ground_state,
)
from greenspec.spectrum import (
    CANONICAL,
    LineSpectrum,
    Pole,
    SamplingGrid,
    TimeSignal,
    synthesize_signal,
)


LADDER_ANM = AnmConfig(tau="ladder")
EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "config.example.json"


def with_noise(signal, sigma, seed):
    """``signal`` plus circular complex Gaussian noise of std ``sigma``; itself at 0."""
    if sigma == 0:
        return signal
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(signal.grid.n) + 1j * rng.standard_normal(signal.grid.n)
    return TimeSignal(signal.grid, signal.samples + noise * (sigma / np.sqrt(2.0)), signal.domain)


class TestNoiseHelper:
    def test_zero_sigma_returns_input(self):
        signal = TimeSignal(SamplingGrid(0.0, 8, 1.0), np.ones(8), CANONICAL)
        assert with_noise(signal, 0.0, seed=1) is signal

    def test_samples_are_pinned(self):
        # the noisy signals the tau tests score are these draws, bit for bit
        signal = TimeSignal(SamplingGrid(0.0, 4, 1.0), np.ones(4), CANONICAL)
        expected = np.array(
            [
                1.0646402540313162 - 0.4138770636692108j,
                0.7793860558453345 - 0.2762339878873498j,
                1.1591947388512898 + 0.027119044796762897j,
                1.1995239067315087 - 0.06708518446384797j,
            ]
        )
        assert with_noise(signal, 0.3, seed=42).samples.tobytes() == expected.tobytes()


class TestGridResolution:
    def test_default_grid_follows_spacing_rule(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=2.0))
        rmap = resolve_rescale_map(cfg)
        grid = resolve_grid(cfg)
        assert grid.dt == pytest.approx(1.0 / rmap.omega_max)
        assert grid.n == int(np.floor(2.0 * rmap.omega_max)) + 1
        # default window from the Hamiltonian one-norm, four-peak gap
        assert rmap.omega_max == pytest.approx(13.28 / (2 * np.pi), rel=1e-12)

    def test_oversampled_grid_keeps_invariants(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.27, n=24))
        rmap = resolve_rescale_map(cfg)
        grid = resolve_grid(cfg)
        assert grid.n == 24
        assert grid.dt * 23 == pytest.approx(0.27, rel=1e-12)
        assert rmap.omega_max == pytest.approx(23 / 0.27, rel=1e-12)

    def test_two_sided_window(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.5, t0=-0.5, n=21))
        grid = resolve_grid(cfg)
        times = grid.times()
        assert times[0] == pytest.approx(-0.5)
        assert times[-1] == pytest.approx(0.5)

    def test_n_only_derives_t_max(self):
        cfg = ExperimentConfig(signal=SignalConfig(n=8))
        rmap = resolve_rescale_map(cfg)
        grid = resolve_grid(cfg)
        assert grid.n == 8
        assert grid.times()[-1] == pytest.approx(7.0 / rmap.omega_max)

    @pytest.mark.parametrize("t_max", [0.1, 0.26, 0.3])
    def test_one_sample_window_rejected(self, t_max):
        # the default spacing is 0.473, so these windows hold one sample
        cfg = ExperimentConfig(signal=SignalConfig(t_max=t_max))
        with pytest.raises(ValueError, match="need at least two samples"):
            resolve_grid(cfg)


class TestSimulate:
    def test_first_sample_is_time_zero_value(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.5, n=6))
        signal = simulate_signal(cfg)
        assert signal.samples[0] == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_exact_vs_trotter_small_window(self):
        base = SignalConfig(t_max=0.05, n=6)
        exact = simulate_signal(ExperimentConfig(signal=base))
        from dataclasses import replace

        trotter = simulate_signal(
            ExperimentConfig(signal=replace(base, evolver="trotter2"))
        )
        assert np.max(np.abs(exact.samples - trotter.samples)) < 1e-4

    def test_shots_deviation_bounded(self):
        from dataclasses import replace

        base = SignalConfig(t_max=0.5, n=8, seed=3)
        exact = simulate_signal(ExperimentConfig(signal=base))
        shots = 100000
        noisy = simulate_signal(ExperimentConfig(signal=replace(base, shots=shots)))
        assert np.max(np.abs(exact.samples - noisy.samples)) < 3.0 * np.sqrt(2.0 / shots) + 1e-9

    def test_noiseless_signal_ignores_seed(self):
        # shot readout is the only noise, so without shots the seed draws nothing
        base = SignalConfig(t_max=0.5, n=8, seed=0)
        first = simulate_signal(ExperimentConfig(signal=base))
        second = simulate_signal(ExperimentConfig(signal=replace(base, seed=7)))
        assert first.samples.tobytes() == second.samples.tobytes()

    def test_general_assembly_signal(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.4, n=6, use_sym=False))
        signal = simulate_signal(cfg)
        assert signal.samples[0] == pytest.approx(2.0 + 0j, abs=1e-12)

    @pytest.mark.parametrize(
        "sig",
        [
            SignalConfig(evolver="trotter2", t_max=0.5, n=14, shots=100000, seed=4),
            SignalConfig(evolver="exact", t0=-0.45, t_max=0.45, n=46, use_sym=False),
            SignalConfig(evolver="trotter2", t0=-0.35, t_max=0.35, n=36, use_sym=False, shots=100000),
        ],
        ids=["one-sided-trotter2-shots", "two-sided-exact", "two-sided-trotter2-shots"],
    )
    def test_samples_match_per_time_calls(self, sig):
        cfg = ExperimentConfig(signal=sig)
        signal = simulate_signal(cfg)
        _, _, h_eff = build_hamiltonians(cfg.model)
        gs = prepare_ground_state(cfg.model)
        green = green_sym if sig.use_sym else green_general
        shot = ShotConfig(shots=sig.shots, seed=sig.seed)
        expected = np.concatenate(
            [green(h_eff, gs, [t], sig.evolver, sig.trotter_steps, shot) for t in signal.grid.times()]
        )
        assert signal.samples.tobytes() == expected.tobytes()


class TestOracleSpectrum:
    def test_sym_oracle_is_one_sided(self):
        spec = oracle_spectrum(ExperimentConfig())
        assert len(spec.poles) == 2
        assert all(p.frequency > 0 for p in spec.poles)

    def test_general_oracle_mirrors_poles(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=1.0, use_sym=False))
        spec = oracle_spectrum(cfg)
        assert len(spec.poles) == 4
        freqs = sorted(p.frequency for p in spec.poles)
        assert freqs[0] == pytest.approx(-freqs[3])
        assert freqs[1] == pytest.approx(-freqs[2])
        assert sum(abs(p.amplitude) for p in spec.poles) == pytest.approx(2.0, abs=1e-10)


class TestNoiseEstimate:
    def test_noiseless_is_zero(self):
        assert noise_scale_estimate(ExperimentConfig(signal=SignalConfig(t_max=1.0))) == 0.0

    def test_shot_noise_bound(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=1.0, shots=10000))
        assert noise_scale_estimate(cfg) == pytest.approx(np.sqrt(2.0 / 10000))

    def test_general_assembly_doubles_variance(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=1.0, shots=10000, use_sym=False))
        assert noise_scale_estimate(cfg) == pytest.approx(np.sqrt(4.0 / 10000))


class TestReconstruct:
    def test_noiseless_anm_beats_dft(self):
        cfg = ExperimentConfig(
            signal=SignalConfig(evolver="exact", t_max=0.27, n=24),
            anm=AnmConfig(tau="path"),
        )
        signal = simulate_signal(cfg)
        out_anm = reconstruct(signal, cfg, "anm")
        out_dft = reconstruct(signal, cfg, "dft")
        assert out_anm.epsilon < 1e-3
        assert out_dft.epsilon > 0.05
        assert out_anm.q_max <= 1.0 + 1e-3

    def test_mitigation_restores_damped_signal(self):
        from greenspec.spectrum import TimeSignal

        cfg = ExperimentConfig(
            signal=SignalConfig(evolver="exact", t_max=0.27, n=24),
            anm=AnmConfig(tau="path"),
        )
        signal = simulate_signal(cfg)
        damped = TimeSignal(signal.grid, 0.8 * signal.samples, signal.domain)
        out = reconstruct(mitigate_gate_error(damped)[0], cfg, "anm")
        assert out.epsilon < 1e-3

    def test_mitigation_reads_two_sided_signal_at_time_zero(self):
        # t = 0 is sample 20 of 41, where the noiseless two-sided signal is 2
        cfg = ExperimentConfig(
            signal=SignalConfig(evolver="exact", t0=-0.5, t_max=0.5, n=41, use_sym=False)
        )
        signal = simulate_signal(cfg)
        _, alpha = mitigate_gate_error(signal, reference=2.0)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        plain = reconstruct(signal, cfg, "dft").epsilon
        mitigated = reconstruct(mitigate_gate_error(signal, reference=2.0)[0], cfg, "dft").epsilon
        assert mitigated == pytest.approx(plain, rel=1e-8)

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(
                signal=SignalConfig(evolver="exact", t_max=0.27, n=24), anm=AnmConfig(tau="ladder")
            ),
            ExperimentConfig.from_dict(json.loads(EXAMPLE_CONFIG.read_text())),
        ],
        ids=["criterion03_window", "example_config"],
    )
    def test_constant_phase_changes_no_reconstruction(self, cfg):
        # only |amplitude| and frequency are scored, so a phase on every sample,
        # such as the retarded prefactor -i, leaves the reconstruction as it is
        signal = simulate_signal(cfg)
        for method in pipeline.METHODS:
            plain = reconstruct(signal, cfg, method)
            for theta in (-np.pi / 2, np.pi / 2, 1.0):
                phased = TimeSignal(signal.grid, np.exp(1j * theta) * signal.samples, signal.domain)
                out = reconstruct(phased, cfg, method)
                if method == "anm":  # the same rung; its scale ||y|| moves in the last bit
                    assert out.dual_solution.tau == pytest.approx(plain.dual_solution.tau, rel=1e-12)
                assert out.report.pairs == plain.report.pairs
                assert out.report.unmatched_true == plain.report.unmatched_true
                assert out.report.unmatched_est == plain.report.unmatched_est
                assert out.epsilon == pytest.approx(plain.epsilon, rel=1e-6)

    def test_unknown_method_rejected(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.3, n=8))
        signal = simulate_signal(cfg)
        with pytest.raises(ValueError):
            reconstruct(signal, cfg, "music")


class TestTauPolicies:
    @pytest.mark.parametrize("policy", [0.05, "ladder", "path"])
    def test_zero_signal_gives_empty_spectrum(self, policy):
        y = TimeSignal(SamplingGrid(t0=0.0, n=8, dt=1.0), np.zeros(8), CANONICAL)
        spectrum, sol = anm_reconstruct_canonical(y, AnmConfig(tau=policy), sigma_est=0.01)
        assert spectrum.poles == ()
        assert sol.converged is True
        assert sol.iterations == 0
        # a policy has no ||y|| to scale its ladder by and keeps the noise weight
        expected = select_tau(0.01, 8) if isinstance(policy, str) else policy
        assert float(sol.tau).hex() == expected.hex()

    def test_default_policy_is_the_ladder(self):
        assert AnmConfig().tau == "ladder"
        signal = {"evolver": "trotter2", "t_max": 0.27, "n": 12, "shots": 10**5}
        default = ExperimentConfig.from_dict({"signal": signal})
        named = ExperimentConfig.from_dict({"signal": signal, "method": {"anm": {"tau": "ladder"}}})
        y = simulate_signal(named)
        a, b = reconstruct(y, default, "anm"), reconstruct(y, named, "anm")
        assert a.epsilon.hex() == b.epsilon.hex()
        assert a.dual_solution.tau.hex() == b.dual_solution.tau.hex()
        assert a.dual_solution.x_hat.tobytes() == b.dual_solution.x_hat.tobytes()

    def test_rank_deficient_fit_scores_the_whole_signal(self, monkeypatch):
        # atoms too close to separate fit nothing: the rung's misfit is ||y||
        # and it holds no poles
        n = 12
        samples = np.exp(2j * np.pi * 0.2 * np.arange(n))
        y = TimeSignal(SamplingGrid(t0=0.0, n=n, dt=1.0), samples, CANONICAL)
        sol = atomic_denoise(y, AnmConfig(tau=0.05))
        monkeypatch.setattr(anm, "locate_peaks", lambda solution: [0.2, 0.2 + 1e-13])
        assert pipeline._peaks_and_fit(y, sol) == (float(np.linalg.norm(samples)), ())
        spectrum, _ = anm_reconstruct_canonical(y, AnmConfig(tau=0.05))
        assert spectrum.poles == ()

    def test_ladder_skips_unconverged_candidate(self, monkeypatch):
        # the second ladder weight is made unconverged with the lowest misfit;
        # the selection must still report a converged solve
        truth = LineSpectrum((Pole(1.0, 0.2), Pole(0.6, 0.55)), CANONICAL)
        y = synthesize_signal(truth, SamplingGrid(0.0, 16, 1.0))
        target = sorted(rel * float(np.linalg.norm(y.samples)) for rel in TAU_PATH_LADDER)[-2]
        denoise, peaks_and_fit = pipeline.anm.atomic_denoise, pipeline._peaks_and_fit

        def unconverged(y, cfg, warm=None):
            sol = denoise(y, cfg, warm=warm)
            return replace(sol, converged=False) if sol.tau == target else sol

        def lowest_misfit(y, sol):
            resid, poles = peaks_and_fit(y, sol)
            return (0.0 if sol.tau == target else resid), poles

        monkeypatch.setattr(pipeline.anm, "atomic_denoise", unconverged)
        monkeypatch.setattr(pipeline, "_peaks_and_fit", lowest_misfit)
        _, sol = anm_reconstruct_canonical(y, AnmConfig(tau="ladder"))
        assert sol.tau != target
        assert sol.converged is True


class TestLadderNoiseStop:
    @staticmethod
    def signal(sigma):
        # a weak third line that the strongest weights shrink away
        truth = LineSpectrum((Pole(1.0, 0.2), Pole(0.6, 0.55), Pole(0.15, 0.8)), CANONICAL)
        return with_noise(synthesize_signal(truth, SamplingGrid(0.0, 16, 1.0)), sigma, seed=3)

    @staticmethod
    def candidates(y, sigma):
        taus = {rel * float(np.linalg.norm(y.samples)) for rel in TAU_PATH_LADDER}
        if sigma > 0:
            taus |= {select_tau(sigma, y.grid.n), 2.0 * select_tau(sigma, y.grid.n)}
        return sorted(taus, reverse=True)

    @staticmethod
    def spy_solves(monkeypatch):
        # every solve as (tau, warm start, returned solve), in call order
        calls, denoise = [], pipeline.anm.atomic_denoise

        def spy(y, cfg, warm=None):
            calls.append((cfg.tau, warm, denoise(y, cfg, warm=warm)))
            return calls[-1][2]

        monkeypatch.setattr(pipeline.anm, "atomic_denoise", spy)
        return calls

    @staticmethod
    def choose(y, sigma, solves):
        # select's rule over the given solves: the largest tau whose misfit
        # reaches max(1.1 best, noise floor), among the converged ones if any
        fits = {sol.tau: pipeline._peaks_and_fit(y, sol)[0] for sol in solves}
        pool = [sol.tau for sol in solves if sol.converged] or list(fits)
        floor = max(1.1 * min(fits[t] for t in pool), 1.1 * sigma * math.sqrt(y.grid.n))
        return max(t for t in pool if fits[t] <= floor)

    def test_stops_at_noise_floor_with_the_same_choice(self, monkeypatch):
        sigma = 0.002
        y = self.signal(sigma)
        cfg = AnmConfig(tau="ladder")
        candidates = self.candidates(y, sigma)
        # reference: every candidate along one warm chain, then select's rule
        chain, warm = [], None
        for tau in candidates:
            warm = pipeline.anm.atomic_denoise(y, replace(cfg, tau=tau), warm=warm)
            chain.append(warm)
        expected = chain[candidates.index(self.choose(y, sigma, chain))]

        calls = self.spy_solves(monkeypatch)
        _, sol = anm_reconstruct_canonical(y, cfg, sigma)
        taus = [tau for tau, _, _ in calls]
        assert len(taus) < len(candidates)
        assert taus == candidates[: len(taus)]
        assert sol.tau.hex() == expected.tau.hex()
        assert sol.x_hat.tobytes() == expected.x_hat.tobytes()

    def test_unconverged_fit_does_not_stop(self, monkeypatch):
        y = self.signal(0.002)
        calls = self.spy_solves(monkeypatch)
        spy = pipeline.anm.atomic_denoise

        def unconverged(y, cfg, warm=None):
            return replace(spy(y, cfg, warm=warm), converged=False)

        monkeypatch.setattr(pipeline.anm, "atomic_denoise", unconverged)
        anm_reconstruct_canonical(y, AnmConfig(tau="ladder"), 0.002)
        assert [tau for tau, _, _ in calls] == self.candidates(y, 0.002)

    @pytest.mark.parametrize("policy, sigma", [("ladder", 0.0), ("path", 0.002)])
    def test_noiseless_ladder_and_path_descend_in_full(self, monkeypatch, policy, sigma):
        y = self.signal(sigma)
        candidates = self.candidates(y, sigma)
        calls = self.spy_solves(monkeypatch)
        anm_reconstruct_canonical(y, AnmConfig(tau=policy), sigma)
        assert [tau for tau, _, _ in calls[: len(candidates)]] == candidates

    def test_path_refines_inside_the_chosen_bracket(self, monkeypatch):
        sigma = 0.002
        y = self.signal(sigma)
        candidates = self.candidates(y, sigma)
        calls = self.spy_solves(monkeypatch)
        anm_reconstruct_canonical(y, AnmConfig(tau="path"), sigma)
        descent, refine = calls[: len(candidates)], calls[len(candidates) :]
        assert [tau for tau, _, _ in descent] == candidates
        chosen = self.choose(y, sigma, [sol for _, _, sol in descent])
        below = max(t for t in candidates if t < chosen)
        above = min(t for t in candidates if t > chosen)
        # golden section: two interior points, then one for each of its 12 steps
        assert len(refine) == 14
        assert all(below < tau < above for tau, _, _ in refine)
        # every solve warm-starts from the one before it
        assert calls[0][1] is None
        assert all(warm is prev for (_, warm, _), (_, _, prev) in zip(calls[1:], calls))

    @pytest.mark.parametrize("policy", ["ladder", "path", 0.01])
    def test_no_weight_is_solved_twice(self, monkeypatch, policy):
        y = self.signal(0.002)
        calls = self.spy_solves(monkeypatch)
        _, sol = anm_reconstruct_canonical(y, AnmConfig(tau=policy), 0.002)
        taus = [tau for tau, _, _ in calls]
        assert len(set(taus)) == len(taus)
        assert any(chosen is sol for _, _, chosen in calls)


class TestSweep:
    def test_single_cell_matches_reconstruct(self):
        cfg = ExperimentConfig(
            signal=SignalConfig(evolver="exact", t_max=0.27, n=12), anm=LADDER_ANM
        )
        cells = run_sweep(cfg, [0.27], [0], methods=("anm",))
        signal = simulate_signal(cfg)
        direct = reconstruct(signal, cfg, "anm")
        assert len(cells) == 1
        assert cells[0].epsilon == pytest.approx(direct.epsilon, rel=1e-9)

    def test_deterministic_rows(self):
        cfg = ExperimentConfig(
            signal=SignalConfig(evolver="trotter2", t_max=0.4, n=10, shots=2000), anm=LADDER_ANM
        )
        a = run_sweep(cfg, [0.3, 0.4], [0, 1], methods=("anm", "dft"))
        b = run_sweep(cfg, [0.3, 0.4], [0, 1], methods=("anm", "dft"))
        assert sweep_to_csv_rows(a) == sweep_to_csv_rows(b)

    def test_tiny_windows_converge(self):
        # criterion 04 configuration at its two shortest windows (n = 2 and 3)
        cfg = ExperimentConfig(
            signal=SignalConfig(evolver="trotter2", t_max=0.27, n=8),
            anm=AnmConfig(tau="ladder"),
        )
        with pytest.warns(UserWarning, match="separation guarantees"):
            cells = run_sweep(cfg, [0.05, 0.1], [0], methods=("anm",))
        assert [c.n for c in cells] == [2, 3]
        for cell, eps in zip(cells, (1.3655, 0.0920)):
            assert cell.error is None
            assert cell.converged is True
            assert cell.epsilon == pytest.approx(eps, rel=1e-3)

    def test_longest_window_converges(self):
        # criterion 04 configuration at t_max = 1.5 (n = 39), whose ladder
        # once ended on a solve stopped by the iteration cap
        cfg = ExperimentConfig(
            signal=SignalConfig(evolver="trotter2", t_max=0.27, n=8),
            anm=AnmConfig(tau="ladder"),
        )
        (cell,) = run_sweep(cfg, [1.5], [0], methods=("anm",))
        assert cell.n == 39
        assert cell.error is None
        assert cell.converged is True
        assert cell.q_max <= 1.0 + 5e-4

    def test_empty_grid_rejected(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.3, n=8))
        with pytest.raises(ValueError):
            run_sweep(cfg, [], [0])

    def test_failures_recorded_not_raised(self):
        # a window too short for two samples cannot be reconstructed
        cfg = ExperimentConfig(signal=SignalConfig(evolver="exact", t_max=1.0), anm=LADDER_ANM)
        cells = run_sweep(cfg, [1e-6], [0], methods=("anm",))
        assert len(cells) == 1
        assert cells[0].error == "ValueError: need at least two samples"

    def test_one_sample_window_fails_both_methods(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.26), anm=LADDER_ANM)
        cells = run_sweep(cfg, [0.26], [0])
        assert [(c.method, c.n, c.error) for c in cells] == [
            (method, -1, "ValueError: need at least two samples") for method in ("anm", "dft")
        ]
        assert all(math.isnan(c.epsilon) for c in cells)

    def test_swept_window_keeps_the_sampling_rate(self):
        # criterion 04 samples 25.9 times per unit time, so the window 0.03
        # holds one sample: the cell fails, as it does without n, and is not
        # run at n = 2 and another rate
        cfg = ExperimentConfig(signal=SignalConfig(evolver="trotter2", t_max=0.27, n=8))
        (cell,) = run_sweep(cfg, [0.03], [0], methods=("dft",))
        assert (cell.n, cell.error) == (-1, "ValueError: n must be >= 2, got 1")
        assert math.isnan(cell.epsilon)
        t_max_only = replace(cfg, signal=replace(cfg.signal, n=None))
        (cell,) = run_sweep(t_max_only, [0.03], [0], methods=("dft",))
        assert (cell.n, cell.error) == (-1, "ValueError: need at least two samples")

    def test_empty_swept_window_recorded_not_raised(self):
        cfg = ExperimentConfig(signal=SignalConfig(evolver="exact", t0=0.1, t_max=0.5, n=41))
        (cell,) = run_sweep(cfg, [0.1], [0], methods=("dft",))
        assert cell.n == -1
        assert cell.error.startswith("ValueError: window needs t_max > t0")

    def test_default_variant_runs_config_as_given(self):
        # trotter2 with shots reads as "trotter2_shots", whose named variant
        # would override the configured 1,000 shots with 100,000
        cfg = ExperimentConfig(signal=SignalConfig(evolver="trotter2", shots=1000, t_max=0.4, n=10))
        (cell,) = run_sweep(cfg, [0.4], [0], methods=("dft",))
        expected = reconstruct(simulate_signal(cfg), cfg, "dft").epsilon
        assert cell.variant == "trotter2_shots"
        assert cell.epsilon == expected
        (named,) = run_sweep(cfg, [0.4], [0], methods=("dft",), variants=("trotter2_shots",))
        assert named.epsilon != expected

    def test_asymmetric_two_sided_window_rejected(self):
        # a two-sided cell samples [-t_max, t_max], not the configured [-0.2, 0.4]
        cfg = ExperimentConfig(signal=SignalConfig(evolver="exact", t0=-0.2, t_max=0.4, n=31))
        with pytest.raises(ValueError, match="t0 must be -t_max"):
            run_sweep(cfg, [0.4], [0], methods=("dft",))

    def test_unknown_variant_rejected(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.4, n=10))
        with pytest.raises(ValueError, match="unknown variant.*trotter2_shot'.*known"):
            run_sweep(cfg, [0.4], [0], ("dft",), ("trotter2_shot",))

    def test_unknown_method_rejected_before_any_cell(self, monkeypatch):
        def simulated(config):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(pipeline, "simulate_signal", simulated)
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.4, n=10))
        with pytest.raises(ValueError, match="unknown method.*'amn'.*known"):
            run_sweep(cfg, [0.4], [0], methods=("amn",))

    def test_programmer_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a numeric failure")

        monkeypatch.setattr(pipeline, "reconstruct", broken)
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.3, n=8))
        with pytest.raises(TypeError):
            run_sweep(cfg, [0.3], [0], methods=("dft",))

    def test_uncountable_oversampled_grid_names_its_size(self):
        # the sweep bounds the configured count before it divides by it, as
        # the rescale map does, so the cell names the grid size
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.4, n=10**400))
        (cell,) = run_sweep(cfg, [0.3], [0], methods=("dft",))
        assert cell.error == (
            "ValueError: the grid needs about 10^400 samples, more than an array can hold"
        )

    def test_positive_t0_keeps_configured_grid(self):
        cfg = ExperimentConfig(signal=SignalConfig(evolver="exact", t0=0.1, t_max=0.5, n=41))
        assert simulate_signal(cfg).grid.n == 41
        (cell,) = run_sweep(cfg, [0.5], [0], methods=("dft",))
        assert cell.error is None
        assert cell.n == 41


class TestTheoryThreshold:
    def test_impurity_threshold_near_six_point_three(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.27, n=24))
        thr = theory_threshold_t_max(cfg)
        assert thr == pytest.approx(6.3, abs=0.1)

    @pytest.mark.parametrize("t0", [0.0, 0.1, -0.1], ids=["one-sided", "offset", "two-sided"])
    def test_sweep_cells_cross_the_bound_at_the_threshold(self, t0):
        # the sweep cell at 1.01 times the returned window holds the samples
        # n >= 2.5/gap asks for, and the one at 0.99 times holds fewer
        cfg = ExperimentConfig(signal=SignalConfig(evolver="exact", t0=t0))
        rmap = resolve_rescale_map(cfg)
        freqs = sorted(rmap.frequency_to_canonical(p.frequency) for p in oracle_spectrum(cfg).poles)
        gap = min(np.diff([*freqs, freqs[0] + 1.0]))
        thr = theory_threshold_t_max(cfg)
        above, below = run_sweep(cfg, [1.01 * thr, 0.99 * thr], [0], methods=("dft",))
        assert above.n >= 2.5 / gap > below.n

    def test_threshold_far_above_operating_point(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=0.27, n=24))
        assert theory_threshold_t_max(cfg) > 10 * 0.27


class TestConfigParsing:
    def test_from_dict_round_trip(self):
        data = {
            "model": {"u": 4.0, "v": 0.745},
            "signal": {"evolver": "trotter2", "t_max": 0.5, "n": 12, "shots": 1000},
            "method": {"anm": {"tau": "ladder"}},
        }
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.model == ModelParams(4.0, 0.745)
        assert cfg.signal.evolver == "trotter2"
        assert cfg.signal.shots == 1000
        assert cfg.anm.tau == "ladder"

    @pytest.mark.parametrize(
        "model, expected",
        [({"u": 2.0}, ModelParams(2.0, 0.745)), ({"v": -0.5}, ModelParams(4.0, -0.5))],
        ids=["u-only", "v-only"],
    )
    def test_model_field_defaults_alone(self, model, expected):
        # each model field defaults to the paper's model on its own
        assert ExperimentConfig.from_dict({"model": model}).model == expected
        default = ModelParams(4.0, 0.745)
        assert ExperimentConfig.from_dict({}).model == ExperimentConfig().model == default

    def test_signal_requires_extent_to_resolve(self):
        cfg = ExperimentConfig(signal=SignalConfig(t_max=None, n=None))
        with pytest.raises(ValueError, match="needs t_max, n, or both"):
            resolve_grid(cfg)
        with pytest.raises(ValueError, match="needs t_max, n, or both"):
            simulate_signal(cfg)

    @pytest.mark.parametrize(
        "data",
        [
            {"rescale": {"k_min": 4}},
            {"methd": {"anm": {"tau": 0.1}}},
            {"method": {"music": {}}},
            {"method": {"dft": {"pad_factor": 8}}},  # the DFT baseline has fixed settings
        ],
    )
    def test_unknown_section_rejected(self, data):
        with pytest.raises(ValueError, match="unknown config section"):
            ExperimentConfig.from_dict(data)

    def test_gaussian_noise_is_unknown_key(self):
        with pytest.raises(TypeError, match="'sigma'"):
            ExperimentConfig.from_dict({"signal": {"sigma": 0.0}})

    @pytest.mark.parametrize("value", [10000, 1.5, "x"])
    def test_iteration_cap_is_unknown_key(self, value):
        # a class constant, not a field, whatever the value's type
        with pytest.raises(TypeError, match="unexpected keyword argument 'max_iters'"):
            ExperimentConfig.from_dict({"method": {"anm": {"max_iters": value}}})

    @pytest.mark.parametrize("data", [[], "anm", {"method": []}, {"method": "anm"}])
    def test_non_object_rejected(self, data):
        with pytest.raises(ValueError, match="must be an object"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"signal": {"t_max": math.inf}}, "signal.t_max"),
            ({"signal": {"t0": -math.inf, "t_max": 1.0}}, "signal.t0"),
            ({"model": {"u": math.nan, "v": 0.745}}, "model.u"),
            ({"method": {"anm": {"tau": math.nan}}}, "method.anm.tau"),
        ],
    )
    def test_non_finite_number_rejected(self, data, field):
        # json reads NaN and Infinity, so the type check alone passes them
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            ExperimentConfig.from_dict(data)

    def test_readme_example_is_valid(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        after = readme.split("A config file is JSON", 1)[1]
        block = after.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_dict(json.loads(block))
        assert cfg.anm.tau == "ladder"

    def test_int_for_float_and_null_for_none_accepted(self):
        data = {
            "model": {"u": 4, "v": 1},
            "signal": {"t0": -1, "t_max": 1, "n": None, "shots": None},
            "method": {"anm": {"tau": 1}},
        }
        cfg = ExperimentConfig.from_dict(data)
        assert (cfg.model.u, cfg.signal.t_max, cfg.signal.n, cfg.anm.tau) == (4, 1, None, 1)

    @pytest.mark.parametrize("t_max", [0.0, -0.2])
    def test_empty_window_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max > t0"):
            SignalConfig(t_max=t_max, n=5)

    @pytest.mark.parametrize(
        "values, field",
        [
            ({"shots": 0}, "shots"),
            ({"shots": 2**63}, "shots"),  # numpy's binomial draw takes a 64-bit count
            ({"trotter_steps": 0}, "trotter_steps"),
            ({"n": 0}, "n"),
            ({"t_max": 0.3, "n": 1}, "n"),  # an oversampled grid spaces samples span/(n - 1)
            ({"seed": -1}, "seed"),
        ],
    )
    def test_out_of_range_signal_value_rejected(self, values, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SignalConfig(**values)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExperimentConfig.from_dict({"model": [4.0, 0.745]}),
         "model section must be an object, got list"),
        # without interaction the model has one line, and no gap to resolve
        (lambda: theory_threshold_t_max(ExperimentConfig(model=ModelParams(u=0.0))),
         "threshold undefined for fewer than two poles"),
    ],
    ids=["non-object-section", "one-pole-threshold"],
)
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
