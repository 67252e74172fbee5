import json
import re

import numpy as np
import pytest

from greenspec.qsim import ModelParams, PauliHamiltonian, PauliString, build_hamiltonians
from greenspec.spectrum import (
    CANONICAL,
    PHYSICAL,
    LineSpectrum,
    Pole,
    RescaleMap,
    SamplingGrid,
    TimeSignal,
    build_rescale_map,
    energy_bounds,
    from_canonical,
    signal_from_json,
    signal_to_json,
    spectrum_to_json,
    synthesize_signal,
    to_canonical,
    to_canonical_spectrum,
)

TWO_PI = 2.0 * np.pi


def random_physical_spectrum(rng, n_poles, omega_lo, omega_hi):
    freqs = np.sort(rng.uniform(omega_lo, omega_hi, n_poles))
    while np.min(np.diff(freqs)) < 1e-3:
        freqs = np.sort(rng.uniform(omega_lo, omega_hi, n_poles))
    amps = rng.uniform(0.2, 1.5, n_poles)
    return LineSpectrum(tuple(Pole(complex(a), float(w)) for a, w in zip(amps, freqs)), PHYSICAL)


class TestEnergyBounds:
    def test_impurity_effective_hamiltonian(self):
        # coefficient magnitudes 1 + 0.745 + 0.3725 + 0.3725 = 2.49
        _, _, h_eff = build_hamiltonians(ModelParams(4.0, 0.745))
        lo, hi = energy_bounds(h_eff)
        assert lo == pytest.approx(-4.98)
        assert hi == pytest.approx(4.98)

    def test_single_term(self):
        h = PauliHamiltonian(terms=((0.5, PauliString(("Z",))),), qubit_count=1)
        assert energy_bounds(h) == (-1.0, 1.0)

    def test_bounds_contain_exact_transition_range(self):
        h = PauliHamiltonian(
            terms=((1.0, PauliString(("Z",))), (1.0, PauliString(("X",)))), qubit_count=1
        )
        lo, hi = energy_bounds(h)
        assert (lo, hi) == (-4.0, 4.0)
        evals = np.linalg.eigvalsh(h.matrix())
        spread = evals.max() - evals.min()
        assert spread == pytest.approx(2 * np.sqrt(2))
        assert lo <= -spread and spread <= hi

    def test_empty_hamiltonian_rejected(self):
        with pytest.raises(ValueError):
            energy_bounds(PauliHamiltonian(terms=(), qubit_count=1))


class TestRescaleMap:
    def test_padded_window_arithmetic(self):
        rmap = build_rescale_map(-4.98, 4.98, 4)
        assert rmap.delta_omega == pytest.approx(3.32)
        assert rmap.omega_max == pytest.approx(13.28 / TWO_PI, rel=1e-12)
        assert rmap.phi == pytest.approx(-0.5, abs=1e-12)

    def test_symmetric_range_phase_is_minus_half(self):
        rmap = build_rescale_map(-7.3, 7.3, 2)
        assert rmap.phi == pytest.approx(-0.5, abs=1e-12)

    def test_forward_inverse_frequency_identity(self):
        rmap = build_rescale_map(0.0, TWO_PI, 2)
        for omega in np.linspace(-1.0, TWO_PI + 1.0, 7):
            f = rmap.frequency_to_canonical(omega)
            assert rmap.frequency_from_canonical(f) == pytest.approx(omega, abs=1e-12)

    def test_gap_needs_two_peaks(self):
        with pytest.raises(ValueError):
            build_rescale_map(-1.0, 1.0, 1)

    def test_delta_omega_override(self):
        rmap = RescaleMap(-1.0, 1.0, 10.0, 0.0)
        assert rmap.delta_omega == 10.0
        assert rmap.omega_max == pytest.approx(12.0 / TWO_PI)


class TestCanonicalMaps:
    def test_single_pole_at_zero_maps_to_half(self):
        rmap = build_rescale_map(-4.98, 4.98, 4)
        spec = LineSpectrum((Pole(1.0 + 0j, 0.0),), PHYSICAL)
        canon = to_canonical_spectrum(spec, rmap)
        assert canon.poles[0].frequency == pytest.approx(0.5, abs=1e-12)

    def test_zero_phase_shift_leaves_samples(self):
        # phi = 0 requires the padded window to start at zero
        rmap = RescaleMap(0.5, 2.0, 1.0, 0.0)
        assert rmap.phi == pytest.approx(0.0, abs=1e-13)
        grid = SamplingGrid(t0=0.0, n=8, dt=rmap.dt)
        spec = LineSpectrum((Pole(0.7 + 0j, 1.1),), PHYSICAL)
        signal = synthesize_signal(spec, grid)
        canon = to_canonical(signal, rmap)
        np.testing.assert_allclose(canon.samples, signal.samples, atol=1e-13)

    def test_from_canonical_symmetric_center(self):
        rmap = build_rescale_map(-4.98, 4.98, 4)
        spec = LineSpectrum((Pole(1.0 + 0j, 0.5),), CANONICAL)
        phys = from_canonical(spec, rmap)
        assert phys.poles[0].frequency == pytest.approx(0.0, abs=1e-12)

    def test_from_canonical_inverse_arithmetic(self):
        rmap = build_rescale_map(-4.98, 4.98, 4)
        f_hat = 3.042 / (TWO_PI * rmap.omega_max) + 0.5
        assert f_hat == pytest.approx(0.7291, abs=2e-4)
        phys = from_canonical(LineSpectrum((Pole(1.0, f_hat),), CANONICAL), rmap)
        assert phys.poles[0].frequency == pytest.approx(3.042, abs=1e-12)

    def test_nonzero_t0_pure_phase(self):
        rmap = build_rescale_map(-4.98, 4.98, 4, t0=0.7)
        spec = LineSpectrum((Pole(0.9 + 0j, 1.3), Pole(0.4 + 0j, -2.0)), PHYSICAL)
        canon = to_canonical_spectrum(spec, rmap)
        for p_in, p_out in zip(spec.poles, canon.poles):
            assert abs(p_out.amplitude) == pytest.approx(abs(p_in.amplitude), rel=1e-12)

    def test_round_trip_poles(self):
        rng = np.random.default_rng(11)
        rmap = build_rescale_map(-4.98, 4.98, 4, t0=0.3)
        for _ in range(20):
            spec = random_physical_spectrum(rng, 4, -4.5, 4.5)
            back = from_canonical(to_canonical_spectrum(spec, rmap), rmap)
            for p_in, p_out in zip(spec.poles, back.poles):
                assert p_out.frequency == pytest.approx(p_in.frequency, abs=1e-12)
                assert p_out.amplitude == pytest.approx(p_in.amplitude, abs=1e-12)

    def test_out_of_window_frequency_rejected(self):
        rmap = build_rescale_map(-1.0, 1.0, 2)
        spec = LineSpectrum((Pole(1.0, 50.0),), PHYSICAL)
        with pytest.raises(ValueError):
            to_canonical_spectrum(spec, rmap)

    def test_signal_spectrum_consistency(self):
        # demodulating the signal commutes with mapping the poles
        rng = np.random.default_rng(5)
        rmap = build_rescale_map(-4.98, 4.98, 4, t0=0.2)
        for _ in range(10):
            spec = random_physical_spectrum(rng, 3, -4.0, 4.0)
            grid = SamplingGrid(t0=0.2, n=16, dt=rmap.dt)
            via_signal = to_canonical(synthesize_signal(spec, grid), rmap)
            canon_spec = to_canonical_spectrum(spec, rmap)
            canon_grid = SamplingGrid(t0=0.0, n=16, dt=1.0)
            direct = synthesize_signal(canon_spec, canon_grid)
            np.testing.assert_allclose(via_signal.samples, direct.samples, atol=1e-12)

    def test_canonical_frequencies_in_unit_interval_with_gap(self):
        rng = np.random.default_rng(9)
        rmap = build_rescale_map(-4.98, 4.98, 4)
        for _ in range(20):
            spec = random_physical_spectrum(rng, 4, -4.98, 4.98)
            canon = to_canonical_spectrum(spec, rmap)
            freqs = canon.frequencies()
            assert freqs.min() >= 0.0 and freqs.max() < 1.0
            wrap_gap = (freqs.min() + 1.0) - freqs.max()
            assert wrap_gap >= rmap.delta_omega / (TWO_PI * rmap.omega_max) - 1e-12

    def test_dt_mismatch_rejected(self):
        rmap = build_rescale_map(-4.98, 4.98, 4)
        signal = TimeSignal(SamplingGrid(0.0, 4, 0.123), np.ones(4), PHYSICAL)
        with pytest.raises(ValueError):
            to_canonical(signal, rmap)


class TestSynthesize:
    def test_single_canonical_atom(self):
        grid = SamplingGrid(t0=0.0, n=12, dt=1.0)
        f = 0.37
        spec = LineSpectrum((Pole(1.0 + 0j, f),), CANONICAL)
        signal = synthesize_signal(spec, grid)
        np.testing.assert_allclose(
            signal.samples, np.exp(2j * np.pi * f * np.arange(12)), atol=1e-14
        )

    def test_impurity_pole_table_at_time_zero(self):
        grid = SamplingGrid(t0=0.0, n=2, dt=0.1)
        both = LineSpectrum(
            (
                Pole(0.525, 0.548),
                Pole(0.525, -0.548),
                Pole(0.475, 3.042),
                Pole(0.475, -3.042),
            ),
            PHYSICAL,
        )
        assert synthesize_signal(both, grid).samples[0] == pytest.approx(2.0)
        half = LineSpectrum((Pole(0.525, 0.548), Pole(0.475, 3.042)), PHYSICAL)
        assert synthesize_signal(half, grid).samples[0] == pytest.approx(1.0)

    def test_zero_amplitude_pole_is_inert(self):
        grid = SamplingGrid(t0=0.0, n=9, dt=0.3)
        base = LineSpectrum((Pole(1.0, 1.0),), PHYSICAL)
        padded = LineSpectrum((Pole(1.0, 1.0), Pole(0.0, 2.0)), PHYSICAL)
        np.testing.assert_allclose(
            synthesize_signal(base, grid).samples,
            synthesize_signal(padded, grid).samples,
            atol=1e-15,
        )


class TestValidation:
    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            LineSpectrum((Pole(1.0, 0.5), Pole(0.5, 0.5)), PHYSICAL)

    def test_canonical_range_enforced(self):
        with pytest.raises(ValueError):
            LineSpectrum((Pole(1.0, 1.5),), CANONICAL)

    def test_one_sample_grid_rejected(self):
        with pytest.raises(ValueError, match="need at least two samples"):
            SamplingGrid(0.0, 1, 1.0)

    def test_two_sample_grid_accepted(self):
        grid = SamplingGrid(0.5, 2, 0.25)
        np.testing.assert_array_equal(grid.times(), [0.5, 0.75])

    def test_sample_count_must_match_grid(self):
        with pytest.raises(ValueError):
            TimeSignal(SamplingGrid(0.0, 5, 1.0), np.zeros(4), PHYSICAL)

    @pytest.mark.parametrize("t0, dt", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf)])
    def test_non_finite_grid_rejected(self, t0, dt):
        with pytest.raises(ValueError, match="finite t0 and dt"):
            SamplingGrid(t0, 5, dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_sample_rejected(self, bad):
        samples = np.ones(5, dtype=complex)
        samples[2] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            TimeSignal(SamplingGrid(0.0, 5, 1.0), samples, PHYSICAL)

    def test_z_expect_range(self):
        with pytest.raises(ValueError):
            Pole(1.0, 0.5, z_expect=1.5)


class TestJson:
    def test_spectrum_round_trip(self):
        spec = LineSpectrum((Pole(0.5 + 0.25j, 1.25, 0.1), Pole(0.5, -1.0)), PHYSICAL)
        data = spectrum_to_json(spec)
        assert data[0] == {"re": 0.5, "im": 0.25, "freq": 1.25, "z": 0.1}
        assert data[1] == {"re": 0.5, "im": 0.0, "freq": -1.0, "z": None}

    def test_signal_round_trip(self):
        grid = SamplingGrid(t0=0.1, n=3, dt=0.5)
        signal = TimeSignal(grid, np.array([1 + 2j, 0, -1j]), PHYSICAL)
        data = signal_to_json(signal)
        assert set(data) == {"t0", "dt", "n", "samples"}
        assert data["samples"][0] == [1.0, 2.0]
        back = signal_from_json(json.loads(json.dumps(data)))
        assert back.grid == grid
        np.testing.assert_array_equal(back.samples, signal.samples)


_GRID = SamplingGrid(t0=0.0, n=4, dt=1.0)
_RMAP = RescaleMap(-1.0, 1.0, 0.5, 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LineSpectrum((), "fourier"), "unknown domain tag 'fourier'"),
        (lambda: SamplingGrid(t0=0.0, n=4, dt=0.0), "sample spacing must be positive"),
        (lambda: TimeSignal(_GRID, np.ones(4), "fourier"), "unknown domain tag 'fourier'"),
        (lambda: RescaleMap(1.0, 1.0, 0.5, 0.0), "need omega_b > omega_a"),
        (lambda: RescaleMap(-1.0, 1.0, 0.0, 0.0), "delta_omega must be positive"),
        (lambda: to_canonical(TimeSignal(_GRID, np.ones(4), CANONICAL), _RMAP),
         "to_canonical expects a physical-domain signal"),
        (lambda: to_canonical_spectrum(LineSpectrum((), CANONICAL), _RMAP),
         "expected a physical-domain spectrum"),
        (lambda: from_canonical(LineSpectrum((), PHYSICAL), _RMAP),
         "expected a canonical-domain spectrum"),
    ],
    ids=[
        "spectrum-domain", "zero-spacing", "signal-domain", "empty-window", "zero-padding",
        "canonical-signal", "canonical-spectrum", "physical-spectrum",
    ],
)
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
