import numpy as np
import pytest
from _oracles import golden_peak_fit, windowed_misfit

from greenspec.dft import _PAD_FACTOR, _atom, _fit_peak, dirichlet_kernel, extract_peaks_clean
from greenspec.spectrum import CANONICAL, SamplingGrid, TimeSignal, _wrap_distance


def make_signal(n, freqs, coeffs):
    j = np.arange(n)
    samples = sum(c * np.exp(2j * np.pi * f * j) for f, c in zip(freqs, coeffs))
    return TimeSignal(SamplingGrid(0.0, n, 1.0), np.asarray(samples, dtype=complex), CANONICAL)


class TestDirichletKernel:
    def test_on_grid_atom_is_single_bin(self):
        # off its own bin, the kernel of an on-grid atom vanishes on the unpadded grid
        n = 16
        k = np.arange(n)
        values = dirichlet_kernel(3 / n - k / n, n)
        assert abs(values[3]) == pytest.approx(n, abs=1e-10)
        assert np.all(np.abs(np.delete(values, 3)) < 1e-10)

    def test_off_grid_atom_matches_kernel(self):
        n = 12
        f = 0.2937
        y = make_signal(n, [f], [1.0])
        values = np.fft.fft(y.samples, 16 * n)
        expected = dirichlet_kernel(f - np.fft.fftfreq(16 * n), n)
        np.testing.assert_allclose(values, expected, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("delta", [0.0, 1.0, -1.0, 2.0, 3.0])
    def test_kernel_at_integer_offset_is_its_sum(self, delta, n):
        # sin(pi n delta)/sin(pi delta) is 0/0 here; an odd delta flips its sign for even n
        want = np.sum(np.exp(2j * np.pi * delta * np.arange(n)))
        assert dirichlet_kernel(delta, n) == pytest.approx(want, abs=1e-12)


class TestExtractPeaksClean:
    def test_single_off_grid_atom(self):
        n = 16
        f = 0.2937
        y = make_signal(n, [f], [0.9])
        spec = extract_peaks_clean(y)
        assert len(spec.poles) >= 1
        top = max(spec.poles, key=lambda p: abs(p.amplitude))
        assert top.frequency == pytest.approx(f, abs=1.0 / (2 * _PAD_FACTOR * n))
        assert abs(top.amplitude) == pytest.approx(0.9, rel=0.02)

    def test_two_well_separated_atoms(self):
        n = 32
        y = make_signal(n, [0.17, 0.63], [1.0, 0.6])
        spec = extract_peaks_clean(y)
        top_two = sorted(spec.poles, key=lambda p: -abs(p.amplitude))[:2]
        top_two = sorted(top_two, key=lambda p: p.frequency)
        assert top_two[0].frequency == pytest.approx(0.17, abs=2e-3)
        assert top_two[1].frequency == pytest.approx(0.63, abs=2e-3)
        assert abs(top_two[0].amplitude) == pytest.approx(1.0, rel=0.02)
        assert abs(top_two[1].amplitude) == pytest.approx(0.6, rel=0.02)

    def test_on_grid_atoms_recovered_exactly(self):
        n = 16
        freqs = [2 / n, 7 / n, 11 / n]
        coeffs = [1.0, 0.8, 0.5]
        y = make_signal(n, freqs, coeffs)
        spec = extract_peaks_clean(y)
        assert len(spec.poles) == 3
        got = sorted(spec.poles, key=lambda p: p.frequency)
        for pole, f, c in zip(got, freqs, coeffs):
            assert pole.frequency == pytest.approx(f, abs=1e-9)
            assert abs(pole.amplitude) == pytest.approx(c, abs=1e-8)

    def test_residual_peak_magnitude_decreases(self):
        # re-run the subtraction loop manually to watch the residual
        n = 24
        rng = np.random.default_rng(1)
        y = make_signal(n, [0.11, 0.43, 0.77], [1.0, 0.7, 0.4])
        y = TimeSignal(
            y.grid,
            y.samples + 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            CANONICAL,
        )
        total = _PAD_FACTOR * n
        residual = np.fft.fft(y.samples, total)
        maxima = [np.max(np.abs(residual))]
        for _ in range(4):
            k = int(np.argmax(np.abs(residual)))
            amp, f_hat = _fit_peak(residual, k, n, total)
            residual = residual - amp * dirichlet_kernel(f_hat - np.arange(total) / total, n)
            maxima.append(np.max(np.abs(residual)))
        assert all(b <= a + 1e-9 for a, b in zip(maxima, maxima[1:]))

    def test_stop_fraction_limits_peaks(self):
        # the second line is 3% of the first, below the 5% stop
        n = 32
        y = make_signal(n, [0.2, 0.6], [1.0, 0.03])
        spec = extract_peaks_clean(y)
        assert len(spec.poles) == 1

    def test_empty_signal(self):
        y = make_signal(8, [0.3], [0.0])
        spec = extract_peaks_clean(y)
        assert spec.poles == ()

    def test_one_sample_rejected(self):
        with pytest.raises(ValueError, match="need at least two samples"):
            extract_peaks_clean(make_signal(1, [0.3], [1.0]))

    def test_sub_resolution_pair_usually_merges(self):
        # two lines closer than 1/n: the windowed transform cannot split
        # them, so the extractor almost never returns two peaks that each
        # land on a separate true line
        n = 24
        rng = np.random.default_rng(7)
        sep = 0.4 / n
        failures = 0
        trials = 30
        for _ in range(trials):
            f0 = rng.uniform(0.1, 0.8)
            phases = np.exp(2j * np.pi * rng.uniform(0, 1, 2))
            y = make_signal(n, [f0, f0 + sep], list(phases))
            spec = extract_peaks_clean(y)
            resolved = all(
                any(abs(p.frequency - f_true) < sep / 4 for p in spec.poles)
                for f_true in (f0, f0 + sep)
            ) and len(spec.poles) >= 2
            failures += not resolved
        assert failures >= 0.9 * trials


class TestFitPeak:
    @pytest.mark.parametrize("n", [5, 24, 101])
    def test_noiseless_off_grid_atom_recovered(self, n):
        # f anywhere in the +-1-bin search interval, at its edges, and on
        # both sides of the 0/1 wrap (k_max = 0 and k_max = total - 1)
        total = 16 * n
        rng = np.random.default_rng(n)
        offsets = [*rng.uniform(-1.0, 1.0, 6), -1.0, 1.0, -1.0 + 1e-6, 1.0 - 1e-6, 0.0]
        for k_max in (0, 7 * n, total - 1):
            for t in offsets:
                f = (k_max + t) / total
                amp = 0.8 * np.exp(2j * np.pi * rng.uniform())
                residual = np.fft.fft(amp * np.exp(2j * np.pi * f * np.arange(n)), total)
                amp_hat, f_hat = _fit_peak(residual, k_max, n, total)
                assert 0.0 <= f_hat < 1.0
                assert _wrap_distance(f_hat, f % 1.0) <= 1e-9 / total
                assert abs(amp_hat - amp) <= 1e-9 * abs(amp)

    def test_misfit_no_worse_than_golden_section(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            n = int(rng.integers(6, 60))
            total = 16 * n
            freqs = rng.uniform(0.0, 1.0, 3)
            coeffs = rng.uniform(0.2, 1.0, 3) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 3))
            j = np.arange(n)
            samples = (coeffs[None, :] * np.exp(2j * np.pi * np.outer(j, freqs))).sum(axis=1)
            samples += 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            residual = np.fft.fft(samples, total)
            k_max = int(np.argmax(np.abs(residual)))
            _, f_batched = _fit_peak(residual, k_max, n, total)
            _, f_golden = golden_peak_fit(residual, k_max, n, total)
            batched = windowed_misfit(residual, k_max, n, total, f_batched)[0]
            golden = windowed_misfit(residual, k_max, n, total, f_golden)[0]
            assert batched <= golden * (1.0 + 1e-12), trial


class TestTableAtom:
    @pytest.mark.parametrize("n, pad", [(1, 16), (2, 1), (7, 4), (24, 16), (101, 16), (801, 16)])
    def test_matches_kernel(self, n, pad):
        total = pad * n
        turn = np.exp(1j * np.pi * np.arange(total) / total)
        rng = np.random.default_rng(total)
        # on grid the expanded denominator vanishes; the value there is n * amp
        on_grid = [0.0, 3 / total, (total - 1) / total]
        for f in [*rng.uniform(0.0, 1.0, 8), *on_grid, 1.0 - 1e-15]:
            amp = complex(*rng.standard_normal(2))
            got = _atom((amp, f), n, turn)
            want = amp * dirichlet_kernel(f - np.arange(total) / total, n)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * n * abs(amp))

