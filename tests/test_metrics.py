import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _oracles import gated_assignment_oracle

import greenspec
from greenspec.metrics import match_poles
from greenspec.spectrum import PHYSICAL, LineSpectrum, Pole


def spec(*pairs):
    return LineSpectrum(tuple(Pole(complex(c), float(w)) for c, w in pairs), PHYSICAL)


# printed pole tables: truth, atomic-norm estimate, DFT estimate
TRUTH = spec((0.525, 0.548), (0.525, -0.548), (0.475, 3.042), (0.475, -3.042))
EST_ANM = spec((0.524, 0.562), (0.524, -0.562), (0.475, 3.025), (0.475, -3.025))
EST_DFT = spec((0.528, 0.265), (0.528, -0.265), (0.460, 2.836), (0.460, -2.836))
# both estimates at 0.8 and 0.9 lie below the true poles at 1.0 and 1.2, in
# the gate either way, and both pairings sum to the same double (0.5 - 2^-53)
SAME_SIDE_TRUTH = spec((1.0, 1.0), (0.6, 1.2), (0.8, 3.0))
SAME_SIDE_EST = spec((0.7, 0.8), (0.9, 0.9), (0.8, 3.05))


def in_gate_score(pairs, truth, est):
    """(number of pairs, their total frequency distance)."""
    wt, we = truth.frequencies(), est.frequencies()
    return len(pairs), sum(abs(wt[l] - we[m]) for l, m in pairs)


class TestMatchPoles:
    def test_identical_spectra_pair_perfectly(self):
        report = match_poles(TRUTH, TRUTH)
        assert report.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert report.unmatched_true == ()
        assert report.unmatched_est == ()
        assert report.epsilon == 0.0

    @pytest.mark.parametrize(
        "truth, est", [(TRUTH, EST_ANM), (SAME_SIDE_TRUTH, SAME_SIDE_EST)], ids=["anm", "same_side"]
    )
    def test_permutation_invariant(self, truth, est):
        shuffled = LineSpectrum(tuple(reversed(est.poles)), PHYSICAL)
        a = match_poles(truth, est)
        b = match_poles(truth, shuffled)
        assert a.epsilon == b.epsilon
        pairs_a = [(l, est.poles[m].frequency) for l, m in a.pairs]
        pairs_b = [(l, shuffled.poles[m].frequency) for l, m in b.pairs]
        assert pairs_a == pairs_b

    def test_distance_tie_keeps_frequency_order(self):
        # the crossed pairing (1.0 with 0.9, 1.2 with 0.8) costs the same
        # distance and would score eps (0.2 + 0.34 + 0.04) / 6.52; a general
        # assignment solver picks it here by rounding
        report = match_poles(SAME_SIDE_TRUTH, SAME_SIDE_EST)
        assert report.pairs == ((0, 0), (1, 1), (2, 2))
        assert report.epsilon == pytest.approx((0.5 + 0.48 + 0.04) / 6.52, rel=1e-12)

    def test_agrees_with_general_assignment(self):
        # the order-preserving pairing must keep as many in-gate pairs as the
        # gated cost matrix's optimal assignment, at the same total distance;
        # the pairs themselves may differ where two pairings tie
        rng = np.random.default_rng(27)
        cut = 0
        for _ in range(3000):
            k, m = int(rng.integers(1, 7)), int(rng.integers(0, 12))
            wt = rng.uniform(-4.0, 4.0, k)
            if rng.random() < 0.5:
                we = rng.uniform(-4.0, 4.0, m)
            else:
                near = wt[rng.integers(0, k, m)] + rng.normal(0.0, 0.5, m)
                we = np.where(rng.random(m) < 0.7, near, rng.uniform(-6.0, 6.0, m))
            truth = spec(*zip(np.ones(k), wt))
            est = spec(*zip(np.ones(m), we))
            report = match_poles(truth, est)
            oracle = gated_assignment_oracle(wt, we)
            count, dist = in_gate_score(report.pairs, truth, est)
            assert count == len(oracle)
            assert dist == pytest.approx(in_gate_score(oracle, truth, est)[1], rel=1e-12)
            cut += count < min(k, m)
        # the gate decided a good share of the instances
        assert cut > 300

    def test_extra_estimate_goes_unmatched(self):
        truth = spec((1.0, 0.5), (1.0, 2.5))
        est = spec((1.0, 0.52), (1.0, 2.48), (0.1, 1.5))
        report = match_poles(truth, est)
        assert len(report.pairs) == 2
        assert report.unmatched_est == (2,)

    def test_distant_pair_rejected(self):
        truth = spec((1.0, 0.0), (1.0, 10.0))
        est = spec((1.0, 0.1), (1.0, 4.0))
        report = match_poles(truth, est)
        # |4 - 10| = 6 exceeds a quarter of the 10-wide span
        assert (1, 1) not in report.pairs
        assert 1 in report.unmatched_true
        assert 1 in report.unmatched_est

    def test_gate_decides_before_assignment(self):
        # the estimates at -4.9957 and -3.4413 both lie below the true poles
        # at -3.0415 and -0.5475, so both ways of pairing those four tie in
        # total distance; assigning on the ungated distance let rounding pair
        # -3.0415 with -4.9957 (eps 0.6504), which cost the pair the gate
        # (2.020) then dropped, while three in-gate pairs were possible
        truth = spec(
            (0.47541010444922405, -3.041470123567383),
            (0.5245898955507757, -0.5474572928064823),
            (0.5245898955507757, 0.5474572928064823),
            (0.47541010444922405, 3.041470123567383),
        )
        est = spec(
            (0.092526834475172, -4.995714493941825),
            (0.536499820463185, -3.441335204924829),
            (1.0514774735067396, -0.05883436042010748),
            (0.50477749388247, 3.0850236819538903),
        )
        report = match_poles(truth, est)
        assert report.pairs == ((0, 1), (1, 2), (3, 3))
        assert report.unmatched_true == (2,)
        assert report.unmatched_est == (0,)
        assert report.epsilon == pytest.approx(0.3638, abs=1e-4)

    def test_import_leaves_scipy_linalg_and_optimize_unloaded(self):
        # scipy.optimize costs about 20 MB and a quarter second at start-up,
        # and scipy.linalg about 24 MB and 160 ms, so neither the package nor
        # its command line may load them
        src = str(Path(greenspec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = (
            "import sys, greenspec, greenspec.cli; "
            "sys.exit(sorted({'scipy.linalg', 'scipy.optimize'} & set(sys.modules)) or None)"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert result.returncode == 0

    def test_empty_estimate(self):
        report = match_poles(TRUTH, LineSpectrum((), PHYSICAL))
        assert report.pairs == ()
        assert report.epsilon == pytest.approx(1.0)


class TestReconstructionError:
    def test_zero_for_identical(self):
        assert match_poles(TRUTH, TRUTH).epsilon == 0.0

    def test_printed_regression_values(self):
        # frozen from direct evaluation of the error functional on the
        # printed three-decimal tables
        assert match_poles(TRUTH, EST_ANM).epsilon == pytest.approx(0.0060106, abs=1e-6)
        assert match_poles(TRUTH, EST_DFT).epsilon == pytest.approx(0.0967650, abs=1e-6)

    def test_amplitude_scale_invariance(self):
        lam = 3.7
        truth_s = LineSpectrum(
            tuple(Pole(lam * p.amplitude, p.frequency) for p in TRUTH.poles), PHYSICAL
        )
        est_s = LineSpectrum(
            tuple(Pole(lam * p.amplitude, p.frequency) for p in EST_ANM.poles), PHYSICAL
        )
        assert match_poles(truth_s, est_s).epsilon == pytest.approx(
            match_poles(TRUTH, EST_ANM).epsilon, rel=1e-12
        )

    def test_zero_iff_identical_for_full_matchings(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            freqs = np.sort(rng.uniform(-3, 3, 3))
            while np.min(np.diff(freqs)) < 0.3:
                freqs = np.sort(rng.uniform(-3, 3, 3))
            amps = rng.uniform(0.1, 1.0, 3)
            truth = spec(*zip(amps, freqs))
            assert match_poles(truth, truth).epsilon == 0.0
            bumped = spec(*zip(amps, freqs + rng.uniform(1e-4, 1e-2, 3)))
            assert match_poles(truth, bumped).epsilon > 0.0

    def test_missing_pole_contributes_full_weight(self):
        truth = spec((1.0, 2.0), (0.5, -1.0))
        est = spec((1.0, 2.0))
        # unmatched true pole adds |c| (|w| + 1) = 0.5 * 2 to the numerator
        denom = 1.0 * 3.0 + 0.5 * 2.0
        assert match_poles(truth, est).epsilon == pytest.approx(1.0 / denom)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="true spectrum is empty"):
            match_poles(LineSpectrum((), PHYSICAL), TRUTH)

    def test_empty_truth_and_estimate_rejected(self):
        with pytest.raises(ValueError, match="true spectrum is empty"):
            match_poles(LineSpectrum((), PHYSICAL), LineSpectrum((), PHYSICAL))

    def test_domain_mismatch_rejected(self):
        canon = LineSpectrum((Pole(1.0, 0.5),), "canonical")
        with pytest.raises(ValueError):
            match_poles(TRUTH, canon)


def test_weightless_truth_rejected():
    # epsilon divides by the true spectrum's total weight
    with pytest.raises(ValueError, match="^true spectrum has zero total weight$"):
        match_poles(spec((0.0, 1.0)), spec((1.0, 1.0)))
