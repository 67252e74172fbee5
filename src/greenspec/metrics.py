"""Pole matching and the amplitude-weighted reconstruction error.

The error functional compares a true spectrum {(c_l, w_l)} against an
estimate {(c_hat_m, w_hat_m)} after pairing poles by a minimum-cost
assignment on frequency distance:

    eps = [ sum_pairs |c_l| |w_l - w_hat_l| + |c_l - c_hat_l| ] / D,
    D   = sum_true |c_j| |w_j| + |c_j|.

Each unmatched true pole contributes as if estimated by nothing (its full
denominator weight enters the numerator); each unmatched estimated pole
contributes its own magnitude.  The functional is zero exactly for a perfect
full matching and invariant under joint amplitude rescaling.

Pairs farther apart than a quarter of the joint frequency span are gated
out, and the gate acts inside the assignment: it keeps as many in-gate pairs
as it can and only then minimizes their total distance.  The assignment
runs on the sorted frequencies and pairs them in order.  That is exact,
because |w - w_hat| on a line is a Monge cost: two crossing pairs, once
uncrossed, have a sum no larger and neither distance larger than the longer
crossed one, so uncrossing keeps every pair in the gate and never costs
more.  A tie in total distance is settled by frequency order, not by
rounding: of two estimates on the same side of two true poles, the lower
goes to the lower pole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import LineSpectrum


@dataclass(frozen=True)
class MatchReport:
    """Pairing between true and estimated poles plus the resulting error."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_true: tuple[int, ...]
    unmatched_est: tuple[int, ...]
    epsilon: float

    def to_json(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "unmatched_true": list(self.unmatched_true),
            "unmatched_est": list(self.unmatched_est),
            "epsilon": self.epsilon,
        }


def _ordered_pairs(wt: np.ndarray, we: np.ndarray, max_distance: float):
    """Order-preserving pairs of true and estimated frequencies: the most
    pairs within max_distance, then the least total distance, then the pairs
    that come first in frequency order.  Returns (truth index, estimate
    index) pairs sorted by truth index.
    """
    ot = np.argsort(wt, kind="stable")
    oe = np.argsort(we, kind="stable")
    a, b = wt[ot].tolist(), we[oe].tolist()
    # best[i][j] = (-pairs, distance, pairs) over the first i true and j
    # estimated frequencies in sorted order, compared as a tuple
    best = [[(0, 0.0, ())] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, ai in enumerate(a, 1):
        for j, bj in enumerate(b, 1):
            step = [best[i - 1][j], best[i][j - 1]]
            d = abs(ai - bj)
            if d <= max_distance:
                count, dist, pairs = best[i - 1][j - 1]
                step.append((count - 1, dist + d, pairs + ((i - 1, j - 1),)))
            best[i][j] = min(step)
    return tuple(sorted((int(ot[i]), int(oe[j])) for i, j in best[-1][-1][2]))


def match_poles(truth: LineSpectrum, estimate: LineSpectrum) -> MatchReport:
    """Minimum-cost assignment of estimated poles to true poles.

    Cost is |w_l - w_hat_m|, and pairs farther apart than a quarter of the
    joint frequency span are not made.  The assignment pairs the sorted
    frequencies in order, keeping the most in-gate pairs and then the least
    total distance; it is exact for distances on a line, and it settles a
    distance tie by frequency order.  Pairs come sorted by truth index.  An
    empty truth has no error to score and raises ValueError.
    """
    if not truth.poles:
        raise ValueError("true spectrum is empty")
    if truth.domain != estimate.domain:
        raise ValueError("spectra must share a domain")
    wt = truth.frequencies()
    we = estimate.frequencies()
    allfreq = np.concatenate([wt, we])
    span = float(allfreq.max() - allfreq.min())
    pairs = _ordered_pairs(wt, we, np.inf if span == 0.0 else span / 4.0)
    unmatched_true = tuple(sorted(set(range(len(wt))) - {l for l, _ in pairs}))
    unmatched_est = tuple(sorted(set(range(len(we))) - {m for _, m in pairs}))
    # summed as pairs, unmatched true poles, unmatched estimates, each by index:
    # epsilon's last bit depends on this order
    numer = 0.0
    for l, m in pairs:
        pt, pe = truth.poles[l], estimate.poles[m]
        numer += abs(pt.amplitude) * abs(pt.frequency - pe.frequency)
        numer += abs(pt.amplitude - pe.amplitude)
    for pt in (truth.poles[l] for l in unmatched_true):
        numer += abs(pt.amplitude) * abs(pt.frequency) + abs(pt.amplitude)
    for pe in (estimate.poles[m] for m in unmatched_est):
        numer += abs(pe.amplitude)
    denom = sum(abs(p.amplitude) * abs(p.frequency) + abs(p.amplitude) for p in truth.poles)
    if denom == 0.0:
        raise ValueError("true spectrum has zero total weight")
    return MatchReport(pairs, unmatched_true, unmatched_est, numer / denom)

