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
out, and the gate acts inside the assignment: an out-of-gate pair costs more
than all in-gate pairs together, so the assignment keeps as many in-gate
pairs as it can and only then minimizes their total distance.  A tie in
total distance between a pairing that the gate cuts and one that it keeps
whole is therefore not settled by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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


def match_poles(truth: LineSpectrum, estimate: LineSpectrum) -> MatchReport:
    """Minimum-cost assignment of estimated poles to true poles.

    Cost is |w_l - w_hat_m|; pairs farther apart than a quarter of the joint
    frequency span cost more than every in-gate pair together, and any such
    pair the assignment still makes is rejected to the unmatched lists.  An
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
    max_distance = np.inf if span == 0.0 else span / 4.0
    cost = np.abs(wt[:, None] - we[None, :])
    in_gate = cost <= max_distance
    rows, cols = linear_sum_assignment(np.where(in_gate, cost, 1.0 + cost[in_gate].sum()))
    pairs = tuple((int(r), int(c)) for r, c in zip(rows, cols) if in_gate[r, c])
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

