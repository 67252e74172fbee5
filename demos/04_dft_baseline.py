#!/usr/bin/env python3
"""The comparison method: zero-padded DFT with iterative peak subtraction.

Zero padding refines where a peak sits but cannot split lines closer than
the reciprocal window length.  Well-separated lines are extracted cleanly
(exactly, when they sit on the unpadded grid); a sub-window pair collapses
into one displaced lobe.
"""

import numpy as np

from greenspec import SamplingGrid, TimeSignal, extract_peaks_clean

n = 32
j = np.arange(n)


def signal(lines):
    samples = sum(c * np.exp(2j * np.pi * f * j) for f, c in lines)
    return TimeSignal(SamplingGrid(0.0, n, 1.0), samples, "canonical")


# Case 1: two lines separated by several bins.
wide = [(0.17, 1.0), (0.63, 0.6)]
spectrum = extract_peaks_clean(signal(wide))
print("well-separated pair:")
for p in spectrum.poles:
    print(f"  f = {p.frequency:.5f}  |c| = {abs(p.amplitude):.4f}")
print(f"  truth: {wide}")

# Case 2: on-grid lines come back exactly.
on_grid = [(2 / n, 1.0), (9 / n, 0.5)]
spectrum = extract_peaks_clean(signal(on_grid))
print("\non-grid pair:")
for p, (f, c) in zip(spectrum.sorted_by_frequency().poles, on_grid):
    print(f"  f error {abs(p.frequency - f):.2e}   |c| error {abs(abs(p.amplitude) - c):.2e}")

# Case 3: sub-window separation: the extractor sees a single displaced lobe.
close = [(0.300, 1.0), (0.315, 0.8)]
spectrum = extract_peaks_clean(signal(close))
print("\nsub-window pair (separation half a bin):")
for p in spectrum.poles:
    print(f"  f = {p.frequency:.5f}  |c| = {abs(p.amplitude):.4f}")
print(f"  truth: {close}  ->  merged/displaced, the motivation for super-resolution")
