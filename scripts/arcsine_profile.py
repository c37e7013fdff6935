#!/usr/bin/env python3
"""Backward-orbit statistics for z^2 - 2, whose Julia set is the segment
[-2, 2] carrying the arcsine law.  Prints the Kolmogorov-Smirnov distance of
the empirical distribution against the closed-form CDF and a coarse text
histogram showing the 1/sqrt(4 - x^2) density shape.

Usage: python scripts/arcsine_profile.py
"""
import numpy as np

from semijulia import Semigroup, empirical_measure, random_backward_orbit, rational_map

N_STEPS = 300_000
BURN_IN = 100
SEED = 13


def main() -> None:
    sg = Semigroup((rational_map([-2, 0, 1]),))
    orbit = random_backward_orbit(sg, 0, N_STEPS, seed=SEED)
    xs = np.sort(empirical_measure(orbit, BURN_IN).zs.real)

    cdf = 0.5 + np.arcsin(np.clip(xs / 2, -1, 1)) / np.pi
    i = np.arange(1, xs.size + 1)
    ks = max(np.abs(i / xs.size - cdf).max(), np.abs((i - 1) / xs.size - cdf).max())
    print(f"KS distance to the arcsine law: {ks:.5f}  (n = {xs.size})")

    hist, edges = np.histogram(xs, bins=24, range=(-2, 2))
    peak = hist.max()
    for count, lo, hi in zip(hist, edges, edges[1:]):
        bar = "#" * round(40 * count / peak)
        print(f"[{lo:+.2f}, {hi:+.2f})  {bar}")


if __name__ == "__main__":
    main()
