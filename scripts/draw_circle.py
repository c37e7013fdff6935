#!/usr/bin/env python3
"""Chaos-game picture of the Julia set of the squaring map (the unit circle),
plus a quick look at how evenly the chain fills it in.

Usage: python scripts/draw_circle.py [out_dir]
"""
import sys
from pathlib import Path

import numpy as np

from semijulia import (
    ImageSpec,
    Semigroup,
    Viewport,
    bin_cloud,
    empirical_measure,
    random_backward_orbit,
    rational_map,
    render_density,
    write_image,
)

N_STEPS = 400_000
BURN_IN = 100
SEED = 7


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    out_dir.mkdir(parents=True, exist_ok=True)

    sg = Semigroup((rational_map([0, 0, 1]),))
    orbit = random_backward_orbit(sg, 1, N_STEPS, seed=SEED)
    cloud = empirical_measure(orbit, BURN_IN)

    vp = Viewport(center=0j, width=3.0, height=3.0, nx=768, ny=768)
    grid = bin_cloud(cloud, vp)
    write_image(
        render_density(grid, ImageSpec(viewport=vp, colormap="ice")),
        out_dir / "circle.ppm",
    )

    pts = cloud.zs
    freq = np.histogram(np.mod(np.angle(pts), 2 * np.pi), bins=36,
                        range=(0, 2 * np.pi))[0] / pts.size
    print(f"radius spread: {np.abs(np.abs(pts) - 1).max():.2e}")
    print(f"angular histogram deviation from uniform: {np.abs(freq - 1/36).max():.2e}")
    print(f"wrote {out_dir / 'circle.ppm'}")


if __name__ == "__main__":
    main()
