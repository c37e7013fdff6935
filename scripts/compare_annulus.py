#!/usr/bin/env python3
"""Full-tree vs chaos-game comparison on the two-generator pair z^2, z^2/4,
whose Julia set is the closed annulus 1 <= |z| <= 4.

Renders both approximations and prints the grid total-variation distance
between them for a few tree depths, which makes the depth-resolution
trade-off of the full method visible.

Usage: python scripts/compare_annulus.py [out_dir]
"""
import sys
from pathlib import Path

from semijulia import (
    ImageSpec,
    ProbabilityVector,
    Semigroup,
    Viewport,
    bin_cloud,
    full_tree_grid,
    rational_map,
    render_density,
    run_chains,
    total_variation,
    write_image,
)

SEEDS = [21, 22, 23, 24]


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    out_dir.mkdir(parents=True, exist_ok=True)

    sg = Semigroup(
        (rational_map([0, 0, 1]), rational_map([0, 0, 0.25])),
        ProbabilityVector([0.5, 0.5]),
    )
    vp = Viewport(center=0j, width=9.0, height=9.0, nx=512, ny=512)
    spec = ImageSpec(viewport=vp, colormap="fire")

    chains = run_chains(sg, 1, 250_000, len(SEEDS), burn_in=100, seeds=SEEDS)
    chain_grid = bin_cloud(chains, vp)
    write_image(render_density(chain_grid, spec), out_dir / "annulus_random.ppm")

    for depth in (6, 8, 10):
        tree_grid = full_tree_grid(sg, 1, depth, vp)
        tv = total_variation(tree_grid, chain_grid)
        print(f"depth {depth:2d} ({4**depth:>8d} atoms): TV vs 1M-step chains = {tv:.4f}")
        if depth == 10:
            write_image(render_density(tree_grid, spec), out_dir / "annulus_full.ppm")

    print(f"wrote {out_dir / 'annulus_random.ppm'} and {out_dir / 'annulus_full.ppm'}")


if __name__ == "__main__":
    main()
