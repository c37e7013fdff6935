"""Output checks that feed the benchmark's failed/attempted counts.

Each check returns ``(name, ok, detail)``.  The grid checks parse the
written artifacts with their own reader, not with ``grid_from_text``, so a
fault shared by the package's writer and reader still shows.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MASS_TOL = 1e-9
PREDECESSOR_TOL = 1e-9
PREDECESSOR_SAMPLE = 1000
ANNULUS = (1.0, 4.0)


def read_grid(path: Path) -> dict:
    """Parse a ``semijulia-grid 1`` text export."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "semijulia-grid 1":
        raise ValueError(f"{path}: not a semijulia grid export")
    head = {ln.split()[0]: ln.split()[1:] for ln in lines[1:5]}
    nx, ny = (int(v) for v in head["resolution"])
    rows = lines[5:]
    cells = np.array([[float(v) for v in ln.split()] for ln in rows])
    if cells.shape != (ny, nx):
        raise ValueError(f"{path}: cells {cells.shape} != ({ny}, {nx})")
    return {
        "center": complex(*(float(v) for v in head["center"])),
        "width": float(head["size"][0]),
        "height": float(head["size"][1]),
        "nx": nx,
        "ny": ny,
        "outside": float(head["outside"][0]),
        "cells": cells,
    }


def grid_mass(name: str, grid: dict) -> tuple[str, bool, str]:
    """Cells plus overflow carry total mass 1, and no cell is negative."""
    total = float(grid["cells"].sum()) + grid["outside"]
    ok = abs(total - 1.0) <= MASS_TOL and float(grid["cells"].min()) >= 0.0
    return f"{name}.mass", ok, f"total mass {total!r}"


def annulus_support(name: str, grid: dict) -> tuple[str, bool, str]:
    """All mass sits in cells that meet 1 <= |z| <= 4 (cell centres within
    half a cell diagonal of the annulus); nothing overflows the viewport."""
    nx, ny = grid["nx"], grid["ny"]
    cw, ch = grid["width"] / nx, grid["height"] / ny
    x = grid["center"].real - grid["width"] / 2 + (np.arange(nx) + 0.5) * cw
    y = grid["center"].imag + grid["height"] / 2 - (np.arange(ny) + 0.5) * ch
    r = np.hypot(x[None, :], y[:, None])
    slack = 0.5 * math.hypot(cw, ch)
    lo, hi = ANNULUS
    off = (r < lo - slack) | (r > hi + slack)
    stray = float(grid["cells"][off].sum()) + grid["outside"]
    return f"{name}.annulus_support", stray == 0.0, f"mass off the annulus {stray!r}"


def ppm(name: str, path: Path, nx: int, ny: int) -> tuple[str, bool, str]:
    """A complete binary PPM of the viewport's size."""
    data = Path(path).read_bytes()
    header = b"P6\n%d %d\n255\n" % (nx, ny)
    ok = data.startswith(header) and len(data) == len(header) + 3 * nx * ny
    return f"{name}.ppm", ok, f"{len(data)} bytes"


def chain_predecessors(sg, arguments: dict, cloud, rng, evaluate, chordal):
    """On sampled consecutive chain points, some generator maps each point to
    its predecessor within PREDECESSOR_TOL (chordal)."""
    chains = arguments["n_chains"]
    length = len(cloud) // chains  # run_chains concatenates equal tails
    blocks = rng.integers(0, chains, PREDECESSOR_SAMPLE)
    offsets = rng.integers(1, length, PREDECESSOR_SAMPLE)
    worst = 0.0
    for b, i in zip(blocks.tolist(), offsets.tolist()):
        prev = cloud.points[b * length + i - 1]
        cur = cloud.points[b * length + i]
        worst = max(worst, min(chordal(evaluate(g, cur), prev) for g in sg.generators))
    return (
        "chain.predecessor",
        worst <= PREDECESSOR_TOL,
        f"worst chordal residual {worst!r} over {PREDECESSOR_SAMPLE} pairs",
    )


def invariance(values: dict[str, float], bound: float) -> tuple[str, bool, str]:
    worst_name, worst = max(((k, float(v)) for k, v in values.items()), key=lambda kv: kv[1])
    return "invariance", worst <= bound, f"worst {worst_name}={worst!r} (bound {bound})"
