"""Workload definitions: each turns a benchmark seed into one semijulia job
config (the JSON a user would pass to ``semijulia run``).

The program receives only the generated config.  The same seed always gives
the same config, so repeated jobs inside one run measure the same input.
"""
from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SHIPPED_ANNULUS = Path("scripts") / "configs" / "annulus.json"

# Worst |<T phi, mu> - <phi, mu>| a job's chain may show.  These values are
# noise of order 1/sqrt(atoms): on annulus-compare (200k subsampled atoms)
# seeds 2-6 gave 0.0014-0.0056, on cubic-rational (80k atoms) about 0.002.
# Criterion 06 pins 0.01 for one fixed seed; over many seeds the annulus
# chain would cross that by chance, so the bound is twice that.
INVARIANCE_BOUND = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], dict]
    # every grid's mass must lie in the annulus 1 <= |z| <= 4 (the Julia set
    # of the pair z^2, z^2/4)
    annulus_support: bool = False


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _chain_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _shipped_annulus(root: Path) -> dict:
    return json.loads((root / SHIPPED_ANNULUS).read_text())


def annulus_compare(seed: int, root: Path) -> dict:
    raw = _shipped_annulus(root)
    raw["seed"] = _chain_seed(_rng("annulus-compare", seed))
    return raw


def deep_tree(seed: int, root: Path) -> dict:
    raw = _shipped_annulus(root)
    theta = _rng("deep-tree", seed).uniform(0.0, 2.0 * math.pi)
    a = cmath.exp(1j * theta)
    raw.update(method="full", depth=13, a=[a.real, a.imag])
    return raw


def cubic_rational(seed: int, root: Path) -> dict:
    rng = _rng("cubic-rational", seed)
    # a start in the disk |z| < 1; this semigroup has no exceptional point
    # (the rational generator moves infinity), so every start is valid
    a = cmath.rect(rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0 * math.pi))
    return {
        "generators": [
            {"numerator": [[0.3, 0], [0, 0], [0, 0], [1, 0]]},
            {"numerator": [[0.5, 0], [0, 0], [1, 0]], "denominator": [[0, 0], [1.5, 0]]},
        ],
        "b": [0.5, 0.5],
        "a": [a.real, a.imag],
        "method": "random",
        "n": 20_000,
        "chains": 4,
        "burn_in": 100,
        "seed": _chain_seed(rng),
        "viewport": {"center": [0, 0], "width": 8, "height": 8, "nx": 512, "ny": 512},
        "image": {"colormap": "fire", "scale": "log"},
    }


def verify_suite(seed: int, root: Path) -> dict:
    # the criteria pin their own seeds; the benchmark seed does not apply
    return {"method": "verify"}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "annulus-compare",
            "the shipped annulus.json compare job: scalar quadratic chain and "
            "check_invariance dominate, the depth-8 tree is negligible",
            annulus_compare,
            annulus_support=True,
        ),
        Workload(
            "deep-tree",
            "depth-13 full tree streamed to a 512x512 grid: batched quadratic "
            "preimages and binning only, no chain or invariance work",
            deep_tree,
            annulus_support=True,
        ),
        Workload(
            "cubic-rational",
            "chain of a cubic and a rational generator: the only degree >= 3 "
            "and non-polynomial preimage paths, in the chain and in invariance",
            cubic_rational,
        ),
        Workload(
            "verify-suite",
            "semijulia verify with all ten criteria: large materialized trees, "
            "1M-step chains and the per-criterion budgets",
            verify_suite,
        ),
    )
}
