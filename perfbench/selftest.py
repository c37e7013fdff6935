"""Quick self-test of the benchmark harness at tiny job sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the harness agree on every name, that a run
of each listed workload emits every end-to-end metric (untraced) and every
per-layer metric (traced) with all output checks passing, and that the grid
checks catch corrupted grids.  Takes well under a minute.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import checks
import run

ROOT = run.HERE.parent

# shrink each job; the workload's semigroup, start and seeds stay as built.
# The chains stay long enough for the invariance bound to hold.
TINY = {
    "annulus-compare": {"n": 20000, "depth": 4},
    # 4^6 atoms over a 100-atom budget still goes through the streamed path
    "deep-tree": {"depth": 6, "max_atoms": 100},
    "cubic-rational": {"n": 3000},
}
TINY_VIEWPORT = {"nx": 64, "ny": 64}


def check_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in bench["workloads"]]
    assert set(listed) == set(TINY), listed
    assert all(w in run.WORKLOADS for w in listed), listed
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]], m
    for m in bench["per_layer"]:
        assert m["unit"] == run.PER_LAYER[m["name"]], m


def check_runs() -> None:
    for name, sizes in TINY.items():
        overrides = dict(sizes)
        overrides["viewport"] = {**run.WORKLOADS[name].build(1, ROOT)["viewport"], **TINY_VIEWPORT}
        for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            line, record = run.run_benchmark(ROOT, name, 1, 0, trace, overrides)
            assert set(line["metrics"]) == set(expected), (name, trace, sorted(line["metrics"]))
            bad = [c for c in record["checks"] if not c["ok"]]
            assert line["correct"] and not bad and line["attempted"] >= 4, (name, bad)
            for key, m in line["metrics"].items():
                assert m["unit"] == expected[key] and isinstance(m["value"], (int, float))
            if not trace:
                assert all(line["metrics"][k]["value"] > 0 for k in expected), line
        print(f"ok {name}: {line['attempted']} checks, all metrics emitted")


def check_corruption(tmp: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from semijulia import (
        Semigroup, Viewport, full_tree_grid, grid_to_text, rational_map,
    )

    sg = Semigroup((rational_map([0, 0, 1]), rational_map([0, 0, 0.25])))
    vp = Viewport(center=0j, width=9.0, height=9.0, nx=32, ny=32)
    text = grid_to_text(full_tree_grid(sg, 1 + 0j, 5, vp))
    path = tmp / "selftest.grid.txt"

    def parsed(body: str) -> dict:
        path.write_text(body)
        return checks.read_grid(path)

    good = parsed(text)
    assert checks.grid_mass("g", good)[1] and checks.annulus_support("g", good)[1]

    heavy = parsed(text)
    heavy["cells"][heavy["cells"] > 0] *= 1.001
    assert not checks.grid_mass("g", heavy)[1], "scaled grid passed the mass check"

    moved = parsed(text)
    i = np.flatnonzero(moved["cells"])[0]
    mass = moved["cells"].flat[i]
    moved["cells"].flat[i] = 0.0
    moved["cells"][16, 16] += mass  # the cell at the origin, inside |z| < 1
    assert checks.grid_mass("g", moved)[1]
    assert not checks.annulus_support("g", moved)[1], "mass at 0 passed the support check"

    lines = text.splitlines()
    try:
        parsed("\n".join(lines[:-1]) + "\n")
    except ValueError:
        pass
    else:
        raise AssertionError("a truncated grid export parsed")
    print("ok corrupted grids are caught")


def main() -> int:
    check_names()
    tmp = ROOT / ".perfbench"
    tmp.mkdir(exist_ok=True)
    check_corruption(tmp)
    check_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
