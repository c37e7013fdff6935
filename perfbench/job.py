"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py --config CFG --result OUT.json --workload NAME \
        --src CHECKOUT/src [--seed N] [--setup-only] [--trace]

Set-up (interpreter start, ``import semijulia``, ``parse_config`` and
``validate_assumptions``) ends at a validated start point; the job then runs
``execute_run`` on the config, checks its outputs and, when traced, probes
the ``ratmap`` kernel on the job's own points.  Everything measured goes
into the result file; the caller reads the process's start time from its
own clock.
"""
from __future__ import annotations

import argparse
import inspect
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import semijulia
from semijulia import cli, verify
from semijulia.ratmap import SolverDivergence, evaluate, preimages
from semijulia.sphere import chordal_distance

import checks
import tracing
import workloads


def _probe_points(config, tracer, rng, size: int) -> list:
    """A fixed-size sample of the job's own points: chain points when the job
    ran chains, else the first levels of its own backward tree."""
    runs = tracer.captured.get("run_chains")
    if runs:
        points = runs[0][1].points
    else:
        d = config.semigroup.total_degree
        depth = 1
        while d**depth < size:
            depth += 1
        points = semijulia.backward.full_backward_tree(
            config.semigroup, config.a, depth, check_start=False
        ).points
    idx = rng.choice(len(points), size=min(size, len(points)), replace=False)
    return [points[i] for i in sorted(idx.tolist())]


def degree_class(g) -> str:
    if g.denominator.degree >= 1:
        return "rational"
    return "quadratic" if g.degree <= 2 else "cubic"


def probe_preimages(sg, points, reps: int = 3) -> dict:
    """Per-call time of public ``preimages`` for each generator on the same
    points (best of ``reps`` passes), with the forward residual and the
    number of ``SolverDivergence`` raised."""
    per_class: dict[str, list[float]] = {}
    residual = 0.0
    divergence = 0
    for g in sg.generators:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            for z in points:
                try:
                    preimages(g, z)
                except SolverDivergence:
                    pass
            best = min(best, time.perf_counter() - t0)
        per_class.setdefault(degree_class(g), []).append(best / len(points) * 1e6)
        for z in points:
            try:
                ws = preimages(g, z)
            except SolverDivergence:
                divergence += 1
                continue
            for w in ws:
                residual = max(residual, chordal_distance(evaluate(g, w), z))
    return {
        "us_per_call": {k: sum(v) / len(v) for k, v in per_class.items()},
        "residual_max": residual,
        "solver_divergence": divergence,
        "points": len(points),
    }


EXPECTED_ARTIFACTS = {
    "random": {"main.grid", "main.image", "report"},
    "full": {"main.grid", "main.image", "report"},
    "compare": {"random.grid", "random.image", "full.grid", "full.image", "report"},
}


def output_checks(workload, config, result, tracer, rng) -> list:
    out = []
    if config.method == "verify":
        for arguments, res in tracer.captured.get("criterion", []):
            out.append((f"verify.{res.name}", res.passed, res.line()))
        return out
    keys = set(result.artifacts)
    expected = EXPECTED_ARTIFACTS[config.method]
    out.append(("artifacts", keys == expected and result.exit_code == 0, f"{sorted(keys)}"))
    vp = config.viewport
    for key in sorted(keys & expected):
        tag, kind = key.rsplit(".", 1) if "." in key else (key, key)
        path = Path(result.artifacts[key])
        if kind == "grid":
            try:
                grid = checks.read_grid(path)
            except ValueError as exc:
                out.append((f"{tag}.grid", False, str(exc)))
                continue
            out.append(checks.grid_mass(tag, grid))
            if workload.annulus_support:
                out.append(checks.annulus_support(tag, grid))
        elif kind == "image":
            out.append(checks.ppm(tag, path, vp.nx, vp.ny))
    for arguments, cloud in tracer.captured.get("run_chains", []):
        out.append(
            checks.chain_predecessors(
                config.semigroup,
                arguments,
                cloud,
                rng,
                evaluate,
                chordal_distance,
            )
        )
    inv = {k: v for k, v in result.metrics.items() if k.startswith("invariance.")}
    if inv:
        out.append(checks.invariance(inv, workloads.INVARIANCE_BOUND))
    return out


def working_set(config, result) -> dict:
    """Bytes the job keeps live or writes, for comparison with cache sizes."""
    vp = config.viewport
    sizes = {k: Path(p).stat().st_size for k, p in result.artifacts.items()}
    out = {
        "grid_float64": vp.nx * vp.ny * 8,
        "grid_text": max((v for k, v in sizes.items() if k.endswith("grid")), default=0),
        "ppm": max((v for k, v in sizes.items() if k.endswith("image")), default=0),
    }
    if config.method == "full":
        chunk = inspect.signature(semijulia.measure.full_tree_grid).parameters["chunk"]
        # complex128 points plus float64 masses of one expanded block
        out["streamed_block"] = chunk.default * config.semigroup.total_degree * (16 + 8)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    if src not in Path(semijulia.__file__).resolve().parents:
        print(f"semijulia imported from {semijulia.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer(run_id=Path(args.result).stem, timed=args.trace)
    tracer.install(cli, verify)
    raw = json.loads(Path(args.config).read_text())
    config = cli.parse_config(raw)
    if config.method != "verify":
        cli.validate_assumptions(config.semigroup, config.a)
    ready = tracing.now()
    record: dict = {"ready": ready}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(record))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    cpu0 = time.process_time()
    t0 = tracing.now()
    try:
        result = cli.execute_run(config)
        error = None
    except Exception:  # a failed job is a measured outcome, not a harness fault
        result = None
        error = traceback.format_exc()
    record["job_s"] = tracing.now() - t0
    record["cpu_s"] = time.process_time() - cpu0
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rng = np.random.default_rng(args.seed)
    if error is None:
        found = output_checks(workload, config, result, tracer, rng)
        record["working_set"] = working_set(config, result)
        for path in result.artifacts.values():
            Path(path).unlink(missing_ok=True)
    else:
        found = [("job", False, error)]
    record["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in found]
    if args.trace:
        record["spans"] = tracer.spans
        if config.method != "verify":
            pts = _probe_points(config, tracer, rng, size=1000)
            record["probe"] = probe_preimages(config.semigroup, pts)
    Path(args.result).write_text(json.dumps(record, default=repr))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
