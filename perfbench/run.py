"""Layered benchmark for semijulia: closed-loop batch jobs, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job is a fresh interpreter
(``job.py``) that receives only the generated config; the package is
imported from the checkout's ``src``.  With ``--trace 0`` the run prints the
end-to-end metrics (median job wall time, set-up time and peak RSS); with
``--trace 1`` it runs an untraced and a traced job in turn and prints the
per-layer metrics, including the tracing overhead.  Every job's outputs are
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Job files, spans
and the run record go to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# fresh interpreters timed through set-up per run, besides one per job
SETUP_RUNS = 5
# a run ends within this many seconds even if a job hangs
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.parse_config_s": "s",
    "semigroup.validate_assumptions_s": "s",
    "cli.execute_run_s": "s",
    "cli.execute_run_self_s": "s",
    "cli.cpu_s": "s",
    "backward.run_chains_s": "s",
    "backward.chain_steps": "count",
    "backward.chain_us_per_step": "us",
    "backward.full_backward_tree_s": "s",
    "backward.tree_atoms": "count",
    "backward.tree_ns_per_atom": "ns",
    "ratmap.preimages_us.quadratic": "us",
    "ratmap.preimages_us.cubic": "us",
    "ratmap.preimages_us.rational": "us",
    "ratmap.preimage_calls": "count",
    "ratmap.residual_max": "chordal",
    "ratmap.solver_divergence": "count",
    "measure.full_tree_grid_s": "s",
    "measure.streamed_atoms": "count",
    "measure.streamed_ns_per_atom": "ns",
    "measure.bin_cloud_s": "s",
    "measure.bin_ns_per_atom": "ns",
    "measure.outside_mass_ratio": "ratio",
    "measure.check_invariance_s": "s",
    "measure.invariance_atoms": "count",
    "measure.invariance_us_per_atom": "us",
    "measure.hausdorff_s": "s",
    "measure.total_variation_s": "s",
    "measure.grid_to_text_s": "s",
    "measure.grid_text_bytes": "bytes",
    "render.render_density_s": "s",
    "render.write_image_s": "s",
    "render.ppm_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


# ---------------------------------------------------------------------------
# jobs


class Runner:
    """Starts job processes for one run and collects their records."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path, config: Path):
        self.root, self.workload, self.seed = root, workload, seed
        self.work, self.config = work, config
        self.start = tracing.now()
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["TMPDIR"] = str(work)
        for var in THREAD_VARS:
            self.env[var] = str(self.nproc)
        self.count = 0

    def elapsed(self) -> float:
        return tracing.now() - self.start

    def spawn(self, *flags: str) -> dict:
        """Run one job process; its record gains ``setup_s`` (process start
        to validated start point, on the shared monotonic clock)."""
        stem = f"job{self.count:03d}"
        self.count += 1
        result = self.work / f"{stem}.json"
        cmd = [
            sys.executable, str(HERE / "job.py"),
            "--config", str(self.config),
            "--result", str(result),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--src", str(self.root / "src"),
            *flags,
        ]
        with open(self.work / f"{stem}.log", "w") as log:
            t0 = tracing.now()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            try:
                proc.wait(timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                return {"timeout": True, "checks": [
                    {"name": "job", "ok": False, "detail": "timed out"}]}
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not result.exists():
            raise HarnessError(
                f"{stem} exited {proc.returncode}; see {self.work / (stem + '.log')}"
            )
        record = json.loads(result.read_text())
        record["setup_s"] = record["ready"] - t0
        return record


def run_jobs(runner: Runner, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Set-up probes, then jobs until the next one would overrun ``seconds``.
    With tracing, jobs alternate untraced/traced, at least one of each."""
    setups = [runner.spawn("--setup-only") for _ in range(SETUP_RUNS)]
    plain: list[dict] = []
    traced: list[dict] = []
    last = 0.0
    while True:
        want_traced = trace and len(traced) < len(plain)
        done = len(plain) >= 1 and (not trace or len(traced) >= 1)
        if done and runner.elapsed() + last > seconds:
            break
        if runner.elapsed() + last > HARD_LIMIT_S:
            break
        t0 = runner.elapsed()
        rec = runner.spawn("--trace") if want_traced else runner.spawn()
        last = runner.elapsed() - t0
        (traced if want_traced else plain).append(rec)
        if rec.get("timeout"):
            break
    return setups, plain, traced


# ---------------------------------------------------------------------------
# metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setups: list, plain: list) -> dict[str, tuple[float, int]]:
    timed = [r for r in plain if "job_s" in r]
    setup = [r["setup_s"] for r in setups + timed]
    return {
        "job_s": (_median([r["job_s"] for r in timed]), len(timed)),
        "setup_s": (_median(setup), len(setup)),
        "peak_rss_mb": (_median([r["peak_rss_kb"] * 1024 / 1e6 for r in timed]), len(timed)),
    }


def _outermost(spans: list[dict]) -> list[dict]:
    """Spans with no ancestor of the same name (a nested execute_run inside
    the determinism criterion is already counted by its outer span)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        p = s["parent"]
        while p is not None and by_id[p]["name"] != s["name"]:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(rec: dict) -> dict[str, float]:
    spans = _outermost(rec["spans"])
    own = tracing.self_times(rec["spans"])

    def dur(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name: str, key: str) -> float:
        return sum(s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name)

    def per(total_s: float, n: float, scale: float) -> float:
        return total_s / n * scale if n else 0.0

    steps = count("backward.run_chains", "steps")
    tree = count("backward.full_backward_tree", "atoms")
    streamed = count("measure.full_tree_grid", "atoms")
    binned = count("measure.bin_cloud", "atoms")
    inv = count("measure.check_invariance", "atoms")
    inv_calls = sum(
        s["counts"]["atoms"] * s["counts"]["generators"]
        for s in spans
        if s["name"] == "measure.check_invariance"
    )
    mass = sum(count(n, "mass") for n in ("measure.bin_cloud", "measure.full_tree_grid"))
    outside = sum(count(n, "outside") for n in ("measure.bin_cloud", "measure.full_tree_grid"))
    probe = rec.get("probe", {"us_per_call": {}, "residual_max": 0.0, "solver_divergence": 0})
    m = {
        "cli.parse_config_s": dur("cli.parse_config"),
        "semigroup.validate_assumptions_s": dur("semigroup.validate_assumptions"),
        "cli.execute_run_s": dur("cli.execute_run"),
        "cli.execute_run_self_s": sum(
            own[s["id"]] for s in spans if s["name"] == "cli.execute_run"
        ),
        "cli.cpu_s": rec["cpu_s"],
        "backward.run_chains_s": dur("backward.run_chains"),
        "backward.chain_steps": steps,
        "backward.chain_us_per_step": per(dur("backward.run_chains"), steps, 1e6),
        "backward.full_backward_tree_s": dur("backward.full_backward_tree"),
        "backward.tree_atoms": tree,
        "backward.tree_ns_per_atom": per(dur("backward.full_backward_tree"), tree, 1e9),
        "ratmap.preimage_calls": steps + inv_calls,
        "ratmap.residual_max": probe["residual_max"],
        "ratmap.solver_divergence": probe["solver_divergence"],
        "measure.full_tree_grid_s": dur("measure.full_tree_grid"),
        "measure.streamed_atoms": streamed,
        "measure.streamed_ns_per_atom": per(dur("measure.full_tree_grid"), streamed, 1e9),
        "measure.bin_cloud_s": dur("measure.bin_cloud"),
        "measure.bin_ns_per_atom": per(dur("measure.bin_cloud"), binned, 1e9),
        "measure.outside_mass_ratio": outside / mass if mass else 0.0,
        "measure.check_invariance_s": dur("measure.check_invariance"),
        "measure.invariance_atoms": inv,
        "measure.invariance_us_per_atom": per(dur("measure.check_invariance"), inv, 1e6),
        "measure.hausdorff_s": dur("measure.hausdorff_distance"),
        "measure.total_variation_s": dur("measure.total_variation"),
        "measure.grid_to_text_s": dur("measure.grid_to_text"),
        "measure.grid_text_bytes": count("measure.grid_to_text", "bytes"),
        "render.render_density_s": dur("render.render_density"),
        "render.write_image_s": dur("render.write_image"),
        "render.ppm_bytes": count("render.render_density", "bytes"),
        "trace.spans": len(rec["spans"]),
    }
    for cls in ("quadratic", "cubic", "rational"):
        m[f"ratmap.preimages_us.{cls}"] = probe["us_per_call"].get(cls, 0.0)
    crits = [s for s in spans if s["name"].startswith("verify.")]
    for s in crits:
        c = s["counts"]
        m[f"{s['name']}.elapsed_s"] = c["elapsed"]
        m[f"{s['name']}.headroom"] = 1.0 - c["elapsed"] / c["budget"]
    if crits:
        m["verify.criteria_failed"] = sum(1 - s["counts"]["passed"] for s in crits)
    return m


def self_time_by_span(traced: list) -> dict[str, float]:
    """Self time summed per span name over the traced jobs of a run."""
    out: dict[str, float] = {}
    for rec in traced:
        own = tracing.self_times(rec.get("spans", []))
        for s in rec.get("spans", []):
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out


def _unit(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    # verify-suite extras: verify.<criterion>.elapsed_s / .headroom
    if name == "verify.criteria_failed":
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def per_layer(plain: list, traced: list) -> tuple[dict[str, tuple[float, str]], int]:
    done = [r for r in traced if "spans" in r]
    rows = [layer_metrics(r) for r in done]
    names = list(PER_LAYER) + sorted({k for r in rows for k in r} - set(PER_LAYER))
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            continue
        out[name] = (_median([r.get(name, 0.0) for r in rows]), _unit(name))
    plain_s = [r["job_s"] for r in plain if "job_s" in r]
    out["trace.overhead_s"] = (
        _median([r["job_s"] for r in done]) - _median(plain_s) if done and plain_s else 0.0,
        "s",
    )
    return out, len(done)


# ---------------------------------------------------------------------------
# run record


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def run_record(root: Path, nproc: int, jobs: list) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    import numpy

    working = next((r["working_set"] for r in jobs if "working_set" in r), {})
    return {
        "git_sha": sha,
        "nproc": nproc,
        "thread_cap": {v: nproc for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "caches": caches,
        "working_set_bytes": working,
    }


# ---------------------------------------------------------------------------


def run_benchmark(
    root: Path, workload: str, seed: int, seconds: float, trace: bool,
    overrides: dict | None = None,
) -> tuple[dict, dict]:
    """One run; returns (result line, run record).  ``overrides`` replaces
    config fields (the self-test shrinks the jobs with it)."""
    raw = WORKLOADS[workload].build(seed, root)
    raw.update(overrides or {})
    work = root / ".perfbench" / f"{workload}.seed{seed}.trace{int(trace)}.{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    raw["out"] = str(work / "out")
    config = work / "config.json"
    config.write_text(json.dumps(raw, indent=1))

    runner = Runner(root, workload, seed, work, config)
    setups, plain, traced = run_jobs(runner, seconds, trace)
    checks = [c for r in plain + traced for c in r["checks"]]
    failed = sum(not c["ok"] for c in checks)
    if trace:
        values, n = per_layer(plain, traced)
        sample_counts = {k: n for k in values}
    else:
        e2e = end_to_end(setups, plain)
        values = {k: (v, END_TO_END[k]) for k, (v, _) in e2e.items()}
        sample_counts = {k: n for k, (_, n) in e2e.items()}
        n = len(plain)
    line = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": n,
        "sample_counts": sample_counts,
        "samples": {
            "setup_s": [r["setup_s"] for r in setups + plain + traced if "setup_s" in r],
            "job_s": [r["job_s"] for r in plain if "job_s" in r],
            "traced_job_s": [r["job_s"] for r in traced if "job_s" in r],
            "peak_rss_kb": [r["peak_rss_kb"] for r in plain if "peak_rss_kb" in r],
        },
        "checks": checks,
        "self_s": self_time_by_span(traced),
        "record": run_record(root, runner.nproc, plain + traced),
        "result": line,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    return line, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "semijulia" / "__init__.py").is_file():
        print(f"no semijulia sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        line, record = run_benchmark(
            root, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    rec = record["record"]
    print(
        f"run: {args.workload} seed {args.seed}, {record['jobs']} "
        f"{'traced ' if args.trace else ''}job(s); "
        f"sha {rec['git_sha']}, {rec['nproc']} cpu ({rec['cpu']}), caches {rec['caches']}, "
        f"python {rec['python']}, numpy {rec['numpy']}, threads capped at {rec['nproc']}; "
        f"working set {rec['working_set_bytes']}"
    )
    for c in record["checks"]:
        if not c["ok"]:
            print(f"CHECK FAILED {c['name']}: {c['detail']}")
    print(f"fail_ratio = {line['failed']}/{line['attempted']} checks")
    for name, m in line["metrics"].items():
        n = record["sample_counts"][name]
        print(f"{name} = {m['value']!r} {m['unit']} (median of {n})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
