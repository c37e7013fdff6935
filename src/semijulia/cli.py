"""Command-line entry point and JSON config ingestion.

Config files are JSON with every complex number written as a two-element
[re, im] array and polynomials as ascending coefficient lists.  Flags
override config fields.  Exit codes: 0 success, 1 verification or runtime
failure, 2 config error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from .backward import DEFAULT_BURN_IN, EmptyTail, run_chains, tree_atoms
from .measure import (
    Viewport,
    bin_cloud,
    check_invariance,
    default_test_functions,
    full_tree_grid,
    grid_to_text,
    hausdorff_distance,
    total_variation,
)
from .ratmap import SolverDivergence, rational_map
from .render import ImageSpec, render_density, write_image
from .semigroup import (
    ExceptionalStartPoint,
    ProbabilityVector,
    Semigroup,
    make_rng,
    validate_assumptions,
)
from .sphere import SpherePoint, ensure_point

__all__ = ["ConfigError", "RunConfig", "RunResult", "parse_config", "execute_run", "main"]

METHODS = ("random", "full", "compare", "verify")

# fixed generator keys for the report diagnostics; independent of the chain
# seeds so changing them never silently changes a diagnostic
_INVARIANCE_SEED = 1_000_000_007
_SUPPORT_SAMPLE_SEED = 1_000_000_009
# points per support in compare's Hausdorff line
_SUPPORT_SAMPLE_CAP = 4096


class ConfigError(ValueError):
    """Malformed configuration; message names the offending field."""


@dataclass
class RunConfig:
    """Fully resolved run parameters."""

    semigroup: Semigroup
    a: SpherePoint
    method: str = "random"
    n: int = 100_000
    depth: int = 8
    burn_in: int = DEFAULT_BURN_IN
    chains: int = 4
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3])
    image: ImageSpec = ImageSpec(Viewport(center=0j, width=4.0, height=4.0, nx=512, ny=512))
    out_prefix: str = "semijulia_out"
    only: list[str] | None = None

    @property
    def viewport(self) -> Viewport:
        return self.image.viewport

    def resolved_dict(self) -> dict:
        """Canonical JSON-ready echo of every effective setting."""

        def cpx(z: complex) -> list[float]:
            return [z.real, z.imag]

        return {
            "generators": [
                {
                    "numerator": [cpx(c) for c in g.numerator.coeffs],
                    "denominator": [cpx(c) for c in g.denominator.coeffs],
                }
                for g in self.semigroup.generators
            ],
            "b": list(self.semigroup.b.weights),
            "a": cpx(complex(self.a)),
            "method": self.method,
            "n": self.n,
            "depth": self.depth,
            "burn_in": self.burn_in,
            "chains": self.chains,
            "seeds": list(self.seeds),
            "viewport": {
                "center": cpx(self.viewport.center),
                "width": self.viewport.width,
                "height": self.viewport.height,
                "nx": self.viewport.nx,
                "ny": self.viewport.ny,
            },
            "image": {
                "colormap": self.image.colormap,
                "scale": self.image.scale,
                "background": list(self.image.background),
                "foreground": list(self.image.foreground),
            },
            "out": self.out_prefix,
        }


@dataclass
class RunResult:
    exit_code: int
    artifacts: dict[str, str]
    metrics: dict[str, float]


# ---------------------------------------------------------------------------
# config parsing


def _is_number(value) -> bool:
    # JSON true/false decode to bool, a subclass of int, and are no numbers;
    # nor is an integer literal too large to become a float
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _complex_pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(v) for v in value)
    ):
        raise ConfigError(f"field '{where}': expected [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _coeff_list(value, where: str) -> list[complex]:
    if not isinstance(value, list) or not value:
        raise ConfigError(
            f"field '{where}': expected a nonempty list of [re, im] pairs"
        )
    return [_complex_pair(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _int_field(value, key: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"field '{key}': expected integer >= {minimum}, got {value!r}")
    return value


def _object_field(raw: dict, key: str, default, **fixed):
    """``default`` with ``fixed`` and then the JSON object ``raw[key]`` applied
    over it, one key at a time, so that the class's own per-field check of a
    refused value is reported under that key."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"field '{key}': expected an object, got {value!r}")
    unknown = set(value) - ({f.name for f in fields(default)} - set(fixed))
    if unknown:
        raise ConfigError(f"field '{key}': unknown keys {sorted(unknown)}")
    obj = replace(default, **fixed)
    for name, v in value.items():
        where = f"{key}.{name}"
        if name == "center":  # the one complex field, written as [re, im]
            v = _complex_pair(v, where)
        try:
            obj = replace(obj, **{name: v})
        except ValueError as exc:
            raise ConfigError(f"field '{where}': {exc}") from exc
    return obj


_KNOWN_KEYS = {
    "generators",
    "b",
    "a",
    "method",
    "n",
    "depth",
    "burn_in",
    "chains",
    "seed",
    "seeds",
    "viewport",
    "image",
    "out",
    "max_atoms",
    "only",
}


def parse_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Build a :class:`RunConfig` from a JSON-decoded dict, applying flag
    overrides (flag beats file) and reporting the first malformed field."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    raw = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown field(s): {sorted(unknown)}")

    method = raw.get("method", RunConfig.method)
    if method not in METHODS:
        raise ConfigError(f"field 'method': expected one of {METHODS}, got {method!r}")

    if method == "verify":
        only = raw.get("only")
        if only is not None and (
            not isinstance(only, list) or not all(isinstance(s, str) for s in only)
        ):
            raise ConfigError(f"field 'only': expected list of strings, got {only!r}")
        # verification runs built-in examples; a semigroup is not required
        placeholder = Semigroup((rational_map([0, 0, 1]),))
        return RunConfig(semigroup=placeholder, a=1 + 0j, method="verify", only=only)
    if "only" in raw:
        raise ConfigError(f"field 'only': selects criteria of method 'verify', not {method!r}")

    gens_raw = raw.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise ConfigError("field 'generators': expected a nonempty list")
    generators = []
    for i, g in enumerate(gens_raw):
        if not isinstance(g, dict) or "numerator" not in g:
            raise ConfigError(
                f"field 'generators[{i}]': expected an object with 'numerator'"
            )
        num = _coeff_list(g["numerator"], f"generators[{i}].numerator")
        den = _coeff_list(
            g.get("denominator", [[1, 0]]), f"generators[{i}].denominator"
        )
        extra = set(g) - {"numerator", "denominator"}
        if extra:
            raise ConfigError(f"field 'generators[{i}]': unknown keys {sorted(extra)}")
        try:
            generators.append(rational_map(num, den))
        except ValueError as exc:
            raise ConfigError(f"field 'generators[{i}]': {exc}") from exc

    b = None
    if "b" in raw:
        if not isinstance(raw["b"], list):
            raise ConfigError(f"field 'b': expected a list of weights, got {raw['b']!r}")
        try:
            b = ProbabilityVector(raw["b"])
        except ValueError as exc:
            raise ConfigError(f"field 'b': {exc}") from exc

    try:
        sg = Semigroup(tuple(generators), b)
    except ValueError as exc:
        raise ConfigError(f"field 'generators': {exc}") from exc

    if "a" not in raw:
        raise ConfigError("field 'a': required start point [re, im] is missing")
    try:
        a = ensure_point(_complex_pair(raw["a"], "a"))
    except ValueError as exc:
        raise ConfigError(f"field 'a': {exc}") from exc

    counts = {
        key: _int_field(raw.get(key, getattr(RunConfig, key)), key, minimum)
        for key, minimum in (("n", 1), ("depth", 0), ("burn_in", 0), ("chains", 1))
    }
    chains = counts["chains"]
    # the old tree budget: still accepted so older configs load, but the
    # full tree is always streamed, so it sets nothing
    if "max_atoms" in raw:
        _int_field(raw["max_atoms"], "max_atoms", 1)
    base_seed = raw.get("seed", 0)
    if not isinstance(base_seed, int) or isinstance(base_seed, bool):
        raise ConfigError(f"field 'seed': expected integer, got {base_seed!r}")
    seeds = raw.get("seeds", [base_seed + i for i in range(chains)])
    if (
        not isinstance(seeds, list)
        or len(seeds) != chains
        or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
        or len(set(seeds)) != len(seeds)
    ):
        raise ConfigError(
            f"field 'seeds': expected {chains} pairwise distinct integers, got {seeds!r}"
        )

    viewport = _object_field(raw, "viewport", RunConfig.image.viewport)
    image = _object_field(raw, "image", RunConfig.image, viewport=viewport)

    out_prefix = raw.get("out", RunConfig.out_prefix)
    if not isinstance(out_prefix, str) or not out_prefix:
        raise ConfigError(f"field 'out': expected nonempty string, got {out_prefix!r}")

    return RunConfig(
        semigroup=sg,
        a=a,
        method=method,
        seeds=list(seeds),
        image=image,
        out_prefix=out_prefix,
        **counts,
    )


# ---------------------------------------------------------------------------
# execution


def _write_text(path: Path, text: str) -> None:
    """Write one text artifact; the first one creates the output directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _invariance_section(sg: Semigroup, cloud) -> tuple[list[str], dict[str, float]]:
    report = check_invariance(
        sg, cloud, default_test_functions(), rng=make_rng(_INVARIANCE_SEED)
    )
    lines = ["invariance check |<T phi, mu> - <phi, mu>| per test function:"]
    for name, value in report.items():
        lines.append(f"  {name}: {value:.6g}")
    return lines, {f"invariance.{k}": v for k, v in report.items()}


def _sample_indices(n: int):
    # seeded draw without replacement, sorted (all n when n <= the cap): a plain
    # stride aliases with the branch-block period of trees and skews the sample
    idx = make_rng(_SUPPORT_SAMPLE_SEED).choice(
        n, size=min(n, _SUPPORT_SAMPLE_CAP), replace=False
    )
    idx.sort()
    return idx


def execute_run(config: RunConfig) -> RunResult:
    """Run one configured job and write its artifacts; returns paths and the
    headline numbers."""
    if config.method == "verify":
        from .verify import run_verification  # late import; verify drives us back

        ok = run_verification(only=config.only)
        return RunResult(exit_code=0 if ok else 1, artifacts={}, metrics={})

    assumptions = validate_assumptions(config.semigroup, config.a)
    prefix = Path(config.out_prefix)
    d = config.semigroup.total_degree
    artifacts: dict[str, str] = {}
    metrics: dict[str, float] = {}
    report_lines = [
        "semijulia run report",
        "",
        "effective config:",
        json.dumps(config.resolved_dict(), indent=2, sort_keys=True),
        "",
        "assumption checks:",
        assumptions.as_text(),
        "",
    ]

    def emit(tag: str, grid) -> None:
        stem = f"{prefix}.{tag}" if tag else str(prefix)
        grid_path = Path(f"{stem}.grid.txt")
        image_path = Path(f"{stem}.ppm")
        _write_text(grid_path, grid_to_text(grid))
        write_image(render_density(grid, config.image), image_path)
        artifacts[f"{tag or 'main'}.grid"] = str(grid_path)
        artifacts[f"{tag or 'main'}.image"] = str(image_path)

    grids = {}
    if config.method in ("random", "compare"):
        cloud = run_chains(
            config.semigroup,
            config.a,
            config.n,
            config.chains,
            config.burn_in,
            config.seeds,
            check_start=False,
        )
        report_lines.append(
            f"random method: {config.chains} chains x {config.n} steps, "
            f"burn-in {config.burn_in}, seeds {config.seeds}"
        )
        grids["random"] = bin_cloud(cloud, config.viewport)
    if config.method in ("full", "compare"):
        report_lines.append(
            f"full method: depth {config.depth} ({d**config.depth} atoms of total "
            f"degree {d}), streamed to the grid block by block"
        )
        grids["full"] = full_tree_grid(
            config.semigroup, config.a, config.depth, config.viewport, check_start=False
        )
    for tag, grid in grids.items():
        emit(tag if len(grids) > 1 else "", grid)
    if config.method == "compare":
        tv = total_variation(grids["full"], grids["random"])
        idx = _sample_indices(d**config.depth)
        jdx = _sample_indices(cloud.zs.size)
        hd = hausdorff_distance(
            tree_atoms(config.semigroup, config.a, config.depth, idx),
            (cloud.zs[jdx], cloud.at_inf[jdx]),
        )
        metrics["total_variation"] = tv
        metrics["hausdorff_support_distance"] = hd
        report_lines.append(f"total_variation = {tv:.6g}")
        report_lines.append(
            f"hausdorff_support_distance = {hd:.6g} "
            f"(both supports subsampled to <= {_SUPPORT_SAMPLE_CAP} points)"
        )
    if "random" in grids:
        lines, inv = _invariance_section(config.semigroup, cloud)
        report_lines.extend(lines)
        metrics.update(inv)

    report_path = Path(f"{prefix}.report.txt")
    _write_text(report_path, "\n".join(report_lines) + "\n")
    artifacts["report"] = str(report_path)
    return RunResult(exit_code=0, artifacts=artifacts, metrics=metrics)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semijulia",
        description=(
            "Approximate Julia sets of finitely generated rational semigroups "
            "by full or random backward iteration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a configured job")
    runp.add_argument("--config", required=True, help="path to a JSON config file")
    runp.add_argument("--method", choices=METHODS, help="override the config method")
    runp.add_argument("--seed", type=int, help="override the base seed")
    runp.add_argument("--out", help="override the output path prefix")
    runp.add_argument("--n", type=int, help="override steps per chain")
    runp.add_argument("--depth", type=int, help="override full-tree depth")
    runp.add_argument("--chains", type=int, help="override the number of chains")
    runp.add_argument("--burn-in", type=int, dest="burn_in", help="override burn-in")

    verp = sub.add_parser("verify", help="run the built-in verification suite")
    verp.add_argument(
        "--only",
        nargs="*",
        help="run only criteria whose name contains one of these substrings",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            from .verify import run_verification

            return 0 if run_verification(only=args.only) else 1
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            print(f"config error: no such file: {args.config}", file=sys.stderr)
            return 2
        except ValueError as exc:  # also an integer beyond Python's digit limit
            print(f"config error: invalid JSON in {args.config}: {exc}", file=sys.stderr)
            return 2
        # every other run flag is named after the config key it overrides
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        config = parse_config(raw, overrides)
        result = execute_run(config)
        for name, path in sorted(result.artifacts.items()):
            print(f"{name}: {path}")
        return result.exit_code
    except (ConfigError, ExceptionalStartPoint) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EmptyTail as exc:  # run_chains' own check of burn_in against n
        print(f"config error: field 'burn_in': {exc}", file=sys.stderr)
        return 2
    except (SolverDivergence, OSError) as exc:  # OSError: an unwritable artifact
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
