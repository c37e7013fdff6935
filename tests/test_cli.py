import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semijulia
from semijulia.cli import ConfigError, execute_run, main, parse_config
from semijulia.measure import grid_from_text


def base_config(**overrides):
    cfg = {
        "generators": [{"numerator": [[0, 0], [0, 0], [1, 0]]}],
        "a": [1.0, 0.0],
        "method": "random",
        "n": 2000,
        "chains": 2,
        "burn_in": 50,
        "seeds": [1, 2],
        "viewport": {"center": [0, 0], "width": 3, "height": 3, "nx": 64, "ny": 64},
        "out": "out",
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_config():
    cfg = parse_config(base_config())
    assert cfg.method == "random"
    assert cfg.semigroup.total_degree == 2
    assert cfg.seeds == [1, 2]
    assert cfg.viewport.nx == 64


def test_parse_error_names_field_b():
    with pytest.raises(ConfigError, match="'b'"):
        parse_config(base_config(b=[0.45, 0.45], generators=[
            {"numerator": [[0, 0], [0, 0], [1, 0]]},
            {"numerator": [[0, 0], [0, 0], [0.25, 0]]},
        ]))


def test_parse_error_only_outside_verify():
    # 'only' selects verify criteria; other methods refuse it, not ignore it
    for method in ("random", "full", "compare"):
        for only in (5, ["circle-decay"]):
            with pytest.raises(ConfigError, match="'only'"):
                parse_config(base_config(method=method, only=only))
    assert parse_config({"method": "verify", "only": ["circle"]}).only == ["circle"]


def test_parse_error_unknown_field():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config(base_config(depht=9))


def test_parse_error_missing_start_point():
    cfg = base_config()
    del cfg["a"]
    with pytest.raises(ConfigError, match="'a'"):
        parse_config(cfg)


def test_parse_error_bad_method():
    with pytest.raises(ConfigError, match="'method'"):
        parse_config(base_config(method="walk"))


def test_parse_error_duplicate_seeds():
    with pytest.raises(ConfigError, match="'seeds'"):
        parse_config(base_config(seeds=[1, 1]))


def test_parse_error_bad_complex_pair():
    # JSON true/false decode to bool, an int subclass, but are no numbers
    for overrides, match in [
        ({"generators": [{"numerator": [[0, 0], "x"]}]}, "generators\\[0\\]"),
        ({"generators": [{"numerator": [[0, 0], [0, 0], [True, 0]]}]}, "generators\\[0\\]"),
        ({"a": [True, False]}, "'a'"),
        ({"a": [10**400, 0]}, "'a'"),
    ]:
        with pytest.raises(ConfigError, match=match):
            parse_config(base_config(**overrides))


def test_parse_error_degenerate_generator():
    with pytest.raises(ConfigError, match="generators\\[0\\]"):
        parse_config(base_config(generators=[{"numerator": [[2, 0]]}]))


def test_parse_default_seeds_from_base_seed():
    cfg = base_config(chains=3)
    del cfg["seeds"]
    cfg["seed"] = 10
    parsed = parse_config(cfg)
    assert parsed.seeds == [10, 11, 12]


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("viewport", {"widht": 9}, "'viewport'.*widht"),
        ("image", {"colormap": "fire", "sacle": "linear"}, "'image'.*sacle"),
        ("viewport", {"nx": 8.7}, "'viewport.nx'"),
        ("viewport", {"ny": True}, "'viewport.ny'"),
        ("viewport", {"nx": "64"}, "'viewport.nx'"),
        ("viewport", {"ny": 0}, "'viewport.ny'"),
        ("viewport", {"width": float("nan")}, "'viewport.width'.*finite"),
        ("viewport", {"width": True}, "'viewport.width'"),
        ("viewport", {"height": "9"}, "'viewport.height'"),
        ("viewport", {"width": 10**400}, "'viewport.width'"),
        ("viewport", {"center": [0, True]}, "'viewport.center'"),
        ("image", {"background": [True, 0, 0]}, "'image.background'"),
        ("image", {"colormap": ["fire"]}, "'image.colormap'"),
    ],
)
def test_parse_error_names_viewport_and_image_keys(field, value, match):
    # a typo, a non-integer resolution, a non-number or a NaN window is
    # refused, not coerced, replaced by a default or left to put all mass
    # outside the grid; an unhashable colormap is refused, not a TypeError
    with pytest.raises(ConfigError, match=match):
        parse_config(base_config(**{field: value}))


@pytest.mark.parametrize(
    "raw, match",
    [
        (["generators"], "config root must be an object"),
        (base_config(generators={"numerator": [[0, 0], [0, 0], [1, 0]]}), "'generators'"),
        (base_config(generators=[]), "'generators'"),
        (base_config(generators=[{"denominator": [[1, 0]]}]), "'generators\\[0\\]'.*'numerator'"),
        (
            base_config(generators=[{"numerator": [[0, 0], [0, 0], [1, 0]], "denom": [[1, 0]]}]),
            "'generators\\[0\\]'.*unknown keys",
        ),
        (base_config(generators=[{"numerator": []}]), "'generators\\[0\\].numerator'"),
        (base_config(b=0.5), "'b'"),
        (base_config(generators=[{"numerator": [[0, 0], [1, 0]]}]), "'generators'"),
        (base_config(depth=-1), "'depth'"),
        (base_config(chains=0), "'chains'"),
        (base_config(seed=1.5), "'seed'"),
        (base_config(out=""), "'out'"),
        ({"method": "verify", "only": ["circle-decay", 5]}, "'only'"),
        (base_config(viewport=[0, 0, 3, 3]), "'viewport'.*object"),
    ],
    ids=[
        "root not an object",
        "generators not a list",
        "generators empty",
        "generator without numerator",
        "generator with an unknown key",
        "numerator empty",
        "b not a list",
        "only degree-1 generators",
        "depth -1",
        "chains 0",
        "seed not an integer",
        "out empty",
        "only not a list of strings",
        "viewport not an object",
    ],
)
def test_parse_error_names_the_field(raw, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(raw)


def test_parse_applies_given_keys_over_the_defaults():
    parsed = parse_config(base_config(viewport={"width": 9}, image={"scale": "linear"}))
    vp = parsed.viewport
    assert (vp.center, vp.width, vp.height, vp.nx, vp.ny) == (0j, 9.0, 4.0, 512, 512)
    assert (parsed.image.colormap, parsed.image.scale) == ("fire", "linear")
    assert parsed.image.viewport is vp


def test_flag_overrides_beat_file():
    parsed = parse_config(base_config(), {"method": "full", "out": "elsewhere"})
    assert parsed.method == "full"
    assert parsed.out_prefix == "elsewhere"


def test_resolved_dict_round_trips_through_parse():
    parsed = parse_config(base_config())
    again = parse_config(json.loads(json.dumps(parsed.resolved_dict())))
    assert again.resolved_dict() == parsed.resolved_dict()


# ---------------------------------------------------------------------------
# execution


def test_random_run_writes_artifacts(tmp_path):
    cfg = parse_config(base_config(out=str(tmp_path / "run")))
    result = execute_run(cfg)
    assert result.exit_code == 0
    grid = grid_from_text((tmp_path / "run.grid.txt").read_text())
    assert abs(grid.total_mass - 1.0) <= 1e-9
    assert (tmp_path / "run.ppm").read_bytes().startswith(b"P6\n64 64\n255\n")
    report = (tmp_path / "run.report.txt").read_text()
    assert "effective config" in report
    assert '"seeds"' in report
    assert "invariance check" in report
    assert "burn-in 50" in report


def test_full_run_streams_above_budget(tmp_path):
    cfg = parse_config(
        base_config(method="full", depth=9, max_atoms=256, out=str(tmp_path / "full"))
    )
    result = execute_run(cfg)
    assert result.exit_code == 0
    grid = grid_from_text((tmp_path / "full.grid.txt").read_text())
    assert abs(grid.total_mass - 1.0) <= 1e-9
    assert "streamed" in (tmp_path / "full.report.txt").read_text()


def test_compare_run_reports_tv(tmp_path):
    cfg = parse_config(
        base_config(
            method="compare",
            depth=6,
            n=4000,
            generators=[{"numerator": [[-2, 0], [0, 0], [1, 0]]}],
            a=[0.0, 0.0],
            viewport={"center": [0, 0], "width": 5, "height": 5, "nx": 64, "ny": 64},
            out=str(tmp_path / "cmp"),
        )
    )
    result = execute_run(cfg)
    assert result.exit_code == 0
    assert "total_variation" in result.metrics
    report = (tmp_path / "cmp.report.txt").read_text()
    assert "total_variation = " in report
    assert "hausdorff_support_distance = " in report
    for name in ("cmp.random.grid.txt", "cmp.full.grid.txt", "cmp.random.ppm", "cmp.full.ppm"):
        assert (tmp_path / name).exists()


def test_compare_runs_above_one_tree_block(tmp_path):
    # the depth-9 tree (4^9 atoms) spans several streamed blocks; compare
    # samples its support by atom index, and an old config's max_atoms
    # budget is accepted but no longer stops the job
    cfg = base_config(
        method="compare",
        depth=9,
        n=4000,
        generators=[
            {"numerator": [[0, 0], [0, 0], [1, 0]]},
            {"numerator": [[0, 0], [0, 0], [0.25, 0]]},
        ],
        viewport={"center": [0, 0], "width": 9, "height": 9, "nx": 64, "ny": 64},
        max_atoms=64,
        out=str(tmp_path / "cmp"),
    )
    result = execute_run(parse_config(cfg))
    assert result.exit_code == 0
    assert 0 < result.metrics["hausdorff_support_distance"] < 1
    report = (tmp_path / "cmp.report.txt").read_text()
    assert "262144 atoms" in report and "streamed" in report
    assert "max_atoms" not in report  # the effective config drops the dead key
    full = grid_from_text((tmp_path / "cmp.full.grid.txt").read_text())
    assert abs(full.total_mass - 1.0) <= 1e-12


@pytest.mark.parametrize("method", ["random", "full", "compare"])
def test_jobs_build_no_point_lists(tmp_path, monkeypatch, method):
    # clouds and orbits carry arrays and the measures take arrays: no job
    # builds a point list, neither a derived one nor through from_arrays
    from semijulia.backward import BackwardOrbit, WeightedPointCloud

    def refuse(*_):
        raise AssertionError("a point list built on a job path")

    monkeypatch.setattr(WeightedPointCloud, "points", property(refuse))
    monkeypatch.setattr(BackwardOrbit, "points", property(refuse))
    for name, module in list(sys.modules.items()):
        if name.startswith("semijulia") and hasattr(module, "from_arrays"):
            monkeypatch.setattr(module, "from_arrays", refuse)
    cfg = parse_config(
        base_config(method=method, n=4000, depth=13, out=str(tmp_path / method))
    )
    assert execute_run(cfg).exit_code == 0


def test_support_sample_does_not_alias_tree_branch_blocks():
    # a stride-16 sample of a 4-branch tree would pin the last two symbols
    # and lose every high-modulus point; the seeded sample must span them
    import numpy as np

    from semijulia import ProbabilityVector, Semigroup, rational_map
    from semijulia.backward import tree_atoms
    from semijulia.cli import _sample_indices

    sg = Semigroup(
        (rational_map([0, 0, 1]), rational_map([0, 0, 0.25])),
        ProbabilityVector([0.5, 0.5]),
    )
    zs, at_inf = tree_atoms(sg, 1, 8, _sample_indices(4**8))
    assert zs.size == 4096 and not at_inf.any()
    assert np.abs(zs).max() > 3.5
    small = _sample_indices(4096)
    assert np.array_equal(small, np.arange(4096))  # small sets pass through


def test_identical_config_gives_identical_bytes(tmp_path):
    blobs = []
    for tag in ("one", "two"):
        cfg = parse_config(base_config(out=str(tmp_path / tag)))
        execute_run(cfg)
        blobs.append(
            (
                (tmp_path / f"{tag}.grid.txt").read_bytes(),
                (tmp_path / f"{tag}.ppm").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# entry point


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_main_happy_path(tmp_path, capsys):
    path = write_config(tmp_path, base_config(out=str(tmp_path / "m")))
    assert main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "report" in out


def test_main_config_error_exit_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        base_config(
            b=[0.45, 0.45],
            generators=[
                {"numerator": [[0, 0], [0, 0], [1, 0]]},
                {"numerator": [[0, 0], [0, 0], [0.25, 0]]},
            ],
        ),
    )
    assert main(["run", "--config", path]) == 2
    assert "'b'" in capsys.readouterr().err


def test_main_missing_config_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_main_invalid_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # the second: a 5000-digit integer, past the int conversion limit
    for text in ["{not json", '{"seed": ' + "7" * 5000 + "}"]:
        bad.write_text(text)
        assert main(["run", "--config", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


def test_main_exceptional_start_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config(a=[0.0, 0.0], out=str(tmp_path / "x")))
    assert main(["run", "--config", path]) == 2
    assert "exceptional" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["[1e309, 0]", "[NaN, 0]", "[0, -Infinity]"])
def test_main_non_finite_start_exit_2(tmp_path, capsys, start):
    # JSON reads 1e309 as inf; neither inf nor NaN is a sphere point
    text = json.dumps(base_config(a="START", out=str(tmp_path / "x")))
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"START"', start))
    assert main(["run", "--config", str(path)]) == 2
    assert "'a'" in capsys.readouterr().err


def test_main_burn_in_past_chain_length_exit_2(tmp_path, capsys):
    # run_chains' own EmptyTail is the one check of burn_in against n
    path = write_config(tmp_path, base_config(out=str(tmp_path / "x")))
    assert main(["run", "--config", path, "--n", "200", "--burn-in", "300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'burn_in'") and "300 >= " in err


def test_main_refused_run_creates_no_directory(tmp_path):
    # the output directory appears with the first artifact, not before the
    # chains are refused
    path = write_config(tmp_path, base_config())
    out = tmp_path / "new"
    argv = ["run", "--config", path, "--n", "200", "--burn-in", "300", "--out", str(out / "x")]
    assert main(argv) == 2
    assert not out.exists()


def test_main_unwritable_output_exit_1(tmp_path, capsys):
    # the output "directory" is a regular file, so no artifact can be written
    path = write_config(tmp_path, base_config())
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--config", path, "--out", str(blocker / "x")]) == 1
    assert capsys.readouterr().err.startswith("runtime failure: cannot write ")


def test_main_solver_divergence_in_a_chain_exit_1(tmp_path, capsys):
    # the second generator's fibre over infinity is its denominator, whose
    # monic constant has a modulus past the largest double: the chain's
    # worker raises SolverDivergence, and the run reports it
    big = {"numerator": [[1, 0]], "denominator": [[1.3e150, 1.3e150], [0, 0], [0, 0], [1e-158, 0]]}
    gens = [{"numerator": [[0, 0], [0, 0], [1, 0]]}, big]
    path = write_config(tmp_path, base_config(generators=gens, a=[0.3, 0.2], out=str(tmp_path / "x")))
    assert main(["run", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("runtime failure: root finder did not converge")


def test_main_flag_override_applies(tmp_path):
    path = write_config(tmp_path, base_config(out=str(tmp_path / "f")))
    assert main(["run", "--config", path, "--method", "full", "--depth", "5"]) == 0
    assert (tmp_path / "f.grid.txt").exists()
    report = (tmp_path / "f.report.txt").read_text()
    assert "full method: depth 5" in report


def test_main_verify_fast_subset(capsys):
    code = main(["verify", "--only", "branch-distribution", "circle-decay"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS branch-distribution" in out
    assert "PASS circle-decay" in out


def test_main_verify_unknown_name(capsys):
    assert main(["verify", "--only", "zzz-not-a-criterion"]) == 1
    assert "no criteria match" in capsys.readouterr().out


def test_verify_config_route(capsys):
    # the "method": "verify" config runs the selected criteria and writes
    # nothing; a selection that matches no criterion fails
    result = execute_run(parse_config({"method": "verify", "only": ["circle-decay"]}))
    assert (result.exit_code, result.artifacts) == (0, {})
    assert "PASS circle-decay" in capsys.readouterr().out
    result = execute_run(parse_config({"method": "verify", "only": ["zzz"]}))
    assert (result.exit_code, result.artifacts) == (1, {})
    assert "no criteria match" in capsys.readouterr().out


def test_python_dash_m_runs_without_runpy_warning():
    # ``python -m semijulia.cli`` warns that semijulia.cli was imported
    # before it ran; the package's __main__ must not
    env = dict(os.environ)
    src = str(Path(semijulia.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "semijulia", "verify", "--only", "circle-decay"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS circle-decay" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks ``from semijulia.<module> import *``
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(semijulia.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"semijulia.{info.name}")
        namespace = {}
        exec(f"from semijulia.{info.name} import *", namespace)
        assert set(module.__all__) <= set(namespace), info.name
    namespace = {}
    exec("from semijulia import *", namespace)
    public = {name for name in dir(semijulia) if not name.startswith("_")}
    assert public <= set(namespace)
