import numpy as np
import pytest

from semijulia.backward import empirical_measure, random_backward_orbit
from semijulia.measure import GridMeasure, Viewport, ViewportMismatch, bin_cloud
from semijulia.ratmap import rational_map
from semijulia.render import (
    COLORMAPS,
    ImageSpec,
    encode_ppm,
    render_density,
    write_image,
)
from semijulia.semigroup import Semigroup


def vp(n=4):
    return Viewport(center=0j, width=4.0, height=4.0, nx=n, ny=n)


def grid_with(cells, viewport=None):
    cells = np.asarray(cells, dtype=float)
    viewport = viewport or Viewport(
        center=0j, width=4.0, height=4.0, nx=cells.shape[1], ny=cells.shape[0]
    )
    return GridMeasure(viewport=viewport, cells=cells)


# ---------------------------------------------------------------------------
# PPM encoding


def test_ppm_1x1_white():
    data = encode_ppm(1, 1, np.full((1, 1, 3), 255, np.uint8))
    assert data == b"P6\n1 1\n255\n\xff\xff\xff"
    assert len(data) == 14


def test_ppm_2x1_header_and_length():
    data = encode_ppm(2, 1, np.zeros((1, 2, 3), np.uint8))
    assert data.startswith(b"P6\n2 1\n255\n")
    assert len(data) == len(b"P6\n2 1\n255\n") + 6


def test_ppm_round_trip_header(tmp_path):
    g = grid_with(np.eye(3))
    spec = ImageSpec(viewport=g.viewport)
    path = tmp_path / "out.ppm"
    write_image(render_density(g, spec), path)
    blob = path.read_bytes()
    magic, dims, maxval = blob.split(b"\n", 3)[:3]
    assert magic == b"P6"
    assert dims == b"3 3"
    assert maxval == b"255"
    assert len(blob.split(b"\n", 3)[3]) == 3 * 3 * 3


def test_ppm_shape_validation():
    with pytest.raises(ValueError):
        encode_ppm(2, 2, np.zeros((1, 2, 3), np.uint8))


def test_write_image_reports_path(tmp_path):
    with pytest.raises(OSError, match="no/such"):
        write_image(b"P6\n1 1\n255\nabc", tmp_path / "no" / "such" / "x.ppm")


# ---------------------------------------------------------------------------
# rendering


def pixels(blob, nx, ny):
    header = b"P6\n%d %d\n255\n" % (nx, ny)
    assert blob.startswith(header)
    return np.frombuffer(blob[len(header):], np.uint8).reshape(ny, nx, 3)


def test_all_zero_grid_is_solid_background():
    g = grid_with(np.zeros((4, 4)))
    spec = ImageSpec(viewport=g.viewport, background=(7, 11, 13))
    img = pixels(render_density(g, spec), 4, 4)
    assert np.all(img == np.array([7, 11, 13], np.uint8))


def test_single_lit_cell():
    cells = np.zeros((4, 4))
    cells[1, 2] = 1.0
    g = grid_with(cells)
    spec = ImageSpec(viewport=g.viewport, colormap="mono", background=(0, 0, 0),
                     foreground=(255, 255, 255))
    img = pixels(render_density(g, spec), 4, 4)
    assert np.all(img[1, 2] == 255)
    mask = np.ones((4, 4), bool)
    mask[1, 2] = False
    assert np.all(img[mask] == 0)


def test_rendering_is_deterministic():
    rng = np.random.default_rng(0)
    g = grid_with(rng.uniform(0, 1, (8, 8)))
    spec = ImageSpec(viewport=g.viewport, colormap="fire", scale="log")
    assert render_density(g, spec) == render_density(g, spec)


@pytest.mark.parametrize("name", sorted(COLORMAPS))
@pytest.mark.parametrize("scale", ["linear", "log"])
def test_monotone_mass_to_luminance(name, scale):
    masses = np.linspace(0.0, 1.0, 64).reshape(1, 64)
    g = grid_with(masses, Viewport(center=0j, width=64.0, height=1.0, nx=64, ny=1))
    spec = ImageSpec(viewport=g.viewport, colormap=name, scale=scale)
    img = pixels(render_density(g, spec), 64, 1).astype(float)
    lum = img[0] @ np.array([0.299, 0.587, 0.114])
    assert np.all(np.diff(lum) >= -1e-9)


def test_viewport_mismatch():
    g = grid_with(np.zeros((4, 4)))
    spec = ImageSpec(viewport=Viewport(center=0j, width=2.0, height=2.0, nx=4, ny=4))
    with pytest.raises(ViewportMismatch):
        render_density(g, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        ImageSpec(viewport=vp(), colormap="nope")
    with pytest.raises(ValueError):
        ImageSpec(viewport=vp(), scale="sqrt")
    with pytest.raises(ValueError):
        ImageSpec(viewport=vp(), background=(0, 0, 999))


@pytest.mark.parametrize(
    "rgb", [(True, 1, 7), (0, 1.9, 7), (0, 1, "7"), (0, 1, 7.0), (0, np.float64(1), 7)]
)
def test_spec_refuses_non_int_rgb(rgb):
    # int() would turn (True, 1.9, '7') into (1, 1, 7) silently
    with pytest.raises(ValueError, match="RGB"):
        ImageSpec(viewport=vp(), background=rgb)
    with pytest.raises(ValueError, match="RGB"):
        ImageSpec(viewport=vp(), foreground=rgb)


def test_circle_run_lights_annulus_only():
    sg = Semigroup((rational_map([0, 0, 1]),))
    orbit = random_backward_orbit(sg, 1, 20_000, seed=66)
    viewport = Viewport(center=0j, width=3.0, height=3.0, nx=512, ny=512)
    g = bin_cloud(empirical_measure(orbit, 100), viewport)
    rows, cols = np.nonzero(g.cells)
    xs = viewport.x0 + (cols + 0.5) * viewport.cell_width
    ys = viewport.y_top - (rows + 0.5) * viewport.cell_height
    radii = np.hypot(xs, ys)
    diag = np.hypot(viewport.cell_width, viewport.cell_height)
    lit_mass = g.cells[rows, cols]
    near_circle = np.abs(radii - 1.0) <= diag
    assert lit_mass[near_circle].sum() >= 0.99 * lit_mass.sum()
