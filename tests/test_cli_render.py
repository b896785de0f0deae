"""Command-line parsing, exit codes, file outputs and SVG geometry."""

import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hypfluct import cli, render
from hypfluct.cli import UsageError, parse_config, run
from hypfluct.hyperbolic import ModelConfig, lambda_geometry
from hypfluct.sampling import read_sample_dump, sample_process


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_flags_populate_config():
    cfg = parse_config(["sample", "--d", "4", "--lambda", "0", "--R", "5",
                        "--n", "1000", "--seed", "7"])
    assert cfg.command == "sample"
    assert cfg.d == 4 and cfg.lam == 0.0 and cfg.R_list == [5.0]
    assert cfg.n_replicates == 1000 and cfg.seed == 7


def test_parse_r_list():
    cfg = parse_config(["regimes", "--R", "4,6,8"])
    assert cfg.R_list == [4.0, 6.0, 8.0]
    with pytest.raises(UsageError):
        parse_config(["regimes", "--R", "4,x"])
    with pytest.raises(UsageError):
        parse_config(["regimes", "--R", "-3"])


def test_parse_lambda_domain():
    with pytest.raises(UsageError):
        parse_config(["sample", "--lambda", "1.5"])


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment line\nd = 3\nlambda = 0.5\nR = 2,4\nseed = 11\n")
    cfg = parse_config(["crofton", "--config", str(path), "--seed", "99"])
    assert cfg.d == 3 and cfg.lam == 0.5 and cfg.R_list == [2.0, 4.0]
    assert cfg.seed == 99  # flag wins over file


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("dd = 3\n")
    with pytest.raises(UsageError, match="unknown key"):
        parse_config(["crofton", "--config", str(path)])


def test_threads_option_is_gone(tmp_path):
    with pytest.raises(UsageError):
        parse_config(["crofton", "--threads", "2"])
    path = tmp_path / "exp.cfg"
    path.write_text("threads = 2\n")
    with pytest.raises(UsageError, match="unknown key 'threads'"):
        parse_config(["crofton", "--config", str(path)])


def test_config_file_malformed_value(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("d = three\n")
    with pytest.raises(UsageError, match="malformed value"):
        parse_config(["crofton", "--config", str(path)])


def test_main_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["crofton", "--d", "2", "--R", "1", "--n", "50"]) == 0
    assert cli.main(["sample", "--lambda", "2.0"]) == 1
    assert cli.main(["render", "--d", "3", "--R", "2"]) == 1  # rendering needs d=2


# ---------------------------------------------------------------------------
# subcommand outputs
# ---------------------------------------------------------------------------

def test_sample_command_writes_dump(tmp_path):
    out = tmp_path / "s.hypf"
    code = cli.main(["sample", "--d", "2", "--lambda", "0.5", "--R", "2",
                     "--n", "3", "--seed", "5", "--out", str(out)])
    assert code == 0
    samples = read_sample_dump(out)
    assert len(samples) == 3
    assert samples[0].config.lam == 0.5


def test_crofton_command_csv(tmp_path):
    out = tmp_path / "c.csv"
    code = cli.main(["crofton", "--d", "3", "--lambda", "0.5", "--R", "1,2",
                     "--n", "200", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,lambda,R,n,mc_mean,expected,z_score"
    assert len(lines) == 3
    # z-scores should be small for a correct mean
    for line in lines[1:]:
        assert abs(float(line.split(",")[-1])) < 5.0


def test_cumulants_command_csv(tmp_path):
    out = tmp_path / "k.csv"
    code = cli.main(["cumulants", "--d", "2", "--lambda", "0", "--R", "3",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,lambda,R,k,I_value"
    assert len(lines) == 5  # k = 1..4
    # I_4 at d = 4, R = 100 is beyond double range: written as inf, not raised
    code = cli.main(["cumulants", "--d", "4", "--lambda", "0", "--R", "100",
                     "--out", str(out)])
    assert code == 0
    values = [line.split(",")[-1] for line in out.read_text().strip().splitlines()[1:]]
    assert values[-1] == "inf"
    assert all(math.isfinite(float(v)) for v in values[:-1])


def test_regimes_command_csv(tmp_path):
    out = tmp_path / "r.csv"
    code = cli.main(["regimes", "--d", "2", "--lambda", "0", "--R", "3",
                     "--n", "200", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert "ks_limit" in header and "ks_normal_half" in header


def test_limit_command_writes_cdf_and_cf(tmp_path):
    base = tmp_path / "lim"
    code = cli.main(["limit", "--d", "4", "--lambda", "0", "--n", "2000",
                     "--out", str(base)])
    assert code == 0
    cdf = np.loadtxt(f"{base}_cdf.csv", delimiter=",", skiprows=1)
    cf = np.loadtxt(f"{base}_cf.csv", delimiter=",", skiprows=1)
    F = cdf[:, 1]
    assert np.all(np.diff(F) >= 0.0)
    assert F[0] < 1e-3 and F[-1] > 1.0 - 1e-3
    assert tuple(cf[0]) == (0.0, 1.0, 0.0)


def test_limit_command_honours_multiplier(tmp_path, capsys):
    rates = []
    for extra in ([], ["--multiplier", "0.5"]):
        code = cli.main(["limit", "--d", "4", "--lambda", "0.3", "--n", "100",
                         "--out", str(tmp_path / "lim")] + extra)
        assert code == 0
        rates.append(float(re.search(r"rate=(\S+):", capsys.readouterr().out).group(1)))
    assert rates[1] == pytest.approx(0.5 * rates[0], rel=1e-5)
    assert cli.main(["limit", "--d", "4", "--multiplier", "0", "--n", "100",
                     "--out", str(tmp_path / "lim")]) == 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_svg(lam, R=3.0, seed=2):
    config = ModelConfig(d=2, lam=lam, R=R)
    sample = sample_process(config, seed=seed)
    return sample, render.render_disk(sample)


def test_render_svg_well_formed():
    for lam in (0.0, 0.5, 1.0):
        _, svg = _render_svg(lam)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "-1.05 -1.05 2.1 2.1"
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 2  # unit boundary + ball outline


def test_render_polylines_stay_in_clip_radius():
    config = ModelConfig(d=2, lam=0.5, R=3.0)
    sample = sample_process(config, seed=4)
    svg = render.render_disk(sample)
    root = ET.fromstring(svg)
    radius = math.tanh(1.5)
    for poly in (e for e in root.iter() if e.tag.endswith("polyline")):
        pts = np.array([[float(v) for v in p.split(",")]
                        for p in poly.get("points").split()])
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= radius + 1e-6)


def test_horocycle_vertices_on_tangent_circle():
    """lambda = 1 curves are Euclidean circles internally tangent to the boundary."""
    geom = lambda_geometry(1.0)
    for s in (-1.0, 0.0, 1.5):
        w = render.disk_polyline(s, 0.7, geom)
        # circumcircle through three spread points
        a, b, c = w[100], w[512], w[-100]
        # center equidistant from a, b, c (perpendicular bisector intersection)
        ax, ay, bx, by, cx, cy = a.real, a.imag, b.real, b.imag, c.real, c.imag
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = ((ax ** 2 + ay ** 2) * (by - cy) + (bx ** 2 + by ** 2) * (cy - ay)
              + (cx ** 2 + cy ** 2) * (ay - by)) / d
        uy = ((ax ** 2 + ay ** 2) * (cx - bx) + (bx ** 2 + by ** 2) * (ax - cx)
              + (cx ** 2 + cy ** 2) * (bx - ax)) / d
        center = complex(ux, uy)
        r = abs(a - center)
        deviation = np.abs(np.abs(w - center) - r)
        assert float(deviation.max()) < 1e-3
        # internal tangency to the unit circle
        assert abs(center) + r == pytest.approx(1.0, abs=1e-3)


def _boundary_angle(w):
    """Angle between the end tangent of a polyline and the boundary tangent."""
    tangent = w[1] - w[0]
    boundary_point = w[0] / abs(w[0])
    boundary_tangent = 1j * boundary_point
    cosang = abs((tangent.conjugate() * boundary_tangent).real) \
        / (abs(tangent) * abs(boundary_tangent))
    return math.acos(min(cosang, 1.0))


def test_geodesic_meets_boundary_orthogonally():
    geom = lambda_geometry(0.0)
    for s in (-1.2, 0.0, 0.8):
        w = render.disk_polyline(s, 1.1, geom)
        # angle from orthogonal: acos of |cos| measures against the tangent
        ang = _boundary_angle(w)
        assert abs(ang - math.pi / 2.0) < 1e-2


def test_equidistant_boundary_angle():
    geom = lambda_geometry(0.5)  # theta = pi/3
    for s in (-0.5, 0.3, 1.0):
        w = render.disk_polyline(s, 0.3, geom)
        ang = _boundary_angle(w)
        assert abs(ang - math.pi / 3.0) < 1e-2


def test_render_command_writes_svg(tmp_path):
    out = tmp_path / "disk.svg"
    code = cli.main(["render", "--d", "2", "--lambda", "1", "--R", "3",
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert any(e.tag.endswith("polyline") for e in root.iter())


def test_clip_to_radius_segments():
    # a diameter-crossing chord gets clipped to the circle
    w = np.linspace(-2.0, 2.0, 101) + 0.1j
    segments = render.clip_to_radius(w, 1.0)
    assert len(segments) == 1
    seg = segments[0]
    assert abs(abs(seg[0]) - 1.0) < 1e-9
    assert abs(abs(seg[-1]) - 1.0) < 1e-9
