"""Command-line parsing, exit codes, file outputs and SVG geometry."""

import math
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from hypfluct import cli, functionals, limitlaw, render, stats
from hypfluct.cli import UsageError, parse_config, run
from hypfluct.hyperbolic import ModelConfig, lambda_geometry
from hypfluct.sampling import ProcessSample, read_sample_dump, sample_process

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_config_file_malformed_value_names_its_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("d = 3\n\nR = 2,x\n")
    with pytest.raises(UsageError, match=re.escape(f"{path}:3: malformed value '2,x'")):
        parse_config(["crofton", "--config", str(path)])
    # a flag overrides the value, but the file is still checked
    with pytest.raises(UsageError, match=re.escape(f"{path}:3: malformed value")):
        parse_config(["crofton", "--config", str(path), "--R", "2"])


@pytest.mark.parametrize("argv", [
    ["cumulants", "--n", "5"],
    ["cumulants", "--seed", "1"],
    ["limit", "--R", "3"],
    ["render", "--n", "5"],
    ["sample", "--R", "2,3"],
    ["render", "--R", "2,3"],
])
def test_flag_a_command_does_not_read_is_a_usage_error(argv):
    with pytest.raises(UsageError):
        parse_config(argv)


def test_config_file_may_set_keys_a_command_does_not_read(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("d = 4\nR = 6,8\nn = 500\nseed = 3\n")
    cfg = parse_config(["cumulants", "--config", str(path)])
    assert cfg.R_list == [6.0, 8.0] and cfg.n_replicates == 500
    assert parse_config(["limit", "--config", str(path)]).d == 4


def test_readme_cli_lines_parse():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("hypfluct ")]
    assert len(lines) == len(cli.COMMANDS)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parse_config(argv).command == argv[0]


def test_file_errors_exit_1_with_a_message(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["crofton", "--config", "missing.cfg"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(["cumulants", "--R", "2", "--out", "nodir/x.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "nodir").exists()


def test_main_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["crofton", "--d", "2", "--R", "1", "--n", "50"]) == 0
    assert cli.main(["sample", "--lambda", "2.0"]) == 1
    assert cli.main(["render", "--d", "3", "--R", "2"]) == 1  # rendering needs d=2


def test_non_finite_model_inputs_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["crofton", "--d", "2", "--R", "2", "--n", "10",
                     "--multiplier", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(["limit", "--d", "4", "--n", "10", "--multiplier", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_mean_count_beyond_poisson_limit_exits_1(tmp_path, monkeypatch, capsys):
    """At R = 50 the d = 2 mean count is 5.2e21, beyond numpy's Poisson limit:
    a one-line error, not a traceback."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["crofton", "--d", "2", "--R", "50", "--n", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "R = 50.0" in err
    assert "Traceback" not in err and not (tmp_path / "crofton.csv").exists()


def test_too_few_replicates_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """A replicate count the command cannot use is refused before any work."""
    monkeypatch.chdir(tmp_path)
    for argv in (["variance", "--d", "2", "--R", "2", "--n", "1"],
                 ["limit", "--d", "4", "--n", "3"],
                 ["regimes", "--d", "2", "--R", "2", "--n", "3"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []
    assert cli.main(["crofton", "--d", "2", "--R", "1", "--n", "1"]) == 0


def test_limit_command_at_d343(tmp_path):
    """Gamma(d/2 + 1) leaves double range at d = 343; kappa_d is formed in log space."""
    assert cli.main(["limit", "--d", "343", "--n", "50", "--out", str(tmp_path / "l")]) == 0


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


def test_cumulants_command_at_large_even_d(tmp_path):
    """At d = 40, R = 0.7 the section volumes have x = cosh rho - 1 just above
    0.25 at even d - 2; the moment rule converges and the command exits 0."""
    out = tmp_path / "k.csv"
    assert cli.main(["cumulants", "--d", "40", "--lambda", "0", "--R", "0.7",
                     "--out", str(out)]) == 0
    values = [float(line.split(",")[-1]) for line in out.read_text().splitlines()[1:]]
    assert len(values) == 4 and all(0.0 < v < math.inf for v in values)


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
    # at R = 800 the kernel itself overflows; every I_k is beyond double range
    assert cli.main(["cumulants", "--d", "4", "--lambda", "0", "--R", "800",
                     "--out", str(out)]) == 0
    assert [line.split(",")[-1] for line in out.read_text().splitlines()[1:]] == ["inf"] * 4


def _crofton_rows(base):
    rows = []
    for R in (1.0, 2.0):
        model = ModelConfig(d=3, lam=0.5, R=R)
        S, _, _ = functionals.simulate_surface(model, 200, 0)
        mc = float(S.mean())
        expected = functionals.expected_surface_area(model)
        z = (mc - expected) / math.sqrt(functionals.variance(model) / 200)
        rows.append((3, 0.5, R, 200, mc, expected, z))
    return {"": (("d", "lambda", "R", "n", "mc_mean", "expected", "z_score"), rows)}


def _variance_rows(base):
    model = ModelConfig(d=2, lam=1.0, R=2.0)
    S, _, _ = functionals.simulate_surface(model, 300, 4)
    emp = float(np.var(S, ddof=1))
    i2 = functionals.variance(model)
    return {"": (("d", "lambda", "R", "n", "empirical_var", "I2", "ratio"),
                 [(2, 1.0, 2.0, 300, emp, i2, emp / i2)])}


def _cumulants_rows(base):
    rows = [(4, 0.0, R, k, functionals.cumulant_integral(ModelConfig(d=4, lam=0.0, R=R), k))
            for R in (6.0, 100.0) for k in range(1, 5)]
    return {"": (("d", "lambda", "R", "k", "I_value"), rows)}


def _limit_rows(base):
    # the grids are the command's own; the values must be the library's at them
    x, t = ([float(line.split(",")[0]) for line in Path(path).read_text().splitlines()[1:]]
            for path in (base + "_cdf.csv", base + "_cf.csv"))
    spec = limitlaw.limit_law_spec(4, 0.0)
    psi = limitlaw.characteristic_function(spec, np.array(t))
    return {"_cdf.csv": (("x", "F"), list(zip(x, limitlaw.cdf_via_inversion(spec, x)))),
            "_cf.csv": (("t", "re_psi", "im_psi"), list(zip(t, psi.real, psi.imag)))}


def _regimes_rows(base):
    rows = stats.regime_report(2, 0.5, [2.0, 3.0], 200, 1, multiplier=0.5)
    return {"": (stats.REPORT_COLUMNS, [[row[c] for c in stats.REPORT_COLUMNS] for row in rows])}


@pytest.mark.parametrize("argv, expected", [
    (["crofton", "--d", "3", "--lambda", "0.5", "--R", "1,2", "--n", "200"], _crofton_rows),
    (["variance", "--d", "2", "--lambda", "1", "--R", "2", "--n", "300", "--seed", "4"],
     _variance_rows),
    (["cumulants", "--d", "4", "--lambda", "0", "--R", "6,100"], _cumulants_rows),
    (["limit", "--d", "4", "--lambda", "0", "--n", "200"], _limit_rows),
    (["regimes", "--d", "2", "--lambda", "0.5", "--R", "2,3", "--n", "200", "--seed", "1",
      "--multiplier", "0.5"], _regimes_rows),
], ids=["crofton", "variance", "cumulants", "limit", "regimes"])
def test_csv_fields_read_back_to_library_values(tmp_path, argv, expected):
    """Exact header; every field parses back to the library's value exactly."""
    base = str(tmp_path / "out")
    assert cli.main(argv + ["--out", base]) == 0
    for suffix, (header, rows) in expected(base).items():
        head, *lines = Path(base + suffix).read_text(encoding="utf-8").splitlines()
        assert head == ",".join(header)
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            fields = line.split(",")
            assert len(fields) == len(row)
            for text, value in zip(fields, row):
                got = int(text) if isinstance(value, int) else float(text)
                assert got == value or (math.isnan(got) and math.isnan(value)), (text, value)


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


def _clipped_group(root):
    (group,) = [e for e in root if e.tag.endswith("}g")]
    return group


def test_render_svg_well_formed():
    for lam in (0.0, 0.5, 1.0):
        sample, svg = _render_svg(lam)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "-1.05 -1.05 2.1 2.1"
        circles = [e for e in root if e.tag.endswith("circle")]
        assert len(circles) == 2  # unit boundary + ball outline
        clips = [e for e in root.iter() if e.tag.endswith("clipPath")]
        assert len(clips) == 1
        (ball,) = list(clips[0])
        assert float(ball.get("r")) == math.tanh(1.5)
        assert len(list(_clipped_group(root))) == len(sample) > 0


def test_render_curves_sit_in_ball_clip_group():
    config = ModelConfig(d=2, lam=0.5, R=3.0)
    sample = sample_process(config, seed=4)
    root = ET.fromstring(render.render_disk(sample))
    clip_id = next(e for e in root.iter() if e.tag.endswith("clipPath")).get("id")
    group = _clipped_group(root)
    assert group.get("clip-path") == f"url(#{clip_id})"
    curves = [e for e in root.iter() if e.tag.endswith(("circle", "line"))]
    assert len(curves) == 3 + len(sample)  # boundary, outline, clip circle
    assert all(e.tag.endswith("circle") for e in group)


def test_disk_circle_exact_geometry():
    """Each curve's circle lies at hyperbolic distance |s| from the centre
    and passes through the rotated ideal point rot 1."""
    for lam in (0.0, 0.3, 0.5, 0.9, 1.0):
        geom = lambda_geometry(lam)
        for s in np.linspace(-3.0, 3.0, 14):
            for angle in (0.0, 1.1, -2.5):
                c, r = render.disk_circle(float(s), angle, geom)
                assert abs(abs(abs(c) - r) - math.tanh(abs(s) / 2.0)) <= 1e-12
                assert abs(abs(complex(math.cos(angle), math.sin(angle)) - c) - r) <= 1e-12


def _boundary_cos(c, r):
    """|cos| of the angle at which the circle (c, r) meets the unit circle."""
    return abs(1.0 + r * r - abs(c) ** 2) / (2.0 * r)


def test_horocycle_vertices_on_tangent_circle():
    """lambda = 1 curves are Euclidean circles internally tangent to the boundary."""
    geom = lambda_geometry(1.0)
    for s in (-1.0, 0.0, 1.5):
        for angle in (0.7, -2.0):
            c, r = render.disk_circle(s, angle, geom)
            assert abs(abs(c) + r - 1.0) <= 1e-12
            assert abs(_boundary_cos(c, r) - 1.0) <= 1e-12


def test_geodesic_meets_boundary_orthogonally():
    geom = lambda_geometry(0.0)
    for s in (-1.2, 0.8):
        c, r = render.disk_circle(s, 1.1, geom)
        assert _boundary_cos(c, r) <= 1e-12
    # s = 0 = 2 delta: the geodesic through the centre is a diameter
    sample = ProcessSample(config=ModelConfig(d=2, lam=0.0, R=3.0), s=np.array([0.0]),
                           u=np.array([[math.cos(1.1), math.sin(1.1)]]), seed=0)
    (line,) = list(_clipped_group(ET.fromstring(render.render_disk(sample))))
    assert line.tag.endswith("line")
    assert abs(float(line.get("x1")) + float(line.get("x2"))) <= 1e-15
    assert abs(float(line.get("y1")) + float(line.get("y2"))) <= 1e-15


def test_equidistant_boundary_angle():
    """cos(boundary angle) = lambda, e.g. theta = pi/3 at lambda = 0.5."""
    for lam in (0.3, 0.5, 0.9):
        geom = lambda_geometry(lam)
        for s in (-0.5, 0.3, 1.0):
            c, r = render.disk_circle(s, 0.3, geom)
            assert abs(_boundary_cos(c, r) - lam) <= 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_curve_through_minus_i_renders_as_a_chord(lam):
    """At s = 2 delta the half-plane line passes through -i: its image is the
    chord between two ideal points, drawn as a <line>."""
    geom = lambda_geometry(lam)
    config = ModelConfig(d=2, lam=lam, R=3.0)
    sample = ProcessSample(config=config, s=np.array([2.0 * geom.delta]),
                           u=np.array([[0.6, 0.8]]), seed=0)
    assert render.disk_circle(2.0 * geom.delta, 0.9, geom) is None
    (line,) = list(_clipped_group(ET.fromstring(render.render_disk(sample))))
    assert line.tag.endswith("line")
    for x, y in (("x1", "y1"), ("x2", "y2")):
        assert abs(math.hypot(float(line.get(x)), float(line.get(y))) - 1.0) <= 1e-15


def test_render_command_writes_svg(tmp_path):
    out = tmp_path / "disk.svg"
    code = cli.main(["render", "--d", "2", "--lambda", "1", "--R", "3",
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert len(list(_clipped_group(root))) > 0
