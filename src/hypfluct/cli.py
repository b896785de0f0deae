"""Command-line driver for simulation experiments and rendering."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import functionals, limitlaw, render, sampling, stats
from .errors import DomainError, QuadratureError
from .hyperbolic import ModelConfig


@dataclass
class ExperimentConfig:
    command: str
    d: int = 2
    lam: float = 0.0
    R_list: list = field(default_factory=lambda: [3.0])
    multiplier: float = 1.0
    n_replicates: int = 1000
    seed: int = 0
    output_path: str = ""


class UsageError(Exception):
    pass


def _parse_r_list(text: str) -> list:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values or not all(0.0 < v < math.inf for v in values):
        raise ValueError("R list must be nonempty, positive and finite")
    return values


# key: (ExperimentConfig field, parser); each key is the flag --key and a
# config-file key
OPTIONS = {"d": ("d", int), "lambda": ("lam", float), "R": ("R_list", _parse_r_list),
           "n": ("n_replicates", int), "seed": ("seed", int),
           "multiplier": ("multiplier", float), "out": ("output_path", str)}
# flags a command does not read; a config file may set these keys, so that one
# file can describe an experiment that several commands run
_UNREAD = {"cumulants": ("n", "seed"), "limit": ("R",), "render": ("n",)}
# the fewest replicates a command can use: a sample variance needs 2, the
# k-statistics up to k4 need 4
_MIN_N = {"variance": 2, "limit": 4, "regimes": 4}


def _read_config_file(path) -> list:
    """Line-oriented UTF-8 key=value file, as (key, text, "path:line") entries."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            key, eq, text = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{where}: expected key=value")
            if key not in OPTIONS:
                raise ValueError(f"{where}: unknown key {key!r}; valid keys: "
                                 + ", ".join(sorted(OPTIONS)))
            entries.append((key, text, where))
    return entries


def _resolve(args: dict) -> ExperimentConfig:
    command = args["command"]
    unread = [f"--{key}" for key in _UNREAD.get(command, ()) if args[key] is not None]
    if unread:
        raise ValueError(f"{command} does not read {', '.join(unread)}")
    entries = _read_config_file(args["config"]) if args["config"] else []
    entries += [(key, args[key], f"--{key}") for key in OPTIONS if args[key] is not None]
    cfg = ExperimentConfig(command=command)
    for key, text, where in entries:        # later entries win: flags over the file
        name, parse = OPTIONS[key]
        try:
            setattr(cfg, name, parse(text))
        except ValueError as exc:
            raise ValueError(f"{where}: malformed value {text!r} ({exc})") from None
    if command in ("sample", "render") and args["R"] is not None and len(cfg.R_list) > 1:
        raise ValueError(f"{command} takes one radius, got --R {args['R']}")
    min_n = _MIN_N.get(command, 1)
    if cfg.n_replicates < min_n:
        raise ValueError(f"{command} needs n >= {min_n}, got {cfg.n_replicates}")
    if not 0.0 <= cfg.lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {cfg.lam}")
    return cfg


def parse_config(argv) -> ExperimentConfig:
    """Flags override config-file values; both take the keys of OPTIONS."""
    parser = argparse.ArgumentParser(prog="hypfluct")
    parser.add_argument("command", choices=COMMANDS)
    for key in OPTIONS:
        parser.add_argument(f"--{key}")
    parser.add_argument("--config")
    try:
        return _resolve(vars(parser.parse_args(argv)))
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise UsageError("bad command line") from None
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _model(cfg, R) -> ModelConfig:
    return ModelConfig(d=cfg.d, lam=cfg.lam, R=float(R),
                       intensity_multiplier=cfg.multiplier)


def _write_csv(path, header, rows) -> None:
    """Header, then rows: ints by str, every other value by repr(float(v))."""
    lines = [",".join(header)]
    lines.extend(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row)
                 for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_sample(cfg):
    model = _model(cfg, cfg.R_list[0])
    samples = [sampling.sample_process(model, cfg.seed, replicate_index=i)
               for i in range(cfg.n_replicates)]
    path = cfg.output_path or "samples.hypf"
    sampling.write_sample_dump(path, samples)
    total = sum(len(s) for s in samples)
    print(f"sample d={cfg.d} lambda={cfg.lam} R={model.R}: "
          f"{cfg.n_replicates} replicates, {total} hyperplanes -> {path}")


def _run_crofton(cfg):
    rows = []
    for R in cfg.R_list:
        model = _model(cfg, R)
        S, _, _ = functionals.simulate_surface(model, cfg.n_replicates, cfg.seed)
        mc = float(S.mean())
        expected = functionals.expected_surface_area(model)
        z = (mc - expected) / math.sqrt(functionals.variance(model) / cfg.n_replicates)
        rows.append((cfg.d, cfg.lam, R, cfg.n_replicates, mc, expected, z))
        print(f"crofton R={R} lambda={cfg.lam}: mc={mc:.6g} "
              f"expected={expected:.6g} z={z:+.2f}")
    _write_csv(cfg.output_path or "crofton.csv",
               ("d", "lambda", "R", "n", "mc_mean", "expected", "z_score"), rows)


def _run_variance(cfg):
    rows = []
    for R in cfg.R_list:
        model = _model(cfg, R)
        S, _, _ = functionals.simulate_surface(model, cfg.n_replicates, cfg.seed)
        emp = float(np.var(S, ddof=1))
        i2 = functionals.variance(model)
        rows.append((cfg.d, cfg.lam, R, cfg.n_replicates, emp, i2, emp / i2))
        print(f"variance R={R} lambda={cfg.lam}: empirical={emp:.6g} "
              f"I2={i2:.6g} ratio={emp / i2:.4f}")
    _write_csv(cfg.output_path or "variance.csv",
               ("d", "lambda", "R", "n", "empirical_var", "I2", "ratio"), rows)


def _run_cumulants(cfg):
    rows = []
    for R in cfg.R_list:
        model = _model(cfg, R)
        for k in range(1, 5):
            rows.append((cfg.d, cfg.lam, R, k,
                         functionals.cumulant_integral(model, k)))
        print(f"cumulants R={R} lambda={cfg.lam}: "
              + " ".join(f"I{k}={v:.6g}" for (_, _, _, k, v) in rows[-4:]))
    _write_csv(cfg.output_path or "cumulants.csv",
               ("d", "lambda", "R", "k", "I_value"), rows)


def _run_limit(cfg):
    spec = limitlaw.limit_law_spec(cfg.d, cfg.lam, multiplier=cfg.multiplier)
    draws = limitlaw.sample_limit(spec, cfg.n_replicates, cfg.seed)
    mean, k2, k3, k4 = stats.k_statistics(draws)
    sd = math.sqrt(limitlaw.limit_cumulant(spec, 2))
    x = np.linspace(-10.0 * sd, 14.0 * sd, 801)
    F = limitlaw.cdf_via_inversion(spec, x)
    t = np.linspace(0.0, 20.0, 401)
    psi = limitlaw.characteristic_function(spec, t)
    base = cfg.output_path or "limit"
    _write_csv(base + "_cdf.csv", ("x", "F"), zip(x, F))
    _write_csv(base + "_cf.csv", ("t", "re_psi", "im_psi"), zip(t, psi.real, psi.imag))
    print(f"limit d={cfg.d} lambda={cfg.lam} rate={spec.rate:.6g}: "
          f"n={cfg.n_replicates} k2={k2:.5f} (cum2={limitlaw.limit_cumulant(spec, 2):.5f}) "
          f"k3={k3:.5f} k4={k4:.5f}")


def _run_regimes(cfg):
    rows = stats.regime_report(cfg.d, cfg.lam, cfg.R_list, cfg.n_replicates,
                               cfg.seed, multiplier=cfg.multiplier)
    _write_csv(cfg.output_path or "regimes.csv", stats.REPORT_COLUMNS,
               ([row[col] for col in stats.REPORT_COLUMNS] for row in rows))
    for row in rows:
        print(f"regimes R={row['R']} lambda={cfg.lam}: "
              f"ks_N(0,1)={row['ks_normal1']:.4f} "
              f"ks_N(0,1/2)={row['ks_normal_half']:.4f} "
              f"ks_limit={row['ks_limit']:.4f}")


def _run_render(cfg):
    model = _model(cfg, cfg.R_list[0])
    sample = sampling.sample_process(model, cfg.seed)
    svg = render.render_disk(sample)
    path = cfg.output_path or "disk.svg"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"render d=2 lambda={cfg.lam} R={model.R}: "
          f"{len(sample)} curves -> {path}")


COMMANDS = {
    "sample": _run_sample,
    "crofton": _run_crofton,
    "variance": _run_variance,
    "cumulants": _run_cumulants,
    "limit": _run_limit,
    "regimes": _run_regimes,
    "render": _run_render,
}


def run(cfg: ExperimentConfig) -> int:
    try:
        COMMANDS[cfg.command](cfg)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        return 0
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
