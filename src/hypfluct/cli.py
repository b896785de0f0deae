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

COMMANDS = ("sample", "crofton", "variance", "cumulants", "limit", "regimes",
            "render")

CONFIG_KEYS = {"d": int, "lambda": float, "R": str, "n": int, "seed": int,
               "multiplier": float, "out": str}


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


def _parse_r_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"malformed R list: {text!r}")
    if not values or any(v <= 0.0 for v in values):
        raise UsageError("R list must be nonempty and positive")
    return values


def _read_config_file(path):
    """Line-oriented UTF-8 key=value file."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(sorted(CONFIG_KEYS)))
            try:
                values[key] = CONFIG_KEYS[key](val)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: malformed value {val!r}")
    return values


def parse_config(argv) -> ExperimentConfig:
    """Flags override config-file values; file keys are d, lambda, R, n,
    seed, multiplier, out."""
    parser = argparse.ArgumentParser(prog="hypfluct", add_help=True)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--d", type=int)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--R", type=str, help="comma-separated radii")
    parser.add_argument("--n", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--multiplier", type=float)
    parser.add_argument("--out", type=str)
    parser.add_argument("--config", type=str)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise UsageError("bad command line") from None
        raise

    file_vals = _read_config_file(args.config) if args.config else {}
    cfg = ExperimentConfig(command=args.command)

    def pick(flag_val, key, default):
        if flag_val is not None:
            return flag_val
        return file_vals.get(key, default)

    cfg.d = pick(args.d, "d", cfg.d)
    cfg.lam = pick(args.lam, "lambda", cfg.lam)
    cfg.R_list = _parse_r_list(pick(args.R, "R", "3"))
    cfg.n_replicates = pick(args.n, "n", cfg.n_replicates)
    cfg.seed = pick(args.seed, "seed", cfg.seed)
    cfg.multiplier = pick(args.multiplier, "multiplier", cfg.multiplier)
    cfg.output_path = pick(args.out, "out", "")
    if cfg.n_replicates < 1:
        raise UsageError("n must be >= 1")
    if not 0.0 <= cfg.lam <= 1.0:
        raise UsageError(f"lambda must lie in [0, 1], got {cfg.lam}")
    return cfg


def _model(cfg, R) -> ModelConfig:
    return ModelConfig(d=cfg.d, lam=cfg.lam, R=float(R),
                       intensity_multiplier=cfg.multiplier)


def _out(cfg, default):
    return cfg.output_path or default


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_sample(cfg):
    model = _model(cfg, cfg.R_list[0])
    samples = [sampling.sample_process(model, cfg.seed, replicate_index=i)
               for i in range(cfg.n_replicates)]
    path = _out(cfg, "samples.hypf")
    sampling.write_sample_dump(path, samples)
    total = sum(len(s) for s in samples)
    print(f"sample d={cfg.d} lambda={cfg.lam} R={model.R}: "
          f"{cfg.n_replicates} replicates, {total} hyperplanes -> {path}")


def _run_crofton(cfg):
    path = _out(cfg, "crofton.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d,lambda,R,n,mc_mean,expected,z_score\n")
        for R in cfg.R_list:
            model = _model(cfg, R)
            S, _, _ = functionals.simulate_surface(model, cfg.n_replicates,
                                                   cfg.seed)
            expected = functionals.expected_surface_area(model)
            se = math.sqrt(functionals.variance(model) / cfg.n_replicates)
            z = (float(S.mean()) - expected) / se
            fh.write(f"{cfg.d},{cfg.lam!r},{R!r},{cfg.n_replicates},"
                     f"{float(S.mean())!r},{expected!r},{z!r}\n")
            print(f"crofton R={R} lambda={cfg.lam}: mc={S.mean():.6g} "
                  f"expected={expected:.6g} z={z:+.2f}")


def _run_variance(cfg):
    path = _out(cfg, "variance.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("d,lambda,R,n,empirical_var,I2,ratio\n")
        for R in cfg.R_list:
            model = _model(cfg, R)
            S, _, _ = functionals.simulate_surface(model, cfg.n_replicates,
                                                   cfg.seed)
            emp = float(np.var(S, ddof=1))
            i2 = functionals.variance(model)
            fh.write(f"{cfg.d},{cfg.lam!r},{R!r},{cfg.n_replicates},"
                     f"{emp!r},{i2!r},{emp / i2!r}\n")
            print(f"variance R={R} lambda={cfg.lam}: empirical={emp:.6g} "
                  f"I2={i2:.6g} ratio={emp / i2:.4f}")


def _run_cumulants(cfg):
    rows = []
    for R in cfg.R_list:
        model = _model(cfg, R)
        for k in range(1, 5):
            rows.append((cfg.d, cfg.lam, R, k,
                         functionals.cumulant_integral(model, k)))
        print(f"cumulants R={R} lambda={cfg.lam}: "
              + " ".join(f"I{k}={v:.6g}" for (_, _, _, k, v) in rows[-4:]))
    functionals.write_cumulant_csv(_out(cfg, "cumulants.csv"), rows)


def _run_limit(cfg):
    spec = limitlaw.limit_law_spec(
        cfg.d, cfg.lam, rate=cfg.multiplier * sampling.zeta_rate(cfg.d, cfg.lam))
    draws = limitlaw.sample_limit(spec, cfg.n_replicates, cfg.seed)
    mean, k2, k3, k4 = stats.k_statistics(draws)
    sd = math.sqrt(limitlaw.limit_cumulant(spec, 2))
    x = np.linspace(-10.0 * sd, 14.0 * sd, 801)
    F = limitlaw.cdf_via_inversion(spec, x)
    t = np.linspace(0.0, 20.0, 401)
    psi = limitlaw.characteristic_function(spec, t)
    base = _out(cfg, "limit")
    limitlaw.write_cdf_csv(base + "_cdf.csv", x, F)
    limitlaw.write_cf_csv(base + "_cf.csv", t, psi)
    print(f"limit d={cfg.d} lambda={cfg.lam} rate={spec.rate:.6g}: "
          f"n={cfg.n_replicates} k2={k2:.5f} (cum2={limitlaw.limit_cumulant(spec, 2):.5f}) "
          f"k3={k3:.5f} k4={k4:.5f}")


def _run_regimes(cfg):
    rows = stats.regime_report(cfg.d, cfg.lam, cfg.R_list, cfg.n_replicates,
                               cfg.seed, multiplier=cfg.multiplier)
    stats.write_report_csv(_out(cfg, "regimes.csv"), rows)
    for row in rows:
        print(f"regimes R={row['R']} lambda={cfg.lam}: "
              f"ks_N(0,1)={row['ks_normal1']:.4f} "
              f"ks_N(0,1/2)={row['ks_normal_half']:.4f} "
              f"ks_limit={row['ks_limit']:.4f}")


def _run_render(cfg):
    model = _model(cfg, cfg.R_list[0])
    sample = sampling.sample_process(model, cfg.seed)
    svg = render.render_disk(sample)
    path = _out(cfg, "disk.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"render d=2 lambda={cfg.lam} R={model.R}: "
          f"{len(sample)} curves -> {path}")


_DISPATCH = {
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
        _DISPATCH[cfg.command](cfg)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DomainError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        return 0
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
