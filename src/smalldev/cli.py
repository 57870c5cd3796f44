"""Command-line front end.

Every run writes a manifest (full parameter set + library version + seed)
next to its result file; `smalldev rerun manifest.json` reproduces the run
byte-for-byte.  Exit codes: 0 success, 1 numeric failure or invalid input,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, gfunc, pathgen, ratefit, rkhs, smallball, spectra, tsirelson
from .curves import BoundCurve
from .errors import SmallDevError


def _env_seed() -> int:
    return int(os.environ.get("SMALLDEV_SEED", "0"))


def _fmt(x) -> str:
    if isinstance(x, list):
        return ",".join(_fmt(v) for v in x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_manifest(outdir: str, command: str, params: dict) -> None:
    manifest = {"command": command, "params": params,
                "version": __version__}
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def float_list(text: str) -> list[float]:
    """argparse type of comma-separated numbers such as --r 0.5,1,2."""
    return [float(x) for x in text.split(",") if x]


def beta_text(text: str) -> str:
    """argparse type of --beta: "free" or "fixed:<number>", kept as typed."""
    if text != "free":
        tag, _, value = text.partition(":")
        if tag != "fixed":
            raise ValueError(text)
        float(value)  # ValueError unless a number
    return text


def _read_xy_csv(path: str) -> list[tuple[float, float]]:
    """(x, y) pairs of the non-blank lines after a CSV header line; ValueError
    without a header line, or on a line that is not two numeric fields."""
    out = []
    with open(path) as f:
        if not f.readline():
            raise ValueError(f"{path} has no header line")
        for n, line in enumerate(f, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path} line {n}: expected x,y")
            out.append((float(parts[0]), float(parts[1])))
    return out


# ---------------------------------------------------------------- commands


def cmd_simulate(p: dict, outdir: str) -> None:
    grid = pathgen.GridSpec(0.0, p["t_max"], p["n_points"])
    if p["spectrum"] == "discrete":
        cfg = pathgen.PeriodicGenConfig(p["nu"], p["K"], tail_tol=math.inf)
        path = pathgen.gen_periodic(cfg, grid, p["seed"], p["path_index"])
    else:
        model = spectra.continuous_nu(p["nu"])
        path = pathgen.gen_continuous(model, grid, p["seed"], p["path_index"])
    rows = [[t, x] for t, x in zip(grid.times(), path.values)]
    _write_csv(os.path.join(outdir, "path.csv"), ["t", "x"], rows)


def cmd_smallball(p: dict, outdir: str) -> None:
    grid = pathgen.GridSpec(0.0, 1.0, p["grid"])
    cfg = pathgen.PeriodicGenConfig(p["nu"], p["K"], tail_tol=math.inf)
    ests = smallball.estimate(cfg, grid, p["norm"], p["r"], p["n"], p["seed"])
    header = ["r", "norm", "n", "hits", "p_hat", "ci_low", "ci_high",
              "phi_hat", "phi_lo", "phi_hi", "grid", "seed"]
    rows = [[e.r, e.norm, e.n_samples, e.hits, e.p_hat, e.ci_low, e.ci_high,
             e.phi_hat, e.phi_lo, e.phi_hi, e.grid_points, e.seed]
            for e in ests]
    _write_csv(os.path.join(outdir, "smallball.csv"), header, rows)


def cmd_l2_exact(p: dict, outdir: str) -> None:
    spec = smallball.WeightedChiSquareSpec.periodic(p["nu"], p["K"])
    rows = []
    for r in p["r"]:
        lp = smallball.log_exact_l2(spec, r)
        rows.append([r, math.exp(lp), -lp])
    _write_csv(os.path.join(outdir, "l2_exact.csv"), ["r", "p", "phi"], rows)


def cmd_tsirelson(p: dict, outdir: str) -> None:
    header = ["nu", "spectrum", "convention", "variant", "r", "l_used",
              "sigma2", "phi_lower", "valid"]
    rows = []
    for r in p["r"]:
        if p["l"] is not None:
            cfg = tsirelson.TsirelsonConfig(p["nu"], p["spectrum"], p["l"],
                                            p["convention"])
            res = tsirelson.bound_at(cfg, r, p["variant"])
        else:
            res = tsirelson.bound_opt(p["nu"], p["spectrum"], r,
                                      p["convention"], p["variant"])
        rows.append([p["nu"], res.spectrum, res.convention, res.variant,
                     res.r, res.l_used, res.sigma2, res.phi_lower,
                     res.valid])
    _write_csv(os.path.join(outdir, "tsirelson.csv"), header, rows)


def cmd_entropy(p: dict, outdir: str) -> None:
    ell = rkhs.CoefficientEllipsoid(p["nu"], p["K"])
    rows = []
    for eps in p["eps"]:
        br = rkhs.entropy_bracket(ell, eps)
        rows.append([eps, br.H_lower, br.H_upper, br.lower_method,
                     br.upper_method])
    _write_csv(os.path.join(outdir, "entropy.csv"),
               ["epsilon", "lower", "upper", "lower_method", "upper_method"],
               rows)


def cmd_kl_translate(p: dict, outdir: str) -> None:
    pts = _read_xy_csv(p["input"])
    curve_in = BoundCurve(
        x=np.array([r for r, _ in pts]),
        lower=np.array([v for _, v in pts]),
        upper=np.array([v for _, v in pts]),
        label="input",
    )
    out = rkhs.kl_phi_to_H(curve_in, p["lam"])
    rows = [[x, u] for x, u in zip(out.x, out.upper)]
    _write_csv(os.path.join(outdir, "kl_translate.csv"),
               ["epsilon", "H_upper"], rows)


def cmd_g_certify(p: dict, outdir: str) -> None:
    cert = gfunc.g_certify(gfunc.GFunctionSpec(p["gamma"]), t_max=p["t_max"])
    _write_json(os.path.join(outdir, "g_certify.json"), {
        "gamma": p["gamma"], "c": cert.spec.c, "theta_G": cert.theta_G,
        "bounded_by_one": cert.bounded_by_one, "C_G": cert.C_G,
        "decay_exponent": cert.decay_exponent,
        "fit_t_range": list(cert.fit_t_range),
    })


def cmd_scaling(p: dict, outdir: str) -> None:
    pts = _read_xy_csv(p["input"])
    curve_in = BoundCurve(x=np.array([e for e, _ in pts]), lower=None,
                          upper=np.array([h for _, h in pts]), label="input")
    out = rkhs.scaling_patch(curve_in, p["c"])
    rows = [[x, u] for x, u in zip(out.x, out.upper)]
    _write_csv(os.path.join(outdir, "scaling.csv"),
               ["epsilon", "H_upper"], rows)


def cmd_fit(p: dict, outdir: str) -> None:
    pts = _read_xy_csv(p["input"])
    mode = "free" if p["beta"] == "free" else ("fixed", float(p["beta"].split(":")[1]))
    res = ratefit.fit(pts, beta_mode=mode)
    _write_json(os.path.join(outdir, "fit.json"), {
        "A": res.A, "gamma": res.gamma, "beta": res.beta, "rss": res.rss,
        "n_points": res.n_points, "r_min": res.r_min, "r_max": res.r_max,
        "mode": res.mode, "refused": res.refused, "reason": res.reason,
    })


def cmd_problem5(p: dict, outdir: str) -> None:
    low, up = ratefit.open_problem_curves(p["alpha"], p["r"])
    rows = [[r, lo, hi] for r, lo, hi in zip(low.x, low.lower, up.upper)]
    _write_csv(os.path.join(outdir, "problem5.csv"),
               ["r", "phi_lower", "phi_upper"], rows)


_DISPATCH = {
    "simulate": cmd_simulate,
    "smallball": cmd_smallball,
    "l2-exact": cmd_l2_exact,
    "tsirelson": cmd_tsirelson,
    "entropy": cmd_entropy,
    "kl-translate": cmd_kl_translate,
    "g-certify": cmd_g_certify,
    "scaling": cmd_scaling,
    "fit": cmd_fit,
    "problem5": cmd_problem5,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="smalldev", allow_abbrev=False)
    ap.add_argument("--version", action="version", version=__version__)
    # no flag abbreviations: a manifest key that only prefixes a flag
    # ("gam" for "gamma") must not set that flag
    sub = ap.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       allow_abbrev=False))

    def common(sp):
        sp.add_argument("--seed", type=int, default=_env_seed())
        sp.add_argument("--out", default="out")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--config", default=None,
                        help="flat key=value file; flags override it")

    sp = sub.add_parser("simulate")
    common(sp)
    sp.add_argument("--spectrum", choices=["discrete", "continuous"],
                    required=True)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--K", type=int, default=40)
    sp.add_argument("--n-points", type=int, default=1024)
    sp.add_argument("--t-max", type=float, default=1.0)
    sp.add_argument("--path-index", type=int, default=0)

    sp = sub.add_parser("smallball")
    common(sp)
    sp.add_argument("--spectrum", choices=["discrete"], default="discrete")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--K", type=int, default=40)
    sp.add_argument("--norm", choices=["sup", "l2"], required=True)
    sp.add_argument("--r", type=float_list, required=True)
    sp.add_argument("--n", type=int, default=100000)
    sp.add_argument("--grid", type=int, default=1024)

    sp = sub.add_parser("l2-exact")
    common(sp)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--K", type=int, default=40)
    sp.add_argument("--r", type=float_list, required=True)

    sp = sub.add_parser("tsirelson")
    common(sp)
    sp.add_argument("--spectrum", choices=["discrete", "continuous"],
                    required=True)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--r", type=float_list, required=True)
    sp.add_argument("--l", type=float, default=None)
    sp.add_argument("--convention",
                    choices=[tsirelson.PAPER_2PI, tsirelson.PERIOD_1],
                    default=tsirelson.PAPER_2PI)
    sp.add_argument("--variant",
                    choices=[tsirelson.PAPER_EXPONENT,
                             tsirelson.RIGOROUS_GRID_COUNT],
                    default=tsirelson.PAPER_EXPONENT)

    sp = sub.add_parser("entropy")
    common(sp)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--K", type=int, default=8)
    sp.add_argument("--eps", type=float_list, required=True)

    sp = sub.add_parser("kl-translate")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--lam", type=float, default=2.0)

    sp = sub.add_parser("g-certify")
    common(sp)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--t-max", type=float, default=1e4)

    sp = sub.add_parser("scaling")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--c", type=float, required=True)

    sp = sub.add_parser("fit")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--beta", type=beta_text, default="free",
                    help='"free" or "fixed:<value>"')

    sp = sub.add_parser("problem5")
    common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r", type=float_list, required=True)

    sp = sub.add_parser("rerun")
    sp.add_argument("manifest")
    return ap


def _apply_config(argv: list[str]) -> list[str]:
    """Insert key=value pairs from a --config file as flags after the
    subcommand, so explicit flags keep priority.  A trailing --config is left
    for the parser to reject."""
    if "--config" not in argv[:-1]:
        return argv
    i = argv.index("--config")
    path = argv[i + 1]
    tokens = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            tokens.extend([f"--{key.strip()}", value.strip()])
    return argv[:1] + tokens + argv[1:]


def _params_of(args: argparse.Namespace) -> dict:
    p = dict(vars(args))
    p.pop("command", None)
    p.pop("config", None)
    # argparse stores --t-max, --n-points, --path-index with underscores
    return p


def _flags(params: dict) -> list[str]:
    """--name=value tokens that set a manifest's parameters; None gives none."""
    return [f"--{key.replace('_', '-')}={_fmt(value)}"
            for key, value in params.items() if value is not None]


def _load(argv: list[str]) -> tuple[str, dict]:
    """Command and parameters of a run, from flags or from a manifest, both
    parsed by the command's subparser.

    Malformed flags or manifest values exit 2 through argparse; an unreadable
    config, manifest or input file, or an incomplete manifest, raises
    OSError, ValueError or KeyError.
    """
    ap = _build_parser()
    if argv and argv[0] == "rerun":
        with open(ap.parse_args(argv).manifest) as f:
            manifest = json.load(f)
        command, given = manifest["command"], manifest["params"]
        if command not in _DISPATCH:
            raise ValueError(f"manifest names an unknown command {command!r}")
        # keys that are no flag (old manifests' "format") are kept as given;
        # a missing one would silently take its flag's default (seed, out)
        args, _ = ap.parse_known_args([command] + _flags(given))
        typed = _params_of(args)
        missing = sorted(set(typed) - set(given))
        if missing:
            raise ValueError(f"manifest lacks parameters {missing}")
        params = {**given, **typed}
    else:
        args = ap.parse_args(_apply_config(argv))
        command, params = args.command, _params_of(args)
    if params.get("input") is not None:
        _read_xy_csv(params["input"])
    return command, params


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command, params = _load(argv)
    except (OSError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    outdir = params["out"]
    os.makedirs(outdir, exist_ok=True)
    try:
        _DISPATCH[command](params, outdir)
    except SmallDevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(outdir, command, params)
    return 0


if __name__ == "__main__":
    sys.exit(main())
