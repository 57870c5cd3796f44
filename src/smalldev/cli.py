"""Command-line front end.

Every run writes a manifest (full parameter set + library version + seed)
next to its result file; `smalldev rerun manifest.json` reproduces the run
byte-for-byte.  `--config FILE` and `--config=FILE` both insert the file's
`key=value` lines, keys spelled as flag names, before the explicit flags,
which override them.  `smallball --threads N` reduces the Monte Carlo path
blocks on up to N worker threads (`pathgen.batch_norms`) and gives the same
bytes at every N; `smallball --spectrum` has the single value `discrete`.
The argparse tree is built once per process; the default seed is read from
SMALLDEV_SEED at each run; every command refuses a seed outside [0, 2^64),
as the random ones must.  Each `--input` file is read once, so it may be a
pipe.  The `--out` directory is made only for a run that succeeds.  Exit
codes: 0 success, 1 numeric failure or invalid input, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from . import __version__, gfunc, pathgen, ratefit, rkhs, smallball, spectra, tsirelson
from .curves import BoundCurve
from .errors import SmallDevError


def _fmt(x) -> str:
    if isinstance(x, list):
        return ",".join(_fmt(v) for v in x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _csv(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(_fmt(v) for v in line) + "\n" for line in [header, *rows])


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def float_list(text: str) -> list[float]:
    """argparse type of one or more comma-separated numbers: --r 0.5,1,2."""
    values = [float(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected at least one number, got {text!r}")
    return values


def positive_int(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


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
    without a header line, or on a line that is not two finite numbers."""
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
            x, y = float(parts[0]), float(parts[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path} line {n}: expected finite numbers")
            out.append((x, y))
    return out


# ---------------------------------------------------------------- commands
# each returns the name and the text of its result file, which `main` writes;
# a command with --input also takes the file's points, which `_load` read


def cmd_simulate(p: dict) -> tuple[str, str]:
    grid = pathgen.GridSpec(0.0, p["t_max"], p["n_points"])
    if p["spectrum"] == "discrete":
        cfg = pathgen.PeriodicGenConfig(p["nu"], p["K"])
        path = pathgen.gen_periodic(cfg, grid, p["seed"], p["path_index"])
    else:
        model = spectra.continuous_nu(p["nu"])
        path = pathgen.gen_continuous(model, grid, p["seed"], p["path_index"])
    rows = [[t, x] for t, x in zip(grid.times(), path.values)]
    return "path.csv", _csv(["t", "x"], rows)


def cmd_smallball(p: dict) -> tuple[str, str]:
    grid = pathgen.GridSpec(0.0, 1.0, p["grid"])
    cfg = pathgen.PeriodicGenConfig(p["nu"], p["K"])
    ests = smallball.estimate(cfg, grid, p["norm"], p["r"], p["n"], p["seed"],
                              threads=p["threads"])
    header = ["r", "norm", "n", "hits", "p_hat", "ci_low", "ci_high",
              "phi_hat", "phi_lo", "phi_hi", "grid", "seed"]
    rows = [[e.r, e.norm, e.n_samples, e.hits, e.p_hat, e.ci_low, e.ci_high,
             e.phi_hat, e.phi_lo, e.phi_hi, e.grid_points, e.seed]
            for e in ests]
    return "smallball.csv", _csv(header, rows)


def cmd_l2_exact(p: dict) -> tuple[str, str]:
    curve = smallball.phi_l2_curve(p["nu"], p["K"], p["r"])
    rows = [[r, phi] for r, phi in zip(p["r"], curve.lower)]
    return "l2_exact.csv", _csv(["r", "phi"], rows)


def cmd_tsirelson(p: dict) -> tuple[str, str]:
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
    return "tsirelson.csv", _csv(header, rows)


def cmd_entropy(p: dict) -> tuple[str, str]:
    ell = rkhs.CoefficientEllipsoid(p["nu"], p["K"])
    brackets = [rkhs.entropy_bracket(ell, eps) for eps in p["eps"]]
    rows = [[b.epsilon, b.H_lower, b.H_upper, b.lower_method, b.upper_method]
            for b in brackets]
    return "entropy.csv", _csv(
        ["epsilon", "lower", "upper", "lower_method", "upper_method"], rows)


def _input_curve(pts: list[tuple[float, float]]) -> BoundCurve:
    """The (x, y) points of an --input file as the upper side of a curve."""
    return BoundCurve(x=np.array([x for x, _ in pts]), lower=None,
                      upper=np.array([y for _, y in pts]), label="input")


def _H_upper_csv(curve: BoundCurve) -> str:
    return _csv(["epsilon", "H_upper"], [[x, u] for x, u in zip(curve.x, curve.upper)])


def cmd_kl_translate(p: dict, points: list) -> tuple[str, str]:
    curve = rkhs.kl_phi_to_H(_input_curve(points), p["lam"])
    return "kl_translate.csv", _H_upper_csv(curve)


def cmd_g_certify(p: dict) -> tuple[str, str]:
    cert = gfunc.g_certify(gfunc.GFunctionSpec(p["gamma"]), t_max=p["t_max"])
    return "g_certify.json", _json({
        "gamma": p["gamma"], "c": cert.spec.c, "theta_G": cert.theta_G,
        "bounded_by_one": cert.bounded_by_one, "C_G": cert.C_G,
        "decay_exponent": cert.decay_exponent,
        "fit_t_range": list(cert.fit_t_range),
    })


def cmd_scaling(p: dict, points: list) -> tuple[str, str]:
    curve = rkhs.scaling_patch(_input_curve(points), p["c"])
    return "scaling.csv", _H_upper_csv(curve)


def cmd_fit(p: dict, points: list) -> tuple[str, str]:
    mode = "free" if p["beta"] == "free" else ("fixed", float(p["beta"].split(":")[1]))
    res = ratefit.fit(points, beta_mode=mode)
    return "fit.json", _json({
        "A": res.A, "gamma": res.gamma, "beta": res.beta, "rss": res.rss,
        "n_points": res.n_points, "r_min": res.r_min, "r_max": res.r_max,
        "mode": res.mode, "refused": res.refused, "reason": res.reason,
    })


def cmd_problem5(p: dict) -> tuple[str, str]:
    low, up = ratefit.open_problem_curves(p["alpha"], p["r"])
    rows = [[r, lo, hi] for r, lo, hi in zip(low.x, low.lower, up.upper)]
    return "problem5.csv", _csv(["r", "phi_lower", "phi_upper"], rows)


#: the --config flag alone: read before the full parse, which needs the
#: file's keys as flags
_CONFIG = argparse.ArgumentParser(prog="smalldev", add_help=False,
                                  allow_abbrev=False)
_CONFIG.add_argument("--config", help="flat key=value file; flags override it")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: it holds no run's state,
    so `--seed` defaults to None and `_load` fills in SMALLDEV_SEED."""
    ap = argparse.ArgumentParser(prog="smalldev", allow_abbrev=False)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False, parents=[_CONFIG])
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default="out")

    def command(name, run):
        # no flag abbreviations: a manifest key that only prefixes a flag
        # ("gam" for "gamma") must not set that flag
        sp = sub.add_parser(name, parents=[common], allow_abbrev=False)
        sp.set_defaults(run=run)
        return sp

    sp = command("simulate", cmd_simulate)
    sp.add_argument("--spectrum", choices=["discrete", "continuous"],
                    required=True)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--K", type=int, default=40)
    sp.add_argument("--n-points", type=int, default=1024)
    sp.add_argument("--t-max", type=float, default=1.0)
    sp.add_argument("--path-index", type=int, default=0)

    sp = command("smallball", cmd_smallball)
    sp.add_argument("--spectrum", choices=["discrete"], default="discrete")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--K", type=int, default=40)
    sp.add_argument("--norm", choices=["sup", "l2"], required=True)
    sp.add_argument("--r", type=float_list, required=True)
    sp.add_argument("--n", type=int, default=100000)
    sp.add_argument("--grid", type=int, default=1024)
    sp.add_argument("--threads", type=positive_int, default=1,
                    help="worker threads for the path blocks, at most the "
                         "usable CPUs; BLAS runs on one thread meanwhile, "
                         "and the result is the same at every value")

    sp = command("l2-exact", cmd_l2_exact)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--K", type=int, default=40)
    sp.add_argument("--r", type=float_list, required=True)

    sp = command("tsirelson", cmd_tsirelson)
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

    sp = command("entropy", cmd_entropy)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--K", type=int, default=8)
    sp.add_argument("--eps", type=float_list, required=True)

    sp = command("kl-translate", cmd_kl_translate)
    sp.add_argument("--input", required=True)
    sp.add_argument("--lam", type=float, default=2.0)

    sp = command("g-certify", cmd_g_certify)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--t-max", type=float, default=1e4)

    sp = command("scaling", cmd_scaling)
    sp.add_argument("--input", required=True)
    sp.add_argument("--c", type=float, required=True)

    sp = command("fit", cmd_fit)
    sp.add_argument("--input", required=True)
    sp.add_argument("--beta", type=beta_text, default="free",
                    help='"free" or "fixed:<value>"')

    sp = command("problem5", cmd_problem5)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r", type=float_list, required=True)

    sub.add_parser("rerun").add_argument("manifest")
    return ap


def _flags(params: dict) -> list[str]:
    """--name=value tokens that set a manifest's parameters; None gives none."""
    return [f"--{key.replace('_', '-')}={_fmt(value)}"
            for key, value in params.items() if value is not None]


def _with_config(argv: list[str]) -> list[str]:
    """argv with the key=value lines of its --config file as flags right
    after the subcommand, where the explicit flags that follow override them."""
    path = _CONFIG.parse_known_args(argv)[0].config
    if path is None:
        return argv
    with open(path) as f:
        lines = [line.strip() for line in f]
    pairs = [line.partition("=") for line in lines
             if line and not line.startswith("#")]
    config = {key.strip(): value.strip() for key, _, value in pairs}
    return argv[:1] + _flags(config) + argv[1:]


def _load(argv: list[str]) -> tuple[str, Callable[[dict], tuple[str, str]], dict]:
    """The parsed run, from flags or from a manifest, both parsed by the
    command's subparser: its `command`, its `run` function and its params.

    Malformed flags or manifest values exit 2 through argparse; an unreadable
    config, manifest or input file, or an incomplete or malformed manifest,
    raises OSError, ValueError or KeyError, as does a SMALLDEV_SEED that is
    no integer, even when --seed is given.  The --input file is read here,
    once, and its points are bound to `run`, so a pipe works as an input.
    """
    env_seed = int(os.environ.get("SMALLDEV_SEED", "0"))
    ap = _build_parser()
    if argv[:1] == ["rerun"]:
        with open(ap.parse_args(argv).manifest) as f:
            manifest = json.load(f)
        if not isinstance(manifest, dict) \
                or not isinstance(manifest.get("params"), dict):
            raise ValueError("manifest must be a JSON object with a params object")
        command, given = manifest["command"], manifest["params"]
        if not isinstance(command, str) or command.startswith("-") \
                or command == "rerun":
            raise ValueError(f"manifest names no command: {command!r}")
        # the subparsers refuse an unknown command; keys that are no flag
        # (old manifests' "format") are kept as given
        args, _ = ap.parse_known_args([command] + _flags(given))
    else:
        args, given = ap.parse_args(_with_config(argv)), None
    params = vars(args)
    command, run = params.pop("command"), params.pop("run")
    del params["config"]
    if "input" in params:
        run = functools.partial(run, points=_read_xy_csv(params["input"]))
    if params["seed"] is None:
        params["seed"] = env_seed
    if given is not None:
        # a missing key would silently take its flag's default (seed, out)
        missing = sorted(set(params) - set(given))
        if missing:
            raise ValueError(f"manifest lacks parameters {missing}")
        params = {**given, **params}
    return command, run, params


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command, run, params = _load(argv)
    except (OSError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        pathgen.check_seed(params["seed"])  # every command's, random or not
        result = run(params)
    except SmallDevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(params["out"], exist_ok=True)
    manifest = "manifest.json", _json({"command": command, "params": params,
                                       "version": __version__})
    for name, text in (result, manifest):
        with open(os.path.join(params["out"], name), "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
