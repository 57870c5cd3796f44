"""The three benchmark workloads.

Each is a closed loop with one caller making one call at a time.  A
workload object is created after the library is imported; `warm_up` runs
during set-up, `run_pass` is one timed pass (pass `p` of the run), and
`finish` runs the correctness checks on what the passes produced.

* mc-fourier -- `smalldev smallball` through `cli.main` at acceptance
  scale, at `--threads 1` and at `--threads nproc`.  Nearly all time is in
  `pathgen.batch_norms`.
* bounds -- the deterministic, certified numbers: a Tsirelson `bound_opt`
  sweep and its certificates, entropy brackets, truncation entropy bounds,
  a deep-radius exact L2 curve, `g-certify` and rate fits.  No paths are
  generated.
* continuous-sim -- many small `pathgen.gen_continuous` calls on a few
  repeated (model, grid) keys, plus a batch `continuous_values` covariance
  recovery, calling the library directly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _read(path) -> bytes | None:
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


def _rows(data: bytes | None) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode()))) if data else []


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _median(xs) -> float:
    return statistics.median(xs) if xs else math.nan


#: statistical checks pass within this many standard errors.  A run makes
#: up to a dozen of them and the benchmark is run dozens of times, so at 3 SE
#: some run would fail by chance alone (0.27% per check); at 5 SE a correct
#: program fails about once in 10^6 checks, while the circulant-branch defect
#: of continuous-sim still sits beyond 9 SE.
Z_MAX = 5.0


def _within_se(samples: np.ndarray, target: float) -> tuple[bool, str]:
    """Is the mean of `samples` within Z_MAX standard errors of `target`?"""
    n = len(samples)
    if n < 2:
        return False, f"only {n} samples"
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1)) / math.sqrt(n)
    z = (mean - target) / se if se > 0 else math.inf
    return abs(z) <= Z_MAX, f"mean {mean:.6g} vs {target:.6g}, n={n}, z={z:.2f}"


class Workload:
    name = ""

    def __init__(self, sd, seed: int, outdir: str, size: dict):
        self.sd = sd
        self.seed = seed
        self.out = outdir
        self.size = size
        self.attempted = 0
        self.failed_ops: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.known_defects: dict[str, str] = {}  # check name -> defect
        self.stage_times: list[dict] = []  # one dict per pass
        self.digests: dict[str, str] = {}

    # ------------------------------------------------------------ helpers

    def op(self, label: str, fn, *args, **kwargs):
        """Run one operation of the workload; a raised error counts as a
        failed operation and the workload goes on."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed_ops.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, label: str, argv: list[str]) -> bool:
        code = self.op(label, self.sd.cli.main, argv)
        if code not in (0, None):
            self.failed_ops.append(f"{label}: exit code {code}")
        return code == 0

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)

    def check(self, name: str, ok: bool, detail: str = "",
              known_defect: str | None = None) -> None:
        """Record a check.  A check that tests a known defect of the library
        names it; if it fails, it counts in fail_frac and is reported by
        name, but does not make the run incorrect."""
        self.checks.append((name, bool(ok), detail))
        if known_defect:
            self.known_defects[name] = known_defect

    def check_rerun(self, subdir: str, filename: str) -> None:
        """`smalldev rerun manifest.json` must reproduce the result bytes."""
        manifest = json.loads(_read(self.path(subdir, "manifest.json")) or b"{}")
        if "params" not in manifest:
            self.check(f"rerun {subdir}", False, "no manifest")
            return
        manifest["params"]["out"] = self.path("rerun-" + subdir)
        mpath = self.path(f"rerun-{subdir}.json")
        Path(mpath).write_text(json.dumps(manifest))
        self.cli(f"rerun {subdir}", ["rerun", mpath])
        same = _read(self.path("rerun-" + subdir, filename)) == \
            _read(self.path(subdir, filename))
        self.check(f"rerun {subdir} reproduces {filename}", same)

    def record_outputs(self, p: int, subdirs: list[str]) -> None:
        """Digest every CLI output file on pass 0; later passes must repeat
        the same bytes."""
        files = {}
        for sub in subdirs:
            if not os.path.isdir(self.path(sub)):
                continue  # its command failed, which is already counted
            for f in sorted(os.listdir(self.path(sub))):
                files[f"{sub}/{f}"] = _read(self.path(sub, f))
        if p == 0:
            self.digests = {k: _sha(v) for k, v in files.items()}
        else:
            changed = [k for k, v in files.items()
                       if self.digests.get(k) != _sha(v)]
            self.check(f"pass {p} repeats pass 0 outputs", not changed,
                       ", ".join(changed))

    # ----------------------------------------------------------- interface

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, p: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def metrics(self) -> dict[str, tuple[float, str, str]]:
        """Workload-specific metrics: name -> (value, unit, better)."""
        raise NotImplementedError

    def untraced_times(self) -> list[dict]:
        """Stage times of the passes that ran without tracing."""
        return [t for t in self.stage_times if not t.get("traced")]


# ====================================================================== #


class MonteCarloFourier(Workload):
    name = "mc-fourier"

    def __init__(self, *args):
        super().__init__(*args)
        s = self.size
        self.threads = (1, nproc())
        # (norm, K, radii): sup norm at K=45 and L2 norm at K=8, both nu=1
        self.runs = [("sup", 45, s["r_sup"]), ("l2", 8, s["r_l2"])]

    def _argv(self, norm, K, radii, n, threads, out) -> list[str]:
        return ["smallball", "--spectrum", "discrete", "--nu", "1",
                "--K", str(K), "--norm", norm, "--r", _floats(radii),
                "--n", str(n), "--grid", str(self.size["grid"]),
                "--seed", str(self.seed), "--threads", str(threads),
                "--out", out]

    def warm_up(self) -> None:
        for norm, K, radii in self.runs:
            for th in self.threads:
                if self.sd.cli.main(self._argv(norm, K, radii,
                                               self.size["warm_n"], th,
                                               self.path("warm"))) != 0:
                    raise RuntimeError("warm-up smallball run failed")

    def run_pass(self, p: int) -> None:
        n = self.size["n"]
        times = {}
        for norm, K, radii in self.runs:
            for th in self.threads:
                t0 = perf_counter()
                self.cli(f"smallball {norm} threads={th}",
                         self._argv(norm, K, radii, n, th,
                                    self.path(f"{norm}-t{th}")))
                times[f"{norm}-t{th}"] = perf_counter() - t0
        self.stage_times.append(times)
        subdirs = [f"{norm}-t{th}" for norm, _, _ in self.runs
                   for th in self.threads]
        self.record_outputs(p, subdirs)
        for norm, _, _ in self.runs:
            a, b = (_read(self.path(f"{norm}-t{th}", "smallball.csv"))
                    for th in self.threads)
            self.check(f"pass {p} {norm}: threads 1 and {self.threads[1]} "
                       "give identical bytes", a is not None and a == b)

    def finish(self) -> None:
        n = self.size["n"]
        for norm, K, radii in self.runs:
            rows = _rows(_read(self.path(f"{norm}-t1", "smallball.csv")))
            hits = [int(r["hits"]) for r in sorted(rows, key=lambda r: float(r["r"]))]
            self.check(f"{norm}: hits monotone in r",
                       len(hits) == len(radii)
                       and all(a <= b for a, b in zip(hits, hits[1:])),
                       str(hits))
            if norm != "l2":
                continue
            spec = self.sd.smallball.WeightedChiSquareSpec.periodic(1.0, K)
            for row in rows:
                r = float(row["r"])
                p = self.op(f"exact_l2 r={r}", self.sd.smallball.exact_l2, spec, r)
                if p is None:
                    continue
                se = math.sqrt(p * (1.0 - p) / n)
                dev = abs(float(row["p_hat"]) - p)
                self.check(f"l2 r={r}: p_hat within {Z_MAX:g} SE of exact_l2",
                           dev <= Z_MAX * se,
                           f"p_hat {row['p_hat']} vs {p:.6g}, se {se:.3g}")
        self.check_rerun("sup-t1", "smallball.csv")

    def metrics(self):
        n = self.size["n"]
        paths = len(self.runs) * n
        times = self.untraced_times()
        t1 = [paths / (t["sup-t1"] + t["l2-t1"]) for t in times]
        tp = [paths / (t[f"sup-t{self.threads[1]}"] + t[f"l2-t{self.threads[1]}"])
              for t in times]
        return {
            "mc_paths_per_s": (_median(t1), "1/s", "higher"),
            "mc_paths_per_s_par": (_median(tp), "1/s", "higher"),
        }


# ====================================================================== #

#: entropy_log_gap and tsirelson_lower_ratio of the full-size bounds
#: workload when the benchmark was defined; a looser bound fails a check
REFERENCE_ENTROPY_LOG_GAP = 188.84261798506535
REFERENCE_TSIRELSON_LOWER_RATIO = 0.06229045471785117


class Bounds(Workload):
    name = "bounds"

    SPECTRA = ("discrete", "continuous")

    def __init__(self, *args):
        super().__init__(*args)
        self.results: dict = {}

    def _cli(self, label, argv, out) -> None:
        # bound commands use no randomness: a fixed --seed keeps the
        # manifests independent of the workload seed
        self.cli(label, argv + ["--seed", "0", "--out", self.path(out)])

    def warm_up(self) -> None:
        for argv in (
            ["tsirelson", "--spectrum", "continuous", "--nu", "1", "--r", "1e-5"],
            ["entropy", "--nu", "1", "--K", "1", "--eps", "0.5"],
            ["l2-exact", "--nu", "1", "--K", "2", "--r", "0.5"],
            ["g-certify", "--gamma", "0.5", "--t-max", "100"],
        ):
            if self.sd.cli.main(argv + ["--seed", "0", "--out", self.path("warm")]) != 0:
                raise RuntimeError(f"warm-up {argv[0]} failed")

    def run_pass(self, p: int) -> None:
        s, sd = self.size, self.sd
        times = {}
        outs = []

        t0 = perf_counter()
        for sp in self.SPECTRA:
            for nu in s["nus"]:
                out = f"ts-{sp}-{nu}"
                self._cli(f"tsirelson {sp} nu={nu}",
                          ["tsirelson", "--spectrum", sp, "--nu", str(nu),
                           "--r", _floats(s["radii"])], out)
                outs.append(out)
        for nu in (1.0, 2.0):
            out = f"tsc-{nu}"
            self._cli(f"tsirelson constant nu={nu}",
                      ["tsirelson", "--spectrum", "discrete", "--nu", str(nu),
                       "--r", repr(s["r_const"])], out)
            outs.append(out)
        times["tsirelson"] = perf_counter() - t0

        t0 = perf_counter()
        sweep = []
        for sp in self.SPECTRA:
            for nu in s["nus"]:
                for row in _rows(_read(self.path(f"ts-{sp}-{nu}", "tsirelson.csv"))):
                    cfg = sd.tsirelson.TsirelsonConfig(
                        nu, sp, float(row["l_used"]), row["convention"])
                    rep = self.op(f"certificate {sp} nu={nu} r={row['r']}",
                                  sd.tsirelson.uncorrelated_certificate, cfg)
                    sweep.append((sp, nu, row, rep))
        times["certificate"] = perf_counter() - t0

        t0 = perf_counter()
        for K in s["entropy_K"]:
            out = f"entropy-K{K}"
            self._cli(f"entropy K={K}",
                      ["entropy", "--nu", "1", "--K", str(K),
                       "--eps", _floats(s["eps"])], out)
            outs.append(out)
        times["entropy"] = perf_counter() - t0

        t0 = perf_counter()
        trunc = {}
        for nu in (0.5, 1.0):
            model = sd.spectra.continuous_nu(nu)
            trunc[nu] = []
            for eps in s["trunc_eps"]:
                inp = sd.rkhs.TruncationBoundInput(model, eps,
                                                   theta=3.0 ** (-1.0 / nu))
                res = self.op(f"truncation nu={nu} eps={eps:.3g}",
                              sd.rkhs.truncation_entropy_upper, inp)
                if res is not None:
                    trunc[nu].append((eps, res.bound_rate))
        times["truncation"] = perf_counter() - t0

        t0 = perf_counter()
        self._cli("l2-exact", ["l2-exact", "--nu", "1", "--K", "40",
                               "--r", _floats(s["l2_radii"])], "l2-exact")
        outs.append("l2-exact")
        times["l2_exact"] = perf_counter() - t0

        t0 = perf_counter()
        for g in s["gammas"]:
            out = f"g-{g}"
            self._cli(f"g-certify gamma={g}",
                      ["g-certify", "--gamma", str(g),
                       "--t-max", str(s["g_t_max"])], out)
            outs.append(out)
        times["gcertify"] = perf_counter() - t0

        t0 = perf_counter()
        for sp in self.SPECTRA:
            for nu in s["nus"]:
                rows = [f"{r[2]['r']},{r[2]['phi_lower']}" for r in sweep
                        if r[0] == sp and r[1] == nu]
                fin = self.path(f"fit-input-{sp}-{nu}.csv")
                Path(fin).write_text("r,phi\n" + "\n".join(rows) + "\n")
                out = f"fit-{sp}-{nu}"
                self._cli(f"fit {sp} nu={nu}",
                          ["fit", "--input", fin, "--beta", "fixed:0"], out)
                outs.append(out)
        trunc_fit = {nu: self.op(f"truncation fit nu={nu}", sd.ratefit.fit,
                                 pts, beta_mode=("fixed", 0.0))
                     for nu, pts in trunc.items()}
        times["fit"] = perf_counter() - t0

        self.stage_times.append(times)
        self.record_outputs(p, outs)
        if p == 0:
            self.results = {"sweep": sweep, "trunc_fit": trunc_fit}

    def _sweep_ratio(self) -> float:
        ratios = [float(row["phi_lower"]) / abs(math.log(float(row["r"])))
                  ** (1.0 + 1.0 / nu) for _, nu, row, _ in self.results["sweep"]]
        return statistics.fmean(ratios) if ratios else math.nan

    def _entropy_gap(self) -> float:
        gap = 0.0
        for K in self.size["entropy_K"]:
            for row in _rows(_read(self.path(f"entropy-K{K}", "entropy.csv"))):
                gap += float(row["upper"]) - float(row["lower"])
        return gap

    def finish(self) -> None:
        s, sd = self.size, self.sd
        for nu in (1.0, 2.0):
            rows = _rows(_read(self.path(f"tsc-{nu}", "tsirelson.csv")))
            ratio = math.nan
            if rows:
                r = float(rows[0]["r"])
                ratio = float(rows[0]["phi_lower"]) / abs(math.log(r)) \
                    ** (1.0 + 1.0 / nu) / sd.tsirelson.asymptotic_constant(nu)
            self.check(f"tsirelson constant nu={nu} within 5% at r={s['r_const']}",
                       abs(ratio - 1.0) <= 0.05, f"ratio to constant {ratio:.6g}")
        sweep = self.results.get("sweep", [])
        self.check("tsirelson sweep complete",
                   len(sweep) == 2 * len(s["nus"]) * len(s["radii"]),
                   f"{len(sweep)} bounds")
        for sp, nu, row, rep in sweep:
            self.check(f"certificate {sp} nu={nu} r={row['r']} passes",
                       rep is not None and rep.passed,
                       "" if rep is None else f"max |R| {rep.max_abs:.3g}")
        for K in s["entropy_K"]:
            rows = _rows(_read(self.path(f"entropy-K{K}", "entropy.csv")))
            self.check(f"entropy K={K}: one bracket per epsilon",
                       len(rows) == len(s["eps"]))
            for row in rows:
                lo, hi = float(row["lower"]), float(row["upper"])
                self.check(f"entropy K={K} eps={row['epsilon']}: H_lower <= H_upper",
                           lo <= hi, f"[{lo:.6g}, {hi:.6g}]")
        for sp in self.SPECTRA:
            for nu in s["nus"]:
                fit = json.loads(_read(self.path(f"fit-{sp}-{nu}", "fit.json")) or b"{}")
                gamma = fit.get("gamma")
                self.check(f"fit {sp} nu={nu}: gamma within 0.03 of 1+1/nu",
                           gamma is not None and abs(gamma - (1.0 + 1.0 / nu)) <= 0.03,
                           f"gamma {gamma}")
        for nu, fit in self.results.get("trunc_fit", {}).items():
            gamma = None if fit is None else fit.gamma
            self.check(f"truncation fit nu={nu}: gamma within 0.05 of 1+1/nu",
                       gamma is not None and abs(gamma - (1.0 + 1.0 / nu)) <= 0.05,
                       f"gamma {gamma}")
        rows = _rows(_read(self.path("l2-exact", "l2_exact.csv")))
        phi = [float(r["phi"]) for r in sorted(rows, key=lambda r: float(r["r"]))]
        self.check("l2-exact: phi finite and decreasing in r",
                   len(phi) == len(s["l2_radii"])
                   and all(math.isfinite(x) for x in phi)
                   and all(a > b for a, b in zip(phi, phi[1:])), str(phi))
        for g in s["gammas"]:
            cert = json.loads(_read(self.path(f"g-{g}", "g_certify.json")) or b"{}")
            ok = (cert.get("theta_G", 0.0) > 0.0 and cert.get("bounded_by_one")
                  and cert.get("decay_exponent", -math.inf)
                  >= 1.0 / (1.0 + g) - 0.1)
            self.check(f"g-certify gamma={g}: theta_G > 0, |G| <= 1, decay",
                       ok, json.dumps(cert, sort_keys=True))
        if s["reference"]:
            gap, ratio = self._entropy_gap(), self._sweep_ratio()
            self.check("entropy brackets not looser than the reference",
                       gap <= REFERENCE_ENTROPY_LOG_GAP * (1.0 + 1e-9),
                       f"gap {gap!r} vs {REFERENCE_ENTROPY_LOG_GAP!r}")
            self.check("tsirelson bounds not weaker than the reference",
                       ratio >= REFERENCE_TSIRELSON_LOWER_RATIO * (1.0 - 1e-9),
                       f"ratio {ratio!r} vs {REFERENCE_TSIRELSON_LOWER_RATIO!r}")
        for sub, f in (("ts-discrete-1.0", "tsirelson.csv"),
                       ("l2-exact", "l2_exact.csv"),
                       (f"g-{s['gammas'][0]}", "g_certify.json"),
                       ("fit-discrete-1.0", "fit.json")):
            self.check_rerun(sub, f)

    def metrics(self):
        def stage(name):
            return _median([t[name] for t in self.untraced_times()])

        return {
            "tsirelson_s": (stage("tsirelson"), "s", "lower"),
            "entropy_s": (stage("entropy"), "s", "lower"),
            "l2_exact_s": (stage("l2_exact"), "s", "lower"),
            "gcertify_s": (stage("gcertify"), "s", "lower"),
            "entropy_log_gap": (self._entropy_gap(), "nats", "lower"),
            "tsirelson_lower_ratio": (self._sweep_ratio(), "ratio", "higher"),
        }


# ====================================================================== #


#: a defect of the library that the continuous-sim variance checks show:
#: when the circulant embedding is accepted, gen_continuous keeps the real
#: part of fft(sqrt(lam/(2M)) z), so Var X(t) is R(0)/2 (ROADMAP, open item
#: 2).  The checks of that branch are made on every run and reported by name.
CIRCULANT_DEFECT = "circulant branch gives Var X(t) = R(0)/2 (ROADMAP open item 2)"


class ContinuousSim(Workload):
    name = "continuous-sim"

    def __init__(self, *args):
        super().__init__(*args)
        # per key label, one entry per path: (nu, dt, mean of x(t)^2 and
        # mean of x(t)*x(t+dt) over the grid); the process is stationary, so
        # these estimate R(0) and R(dt)
        self.var_res: dict[str, list] = {}
        self.lag_res: dict[str, list] = {}
        self.first_paths: dict[str, list] = {}
        self.methods: dict[str, set] = {}
        self.cv_values: list[np.ndarray] = []
        self._cov_cache: dict = {}

    def _key_grid(self, key, p: int):
        # each pass uses a fresh grid per key (t_max stretched by p/1000),
        # so the first call of every pass is a cold one
        t_max, n_points = key[2], key[3]
        return self.sd.pathgen.GridSpec(0.0, t_max * (1.0 + p / 1000.0), n_points)

    def warm_up(self) -> None:
        # keys that the passes never use: continuous-nu(2) on two grids
        pg, model = self.sd.pathgen, self.sd.spectra.continuous_nu(2.0)
        for t_max in (10.0, 1.0):
            pg.gen_continuous(model, pg.GridSpec(0.0, t_max, 8), self.seed, 0)
        pg.continuous_values(model, np.array([0.0, 0.5]), self.seed, 16)

    def run_pass(self, p: int) -> None:
        sd = self.sd
        cold = warm = 0.0
        warm_calls = 0
        for key in self.size["keys"]:
            label, nu, _, _, count = key
            model = sd.spectra.continuous_nu(nu)
            grid = self._key_grid(key, p)
            for i in range(count):
                t0 = perf_counter()
                sample = self.op(f"gen_continuous {label} path {p * count + i}",
                                 sd.pathgen.gen_continuous, model, grid,
                                 self.seed, p * count + i)
                dt = perf_counter() - t0
                if i == 0:
                    cold += dt
                else:
                    warm += dt
                    warm_calls += 1
                if sample is None:
                    continue
                x = sample.values
                self.var_res.setdefault(label, []).append(
                    (nu, 0.0, float(np.mean(x * x))))
                self.lag_res.setdefault(label, []).append(
                    (nu, grid.spacing, float(np.mean(x[:-1] * x[1:]))))
                self.methods.setdefault(label, set()).add(sample.meta.get("method"))
                if p == 0:
                    self.first_paths.setdefault(label, []).append(x)
        t0 = perf_counter()
        cv = self.size["cv"]
        vals = self.op("continuous_values batch", sd.pathgen.continuous_values,
                       sd.spectra.continuous_nu(cv["nu"]), np.array(cv["times"]),
                       self.seed, cv["n"], offset=p * cv["n"])
        cv_s = perf_counter() - t0
        if vals is not None:
            self.cv_values.append(vals)
        self.stage_times.append({"cold": cold, "warm": warm,
                                 "warm_calls": warm_calls, "cv": cv_s})

    def _cov(self, nu: float, t: float) -> float:
        k = (nu, t)
        if k not in self._cov_cache:
            self._cov_cache[k] = self.sd.spectra.covariance(
                self.sd.spectra.continuous_nu(nu), t).value
        return self._cov_cache[k]

    def finish(self) -> None:
        sd = self.sd
        for key in self.size["keys"]:
            label, nu = key[0], key[1]
            methods = "/".join(sorted(m for m in self.methods.get(label, ()) if m))
            defect = CIRCULANT_DEFECT if "circulant" in methods else None
            for what, res in (("Var X(t)", self.var_res),
                              ("Cov X(t),X(t+dt)", self.lag_res)):
                samples = np.array([v - self._cov(n, t) for n, t, v in res.get(label, [])])
                ok, detail = _within_se(samples, 0.0)
                self.check(f"{label} [{methods}]: {what} within {Z_MAX:g} SE of "
                           "spectra.covariance", ok, "residual " + detail,
                           known_defect=defect)
            first = self.first_paths.get(label)
            if first:
                again = self.op(f"gen_continuous {label} path 0 again",
                                sd.pathgen.gen_continuous,
                                sd.spectra.continuous_nu(nu), self._key_grid(key, 0),
                                self.seed, 0)
                self.check(f"{label}: path 0 reproduces bit-identically",
                           again is not None
                           and again.values.tobytes() == first[0].tobytes())
                self.digests[f"{label}/paths"] = _sha(b"".join(
                    x.tobytes() for x in first))
        cv = self.size["cv"]
        if self.cv_values:
            vals = np.concatenate(self.cv_values)
            self.digests["continuous_values/batch0"] = _sha(self.cv_values[0].tobytes())
            for j, t in enumerate(cv["times"]):
                ok, detail = _within_se(vals[:, 0] * vals[:, j],
                                         self._cov(cv["nu"], float(t)))
                self.check(f"continuous_values nu={cv['nu']}: Cov X(0),X({t}) "
                           f"within {Z_MAX:g} SE of spectra.covariance", ok, detail)
        else:
            self.check("continuous_values batch produced values", False)

    def metrics(self):
        st = self.untraced_times()
        return {
            "simulate_paths_per_s": (_median([t["warm_calls"] / t["warm"]
                                              for t in st if t["warm"] > 0]),
                                     "1/s", "higher"),
            "simulate_cold_s": (_median([t["cold"] for t in st]), "s", "lower"),
        }


WORKLOADS = {w.name: w for w in (MonteCarloFourier, Bounds, ContinuousSim)}

#: input sizes; "full" is what the benchmark runs, "tiny" is for the self-test
SIZES = {
    "full": {
        "mc-fourier": {"n": 100_000, "grid": 1024, "warm_n": 2_000,
                       "r_sup": [0.6, 0.8, 1.0, 1.5, 2.0],
                       "r_l2": [0.5, 1.0, 2.0]},
        "bounds": {"nus": [0.5, 1.0, 2.0], "radii": [1e-20, 1e-50, 1e-80],
                   "r_const": 1e-100, "entropy_K": [4, 8],
                   "eps": [0.5, 0.3, 0.2],
                   "trunc_eps": [float(e) for e in np.geomspace(1e-12, 1e-3, 8)],
                   "l2_radii": [float(r) for r in np.geomspace(1e-10, 1e-1, 10)],
                   "gammas": [0.5, 0.25], "g_t_max": 1e4,
                   "reference": True},
        "continuous-sim": {
            # (label, nu, t_max, n_points, paths per pass)
            "keys": [("continuous-nu(1)@[0,10]x16", 1.0, 10.0, 16, 40),
                     ("continuous-nu(0.5)@[0,10]x16", 0.5, 10.0, 16, 20),
                     ("continuous-nu(0.5)@[0,1]x64", 0.5, 1.0, 64, 6),
                     ("continuous-nu(1)@[0,1]x64", 1.0, 1.0, 64, 12)],
            "cv": {"nu": 0.5, "times": [0.0, 1.0 / 63.0, 0.25, 1.0], "n": 1000},
        },
    },
    "tiny": {
        "mc-fourier": {"n": 1_000, "grid": 64, "warm_n": 100,
                       "r_sup": [1.0, 2.0], "r_l2": [1.0, 2.0]},
        "bounds": {"nus": [1.0], "radii": [1e-4, 1e-12], "r_const": 1e-100,
                   "entropy_K": [1], "eps": [0.5],
                   "trunc_eps": [1e-6, 1e-3], "l2_radii": [0.01, 0.1],
                   "gammas": [0.5], "g_t_max": 100.0,
                   "reference": False},
        "continuous-sim": {
            "keys": [("continuous-nu(1)@[0,10]x16", 1.0, 10.0, 16, 3),
                     ("continuous-nu(1)@[0,1]x16", 1.0, 1.0, 16, 3)],
            "cv": {"nu": 1.0, "times": [0.0, 0.25], "n": 16},
        },
    },
}
